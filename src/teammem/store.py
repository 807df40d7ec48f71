"""Persistent memory stores and topology-aware agent views.

On disk a store root looks like::

    root/
      store_meta.json              # schema version + topology + agent roster
      <owner>/episodic.jsonl       # episode log; owner is "shared" or an agent id
      <owner>/procedural.json      # procedure snapshot + consolidation watermarks

The topology is decided once, when the store opens, as two maps over the
roster: each agent's *episodic owner* (whose log holds its episodes) and its
*procedure owner* (whose store set holds its procedures and transactive tally).
Under ``local`` both are the agent, under ``shared`` both are "shared", and
under ``hybrid`` they are the agent and "shared". The owner directories, the
episodic owners whose watermarks a procedure snapshot holds and the owners
:meth:`MemoryStore.checkpoint_lag` lists derive from the two maps, and a view
resolves its two owners when it is built. Under ``hybrid`` every view sees
all profile aggregates and team patterns, but only its own agent's
collaboration history.

Episodes are never modified once stored, so they live in an append-only log,
``episodic.jsonl``, in append order. A flush appends only the lines added
since the previous flush. Reading a log rejects a malformed or truncated
(torn) line, a byte that is not UTF-8, a record whose agent's episodic owner
is not the log's, an episode id that an earlier line holds, a ``seq`` that
an earlier record of any log holds, and a team or task type that
:meth:`MemoryView.record_task` would reject, naming the file and the line.

The log is also a write-ahead log, and every line of it is a *task record*.
:meth:`MemoryView.record_task` stores one finished task (its episode and
procedure outcomes) as a single compact sorted-key JSON line: the episode
plus its ``task_type``, a store-wide sequence number ``seq`` and, when the
episode's ``related_procedures`` do not already say it, the
``procedures_used``. Appending that line is the task's commit point.
``procedural.json`` is a snapshot that names the last ``seq`` it includes, so
it may lag the log. It also holds the consolidation watermark of every
episodic owner whose procedures it keeps, so a consolidation pass and its
watermark land in one rename. Opening a store replays into it the task
records logged after it, all logs merged in ``seq`` order; it never takes a
record twice, and opening writes nothing. A flush appends the logs first
(the commit point); if that leaves any procedure snapshot dirty, it is a
checkpoint and rewrites every dirty snapshot.

Transactive state (agent profiles, collaboration histories, team patterns)
is not stored at all. Each procedure owner keeps a tally of its task records,
tasks and successes by (executor, team, task type), counted once per record
as it is logged or loaded; profiles and team patterns are read off the tally
and kept until the next record. A ``transactive.json`` left by an older
build is ignored.

Every other mutation (procedure upserts and removals, watermark moves)
marks its procedure snapshot dirty, and the snapshot is rewritten whole as
compact sorted-key JSON. Every write goes through :mod:`teammem.disk`: log
lines by ``append``, snapshots and meta by ``replace`` (temp file plus rename).

A snapshot spells each procedure's ``source_episodes`` as runs over lesson
classes. An episode's *class* is its log, its ``lessons`` tuple and its
``outcome.success``; a class's members are ordered by log position. The
sources become a list, sorted by first id, of entries that are either an
episode id (a lone source, or an id in no log) or a pair ``[first, last]``
standing for every member of one class from ``first`` to ``last``
inclusive. Each class's sources split into maximal runs of consecutive
members, so the spelling is exact and canonical for any set; consolidation
takes a prefix of each class, which is one pair, so the snapshot's size
follows the number of classes, not the length of the history. Pairs are
decoded once every log is read, and a pair that names an id in no log, ends
in two classes or runs backwards fails the open.

All writes go through an agent's :class:`MemoryView` (single writer). Outside
a batch, each mutating call flushes before it returns (write-through). Inside
:meth:`MemoryView.batch`, mutating calls only queue log lines and mark
snapshots dirty, and leaving the outermost batch writes each file once.

Only the current schema version is read; a store file of any other version
raises :class:`StoreError` naming the file, and nothing is rewritten.
"""

from __future__ import annotations

import collections
import contextlib
import copy
import enum
import itertools
import json
import os
import re
from dataclasses import dataclass, field, replace
from datetime import datetime, timezone
from pathlib import Path
from typing import Any, Iterable, Iterator, Sequence

from . import disk
from .types import (
    AgentProfile,
    CollabStats,
    Episode,
    Procedure,
    Row,
    TeamPattern,
    TypeStats,
    _at_least_one,
    _kind,
    _non_empty,
    _non_negative,
    _strings,
    canonical_team_key,
    check_object,
    check_rows,
    checked_record,
    from_dict,
    json_line,
    read_jsonl,
    to_dict,
)

SCHEMA_VERSION = 5
SHARED_OWNER = "shared"

# An episode's lesson class within its log: its lessons and its success flag.
LessonClass = tuple[tuple[str, ...], bool]


class StoreError(Exception):
    """Raised for corrupt files, duplicate writes, or topology mismatches."""


class Topology(str, enum.Enum):
    LOCAL = "local"
    SHARED = "shared"
    HYBRID = "hybrid"


def _now_iso() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


@dataclass
class StoreSet:
    """All memory of one owner: episodic log, procedures, transactive tally.

    ``episodic`` is append-only: only :class:`MemoryStore` writes it, by
    loading the log and by :meth:`MemoryStore.add_episode`. The derived
    state below relies on this and is never checked against it.
    ``consolidation_watermark`` records the episodic length at the last
    consolidation; ``next_procedure_seq`` feeds deterministic procedure ids.
    ``tally`` counts ``[tasks, successes]`` by (executor, team as the record
    spells it, task type), keys in ``seq`` order of their first record, over
    every task record whose executor's procedures this set holds.
    ``profiles`` and ``team_patterns`` are read off it by
    :meth:`MemoryStore.transactive` and kept until the next record; both
    stay empty on a set that is no procedure owner.
    ``class_numbers``, ``class_members`` and ``episode_class`` index
    ``episodic`` by lesson class, a ``(lessons, outcome.success)`` pair: each
    class's number in order of first appearance, each class's episode ids in
    log order, and every episode id's class number. Filled on load and on
    each append, they are the one grouping of the log by lessons, serving the
    duplicate check, the snapshot spelling of sources and ``cluster_state``,
    consolidation's single-link clustering of the classes (extended over the
    classes added since its last pass).
    ``episodic_index`` is retrieval's :class:`~teammem.retrieval.EpisodicIndex`
    over ``episodic``: the memory items in order, their vectors under a bucket
    index, their importances and its z-scores. It is bound to the embedder
    it was built with, started on the first episodic fallback, extended by
    the episodes appended since the last one, and started afresh for another
    embedder. None of these is persisted.
    """

    episodic: list[Episode] = field(default_factory=list)
    procedural: dict[str, Procedure] = field(default_factory=dict)
    profiles: dict[str, AgentProfile] = field(default_factory=dict)
    team_patterns: dict[tuple[str, ...], TeamPattern] = field(default_factory=dict)
    consolidation_watermark: int = 0
    next_procedure_seq: int = 1
    tally: dict[tuple[str, tuple[str, ...], str], list[int]] = field(
        default_factory=dict, compare=False, repr=False
    )
    cluster_state: Any = field(default=None, compare=False, repr=False)
    episode_class: dict[str, int] = field(default_factory=dict, compare=False, repr=False)
    class_members: list[list[str]] = field(default_factory=list, compare=False, repr=False)
    class_numbers: dict[LessonClass, int] = field(default_factory=dict, compare=False, repr=False)
    episodic_index: Any = field(default=None, compare=False, repr=False)

    def index_classes(self, episodes: Iterable[Episode]) -> None:
        """Add the next episodes of ``episodic``, in order, to the lesson-class index."""
        for episode in episodes:
            key = (episode.lessons, episode.outcome.success)
            number = self.class_numbers.get(key)
            if number is None:
                number = self.class_numbers[key] = len(self.class_members)
                self.class_members.append([])
            episode_id = episode.episode_id
            self.episode_class[episode_id] = number
            self.class_members[number].append(episode_id)


# A task record read back from an episode log, less its seq: the episode, its
# task type and the procedures it used. A plain tuple: loading builds one per
# log line, and a NamedTuple costs more to build.
_TaskRecord = tuple[Episode, str, tuple[str, ...]]


def _dump_json(path: Path, document: dict[str, Any]) -> None:
    disk.replace(path, json_line(document))


_topology = _kind(
    (lambda v: any(v == t for t in Topology), "must be one of local, shared, hybrid; got {!r}"),
    convert=Topology,
)

# The rows of each store document, besides its schema_version. A task record
# is an episode's rows plus these; its procedures_used is left out when the
# episode's related_procedures say it.
_TASK_ROWS: tuple[Row, ...] = (
    ("seq", "seq", int, _at_least_one),
    ("task_type", "task_type", str, None),
    ("procedures_used", "procedures_used", _strings, None),
)
_LINE_ROWS = Episode.ROWS + _TASK_ROWS
_META_ROWS: tuple[Row, ...] = (
    ("topology", "topology", _topology, None),
    ("agents", "agents", _strings, _non_empty),
)
# Each entry of procedures is a procedure's object, its source_episodes
# spelled as lesson-class runs (see _encode_sources).
_list = _kind((lambda v: type(v) is list, "must be a list, got {!r}"))
_counts = _kind((
    lambda v: type(v) is dict and all(type(n) is int for n in v.values()),
    "must be an object of integers, got {!r}",
))
_SNAPSHOT_ROWS: tuple[Row, ...] = (
    ("seq", "seq", int, _non_negative),
    ("next_procedure_seq", "next_procedure_seq", int, _at_least_one),
    ("procedures", "procedures", _list, None),
    ("watermarks", "watermarks", _counts, None),
)
_PROCEDURE_NUMBER = re.compile(r"proc-([0-9]+)")


def _load_json(path: Path, rows: Sequence[Row]) -> dict[str, Any]:
    """Read a store document: a JSON object of the current schema holding exactly ``rows``.

    Each value is checked, and stored in its kind's form, by its row; the
    schema_version is dropped. Anything else raises :class:`StoreError`
    naming the file (and the key).
    """
    try:
        document = json.loads(path.read_text(encoding="utf-8"))
    except ValueError as exc:  # not UTF-8, or not JSON
        raise StoreError(f"corrupt JSON in {path}: {exc}") from exc
    if not isinstance(document, dict):
        raise StoreError(f"{path} is not a JSON object")
    version = document.pop("schema_version", None)
    if version != SCHEMA_VERSION:
        raise StoreError(f"unsupported schema_version in {path}: {version!r}")
    try:
        check_object(rows, document)
    except KeyError as exc:
        raise StoreError(f"{path} lacks {exc.args[0]}") from None
    except ValueError as exc:
        raise StoreError(f"{path}: {exc}") from None
    return document


def _encode_sources(sources: Iterable[str], logs: Sequence[StoreSet]) -> list[Any]:
    """Spell a source set as snapshot entries: lone ids and ``[first, last]`` runs.

    Each lesson class's sources split into maximal runs of consecutive
    members; a run of one, and an id in none of ``logs``, is a bare id. The
    entries are sorted by first id, so equal sets spell alike.
    """
    sources = frozenset(sources)
    held = sources.__contains__

    def runs_in(members: list[str]) -> list[list[str]]:
        return [list(run) for is_held, run in itertools.groupby(members, held) if is_held]

    # Consolidation takes a prefix of each class, most often all of it, so its
    # sources lie in the classes whose first member is a source; any other
    # source is looked up id by id.
    runs: list[list[str]] = []
    for log in logs:
        for members in log.class_members:
            if held(members[0]):
                whole = held(members[-1]) and sources.issuperset(members)
                runs += [members] if whole else runs_in(members)
    left = sources.difference(*runs)
    for log in logs:
        if not left:
            break
        found = len(runs)
        for number in set(map(log.episode_class.get, left)) - {None}:
            runs += runs_in(log.class_members[number])
        left = left.difference(*runs[found:])
    entries = [run[0] if len(run) == 1 else [run[0], run[-1]] for run in runs]
    return sorted([*entries, *left], key=lambda entry: entry if type(entry) is str else entry[0])


def _decode_sources(entries: list[Any], logs: Sequence[StoreSet]) -> list[str]:
    """The episode ids that a snapshot's ``source_episodes`` entries spell."""
    ids: list[str] = []
    for entry in entries:
        if type(entry) is str:
            ids.append(entry)
            continue
        if type(entry) is not list or len(entry) != 2 or not all(type(end) is str for end in entry):
            raise ValueError(f"source entry {entry!r} is neither an id nor a pair of ids")
        first, last = entry
        log = next((log for log in logs if first in log.episode_class), None)
        if log is None or not any(last in other.episode_class for other in logs):
            raise ValueError(f"source pair {entry!r} names an id in no log")
        number = log.episode_class[first]
        if log.episode_class.get(last) != number:
            raise ValueError(f"source pair {entry!r} ends in two lesson classes")
        members = log.class_members[number]
        start, stop = members.index(first), members.index(last)
        if start > stop:
            raise ValueError(f"source pair {entry!r} runs backwards")
        ids += members[start : stop + 1]
    return ids


class MemoryStore:
    """Owns every :class:`StoreSet` under one root directory."""

    def __init__(self, root: Path, topology: Topology, agents: list[str]) -> None:
        self.root = Path(root)
        self._meta_path = self.root / "store_meta.json"
        # A store's roster is the one its meta holds, or must equal it.
        where = f"{self._meta_path}: " if self._meta_path.exists() else ""
        try:
            check_rows(_META_ROWS, {"topology": topology, "agents": agents})
        except ValueError as exc:
            raise StoreError(f"{where}{exc}") from None
        if len(set(agents)) != len(agents):
            raise StoreError(f"{where}duplicate agent ids in roster: {agents}")
        # agent ids name owner directories: one path component each, not "shared" under hybrid
        reserved = {"", ".", ".."} | ({SHARED_OWNER} if topology is Topology.HYBRID else set())
        for agent in agents:
            if agent in reserved or {os.sep, os.altsep} & set(agent):
                raise StoreError(f"{where}agent id {agent!r} cannot name its own owner directory")
        self.topology = topology
        self.agents = list(agents)
        # The agents a task record's team may name under hybrid, where only an
        # agent's own view reads its collaboration history; any agent elsewhere.
        self._teammates = frozenset(agents) if topology is Topology.HYBRID else None
        # Each agent's two owners. The owners (agents first) and each procedure
        # owner's covered episodic owners (sorted) derive from them, in roster order.
        self._episodic_owner = {
            agent: SHARED_OWNER if topology is Topology.SHARED else agent for agent in agents
        }
        self._procedure_owner = {
            agent: agent if topology is Topology.LOCAL else SHARED_OWNER for agent in agents
        }
        covered: dict[str, set[str]] = {}
        for agent, owner in self._procedure_owner.items():
            covered.setdefault(owner, set()).add(self._episodic_owner[agent])
        self._covered = {owner: sorted(logs) for owner, logs in covered.items()}
        self._owners = list(dict.fromkeys([*self._episodic_owner.values(), *covered]))
        # Dirty procedure snapshots, and each owner's log lines not yet appended.
        self._dirty: set[str] = set()
        self._batch_depth = 0
        self._pending: dict[str, list[str]] = {}
        # Task records: the last seq handed out, and how many records each
        # procedure snapshot on disk lacks.
        self._seq = 0
        self._lag: dict[str, int] = {}
        # Each owner's episode log, and each procedure owner's snapshot, joined once.
        self._log_paths = {o: self.root / o / "episodic.jsonl" for o in self._owners}
        self._snapshot_paths = {o: self.root / o / "procedural.json" for o in self._covered}
        self._load_or_init()

    # -- load / save ---------------------------------------------------------

    def _load_or_init(self) -> None:
        if self._meta_path.exists():
            meta = _load_json(self._meta_path, _META_ROWS)
            if meta["topology"] is not self.topology:
                raise StoreError(
                    f"{self._meta_path}: store was created with topology "
                    f"{meta['topology'].value!r}, reopened as {self.topology.value!r}"
                )
            if sorted(meta["agents"]) != sorted(self.agents):
                raise StoreError(
                    f"{self._meta_path}: store was created for agents "
                    f"{list(meta['agents'])!r}, reopened with {sorted(self.agents)!r}"
                )
        else:
            self._write_meta()

        expected = set(self._owners)
        for entry in sorted(self.root.iterdir()):
            if entry.is_dir() and entry.name not in expected:
                raise StoreError(
                    f"unexpected owner directory {entry} for topology "
                    f"{self.topology.value} and the roster in {self._meta_path}"
                )

        records: dict[int, _TaskRecord] = {}
        checkpoints: dict[str, int] = {}
        self._sets: dict[str, StoreSet] = {owner: StoreSet() for owner in self._owners}
        for owner in self._owners:
            self._load_log(owner, records)
        for owner in self._covered:
            self._load_snapshot(owner, checkpoints, max(records, default=0))
        self._replay(records, checkpoints)

    def _write_meta(self) -> None:
        meta = {"topology": self.topology, "agents": sorted(self.agents)}
        _dump_json(self._meta_path, {"schema_version": SCHEMA_VERSION, **meta})

    def _load_log(self, owner: str, records: dict[int, _TaskRecord]) -> None:
        """Read one owner's episode log into its store set; add its task records by seq."""
        store = self._sets[owner]
        log_path = self._log_paths[owner]
        if not log_path.exists():
            return

        def decode(d: Any) -> Episode:
            if type(d) is dict and "procedures_used" not in d:  # related_procedures say it
                d["procedures_used"] = d.get("related_procedures")
            check_object(_LINE_ROWS, d)
            seq, task_type, used = d.pop("seq"), d.pop("task_type"), d.pop("procedures_used")
            episode = checked_record(Episode, d)
            logs_to = self._episodic_owner.get(episode.agent_id)
            if logs_to is None:
                raise ValueError(
                    f"agent {episode.agent_id!r} is not on the roster in {self._meta_path}"
                )
            if logs_to != owner:
                raise ValueError(f"agent {episode.agent_id!r} does not log to {owner!r}")
            if episode.episode_id in store.episode_class:
                raise ValueError(f"episode id {episode.episode_id!r} repeats an earlier line")
            if seq in records:
                earlier = records[seq][0].episode_id
                raise ValueError(f"seq {seq} repeats the record of episode {earlier!r}")
            self.check_roster(episode.team_composition)
            records[seq] = (episode, task_type, used)
            store.index_classes([episode])
            return episode

        try:
            store.episodic = read_jsonl(log_path, decode)
        except ValueError as exc:
            raise StoreError(str(exc)) from exc

    def _load_snapshot(self, owner: str, checkpoints: dict[str, int], last_seq: int) -> None:
        """Read one owner's procedure snapshot, once every log is read.

        Its procedures go into the owner's store set and its watermarks into
        the sets they cover; the last seq it includes goes to ``checkpoints``.
        ``last_seq`` is the last seq any log holds.
        """
        path = self._snapshot_paths[owner]
        if not path.exists():
            return
        store = self._sets[owner]
        doc = _load_json(path, _SNAPSHOT_ROWS)
        bad = sorted(doc["watermarks"].keys() ^ set(self._covered[owner]))
        if bad:
            raise StoreError(f"{path} holds watermarks for the wrong owners: {bad}")
        logs = [self._sets[o] for o in self._covered[owner]]
        procedures = []
        try:
            for d in doc["procedures"]:
                if type(d) is dict and type(d.get("source_episodes")) is list:
                    d["source_episodes"] = _decode_sources(d["source_episodes"], logs)
                procedures.append(from_dict(Procedure, d))
        except (KeyError, TypeError, ValueError) as exc:
            # A source pair is read against the logs, so a damaged log can fail it.
            against = ", ".join(str(self._log_paths[o]) for o in self._covered[owner])
            raise StoreError(
                f"{path}: procedures holds a malformed entry: {exc!r} (read against {against})"
            ) from exc
        # It must agree with itself and with the logs; a gap in seq is not checked.
        ids = [procedure.procedure_id for procedure in procedures]
        if len(set(ids)) != len(ids):
            repeated = sorted(i for i, n in collections.Counter(ids).items() if n > 1)
            raise StoreError(f"{path}: procedures lists {repeated} more than once")
        seq, after = doc["seq"], doc["next_procedure_seq"]
        numbers = [int(found[1]) for i in ids if (found := _PROCEDURE_NUMBER.fullmatch(i))]
        top = max(numbers, default=0)
        lengths = {o: len(self._sets[o].episodic) for o in self._covered[owner]}
        for holds, message in [
            (seq <= last_seq, f"seq {seq} is past the last logged seq {last_seq}"),
            (after > top, f"next_procedure_seq {after} is not past proc-{top:05d}"),
            *((0 <= mark <= lengths[o], f"watermark {mark} of {o!r} is outside its log of "
               f"{lengths[o]} records") for o, mark in doc["watermarks"].items()),
        ]:
            if not holds:
                raise StoreError(f"{path}: {message}")
        store.procedural = dict(zip(ids, procedures))
        store.next_procedure_seq = after
        checkpoints[owner] = seq
        for covered, watermark in doc["watermarks"].items():
            self._sets[covered].consolidation_watermark = watermark

    def _replay(self, records: dict[int, _TaskRecord], checkpoints: dict[str, int]) -> None:
        """Tally every task record in ``seq`` order; bump procedures only past each snapshot."""
        self._seq = max(records, default=0)  # no snapshot's seq is past it
        for seq in sorted(records):
            episode, task_type, used = records[seq]
            owner = self._procedure_owner[episode.agent_id]
            if checkpoints.get(owner, 0) >= seq:
                used = ()
            try:
                self._apply_task(episode, task_type, used)
            except StoreError as exc:
                log = self._log_paths[self._episodic_owner[episode.agent_id]]
                raise StoreError(
                    f"{log}: replaying task record seq {seq} into "
                    f"{self._snapshot_paths[owner]}: {exc}"
                ) from exc

    def _document(self, owner: str) -> dict[str, Any]:
        store = self._sets[owner]
        logs = [self._sets[o] for o in self._covered[owner]]

        def spelled(procedure: Procedure) -> dict[str, Any]:
            # A procedure's attributes are its row keys; its sources spell as runs.
            sources = _encode_sources(procedure.source_episodes, logs)
            return {**vars(procedure), "source_episodes": sources}

        return {
            "schema_version": SCHEMA_VERSION,
            "seq": self._seq,
            "next_procedure_seq": store.next_procedure_seq,
            "procedures": [spelled(store.procedural[pid]) for pid in sorted(store.procedural)],
            "watermarks": {o: self._sets[o].consolidation_watermark for o in self._covered[owner]},
        }

    def mark_dirty(self, owner: str) -> None:
        self._dirty.add(owner)

    # -- task records ----------------------------------------------------------

    def add_episode(self, owner: str, episode: Episode, task: dict[str, Any]) -> None:
        """Append a validated episode to the owner's log as the next task record, and apply it.

        ``task`` holds its ``task_type`` and ``procedures_used``, checked by their rows.
        """
        # it may raise, so it runs before any change
        self._apply_task(episode, task["task_type"], task["procedures_used"])
        store = self._sets[owner]
        store.episodic.append(episode)
        store.index_classes([episode])
        self._seq += 1
        record = {**to_dict(episode), **task, "seq": self._seq}
        if sorted(task["procedures_used"]) == record["related_procedures"]:
            del record["procedures_used"]
        self._pending.setdefault(owner, []).append(json_line(record))

    def check_roster(self, team: tuple[str, ...]) -> None:
        """Raise :class:`ValueError` if a team names an agent off the roster under ``hybrid``."""
        if self._teammates is not None and not self._teammates.issuperset(team):
            outside = sorted(set(team) - self._teammates)
            raise ValueError(f"team composition names agents outside the roster: {outside}")

    def _apply_task(self, episode: Episode, task_type: str, procedures_used: Sequence[str]) -> None:
        """Tally a task record, and count its outcome on each procedure it used.

        Every bump is built and checked first: a record that names an unknown
        procedure, or whose timestamp precedes a used procedure's
        ``created_at``, raises :class:`StoreError` and changes nothing.
        """
        owner = self._procedure_owner[episode.agent_id]
        store = self._sets[owner]
        success = episode.outcome.success
        bumped: dict[str, Procedure] = {}
        for procedure_id in procedures_used:
            procedure = bumped.get(procedure_id) or store.procedural.get(procedure_id)
            if procedure is None:
                raise StoreError(f"unknown procedure_id {procedure_id!r} in {owner!r} store")
            try:
                # every field comes from a checked record, so only the cross-field rule runs
                bumped[procedure_id] = checked_record(Procedure, {
                    **vars(procedure),
                    "successes": procedure.successes + int(success),
                    "failures": procedure.failures + int(not success),
                    "updated_at": episode.timestamp,
                })
            except ValueError as exc:
                raise StoreError(f"bumping {procedure_id!r} in {owner!r} store: {exc}") from None
        key = (episode.agent_id, episode.team_composition, task_type)
        counts = store.tally.setdefault(key, [0, 0])
        counts[0] += 1
        counts[1] += success
        if store.team_patterns:  # read off the tally before this record
            store.profiles, store.team_patterns = {}, {}
        if bumped:
            store.procedural.update(bumped)
            self.add_lag(owner)

    def add_lag(self, owner: str) -> None:
        """Count one more task record that the owner's procedure snapshot lacks."""
        self._lag[owner] = self._lag.get(owner, 0) + 1

    def checkpoint_lag(self) -> dict[str, dict[str, int]]:
        """Task records logged past each procedure snapshot's checkpoint, by owner.

        Only the procedure owners are listed, in roster order.
        """
        return {owner: {"procedural": self._lag.get(owner, 0)} for owner in self._covered}

    def transactive(self, owner: str) -> StoreSet:
        """The owner's store set, with profiles and team patterns read off its tally.

        A record counts for its executor's task type, its canonical team's
        pattern, and the collaboration history of its executor with each
        partner and, outside ``local``, of each partner with its executor.
        Keys are sorted; task types and partners keep the ``seq`` order of
        their first record. The values are kept until the next record.
        """
        store = self._sets[owner]
        if store.team_patterns or not store.tally:  # each record makes a team pattern
            return store
        aggregates: dict[str, dict[str, list[int]]] = {}
        history: dict[str, dict[str, list[int]]] = {}
        patterns: dict[tuple[str, ...], dict[str, list[int]]] = {}
        for (executor, team, task_type), (tasks, successes) in store.tally.items():
            key = canonical_team_key(team)
            sides = [(executor, partner) for partner in key if partner != executor]
            if self.topology is not Topology.LOCAL:
                sides += [(partner, executor) for _, partner in sides]
            for table, item in [
                (aggregates.setdefault(executor, {}), task_type),
                (patterns.setdefault(key, {}), task_type),
                *((history.setdefault(subject, {}), other) for subject, other in sides),
            ]:
                counts = table.setdefault(item, [0, 0])
                counts[0] += tasks
                counts[1] += successes
        for agent in sorted(aggregates.keys() | history.keys()):
            types = {t: TypeStats(*counts) for t, counts in aggregates.get(agent, {}).items()}
            partners = {p: CollabStats(*counts) for p, counts in history.get(agent, {}).items()}
            store.profiles[agent] = AgentProfile(
                agent, types, partners,
                successes=sum(stats.successes for stats in types.values()),
                total_tasks=sum(stats.attempts for stats in types.values()),
            )
        for key in sorted(patterns):
            types = {t: TypeStats(*counts) for t, counts in patterns[key].items()}
            store.team_patterns[key] = TeamPattern(key, types)
        return store

    # -- flush -----------------------------------------------------------------

    def _append_log(self, owner: str) -> None:
        """Append the owner's pending episode-log lines."""
        disk.append(self._log_paths[owner], "".join(self._pending[owner]))
        del self._pending[owner]

    def _write_snapshot(self, owner: str) -> None:
        _dump_json(self._snapshot_paths[owner], self._document(owner))
        self._lag.pop(owner, None)

    def flush(self) -> None:
        """Write every pending change once.

        Logs are appended first (the commit point), then each dirty procedure
        snapshot, with one rename. A snapshot that only lags the log is not
        written, as opening replays what it lacks; its owner's next pass (in
        a sim, every ``consolidation.n`` of its tasks) rewrites it. A no-op
        when nothing changed, and deferred to the end of the outermost
        :meth:`batch` when called inside one.
        """
        if self._batch_depth:
            return
        for owner in sorted(self._pending):
            self._append_log(owner)
        for owner in sorted(self._dirty):
            self._write_snapshot(owner)
        self._dirty.clear()

    @contextlib.contextmanager
    def batch(self) -> Iterator[None]:
        """Defer flushes to the end of the block, then flush once.

        Batches nest; only leaving the outermost one flushes. It flushes
        also when the block raises, so whatever the block applied in memory
        reaches disk, as it would have outside a batch.
        """
        self._batch_depth += 1
        try:
            yield
        finally:
            self._batch_depth -= 1
            if not self._batch_depth:
                self.flush()

    def store_set(self, owner: str) -> StoreSet:
        return self._sets[owner]

    def views(self) -> dict[str, "MemoryView"]:
        return {agent: MemoryView(self, agent) for agent in self.agents}


def open_store(
    root: Path | str,
    topology: Topology | str | None = None,
    agents: Iterable[str] | None = None,
) -> dict[str, "MemoryView"]:
    """Open (or create) a store root and return one view per agent.

    ``topology`` and ``agents`` may be omitted when the root already holds a
    ``store_meta.json``; they are then read back from disk.
    """
    root = Path(root)
    meta_path = root / "store_meta.json"
    if topology is None or agents is None:
        if not meta_path.exists():
            raise StoreError(
                f"{meta_path} not found; pass topology and agents to create a store"
            )
        meta = _load_json(meta_path, _META_ROWS)
        topology = topology or meta["topology"]
        agents = agents or meta["agents"]
    store = MemoryStore(root, Topology(topology), list(agents))
    return store.views()


class MemoryView:
    """One agent's read/write window onto the stores its topology allows."""

    def __init__(self, store: MemoryStore, agent_id: str) -> None:
        if agent_id not in store.agents:
            raise StoreError(f"unknown agent {agent_id!r}; roster is {store.agents}")
        self._store = store
        self.agent_id = agent_id
        self._episodic_owner = store._episodic_owner[agent_id]
        self._procedure_owner = store._procedure_owner[agent_id]

    @property
    def topology(self) -> Topology:
        return self._store.topology

    def batch(self) -> contextlib.AbstractContextManager[None]:
        """One store flush at the end of the block; see :meth:`MemoryStore.batch`."""
        return self._store.batch()

    def procedure_owner(self) -> str:
        """Owner of procedures and the transactive tally: the agent under local, else shared."""
        return self._procedure_owner

    # -- reads ---------------------------------------------------------------

    def episodes(self) -> tuple[Episode, ...]:
        return tuple(self._store.store_set(self._episodic_owner).episodic)

    def episodic_store(self) -> StoreSet:
        """The live store set holding this view's episodes; not a copy.

        Its ``episodic`` list is append-only and written only by
        :class:`MemoryStore`; the derived indices on it rely on that, so a
        caller must not modify it.
        """
        return self._store.store_set(self._episodic_owner)

    def procedures(self) -> dict[str, Procedure]:
        return dict(self._store.store_set(self._procedure_owner).procedural)

    def get_procedure(self, procedure_id: str) -> Procedure | None:
        return self._store.store_set(self._procedure_owner).procedural.get(procedure_id)

    def profiles(self) -> dict[str, AgentProfile]:
        """Visible agent profiles by agent id.

        Under ``hybrid`` collaboration histories are private: the view's own
        agent keeps its profile whole, every other agent with a task shows an
        empty history, and one seen only as a partner is left out.
        """
        profiles = self._store.transactive(self._procedure_owner).profiles
        if self.topology is not Topology.HYBRID:
            return dict(profiles)
        return {
            aid: profile if aid == self.agent_id else replace(profile, collaboration_history={})
            for aid, profile in profiles.items()
            if aid == self.agent_id or profile.total_tasks > 0
        }

    def get_profile(self, agent_id: str) -> AgentProfile | None:
        return self.profiles().get(agent_id)

    def team_patterns(self) -> dict[tuple[str, ...], TeamPattern]:
        """Visible team patterns by canonical composition."""
        return dict(self._store.transactive(self._procedure_owner).team_patterns)

    def snapshot(self) -> StoreSet:
        """Deep copy of everything this view can currently see."""
        return StoreSet(
            episodic=list(self.episodes()),
            procedural=dict(self.procedures()),
            profiles=copy.deepcopy(self.profiles()),
            team_patterns=copy.deepcopy(self.team_patterns()),
            consolidation_watermark=self.consolidation_watermark(),
        )

    # -- consolidation bookkeeping --------------------------------------------

    def consolidation_watermark(self) -> int:
        return self._store.store_set(self._episodic_owner).consolidation_watermark

    def set_consolidation_watermark(self, value: int) -> None:
        owner = self._episodic_owner
        store = self._store.store_set(owner)
        if type(value) is not int or not 0 <= value <= len(store.episodic):
            raise StoreError(
                f"watermark {value!r} of {owner!r} is outside its log of "
                f"{len(store.episodic)} records"
            )
        store.consolidation_watermark = value
        self._store.mark_dirty(self._procedure_owner)
        self._store.flush()

    def allocate_procedure_id(self) -> str:
        owner = self._procedure_owner
        store = self._store.store_set(owner)
        pid = f"proc-{store.next_procedure_seq:05d}"
        store.next_procedure_seq += 1
        self._store.mark_dirty(owner)
        return pid

    # -- writes ---------------------------------------------------------------

    def _check_append(
        self, episode: Episode, task_type: str, procedures_used: Sequence[str]
    ) -> dict[str, Any]:
        """Validate a task record for this view's log; returns its own fields."""
        if episode.agent_id != self.agent_id:
            raise StoreError(
                f"view of {self.agent_id!r} cannot append an episode owned by "
                f"{episode.agent_id!r}"
            )
        owner = self._episodic_owner
        if episode.episode_id in self._store.store_set(owner).episode_class:
            raise StoreError(f"duplicate episode {episode.episode_id!r} in {owner!r} store")
        task = {"task_type": task_type, "procedures_used": procedures_used}
        try:
            check_rows(_TASK_ROWS[1:], task)  # the store hands out the seq
            self._store.check_roster(episode.team_composition)
        except ValueError as exc:
            raise StoreError(f"episode {episode.episode_id!r}: {exc}") from exc
        known = self._store.store_set(self._procedure_owner).procedural
        missing = sorted({*episode.related_procedures, *task["procedures_used"]} - known.keys())
        if missing:
            raise StoreError(f"episode references unknown procedures: {missing}")
        return task

    def record_task(
        self, episode: Episode, task_type: str, procedures_used: Sequence[str]
    ) -> str:
        """Store one finished task as a single task record; returns the episode id.

        The episode is appended to this view's episode log. Each of
        ``procedures_used`` gets one bump of its success or failure counter,
        stamped with the episode's timestamp. Only the episode log line is
        written: the procedure snapshot catches up at the next checkpoint,
        and :func:`open_store` replays what it lacks. The record is tallied
        at once; profiles and team patterns are read off the tally when they
        are next read (see :meth:`MemoryStore.transactive`). Durable before
        return outside a batch. A record that fails a check, a bump that
        would stamp a procedure before its ``created_at`` included, raises
        :class:`StoreError` and changes nothing.
        """
        task = self._check_append(episode, task_type, procedures_used)
        self._store.add_episode(self._episodic_owner, episode, task)
        self._store.flush()
        return episode.episode_id

    def upsert_procedure(self, procedure: Procedure, timestamp: str | None = None) -> str:
        """Insert or replace a procedure, refreshing its ``updated_at``."""
        owner = self._procedure_owner
        store = self._store.store_set(owner)
        try:
            "".join(procedure.source_episodes)  # a frozenset is not scanned at construction
        except TypeError:
            bad = sorted(procedure.source_episodes, key=repr)
            raise StoreError(f"source_episodes: must be a list of strings, got {bad!r}") from None
        stamped = replace(procedure, updated_at=timestamp or _now_iso())
        store.procedural[stamped.procedure_id] = stamped
        # an id that allocate_procedure_id would hand out later moves it past
        found = _PROCEDURE_NUMBER.fullmatch(stamped.procedure_id)
        if found and int(found[1]) >= store.next_procedure_seq:
            store.next_procedure_seq = int(found[1]) + 1
        self._store.mark_dirty(owner)
        self._store.flush()
        return stamped.procedure_id

    def remove_procedures(self, procedure_ids: Iterable[str]) -> None:
        owner = self._procedure_owner
        store = self._store.store_set(owner)
        removed = False
        for pid in procedure_ids:
            if pid in store.procedural:
                del store.procedural[pid]
                removed = True
        if removed:
            self._store.mark_dirty(owner)
            self._store.flush()

    def checkpoint_lag(self) -> dict[str, dict[str, int]]:
        """Task records logged past each procedure snapshot's checkpoint, store-wide.

        Keyed by owner, then by snapshot kind (``procedural``). A lag lasts
        until its owner's snapshot is next written, and opening the store
        replays it.
        """
        return self._store.checkpoint_lag()

    def persist(self) -> None:
        """Flush any pending writes; no-op on a clean store and inside a batch."""
        self._store.flush()
