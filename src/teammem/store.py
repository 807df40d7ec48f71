"""Persistent memory stores and topology-aware agent views.

On disk a store root looks like::

    root/
      store_meta.json              # schema version + topology + agent roster
      <owner>/episodic.jsonl       # task records; owner is "shared" or an agent id
      <owner>/procedural.jsonl     # pass records of a procedure owner

The topology is decided once, when the store opens, as two maps over the
roster: each agent's *episodic owner* (whose log holds its episodes) and its
*procedure owner* (whose store set holds its procedures and transactive tally).
Under ``local`` both are the agent, under ``shared`` both are "shared", and
under ``hybrid`` they are the agent and "shared". The owner directories and
the episodic owners whose watermarks a procedure owner keeps derive from the
two maps, and a view resolves its two owners when it is built. Under
``hybrid`` every view sees all profile aggregates and team patterns, but
only its own agent's collaboration history.

``store_meta.json`` is written once, when the store is created; every later
write appends lines to a log through :mod:`teammem.disk`. A flush takes the
queued lines off the queue before it appends them, so a failed append is
never written twice. Reading a log rejects a malformed or torn line, a byte
that is not UTF-8 and a record that breaks a writer's rule, naming the file
and the line.

:meth:`MemoryView.record_task` stores one finished task as a *task record*,
one compact sorted-key JSON line of ``episodic.jsonl``: the episode plus its
``task_type``, a store-wide sequence number ``seq`` and, when the episode's
``related_procedures`` do not already say it, the ``procedures_used``. Its
``team_composition`` is left out when it is the meta's (sorted) roster, and
the loader fills in one shared tuple. Appending the line is the task's
commit point. Every other change (a procedure upserted or removed, a
watermark moved, a procedure id handed out) joins its procedure owner's open
pass, which the next flush or task record closes into one :class:`PassRecord`
line of ``procedural.jsonl``; a pass that changed nothing appends nothing.
Opening a store replays each procedure owner's task records and pass records
merged in ``seq`` order, on each procedure's fields, and builds each
procedure once; it never takes a record twice, and writes nothing.

Transactive state (agent profiles, collaboration histories, team patterns)
is not stored at all. Each procedure owner keeps a tally of its task records,
tasks and successes by (executor, team, task type), counted once per record
as it is logged or loaded; profiles and team patterns are read off the tally
and kept until the next record. A ``transactive.json`` left by an older
build is ignored.

All writes go through an agent's :class:`MemoryView` (single writer). Outside
a batch, each mutating call flushes before it returns (write-through). Inside
:meth:`MemoryView.batch`, mutating calls only queue log lines and open
passes, and leaving the outermost batch appends to each file once.

Only the current schema version is read; a store file of any other version
raises :class:`StoreError` naming the file, and nothing is rewritten.
"""

from __future__ import annotations

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
from typing import Any, Iterable, Iterator, NamedTuple, Sequence

from . import disk
from .types import (
    AgentProfile,
    CollabStats,
    Episode,
    Procedure,
    Row,
    TeamPattern,
    Record,
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
    record,
    stored,
    to_dict,
)

SCHEMA_VERSION = 6
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
    duplicate check, the pass records' spelling of sources and ``cluster_state``,
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

# The rows of the store's meta document, besides its schema_version, and those
# a task record adds to an episode's. A task record leaves out its
# procedures_used when the episode's related_procedures say it, and its
# team_composition when that is the meta's roster.
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
_list = _kind((lambda v: type(v) is list, "must be a list, got {!r}"))
_counts = _kind((
    lambda v: type(v) is dict and all(type(n) is int for n in v.values()),
    "must be an object of integers, got {!r}",
))


@record
class PassRecord(Record):
    """A closed pass: the last task ``seq`` it follows, and what it changed.

    A change holds a ``procedure_id``, the sources it adds or drops as
    ``source_episodes`` runs (see :func:`_encode_sources`), and each field
    :func:`_derived` does not give. ``removed`` and ``next_procedure_seq``
    (the counter, when an id was handed out unused) are left out when idle.
    """

    seq: int = stored(int, _non_negative)
    procedures: list[dict[str, Any]] = stored(_list)
    watermarks: dict[str, int] = stored(_counts)
    removed: tuple[str, ...] = stored(_strings)
    next_procedure_seq: int = stored(int, _at_least_one)


_PROCEDURE_NUMBER = re.compile(r"proc-([0-9]+)")
_PROCEDURE_ROWS = {row[1]: row for row in Procedure.ROWS}


class _OpenPass(NamedTuple):  # the store as a pass found it
    next_procedure_seq: int
    watermarks: dict[str, int]  # of every covered log
    procedures: dict[str, Procedure | None]  # only those the pass changed


def _next_after(next_seq: int, procedure_id: str) -> int:
    """The id counter once ``procedure_id`` is in use: past it, if it is a ``proc-NNNNN`` id."""
    found = _PROCEDURE_NUMBER.fullmatch(procedure_id)
    return max(next_seq, int(found[1]) + 1) if found else next_seq


def _derived(base: dict[str, Any] | None, owner: str, added: int, stamp: str) -> dict[str, Any]:
    """A procedure's fields after a change that spells only its sources; ``base``, those before.

    As a consolidation pass does it: each of the ``added`` sources adds a
    success, and ``stamp`` (the time of the task record at the pass's
    ``seq``) is the new ``updated_at``, and a new procedure's ``created_at``;
    a new procedure's change always spells its title and knowledge.
    """
    values = base if base is not None else {
        "owner_id": owner, "created_at": stamp, "successes": 0, "failures": 0,
    }
    return {**values, "updated_at": stamp, "successes": values["successes"] + added}


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
    """Spell a source set as entries of lone ids and ``[first, last]`` runs.

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


def _decode_sources(entries: Any, logs: Sequence[StoreSet]) -> list[str]:
    """The episode ids that ``source_episodes`` entries spell; a list of runs is checked here."""
    if type(entries) is not list:
        raise ValueError(f"must be a list of ids and pairs of ids, got {entries!r}")
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
        start = members.index(first)
        try:
            stop = members.index(last, start)
        except ValueError:  # last is in the class, so before first
            raise ValueError(f"source pair {entry!r} runs backwards") from None
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
        # The team a task record leaves unspelled: the roster as the meta holds it.
        self._roster = tuple(sorted(agents))
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
        # Each procedure owner's open pass, each log's lines not yet appended,
        # and the seq and timestamp of the last task record.
        self._passes: dict[str, _OpenPass] = {}
        self._batch_depth = 0
        self._pending: dict[Path, list[str]] = {}
        self._seq, self._stamp = 0, ""
        # Each owner's episode log, and each procedure owner's pass log, joined once.
        self._log_paths = {o: self.root / o / "episodic.jsonl" for o in self._owners}
        self._pass_paths = {o: self.root / o / "procedural.jsonl" for o in self._covered}
        self._load_or_init()

    # -- load ----------------------------------------------------------------

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
            meta = {"topology": self.topology, "agents": list(self._roster)}
            _dump_json(self._meta_path, {"schema_version": SCHEMA_VERSION, **meta})

        expected = set(self._owners)
        for entry in sorted(self.root.iterdir()):
            if entry.is_dir() and entry.name not in expected:
                raise StoreError(
                    f"unexpected owner directory {entry} for topology "
                    f"{self.topology.value} and the roster in {self._meta_path}"
                )

        records: dict[int, _TaskRecord] = {}
        self._sets: dict[str, StoreSet] = {owner: StoreSet() for owner in self._owners}
        for owner in self._owners:
            self._load_log(owner, records)
        if records:
            self._seq = max(records)
            self._stamp = records[self._seq][0].timestamp
        # each procedure owner replays its own task records, in seq order
        replayed: dict[str, list[int]] = {owner: [] for owner in self._covered}
        for seq in sorted(records):
            replayed[self._procedure_owner[records[seq][0].agent_id]].append(seq)
        for owner, seqs in replayed.items():
            self._replay(owner, seqs, records)

    def _load_log(self, owner: str, records: dict[int, _TaskRecord]) -> None:
        """Read one owner's episode log into its store set; add its task records by seq."""
        store = self._sets[owner]
        log_path = self._log_paths[owner]
        if not log_path.exists():
            return
        roster = self._roster

        def decode(d: Any) -> Episode:
            if type(d) is dict:  # fill in what the writer left out
                if "procedures_used" not in d:  # related_procedures say it
                    d["procedures_used"] = d.get("related_procedures")
                if "team_composition" not in d:  # the roster
                    d["team_composition"] = roster
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

    def _replay(self, owner: str, seqs: list[int], records: dict[int, _TaskRecord]) -> None:
        """Replay one procedure owner's task records (``seqs``, ascending) and pass records.

        Each procedure is replayed as a dict of its fields, its sources a
        set, and built once at the end. A pass record that does not agree
        with the store fails the open. Its ``next_procedure_seq`` never moves
        the counter back, so the value filled in for a record that leaves it
        out changes nothing.
        """
        store = self._sets[owner]
        path = self._pass_paths[owner]
        logs = [self._sets[o] for o in self._covered[owner]]
        lengths = {o: len(self._sets[o].episodic) for o in self._covered[owner]}
        fields: dict[str, dict[str, Any]] = {}
        done = 0  # how many of seqs are replayed

        def replay_to(last: int) -> None:
            nonlocal done
            while done < len(seqs) and seqs[done] <= last:
                episode, task_type, used = records[seqs[done]]
                try:
                    self._count(episode, task_type, used, fields)
                except StoreError as exc:
                    log = self._log_paths[self._episodic_owner[episode.agent_id]]
                    raise StoreError(
                        f"{log}: replaying task record seq {seqs[done]} into {path}: {exc}"
                    ) from exc
                done += 1

        def apply(change: Any, stamp: str) -> None:
            if type(change) is not dict:
                raise ValueError(f"procedures holds {change!r}, which is not an object")
            check_rows(Procedure.ROWS[:1], change)
            procedure_id = change.pop("procedure_id")
            unknown = change.keys() - _PROCEDURE_ROWS.keys()
            if unknown:
                raise ValueError(f"change of {procedure_id!r} holds unknown keys {sorted(unknown)}")
            try:
                flipped = frozenset(_decode_sources(change.pop("source_episodes", []), logs))
            except ValueError as exc:  # read against the logs, which may be the damaged ones
                against = ", ".join(str(self._log_paths[o]) for o in lengths)
                raise ValueError(f"source_episodes: {exc} (read against {against})") from None
            base = fields.get(procedure_id)
            if base is None and not {"title", "knowledge"} <= change.keys():
                raise ValueError(f"the change of unknown procedure {procedure_id!r} is no new one")
            if base is None:  # an existing procedure's id is already counted
                store.next_procedure_seq = _next_after(store.next_procedure_seq, procedure_id)
            held = base["source_episodes"] if base else set()
            added = len(flipped) - len(flipped & held)
            held ^= flipped
            if not held:
                raise ValueError(f"source_episodes: the change of {procedure_id!r} leaves none")
            # the derived fields come from checked ones, so only the spelled ones are checked
            check_rows([_PROCEDURE_ROWS[key] for key in change], change)
            fields[procedure_id] = {
                **_derived(base, owner, added, stamp), **change,
                "procedure_id": procedure_id, "source_episodes": held,
            }

        def decode(d: Any) -> PassRecord:
            if type(d) is dict:  # fill in what the writer left out
                d.setdefault("removed", [])
                d.setdefault("next_procedure_seq", store.next_procedure_seq)
            passed = from_dict(PassRecord, d)
            if passed.seq > self._seq:
                raise ValueError(f"seq {passed.seq} is past the last logged seq {self._seq}")
            if done and seqs[done - 1] > passed.seq:
                raise ValueError(f"seq {passed.seq} is before the replayed seq {seqs[done - 1]}")
            replay_to(passed.seq)
            stamp = records[passed.seq][0].timestamp if passed.seq in records else ""
            for change in passed.procedures:
                apply(change, stamp)
            for procedure_id in passed.removed:
                if fields.pop(procedure_id, None) is None:
                    raise ValueError(f"removed names unknown procedure {procedure_id!r}")
            foreign = sorted(passed.watermarks.keys() - lengths.keys())
            if foreign:
                raise ValueError(f"watermarks names logs {owner!r} does not cover: {foreign}")
            for log, mark in passed.watermarks.items():
                if not 0 <= mark <= lengths[log]:
                    raise ValueError(
                        f"watermark {mark} of {log!r} is outside its log of {lengths[log]} records"
                    )
                self._sets[log].consolidation_watermark = mark
            store.next_procedure_seq = max(passed.next_procedure_seq, store.next_procedure_seq)
            return passed

        if path.exists():
            try:
                read_jsonl(path, decode)
            except ValueError as exc:
                raise StoreError(str(exc)) from exc
        replay_to(self._seq)
        # every field is checked where it is read, so none is checked again
        store.procedural = {
            procedure_id: checked_record(
                Procedure, {**values, "source_episodes": frozenset(values["source_episodes"])}
            )
            for procedure_id, values in fields.items()
        }

    # -- task records and passes ---------------------------------------------------

    def add_episode(self, owner: str, episode: Episode, task: dict[str, Any]) -> None:
        """Queue a validated episode as the owner's next task record, after any open pass.

        ``task`` holds its ``task_type`` and ``procedures_used``, checked by their rows.
        """
        self._close_passes()
        # it may raise, so it runs before any change
        self._apply_task(episode, task["task_type"], task["procedures_used"])
        store = self._sets[owner]
        store.episodic.append(episode)
        store.index_classes([episode])
        self._seq += 1
        self._stamp = episode.timestamp
        line = {**to_dict(episode), **task, "seq": self._seq}
        if sorted(task["procedures_used"]) == line["related_procedures"]:
            del line["procedures_used"]
        if line["team_composition"] == self._roster:
            del line["team_composition"]
        self._pending.setdefault(self._log_paths[owner], []).append(json_line(line))

    def check_roster(self, team: tuple[str, ...]) -> None:
        """Raise :class:`ValueError` if a team names an agent off the roster under ``hybrid``."""
        if self._teammates is not None and not self._teammates.issuperset(team):
            outside = sorted(set(team) - self._teammates)
            raise ValueError(f"team composition names agents outside the roster: {outside}")

    def _apply_task(self, episode: Episode, task_type: str, procedures_used: Sequence[str]) -> None:
        """Tally a task record, and count its outcome on each procedure it used.

        Each bump stamps ``updated_at`` with the episode's timestamp, whatever
        it is: stamps are display data, and the store's order is ``seq``. A
        record that names an unknown procedure raises :class:`StoreError`
        and changes nothing.
        """
        procedures = self._sets[self._procedure_owner[episode.agent_id]].procedural
        fields = {pid: dict(vars(procedures[pid])) for pid in procedures_used if pid in procedures}
        self._count(episode, task_type, procedures_used, fields)
        # every field comes from a checked record, so none is checked again
        procedures.update({pid: checked_record(Procedure, v) for pid, v in fields.items()})

    def _count(
        self, episode: Episode, task_type: str, used: Sequence[str], fields: dict[str, Any]
    ) -> None:
        """Count a task record's outcome on the ``fields`` of each procedure it used, and tally it.

        A procedure that ``fields`` lacks raises :class:`StoreError` before the tally.
        """
        owner = self._procedure_owner[episode.agent_id]
        store = self._sets[owner]
        success = episode.outcome.success
        counter = "successes" if success else "failures"
        for procedure_id in used:
            values = fields.get(procedure_id)
            if values is None:
                raise StoreError(f"unknown procedure_id {procedure_id!r} in {owner!r} store")
            values[counter] += 1
            values["updated_at"] = episode.timestamp
        key = (episode.agent_id, episode.team_composition, task_type)
        counts = store.tally.setdefault(key, [0, 0])
        counts[0] += 1
        counts[1] += success
        if store.team_patterns:  # read off the tally before this record
            store.profiles, store.team_patterns = {}, {}

    def begin_pass(self, owner: str) -> dict[str, Procedure | None]:
        """Open the owner's pass if none is; its procedures as they stood before it changed them."""
        opened = self._passes.get(owner)
        if opened is None:
            marks = {o: self._sets[o].consolidation_watermark for o in self._covered[owner]}
            opened = _OpenPass(self._sets[owner].next_procedure_seq, marks, {})
            self._passes[owner] = opened
        return opened.procedures

    def _close_passes(self) -> None:
        """Queue the pass record of each open pass that changed anything, and close them all."""
        for owner, opened in self._passes.items():
            store = self._sets[owner]
            logs = [self._sets[o] for o in self._covered[owner]]
            changes, removed = [], []
            next_seq = opened.next_procedure_seq
            for procedure_id in sorted(opened.procedures):
                base = opened.procedures[procedure_id]
                procedure = store.procedural.get(procedure_id)
                if procedure is None:
                    if base is not None:
                        removed.append(procedure_id)
                elif procedure != base:
                    was = base.source_episodes if base else frozenset()
                    flipped = procedure.source_episodes ^ was
                    derived = _derived(base and vars(base), owner, len(flipped - was), self._stamp)
                    change = {
                        k: v for k, v in vars(procedure).items()
                        if k != "source_episodes" and (k not in derived or derived[k] != v)
                    }
                    change["procedure_id"] = procedure_id
                    if flipped:
                        change["source_episodes"] = _encode_sources(flipped, logs)
                    changes.append(change)
                    next_seq = _next_after(next_seq, procedure_id)
            moved = {
                o: self._sets[o].consolidation_watermark
                for o, mark in opened.watermarks.items()
                if self._sets[o].consolidation_watermark != mark
            }
            line: dict[str, Any] = {"seq": self._seq, "procedures": changes, "watermarks": moved}
            if removed:
                line["removed"] = removed
            if store.next_procedure_seq != next_seq:
                line["next_procedure_seq"] = store.next_procedure_seq
            if changes or moved or len(line) > 3:
                self._pending.setdefault(self._pass_paths[owner], []).append(json_line(line))
        self._passes.clear()

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

    def flush(self) -> None:
        """Close every open pass, then append the queued lines, taken off the queue first.

        A no-op when nothing changed, and deferred to the end of the
        outermost :meth:`batch` when called inside one.
        """
        if self._batch_depth:
            return
        self._close_passes()
        pending, self._pending = self._pending, {}
        # every episode log first: no pass record lands before the task record of its seq
        for path in sorted(pending, key=lambda path: path.name != "episodic.jsonl"):
            disk.append(path, "".join(pending[path]))

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
        self._store.begin_pass(self._procedure_owner)
        store.consolidation_watermark = value
        self._store.flush()

    def allocate_procedure_id(self) -> str:
        owner = self._procedure_owner
        store = self._store.store_set(owner)
        self._store.begin_pass(owner)
        pid = f"proc-{store.next_procedure_seq:05d}"
        store.next_procedure_seq += 1
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
        written: no pass record holds a bump, and :func:`open_store` replays
        every one. The record is tallied at once; profiles and team patterns
        are read off the tally when they are next read (see
        :meth:`MemoryStore.transactive`). Durable before return outside a
        batch. A record that fails a check raises :class:`StoreError` and
        changes nothing; a bump is never refused for its stamp, which is
        display data (the store's order is ``seq``).
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
        pid = stamped.procedure_id
        self._store.begin_pass(owner).setdefault(pid, store.procedural.get(pid))
        store.procedural[pid] = stamped
        # an id that allocate_procedure_id would hand out later moves it past
        store.next_procedure_seq = _next_after(store.next_procedure_seq, pid)
        self._store.flush()
        return pid

    def remove_procedures(self, procedure_ids: Iterable[str]) -> None:
        owner = self._procedure_owner
        store = self._store.store_set(owner)
        removed = False
        for pid in procedure_ids:
            if pid in store.procedural:
                self._store.begin_pass(owner).setdefault(pid, store.procedural[pid])
                del store.procedural[pid]
                removed = True
        if removed:
            self._store.flush()

    def persist(self) -> None:
        """Flush any pending writes; no-op on a clean store and inside a batch."""
        self._store.flush()
