"""Persistent memory stores and topology-aware agent views.

On disk a store root looks like::

    root/
      store_meta.json              # schema version + topology + agent roster
      <owner>/episodic.jsonl       # episode log; owner is "shared" or an agent id
      <owner>/procedural.json      # procedure snapshot + consolidation watermarks

The topology is decided once, when the store opens, as two maps over the
roster: each agent's *episodic owner* (whose log holds its episodes) and its
*procedure owner* (whose store set holds its procedures and transactive fold).
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
(torn) line, a record whose agent's episodic owner is not the log's, and an
episode id that an earlier line holds, naming the file and the line.

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
is not stored at all. It is a fold of the task records, built on the first
read and extended on later reads over the records appended since; a
``transactive.json`` left by an older build is ignored.

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

import contextlib
import copy
import enum
import itertools
import json
import os
import sys
from dataclasses import dataclass, field, replace
from datetime import datetime, timezone
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, NamedTuple, Sequence

from . import disk
from .types import (
    AgentProfile,
    Episode,
    Procedure,
    TeamPattern,
    canonical_team_key,
    episode_from_dict,
    episode_to_dict,
    json_line,
    procedure_from_dict,
    read_jsonl,
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
    """All memory of one owner: episodic log, procedures, transactive fold.

    ``episodic`` is append-only: only :class:`MemoryStore` writes it, by
    loading the log and by :meth:`MemoryStore.add_episode`. The derived
    state below relies on this and is never checked against it.
    ``consolidation_watermark`` records the episodic length at the last
    consolidation; ``next_procedure_seq`` feeds deterministic procedure ids.
    ``profiles`` and ``team_patterns`` are the transactive fold (see
    :meth:`MemoryStore.fold_transactive`), kept by procedure owners only.
    ``task_types`` holds each episode's task type, in order, the one field
    of a task record the fold needs that an :class:`Episode` lacks;
    ``transactive_folded`` counts the episodes of this log already folded.
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
    task_types: list[str] = field(default_factory=list, compare=False, repr=False)
    transactive_folded: int = field(default=0, compare=False, repr=False)
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


class _TaskRecord(NamedTuple):
    """One task record read back from an episode log."""

    seq: int
    episode: Episode
    procedures_used: tuple[str, ...]


def _dump_json(path: Path, document: dict[str, Any]) -> None:
    disk.replace(path, json_line(document))


def _all_of(kind: type, values: Iterable[Any]) -> bool:
    return all(type(value) is kind for value in values)


# Each key a store document must hold: what its value must be, and the check.
# ``type(v) is int`` also rejects a bool, which JSON tells apart from a number.
_META_KEYS = {
    "topology": ("a topology name", lambda v: v in [t.value for t in Topology]),
    "agents": ("a list of strings", lambda v: type(v) is list and _all_of(str, v)),
}
_SNAPSHOT_KEYS = {
    "seq": ("an integer", lambda v: type(v) is int),
    "next_procedure_seq": ("an integer", lambda v: type(v) is int),
    "procedures": ("a list", lambda v: type(v) is list),
    "watermarks": ("an object of integers", lambda v: type(v) is dict and _all_of(int, v.values())),
}


def _load_json(path: Path, keys: dict[str, tuple[str, Callable[[Any], bool]]]) -> dict[str, Any]:
    """Read a store document: a JSON object of the current schema with ``keys``.

    Anything else raises :class:`StoreError` naming the file (and the key).
    """
    try:
        document = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise StoreError(f"corrupt JSON in {path}: {exc}") from exc
    if not isinstance(document, dict):
        raise StoreError(f"{path} is not a JSON object")
    if document.get("schema_version") != SCHEMA_VERSION:
        raise StoreError(
            f"unsupported schema_version in {path}: {document.get('schema_version')!r}"
        )
    missing = [key for key in keys if key not in document]
    if missing:
        raise StoreError(f"{path} lacks {', '.join(missing)}")
    for key, (expected, check) in keys.items():
        if not check(document[key]):
            raise StoreError(f"{path}: {key} must be {expected}, got {document[key]!r}")
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
        if type(entry) is not list or len(entry) != 2 or not _all_of(str, entry):
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
        if not agents:
            raise StoreError("agents roster must not be empty")
        if len(set(agents)) != len(agents):
            raise StoreError(f"duplicate agent ids in roster: {agents}")
        # agent ids name owner directories: one path component each, not "shared" under hybrid
        reserved = {"", ".", ".."} | ({SHARED_OWNER} if topology is Topology.HYBRID else set())
        for agent in agents:
            if agent in reserved or {os.sep, os.altsep} & set(agent):
                raise StoreError(f"agent id {agent!r} cannot name its own owner directory")
        self.root = Path(root)
        self.topology = topology
        self.agents = list(agents)
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
        meta_path = self.root / "store_meta.json"
        if meta_path.exists():
            meta = _load_json(meta_path, _META_KEYS)
            if meta.get("topology") != self.topology.value:
                raise StoreError(
                    f"{meta_path}: store was created with topology "
                    f"{meta.get('topology')!r}, reopened as {self.topology.value!r}"
                )
            if sorted(meta.get("agents", [])) != sorted(self.agents):
                raise StoreError(
                    f"{meta_path}: store was created for agents "
                    f"{meta.get('agents')!r}, reopened with {sorted(self.agents)!r}"
                )
        else:
            self._write_meta()

        expected = set(self._owners)
        for entry in sorted(self.root.iterdir()):
            if entry.is_dir() and entry.name not in expected:
                raise StoreError(
                    f"unexpected owner directory {entry} for topology {self.topology.value}"
                )

        records: list[_TaskRecord] = []
        checkpoints: dict[str, int] = {}
        self._sets: dict[str, StoreSet] = {owner: StoreSet() for owner in self._owners}
        for owner in self._owners:
            self._load_log(owner, records)
        for owner in self._covered:
            self._load_snapshot(owner, checkpoints)
        self._replay(records, checkpoints)

    def _write_meta(self) -> None:
        _dump_json(
            self.root / "store_meta.json",
            {
                "schema_version": SCHEMA_VERSION,
                "topology": self.topology.value,
                "agents": sorted(self.agents),
            },
        )

    def _load_log(self, owner: str, records: list[_TaskRecord]) -> None:
        """Read one owner's episode log into its store set; add its task records."""
        store = self._sets[owner]
        log_path = self._log_paths[owner]
        if not log_path.exists():
            return

        def decode(d: dict[str, Any]) -> Episode:
            episode = episode_from_dict(d)
            if self._episodic_owner.get(episode.agent_id) != owner:
                raise ValueError(f"agent {episode.agent_id!r} does not log to {owner!r}")
            if episode.episode_id in store.episode_class:
                raise ValueError(f"episode id {episode.episode_id!r} repeats an earlier line")
            seq = d["seq"]
            if not isinstance(seq, int) or isinstance(seq, bool):
                raise ValueError(f"seq must be an integer, got {seq!r}")
            used = d.get("procedures_used", sorted(episode.related_procedures))
            records.append(_TaskRecord(seq, episode, tuple(used)))
            store.task_types.append(sys.intern(d["task_type"]))
            store.index_classes([episode])
            return episode

        try:
            store.episodic = read_jsonl(log_path, decode)
        except ValueError as exc:
            raise StoreError(str(exc)) from exc

    def _load_snapshot(self, owner: str, checkpoints: dict[str, int]) -> None:
        """Read one owner's procedure snapshot, once every log is read.

        Its procedures go into the owner's store set and its watermarks into
        the sets they cover; the last seq it includes goes to ``checkpoints``.
        """
        path = self._snapshot_paths[owner]
        if not path.exists():
            return
        store = self._sets[owner]
        doc = _load_json(path, _SNAPSHOT_KEYS)
        logs = [self._sets[o] for o in self._covered[owner]]
        try:
            for d in doc["procedures"]:
                if type(d["source_episodes"]) is list:  # else procedure_from_dict rejects it
                    d["source_episodes"] = _decode_sources(d["source_episodes"], logs)
                store.procedural[d["procedure_id"]] = procedure_from_dict(d)
        except (KeyError, TypeError, ValueError) as exc:
            raise StoreError(f"{path}: procedures holds a malformed entry: {exc!r}") from exc
        store.next_procedure_seq = doc["next_procedure_seq"]
        checkpoints[owner] = doc["seq"]
        bad = sorted(doc["watermarks"].keys() ^ set(self._covered[owner]))
        if bad:
            raise StoreError(f"{path} holds watermarks for the wrong owners: {bad}")
        for covered, watermark in doc["watermarks"].items():
            self._sets[covered].consolidation_watermark = watermark

    def _replay(self, records: list[_TaskRecord], checkpoints: dict[str, int]) -> None:
        """Apply to every procedure snapshot the task records logged after it."""
        records.sort(key=lambda record: record.seq)
        self._seq = max([*checkpoints.values(), *(r.seq for r in records)], default=0)
        for record in records:
            if checkpoints.get(self._procedure_owner[record.episode.agent_id], 0) >= record.seq:
                continue
            try:
                self._apply_task(record.episode, record.procedures_used)
            except StoreError as exc:
                raise StoreError(f"replaying task record seq {record.seq}: {exc}") from exc

    def _document(self, owner: str) -> dict[str, Any]:
        store = self._sets[owner]
        logs = [self._sets[o] for o in self._covered[owner]]

        def spelled(procedure: Procedure) -> dict[str, Any]:
            # The fields are procedure_to_dict's keys, without its sorted id list.
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

    def add_episode(
        self, owner: str, episode: Episode, task_type: str, procedures_used: list[str]
    ) -> None:
        """Append a validated episode to the owner's log as the next task record, and apply it."""
        store = self._sets[owner]
        store.episodic.append(episode)
        store.task_types.append(task_type)
        store.index_classes([episode])
        self._seq += 1
        record = {**episode_to_dict(episode), "seq": self._seq, "task_type": task_type}
        if sorted(procedures_used) != sorted(episode.related_procedures):
            record["procedures_used"] = procedures_used
        self._pending.setdefault(owner, []).append(json_line(record))
        self._apply_task(episode, procedures_used)

    def _apply_task(self, episode: Episode, procedures_used: Sequence[str]) -> None:
        """Count a task record's outcome on each procedure it used, at its timestamp."""
        if not procedures_used:
            return
        owner = self._procedure_owner[episode.agent_id]
        procedural = self._sets[owner].procedural
        success = episode.outcome.success
        for procedure_id in procedures_used:
            procedure = procedural.get(procedure_id)
            if procedure is None:
                raise StoreError(f"unknown procedure_id {procedure_id!r} in {owner!r} store")
            procedural[procedure_id] = replace(
                procedure,
                successes=procedure.successes + int(success),
                failures=procedure.failures + int(not success),
                updated_at=episode.timestamp,
            )
        self.add_lag(owner)

    def add_lag(self, owner: str) -> None:
        """Count one more task record that the owner's procedure snapshot lacks."""
        self._lag[owner] = self._lag.get(owner, 0) + 1

    def checkpoint_lag(self) -> dict[str, dict[str, int]]:
        """Task records logged past each procedure snapshot's checkpoint, by owner.

        Only the procedure owners are listed, in roster order.
        """
        return {owner: {"procedural": self._lag.get(owner, 0)} for owner in self._covered}

    def fold_transactive(self) -> None:
        """Extend the transactive fold over the task records not folded yet.

        A record goes into its executor's procedure owner's store set. It
        takes the executor's aggregates, the team pattern of the canonical
        composition, and the collaboration counters of the executor and,
        outside ``local``, of every partner. Each log is folded from where the
        previous call stopped. Every counter the fold keeps is a sum, so
        folding log by log gives what folding in ``seq`` order would.
        """
        for owner in self._owners:
            log = self._sets[owner]
            for index in range(log.transactive_folded, len(log.episodic)):
                episode, task_type = log.episodic[index], log.task_types[index]
                success = episode.outcome.success
                executor = episode.agent_id
                store = self._sets[self._procedure_owner[executor]]
                profiles = store.profiles
                profile = profiles.get(executor, AgentProfile(agent_id=executor))
                profiles[executor] = profile.with_task_result(task_type, success)
                key = canonical_team_key(episode.team_composition)
                pattern = store.team_patterns.get(key, TeamPattern(composition=key))
                store.team_patterns[key] = pattern.with_result(task_type, success)
                partners = [agent for agent in key if agent != executor]
                sides = [(executor, partner) for partner in partners]
                if self.topology is not Topology.LOCAL:
                    sides += [(partner, executor) for partner in partners]
                for subject, other in sides:
                    profile = profiles.get(subject, AgentProfile(agent_id=subject))
                    profiles[subject] = profile.with_collaboration(other, success)
            log.transactive_folded = len(log.episodic)

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
        meta = _load_json(meta_path, _META_KEYS)
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
        """Owner of procedures and the transactive fold: the agent under local, else shared."""
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
        self._store.fold_transactive()
        folded = sorted(self._store.store_set(self._procedure_owner).profiles.items())
        if self.topology is not Topology.HYBRID:
            return dict(folded)
        return {
            aid: profile if aid == self.agent_id else replace(profile, collaboration_history={})
            for aid, profile in folded
            if aid == self.agent_id or profile.total_tasks > 0
        }

    def get_profile(self, agent_id: str) -> AgentProfile | None:
        return self.profiles().get(agent_id)

    def team_patterns(self) -> dict[tuple[str, ...], TeamPattern]:
        """Visible team patterns by canonical composition."""
        self._store.fold_transactive()
        return dict(sorted(self._store.store_set(self._procedure_owner).team_patterns.items()))

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
        self._store.store_set(owner).consolidation_watermark = value
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

    def _check_append(self, episode: Episode, procedures_used: Iterable[str]) -> str:
        """Validate an episode for this view's log; returns the log's owner."""
        if episode.agent_id != self.agent_id:
            raise StoreError(
                f"view of {self.agent_id!r} cannot append an episode owned by "
                f"{episode.agent_id!r}"
            )
        owner = self._episodic_owner
        if episode.episode_id in self._store.store_set(owner).episode_class:
            raise StoreError(f"duplicate episode {episode.episode_id!r} in {owner!r} store")
        # The transactive fold keys team patterns by the team. Under hybrid an
        # agent's history is read only by its own view, which no outsider has.
        team = set(episode.team_composition)
        if not team:
            raise StoreError(f"episode {episode.episode_id!r} has an empty team composition")
        if self.topology is Topology.HYBRID and not team <= set(self._store.agents):
            outside = sorted(team - set(self._store.agents))
            raise StoreError(f"team composition names agents outside the roster: {outside}")
        known = self._store.store_set(self._procedure_owner).procedural
        missing = sorted({*episode.related_procedures, *procedures_used} - known.keys())
        if missing:
            raise StoreError(f"episode references unknown procedures: {missing}")
        return owner

    def record_task(
        self, episode: Episode, task_type: str, procedures_used: Sequence[str]
    ) -> str:
        """Store one finished task as a single task record; returns the episode id.

        The episode is appended to this view's episode log. Each of
        ``procedures_used`` gets one bump of its success or failure counter,
        stamped with the episode's timestamp. Only the episode log line is
        written: the procedure snapshot catches up at the next checkpoint,
        and :func:`open_store` replays what it lacks. Profiles and team
        patterns are derived from the record when they are next read (see
        :meth:`MemoryStore.fold_transactive`). Durable before return outside
        a batch.
        """
        used = list(procedures_used)
        owner = self._check_append(episode, used)
        self._store.add_episode(owner, episode, task_type, used)
        self._store.flush()
        return episode.episode_id

    def upsert_procedure(self, procedure: Procedure, timestamp: str | None = None) -> str:
        """Insert or replace a procedure, refreshing its ``updated_at``."""
        owner = self._procedure_owner
        store = self._store.store_set(owner)
        stamped = replace(procedure, updated_at=timestamp or _now_iso())
        store.procedural[stamped.procedure_id] = stamped
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
