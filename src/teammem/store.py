"""Persistent memory stores and topology-aware agent views.

On disk a store root looks like::

    root/
      store_meta.json              # schema version + topology + agent roster
      <owner>/episodic.jsonl       # owner is an agent id or "shared"
      <owner>/episodic.json
      <owner>/procedural.json
      <owner>/transactive.json

Three topologies decide which owner each view resolves to:

* ``local``: every agent keeps all three kinds private.
* ``shared``: one "shared" owner holds everything for everyone.
* ``hybrid``: episodic memory and collaboration histories stay private;
  procedures, profile aggregates, and team patterns live in "shared".

Episodes are never modified once stored, so they live in an append-only log,
``episodic.jsonl``: one compact sorted-key JSON line per episode, in append
order. A flush appends only the episodes added since the previous flush, and
reading rejects a malformed or truncated (torn) line. ``episodic.json``
holds only the schema version and the consolidation watermark and is
rewritten when the watermark moves. Every other file is rewritten whole and
atomically, via a temp file plus rename.

All writes go through an agent's :class:`MemoryView` (single writer). Outside
a batch, each mutating call flushes before it returns (write-through). Inside
:meth:`MemoryView.batch`, mutating calls only mark their files dirty, and
leaving the outermost batch writes each dirty file once.

Schema version 1 kept the episodes inside ``episodic.json``. Such a store is
still read, and its first flush rewrites it in the current layout.
"""

from __future__ import annotations

import contextlib
import copy
import enum
import json
import os
from dataclasses import dataclass, field, replace
from datetime import datetime, timezone
from pathlib import Path
from typing import Any, Iterable, Iterator

from .types import (
    AgentProfile,
    Episode,
    Procedure,
    TeamPattern,
    agent_profile_from_dict,
    agent_profile_to_dict,
    canonical_team_key,
    episode_from_dict,
    episode_to_dict,
    procedure_from_dict,
    procedure_to_dict,
    read_jsonl,
    team_pattern_from_dict,
    team_pattern_to_dict,
)

SCHEMA_VERSION = 2
_READABLE_VERSIONS = (1, SCHEMA_VERSION)
SHARED_OWNER = "shared"

_KINDS = ("episodic", "procedural", "transactive")


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
    """All memory of one owner: episodic log, procedures, transactive state.

    ``consolidation_watermark`` records the episodic length at the last
    consolidation; ``next_procedure_seq`` feeds deterministic procedure ids.
    ``cluster_state`` is consolidation's incremental clustering of
    ``episodic``: derived, never persisted, and rebuilt whenever it no longer
    matches the episodes.
    """

    episodic: list[Episode] = field(default_factory=list)
    procedural: dict[str, Procedure] = field(default_factory=dict)
    profiles: dict[str, AgentProfile] = field(default_factory=dict)
    team_patterns: dict[tuple[str, ...], TeamPattern] = field(default_factory=dict)
    consolidation_watermark: int = 0
    next_procedure_seq: int = 1
    cluster_state: Any = field(default=None, compare=False, repr=False)


def _dump_json(path: Path, document: dict[str, Any]) -> None:
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    os.replace(tmp, path)


def _load_json(path: Path) -> dict[str, Any]:
    try:
        document = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise StoreError(f"corrupt JSON in {path}: {exc}") from exc
    if document.get("schema_version") not in _READABLE_VERSIONS:
        raise StoreError(
            f"unsupported schema_version in {path}: {document.get('schema_version')!r}"
        )
    return document


def _episode_lines(episodes: Iterable[Episode]) -> str:
    return "".join(
        json.dumps(episode_to_dict(e), sort_keys=True, separators=(",", ":")) + "\n"
        for e in episodes
    )


class MemoryStore:
    """Owns every :class:`StoreSet` under one root directory."""

    def __init__(self, root: Path, topology: Topology, agents: list[str]) -> None:
        if not agents:
            raise StoreError("agents roster must not be empty")
        if len(set(agents)) != len(agents):
            raise StoreError(f"duplicate agent ids in roster: {agents}")
        self.root = Path(root)
        self.topology = topology
        self.agents = list(agents)
        self._sets: dict[str, StoreSet] = {}
        self._dirty: set[tuple[str, str]] = set()
        self._batch_depth = 0
        # What each owner's episode files hold: the number of episodes in
        # episodic.jsonl (None: rewrite the log whole, after a v1 load) and
        # the watermark in episodic.json (None: not yet written as v2).
        self._logged: dict[str, int | None] = {}
        self._logged_watermark: dict[str, int | None] = {}
        self._meta_version = SCHEMA_VERSION
        self._load_or_init()

    # -- layout -------------------------------------------------------------

    def _owners(self) -> list[str]:
        if self.topology is Topology.LOCAL:
            return list(self.agents)
        if self.topology is Topology.SHARED:
            return [SHARED_OWNER]
        return list(self.agents) + [SHARED_OWNER]

    def _path(self, owner: str, kind: str) -> Path:
        return self.root / owner / f"{kind}.json"

    def _log_path(self, owner: str) -> Path:
        return self.root / owner / "episodic.jsonl"

    # -- load / save ---------------------------------------------------------

    def _load_or_init(self) -> None:
        meta_path = self.root / "store_meta.json"
        if meta_path.exists():
            meta = _load_json(meta_path)
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
            self._meta_version = meta["schema_version"]
        else:
            self.root.mkdir(parents=True, exist_ok=True)
            self._write_meta()

        expected = set(self._owners())
        for entry in sorted(self.root.iterdir()):
            if entry.is_dir() and entry.name not in expected:
                raise StoreError(
                    f"unexpected owner directory {entry} for topology {self.topology.value}"
                )

        for owner in self._owners():
            self._sets[owner] = self._load_owner(owner)
            if self._meta_version != SCHEMA_VERSION:
                # an older store: the first flush rewrites every file it has
                for kind in _KINDS:
                    if self._path(owner, kind).exists():
                        self.mark_dirty(owner, kind)

    def _write_meta(self) -> None:
        _dump_json(
            self.root / "store_meta.json",
            {
                "schema_version": SCHEMA_VERSION,
                "topology": self.topology.value,
                "agents": sorted(self.agents),
            },
        )
        self._meta_version = SCHEMA_VERSION

    def _load_owner(self, owner: str) -> StoreSet:
        store = StoreSet()
        logged: int | None = 0
        logged_watermark: int | None = None
        episodic_path = self._path(owner, "episodic")
        if episodic_path.exists():
            doc = _load_json(episodic_path)
            store.consolidation_watermark = doc.get("consolidation_watermark", 0)
            if doc["schema_version"] == 1:
                store.episodic = [episode_from_dict(d) for d in doc["episodes"]]
                logged = None
            else:
                logged_watermark = store.consolidation_watermark
        log_path = self._log_path(owner)
        if logged is not None and log_path.exists():
            try:
                store.episodic = read_jsonl(log_path, episode_from_dict)
            except ValueError as exc:
                raise StoreError(str(exc)) from exc
            logged = len(store.episodic)
        self._logged[owner] = logged
        self._logged_watermark[owner] = logged_watermark
        procedural_path = self._path(owner, "procedural")
        if procedural_path.exists():
            doc = _load_json(procedural_path)
            store.procedural = {
                d["procedure_id"]: procedure_from_dict(d) for d in doc["procedures"]
            }
            store.next_procedure_seq = doc.get("next_procedure_seq", 1)
        transactive_path = self._path(owner, "transactive")
        if transactive_path.exists():
            doc = _load_json(transactive_path)
            store.profiles = {
                d["agent_id"]: agent_profile_from_dict(d) for d in doc["profiles"]
            }
            store.team_patterns = {}
            for d in doc["team_patterns"]:
                pattern = team_pattern_from_dict(d)
                store.team_patterns[pattern.composition] = pattern
        return store

    def _document(self, owner: str, kind: str) -> dict[str, Any]:
        store = self._sets[owner]
        if kind == "episodic":
            return {
                "schema_version": SCHEMA_VERSION,
                "consolidation_watermark": store.consolidation_watermark,
            }
        if kind == "procedural":
            return {
                "schema_version": SCHEMA_VERSION,
                "next_procedure_seq": store.next_procedure_seq,
                "procedures": [
                    procedure_to_dict(store.procedural[pid])
                    for pid in sorted(store.procedural)
                ],
            }
        return {
            "schema_version": SCHEMA_VERSION,
            "profiles": [
                agent_profile_to_dict(store.profiles[aid])
                for aid in sorted(store.profiles)
            ],
            "team_patterns": [
                team_pattern_to_dict(store.team_patterns[key])
                for key in sorted(store.team_patterns)
            ],
        }

    def mark_dirty(self, owner: str, kind: str) -> None:
        if kind not in _KINDS:
            raise ValueError(f"unknown store kind {kind!r}")
        self._dirty.add((owner, kind))

    def _flush_episodic(self, owner: str) -> None:
        """Append the episodes not yet logged; rewrite the watermark if it moved."""
        store = self._sets[owner]
        logged = self._logged[owner]
        # After a v1 load the log is written whole. Until episodic.json is
        # replaced below, the v1 file still holds the episodes, so a rewrite
        # cut short is simply redone after the next open.
        if logged is None or logged < len(store.episodic):
            mode = "w" if logged is None else "a"
            with open(self._log_path(owner), mode, encoding="utf-8") as handle:
                handle.write(_episode_lines(store.episodic[logged or 0 :]))
        self._logged[owner] = len(store.episodic)
        if self._logged_watermark[owner] != store.consolidation_watermark:
            _dump_json(self._path(owner, "episodic"), self._document(owner, "episodic"))
            self._logged_watermark[owner] = store.consolidation_watermark

    def flush(self) -> None:
        """Write every dirty store file once.

        A no-op when nothing changed, and deferred to the end of the
        outermost :meth:`batch` when called inside one.
        """
        if self._batch_depth:
            return
        for owner, kind in sorted(self._dirty):
            (self.root / owner).mkdir(parents=True, exist_ok=True)
            if kind == "episodic":
                self._flush_episodic(owner)
            else:
                _dump_json(self._path(owner, kind), self._document(owner, kind))
        self._dirty.clear()
        if self._meta_version != SCHEMA_VERSION:
            self._write_meta()

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
        meta = _load_json(meta_path)
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

    @property
    def topology(self) -> Topology:
        return self._store.topology

    def batch(self) -> contextlib.AbstractContextManager[None]:
        """One store flush at the end of the block; see :meth:`MemoryStore.batch`."""
        return self._store.batch()

    # -- owner resolution ----------------------------------------------------

    def _episodic_owner(self) -> str:
        return SHARED_OWNER if self.topology is Topology.SHARED else self.agent_id

    def _procedural_owner(self) -> str:
        """Owner of procedures; profile aggregates and team patterns follow it."""
        return self.agent_id if self.topology is Topology.LOCAL else SHARED_OWNER

    def _collab_owner(self, agent_id: str) -> str:
        if self.topology is Topology.SHARED:
            return SHARED_OWNER
        return agent_id

    # -- reads ---------------------------------------------------------------

    def episodes(self) -> tuple[Episode, ...]:
        return tuple(self._store.store_set(self._episodic_owner()).episodic)

    def episodic_store(self) -> StoreSet:
        """The live store set holding this view's episodes; not a copy."""
        return self._store.store_set(self._episodic_owner())

    def procedures(self) -> dict[str, Procedure]:
        return dict(self._store.store_set(self._procedural_owner()).procedural)

    def get_procedure(self, procedure_id: str) -> Procedure | None:
        return self._store.store_set(self._procedural_owner()).procedural.get(procedure_id)

    def profiles(self) -> dict[str, AgentProfile]:
        """Visible agent profiles, merged according to the topology.

        Under ``hybrid`` the aggregates come from the shared store while the
        only collaboration history a view can see is its own agent's, read
        from that agent's private store.
        """
        if self.topology is not Topology.HYBRID:
            owner = self._procedural_owner()
            return dict(self._store.store_set(owner).profiles)
        shared = self._store.store_set(SHARED_OWNER).profiles
        local = self._store.store_set(self.agent_id).profiles
        merged: dict[str, AgentProfile] = {}
        for aid in set(shared) | set(local):
            base = shared.get(aid, AgentProfile(agent_id=aid))
            history = (
                local[aid].collaboration_history
                if aid == self.agent_id and aid in local
                else {}
            )
            merged[aid] = replace(base, collaboration_history=dict(history))
        return merged

    def get_profile(self, agent_id: str) -> AgentProfile | None:
        return self.profiles().get(agent_id)

    def team_patterns(self) -> dict[tuple[str, ...], TeamPattern]:
        return dict(self._store.store_set(self._procedural_owner()).team_patterns)

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
        return self._store.store_set(self._episodic_owner()).consolidation_watermark

    def set_consolidation_watermark(self, value: int) -> None:
        owner = self._episodic_owner()
        self._store.store_set(owner).consolidation_watermark = value
        self._store.mark_dirty(owner, "episodic")
        self._store.flush()

    def allocate_procedure_id(self) -> str:
        owner = self._procedural_owner()
        store = self._store.store_set(owner)
        pid = f"proc-{store.next_procedure_seq:05d}"
        store.next_procedure_seq += 1
        self._store.mark_dirty(owner, "procedural")
        return pid

    # -- writes ---------------------------------------------------------------

    def append_episode(self, episode: Episode) -> str:
        """Append one episode; durable before return outside a batch. Returns its id."""
        if episode.agent_id != self.agent_id:
            raise StoreError(
                f"view of {self.agent_id!r} cannot append an episode owned by "
                f"{episode.agent_id!r}"
            )
        owner = self._episodic_owner()
        store = self._store.store_set(owner)
        for existing in store.episodic:
            if (
                existing.agent_id == episode.agent_id
                and existing.task_index == episode.task_index
            ):
                raise StoreError(
                    f"duplicate episode {episode.episode_id!r} in {owner!r} store"
                )
        known = self._store.store_set(self._procedural_owner()).procedural
        missing = sorted(pid for pid in episode.related_procedures if pid not in known)
        if missing:
            raise StoreError(f"episode references unknown procedures: {missing}")
        store.episodic.append(episode)
        self._store.mark_dirty(owner, "episodic")
        self._store.flush()
        return episode.episode_id

    def upsert_procedure(self, procedure: Procedure, timestamp: str | None = None) -> str:
        """Insert or replace a procedure, refreshing its ``updated_at``."""
        owner = self._procedural_owner()
        store = self._store.store_set(owner)
        stamped = replace(procedure, updated_at=timestamp or _now_iso())
        store.procedural[stamped.procedure_id] = stamped
        self._store.mark_dirty(owner, "procedural")
        self._store.flush()
        return stamped.procedure_id

    def record_procedure_outcome(
        self, procedure_id: str, success: bool, timestamp: str | None = None
    ) -> Procedure:
        """Bump exactly one evidence counter of an existing procedure."""
        owner = self._procedural_owner()
        store = self._store.store_set(owner)
        procedure = store.procedural.get(procedure_id)
        if procedure is None:
            raise StoreError(f"unknown procedure_id {procedure_id!r} in {owner!r} store")
        updated = replace(
            procedure,
            successes=procedure.successes + int(success),
            failures=procedure.failures + int(not success),
            updated_at=timestamp or _now_iso(),
        )
        store.procedural[procedure_id] = updated
        self._store.mark_dirty(owner, "procedural")
        self._store.flush()
        return updated

    def remove_procedures(self, procedure_ids: Iterable[str]) -> None:
        owner = self._procedural_owner()
        store = self._store.store_set(owner)
        removed = False
        for pid in procedure_ids:
            if pid in store.procedural:
                del store.procedural[pid]
                removed = True
        if removed:
            self._store.mark_dirty(owner, "procedural")
            self._store.flush()

    def update_transactive(self, episode: Episode, task_type: str) -> None:
        """Fold one finished episode into profiles and team patterns.

        The episode's owner gets the aggregate update (task counters plus the
        running per-type success rate). Collaboration counters update for the
        owner and, outside the local topology, for every partner as well;
        under hybrid each partner's counters land in that partner's private
        store. The team pattern for the canonical composition updates in the
        aggregate store.
        """
        if episode.agent_id != self.agent_id:
            raise StoreError(
                f"view of {self.agent_id!r} cannot record transactive state for "
                f"{episode.agent_id!r}"
            )
        owner = episode.agent_id
        success = episode.outcome.success

        agg_owner = self._procedural_owner()
        agg_store = self._store.store_set(agg_owner)
        profile = agg_store.profiles.get(owner, AgentProfile(agent_id=owner))
        agg_store.profiles[owner] = profile.with_task_result(task_type, success)
        self._store.mark_dirty(agg_owner, "transactive")

        partners = [p for p in canonical_team_key(episode.team_composition) if p != owner]

        def bump_collab(store_owner: str, subject: str, partner: str) -> None:
            store = self._store.store_set(store_owner)
            subject_profile = store.profiles.get(subject, AgentProfile(agent_id=subject))
            store.profiles[subject] = subject_profile.with_collaboration(partner, success)
            self._store.mark_dirty(store_owner, "transactive")

        for partner in partners:
            bump_collab(self._collab_owner(owner), owner, partner)
            if self.topology is not Topology.LOCAL:
                bump_collab(self._collab_owner(partner), partner, owner)

        key = canonical_team_key(episode.team_composition)
        pattern = agg_store.team_patterns.get(key, TeamPattern(composition=key))
        agg_store.team_patterns[key] = pattern.with_result(task_type, success)
        self._store.mark_dirty(agg_owner, "transactive")

        self._store.flush()

    def persist(self) -> None:
        """Flush any pending writes; no-op on a clean store and inside a batch."""
        self._store.flush()
