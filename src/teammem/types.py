"""Core value types for the memory engine.

Everything in here is a plain immutable value object. The stored ones have
an explicit JSON shape (snake_case keys, matching the ``*_to_dict`` /
``*_from_dict`` pairs). The three memory kinds are:

* episodic: one :class:`Episode` per finished task,
* procedural: generalized :class:`Procedure` strategies with evidence counters,
* transactive: who-knows-what bookkeeping (:class:`AgentProfile`,
  :class:`TeamPattern`), derived from the stored tasks and never stored.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterable, Literal, NamedTuple, TypeVar

T = TypeVar("T")

# Combined task score is on a 0-100 scale; success compares the rescaled
# score (S/100) against this threshold.
DEFAULT_SUCCESS_THRESHOLD = 0.60

# Reliability-style ratios fall back to a neutral prior before any evidence.
NEUTRAL_RELIABILITY = 0.5

MemoryKind = Literal["episodic", "procedural"]


class CollabStats(NamedTuple):
    """Joint work counters for one partner in a collaboration history."""

    joint_tasks: int
    joint_successes: int


class TypeStats(NamedTuple):
    """Attempt/success counters for one task type."""

    attempts: int
    successes: int

    def rate(self) -> float:
        return self.successes / self.attempts if self.attempts else 0.0


@dataclass(frozen=True)
class Outcome:
    """Result of one task: teamwork score, completion score, success flag.

    ``ts`` and ``cs`` live on a 0-100 scale. The success flag is stored
    explicitly so callers may override the threshold rule when the
    environment supplies its own verdict.
    """

    ts: float
    cs: float
    success: bool

    def __post_init__(self) -> None:
        for name, value in (("ts", self.ts), ("cs", self.cs)):
            if not 0.0 <= float(value) <= 100.0:
                raise ValueError(f"Outcome.{name} must be in [0, 100], got {value!r}")


def combined_score(outcome: Outcome) -> float:
    """Per-task combined score: the mean of teamwork and completion scores."""
    return (outcome.ts + outcome.cs) / 2.0


def outcome_from_scores(
    ts: float, cs: float, success_threshold: float = DEFAULT_SUCCESS_THRESHOLD
) -> Outcome:
    """Build an Outcome, deriving success from the rescaled combined score."""
    success = (ts + cs) / 2.0 / 100.0 >= success_threshold
    return Outcome(ts=ts, cs=cs, success=success)


def canonical_team_key(agent_ids: Iterable[str]) -> tuple[str, ...]:
    """Sorted, deduplicated tuple of agent ids; the canonical team identity."""
    key = tuple(sorted(set(agent_ids)))
    if not key:
        raise ValueError("team composition must contain at least one agent id")
    return key


@dataclass(frozen=True)
class Episode:
    """One remembered task execution.

    ``task_index`` is the position in the owning agent's lifelong task
    sequence and, together with ``agent_id``, identifies the episode.
    ``timestamp`` is display metadata only; ordering always uses the index.
    """

    agent_id: str
    task_index: int
    timestamp: str
    task_description: str
    team_composition: tuple[str, ...]
    actions: tuple[str, ...]
    outcome: Outcome
    env_context: str = ""
    lessons: tuple[str, ...] = ()
    related_procedures: frozenset[str] = frozenset()

    def __post_init__(self) -> None:
        if self.task_index < 0:
            raise ValueError(f"task_index must be >= 0, got {self.task_index}")
        object.__setattr__(self, "team_composition", tuple(self.team_composition))
        object.__setattr__(self, "actions", tuple(self.actions))
        object.__setattr__(self, "lessons", tuple(self.lessons))
        object.__setattr__(
            self, "related_procedures", frozenset(self.related_procedures)
        )

    @property
    def episode_id(self) -> str:
        return f"{self.agent_id}:{self.task_index}"


@dataclass(frozen=True)
class Procedure:
    """A generalized, reusable strategy distilled from successful episodes.

    ``successes`` holds one success per source episode, added as
    consolidation gives it sources, plus one per recorded use of the
    procedure that succeeded; ``failures`` counts the recorded uses that
    failed. Both accumulate for the procedure's whole life, and its
    reliability is derived from them (see :func:`derive_reliability`).
    ``source_episodes`` is a set of episode ids in memory and in
    :func:`procedure_to_dict`; a store snapshot writes it as runs over
    lesson classes (see :mod:`teammem.store`).
    """

    procedure_id: str
    owner_id: str
    created_at: str
    updated_at: str
    title: str
    knowledge: str
    successes: int = 0
    failures: int = 0
    source_episodes: frozenset[str] = frozenset()

    def __post_init__(self) -> None:
        if self.successes < 0 or self.failures < 0:
            raise ValueError("procedure counters must be non-negative")
        if self.updated_at < self.created_at:
            raise ValueError(
                f"updated_at ({self.updated_at}) precedes created_at ({self.created_at})"
            )
        if not self.source_episodes:
            raise ValueError("source_episodes must be non-empty")
        object.__setattr__(self, "source_episodes", frozenset(self.source_episodes))


def derive_reliability(procedure: Procedure) -> float:
    """Success ratio of a procedure; neutral 0.5 before any evidence."""
    total = procedure.successes + procedure.failures
    if total == 0:
        return NEUTRAL_RELIABILITY
    return procedure.successes / total


@dataclass(frozen=True)
class AgentProfile:
    """Transactive record of one agent's demonstrated capabilities.

    ``task_type_counts`` holds the attempt/success counters per task type;
    ``proficiency`` and ``specializations`` are derived from them.
    ``collaboration_history`` maps partner agent id to joint work counters.
    """

    agent_id: str
    task_type_counts: dict[str, TypeStats] = field(default_factory=dict)
    collaboration_history: dict[str, CollabStats] = field(default_factory=dict)
    successes: int = 0
    total_tasks: int = 0

    def __post_init__(self) -> None:
        if self.successes < 0 or self.total_tasks < 0:
            raise ValueError("profile counters must be non-negative")
        if self.successes > self.total_tasks:
            raise ValueError("successes cannot exceed total_tasks")

    @property
    def proficiency(self) -> dict[str, float]:
        """The agent's running success rate on each task type it attempted."""
        return {t: stats.rate() for t, stats in self.task_type_counts.items()}

    @property
    def specializations(self) -> frozenset[str]:
        """The task types the agent attempted."""
        return frozenset(self.task_type_counts)


def derive_agent_reliability(profile: AgentProfile) -> float:
    """Overall success ratio of an agent; neutral 0.5 before any evidence."""
    if profile.total_tasks == 0:
        return NEUTRAL_RELIABILITY
    return profile.successes / profile.total_tasks


# A team's task type counts as suited once its success rate reaches
# SUITED_MIN_RATE over at least SUITED_MIN_ATTEMPTS attempts.
SUITED_MIN_RATE = 0.5
SUITED_MIN_ATTEMPTS = 2


@dataclass(frozen=True)
class TeamPattern:
    """Transactive record of how one team composition performs by task type."""

    composition: tuple[str, ...]
    suited_task_types: dict[str, TypeStats] = field(default_factory=dict)

    def __post_init__(self) -> None:
        canonical = canonical_team_key(self.composition)
        if tuple(self.composition) != canonical:
            raise ValueError(
                f"composition must be canonical (sorted, deduplicated): {canonical}"
            )

    def is_suited(self, task_type: str) -> bool:
        stats = self.suited_task_types.get(task_type)
        if stats is None or stats.attempts < SUITED_MIN_ATTEMPTS:
            return False
        return stats.rate() >= SUITED_MIN_RATE

    @property
    def suited_types(self) -> frozenset[str]:
        return frozenset(t for t in self.suited_task_types if self.is_suited(t))


@dataclass(frozen=True, slots=True)
class MemoryItem:
    """Uniform retrieval candidate wrapping an episode or a procedure.

    ``payload`` keeps a reference to the wrapped object for rendering; it is
    query-time scaffolding and never serialized.
    """

    kind: MemoryKind
    id: str
    text_for_embedding: str
    importance_raw: float
    payload: Any = field(default=None, compare=False, repr=False)


# ---------------------------------------------------------------------------
# JSON codecs. Keys are the wire contract; keep them stable.
# ---------------------------------------------------------------------------


def outcome_to_dict(o: Outcome) -> dict[str, Any]:
    return {"ts": o.ts, "cs": o.cs, "success": o.success}


def outcome_from_dict(d: dict[str, Any]) -> Outcome:
    """Decode an outcome; a ``success`` that is not a bool raises :class:`TypeError`."""
    if type(d["success"]) is not bool:
        raise TypeError(f"success must be a bool, got {d['success']!r}")
    return Outcome(ts=d["ts"], cs=d["cs"], success=d["success"])


def episode_to_dict(e: Episode) -> dict[str, Any]:
    return {
        "agent_id": e.agent_id,
        "task_index": e.task_index,
        "timestamp": e.timestamp,
        "task_description": e.task_description,
        "team_composition": list(e.team_composition),
        "actions": list(e.actions),
        "outcome": outcome_to_dict(e.outcome),
        "env_context": e.env_context,
        "lessons": list(e.lessons),
        "related_procedures": sorted(e.related_procedures),
    }


def _check_types(d: dict[str, Any], fields: tuple[tuple[str, type], ...]) -> None:
    """Raise :class:`TypeError` unless each ``d[key]`` is exactly of its type.

    ``type(v) is int`` also rejects a bool, and ``type(v) is list`` a string,
    which ``tuple()`` or ``frozenset()`` would split into characters.
    """
    for key, kind in fields:
        if type(d[key]) is not kind:
            raise TypeError(f"{key} must be a {kind.__name__}, got {d[key]!r}")


_EPISODE_FIELDS = (
    ("agent_id", str), ("task_index", int), ("timestamp", str), ("task_description", str),
    ("team_composition", list), ("actions", list), ("outcome", dict), ("lessons", list),
    ("related_procedures", list),
)
_PROCEDURE_FIELDS = (
    ("procedure_id", str), ("owner_id", str), ("created_at", str), ("updated_at", str),
    ("title", str), ("knowledge", str), ("successes", int), ("failures", int),
    ("source_episodes", list),
)


def episode_from_dict(d: dict[str, Any]) -> Episode:
    """Decode an episode; a wrongly typed field raises :class:`TypeError`."""
    _check_types(d, _EPISODE_FIELDS)
    if type(d.get("env_context", "")) is not str:
        raise TypeError(f"env_context must be a str, got {d['env_context']!r}")
    return Episode(
        agent_id=d["agent_id"],
        task_index=d["task_index"],
        timestamp=d["timestamp"],
        task_description=d["task_description"],
        team_composition=tuple(d["team_composition"]),
        actions=tuple(d["actions"]),
        outcome=outcome_from_dict(d["outcome"]),
        env_context=d.get("env_context", ""),
        lessons=tuple(d["lessons"]),
        related_procedures=frozenset(d["related_procedures"]),
    )


def procedure_to_dict(p: Procedure) -> dict[str, Any]:
    return {
        "procedure_id": p.procedure_id,
        "owner_id": p.owner_id,
        "created_at": p.created_at,
        "updated_at": p.updated_at,
        "title": p.title,
        "knowledge": p.knowledge,
        "successes": p.successes,
        "failures": p.failures,
        "source_episodes": sorted(p.source_episodes),
    }


def procedure_from_dict(d: dict[str, Any]) -> Procedure:
    """Decode a procedure; a wrongly typed field raises :class:`TypeError`."""
    _check_types(d, _PROCEDURE_FIELDS)
    return Procedure(
        procedure_id=d["procedure_id"],
        owner_id=d["owner_id"],
        created_at=d["created_at"],
        updated_at=d["updated_at"],
        title=d["title"],
        knowledge=d["knowledge"],
        successes=d["successes"],
        failures=d["failures"],
        source_episodes=frozenset(d["source_episodes"]),
    )


# Exactly the encoder json.dumps builds on each call for these two arguments.
_LINE_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def json_line(document: Any) -> str:
    """``document`` as one compact sorted-key JSON line, newline included.

    It encodes through one shared encoder, which is configuration, not a cache.
    """
    return _LINE_ENCODER.encode(document) + "\n"


def read_jsonl(path: Path | str, decode: Callable[[Any], T]) -> list[T]:
    """Decode every line of a JSONL file, reading it one line at a time.

    Blank lines are skipped. A line that is not UTF-8, is not JSON or that
    ``decode`` rejects, and a last line without its newline (a torn append),
    raise :class:`ValueError` naming the file and the 1-based line.
    """
    items = []
    try:
        with open(path, encoding="utf-8") as handle:
            for number, line in enumerate(handle, start=1):
                if not line.strip():
                    continue
                if not line.endswith("\n"):
                    raise ValueError(f"{path}, line {number}: truncated record (no final newline)")
                try:
                    items.append(decode(json.loads(line)))
                except (ValueError, KeyError, TypeError) as exc:
                    raise ValueError(f"{path}, line {number}: malformed record: {exc!r}") from exc
    except UnicodeDecodeError:
        # The text reader decodes a chunk at a time, so the error cannot say
        # which line holds the bad byte. Lines split as text mode splits them.
        for number, raw in enumerate(Path(path).read_bytes().splitlines(), start=1):
            try:
                raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise ValueError(f"{path}, line {number}: not UTF-8: {exc}") from exc
        raise
    return items
