"""Core value types for the memory engine, and the tables that persist them.

Everything in here is a plain immutable value object. The three memory kinds
are:

* episodic: one :class:`Episode` per finished task,
* procedural: generalized :class:`Procedure` strategies with evidence counters,
* transactive: who-knows-what bookkeeping (:class:`AgentProfile`,
  :class:`TeamPattern`), derived from the stored tasks and never stored.

A stored value object declares each field once, with :func:`stored`: its
kind and an optional check. The :func:`record` decorator reads the class's
table, its ``ROWS``, off those fields in field order: one row per field,
giving the JSON key, the attribute, the kind and the check (see :data:`Row`).
Construction checks every field against the table, so an invalid record
cannot be built; :func:`from_dict` decodes a record through the same check,
and :func:`to_dict` spells one by the same keys. The simulation config's
tables are read off its dataclass fields the same way (:func:`rows_of`); the
store's task records, snapshots and meta, which are documents and not
classes, keep literal tables of the same rows.
"""

from __future__ import annotations

import json
import sys
from dataclasses import MISSING, dataclass, field, fields
from pathlib import Path
from typing import Any, Callable, ClassVar, Iterable, Literal, NamedTuple, Sequence, TypeVar

T = TypeVar("T")

# Combined task score is on a 0-100 scale; success compares the rescaled
# score (S/100) against this threshold.
DEFAULT_SUCCESS_THRESHOLD = 0.60

# Reliability-style ratios fall back to a neutral prior before any evidence.
NEUTRAL_RELIABILITY = 0.5

MemoryKind = Literal["episodic", "procedural"]


# ---------------------------------------------------------------------------
# Tables. Keys are the wire contract; keep them stable.
# ---------------------------------------------------------------------------

# One field of a stored document: (JSON path, attribute, kind, check). A kind
# is int, str or bool, which takes only values of exactly that type (an int
# kind takes no bool); a record class, which takes a record or its JSON
# object; or a function that takes a value as given and returns it as stored,
# raising ValueError. A check is a rule, (test, message): a stored value that
# fails the test raises ValueError(message.format(value)). Either error gets
# the path as its prefix. A dotted path (the config's only) names a key
# inside a section.
Rule = tuple[Callable[[Any], Any], str]
Row = tuple[str, str, Any, Rule | None]

_TYPE_NAMES = {int: "an integer", str: "a string", bool: "true or false"}


def _kind(*rules: Rule, convert: Callable[[Any], Any] | None = None) -> Callable[[Any], Any]:
    """Reject a value failing a ``(test, message)`` rule; return it, through ``convert`` if set."""

    def accept(value: Any) -> Any:
        for test, message in rules:
            if not test(value):
                raise ValueError(message.format(value))
        return value if convert is None else convert(value)

    return accept


def _number(value: Any) -> Any:
    """An ``int`` or ``float`` that is finite; no ``bool``, no ``str``."""
    if type(value) is not float and type(value) is not int:
        raise ValueError(f"must be a number, got {value!r}")
    # exact for ints too large for a float, which math.isfinite cannot take
    if not abs(value) <= sys.float_info.max:
        raise ValueError(f"must be finite, got {value!r}")
    return value


def _strings(value: Any) -> tuple[str, ...]:
    """A list or tuple of strings, stored as a tuple; a string is never split into characters."""
    if type(value) is list or type(value) is tuple:
        try:
            "".join(value)  # joins strings only: one C-level test of every element
            return tuple(value)
        except TypeError:
            pass
    raise ValueError(f"must be a list of strings, got {value!r}")


def _string_set(value: Any) -> frozenset[str]:
    """A list or tuple of strings, stored as a frozenset.

    A frozenset is taken as stored, so that ``dataclasses.replace`` does not
    rescan a procedure's sources on every evidence bump; the store checks its
    elements where a procedure is written.
    """
    return value if type(value) is frozenset else frozenset(_strings(value))


_non_negative = (lambda v: v >= 0, "must be >= 0, got {!r}")
_at_least_one = (lambda v: v >= 1, "must be >= 1, got {!r}")
_percent = (lambda v: 0.0 <= v <= 100.0, "must be in [0, 100], got {!r}")
_non_empty = (bool, "must not be empty")


def check_rows(rows: Sequence[Row], values: dict[str, Any]) -> None:
    """Check each row's value in ``values``, and put it back in its kind's form.

    ``values`` is a dict by attribute (a record passes its ``vars``), where a
    missing key raises :class:`KeyError`. A failed kind or check raises
    :class:`ValueError` as ``"<path>: <message>"``.
    """
    for path, attribute, kind, check in rows:
        given = values[attribute]
        try:
            if type(kind) is not type:
                value = kind(given)
            elif type(given) is kind:
                value = given
            elif kind in _TYPE_NAMES:
                raise ValueError(f"must be {_TYPE_NAMES[kind]}, got {given!r}")
            else:
                value = from_dict(kind, given)
            if check is not None and not check[0](value):
                raise ValueError(check[1].format(value))
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None
        if value is not given:
            values[attribute] = value


def check_object(rows: Sequence[Row], document: Any) -> None:
    """:func:`check_rows` of a JSON object that must hold exactly the rows' keys."""
    if type(document) is not dict:
        raise ValueError(f"must be an object, got {document!r}")
    check_rows(rows, document)
    if len(document) != len(rows):  # each row's key is there, so any other is unknown
        unknown = sorted(document.keys() - {attribute for _, attribute, _, _ in rows})
        raise ValueError(f"unknown keys: {', '.join(unknown)}")


class Record:
    """A value object stored as the JSON object that its ``ROWS`` describe.

    Construction checks every row, then :meth:`_check`, so an invalid record
    cannot be built; :func:`from_dict` decodes through the same checks. A
    subclass is made with :func:`record`, which sets its ``ROWS``.
    """

    ROWS: ClassVar[tuple[Row, ...]]
    # the attributes whose stored form is not their JSON form: sets and records
    _SPELLED: ClassVar[tuple[str, ...]]

    def __post_init__(self) -> None:
        check_rows(self.ROWS, vars(self))  # a frozen record's dict takes the stored forms
        self._check()

    def _check(self) -> None:
        """Rules that tie fields together; none unless a record adds them."""


def stored(kind: Any, check: Rule | None = None, *, path: str = "", default: Any = MISSING) -> Any:
    """A dataclass field stored by the row ``(path, name, kind, check)``.

    ``path`` defaults to the field's name; only the config's sectioned keys
    give one.
    """
    return field(default=default, metadata={"row": (path, kind, check)})


def rows_of(cls: type) -> tuple[Row, ...]:
    """The rows of a dataclass, one per field in field order, each declared by :func:`stored`.

    A field declared otherwise raises :class:`TypeError` naming the class and the field.
    """
    rows = []
    for f in fields(cls):
        if "row" not in f.metadata:
            raise TypeError(f"{cls.__name__}.{f.name} is not declared by stored(...)")
        path, kind, check = f.metadata["row"]
        rows.append((path or f.name, f.name, kind, check))
    return tuple(rows)


R = TypeVar("R", bound=Record)


def record(cls: type[R]) -> type[R]:
    """Make ``cls`` a frozen dataclass, its ``ROWS`` read off its fields."""
    cls = dataclass(frozen=True)(cls)
    cls.ROWS = rows_of(cls)
    cls._SPELLED = tuple(
        attribute for _, attribute, kind, _ in cls.ROWS
        if kind is _string_set or isinstance(kind, type) and issubclass(kind, Record)
    )
    return cls


def from_dict(cls: type[R], document: Any) -> R:
    """Decode a record of ``cls`` from its JSON object, checked as construction checks it.

    The object's values are put in their stored form in place. A missing key
    raises :class:`KeyError`; anything else wrong, :class:`ValueError`.
    """
    check_object(cls.ROWS, document)
    return checked_record(cls, document)


def checked_record(cls: type[R], values: dict[str, Any]) -> R:
    """A record of ``cls`` holding ``values``, each already checked by its row."""
    record = object.__new__(cls)
    record.__dict__.update(values)  # one copy, not a frozen setattr per field
    record._check()
    return record


def to_dict(record: Record) -> dict[str, Any]:
    """A record as its JSON object: its attributes, which are its rows' keys.

    A set is spelled sorted and a record by its own attributes; JSON writes a
    tuple as an array.
    """
    out = dict(vars(record))
    for attribute in record._SPELLED:
        value = out[attribute]
        out[attribute] = sorted(value) if type(value) is frozenset else to_dict(value)
    return out


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


@record
class Outcome(Record):
    """Result of one task: teamwork score, completion score, success flag.

    ``ts`` and ``cs`` live on a 0-100 scale. The success flag is stored
    explicitly so callers may override the threshold rule when the
    environment supplies its own verdict.
    """

    ts: float = stored(_number, _percent)
    cs: float = stored(_number, _percent)
    success: bool = stored(bool)


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


@record
class Episode(Record):
    """One remembered task execution.

    ``task_index`` is the position in the owning agent's lifelong task
    sequence and, together with ``agent_id``, identifies the episode.
    ``timestamp`` is display metadata only; ordering always uses the index.
    """

    agent_id: str = stored(str)
    task_index: int = stored(int, _non_negative)
    timestamp: str = stored(str)
    task_description: str = stored(str)
    team_composition: tuple[str, ...] = stored(_strings, _non_empty)
    actions: tuple[str, ...] = stored(_strings)
    outcome: Outcome = stored(Outcome)
    env_context: str = stored(str, default="")
    lessons: tuple[str, ...] = stored(_strings, default=())
    related_procedures: frozenset[str] = stored(_string_set, default=frozenset())

    @property
    def episode_id(self) -> str:
        return f"{self.agent_id}:{self.task_index}"


@record
class Procedure(Record):
    """A generalized, reusable strategy distilled from successful episodes.

    ``successes`` holds one success per source episode, added as
    consolidation gives it sources, plus one per recorded use of the
    procedure that succeeded; ``failures`` counts the recorded uses that
    failed. Both accumulate for the procedure's whole life, and its
    reliability is derived from them (see :func:`derive_reliability`).
    ``source_episodes`` is a set of episode ids in memory and in
    :func:`to_dict`; a store snapshot writes it as runs over lesson classes
    (see :mod:`teammem.store`).
    """

    procedure_id: str = stored(str)
    owner_id: str = stored(str)
    created_at: str = stored(str)
    updated_at: str = stored(str)
    title: str = stored(str)
    knowledge: str = stored(str)
    successes: int = stored(int, _non_negative, default=0)
    failures: int = stored(int, _non_negative, default=0)
    source_episodes: frozenset[str] = stored(_string_set, _non_empty, default=frozenset())

    def _check(self) -> None:
        if self.updated_at < self.created_at:
            raise ValueError(
                f"updated_at ({self.updated_at}) precedes created_at ({self.created_at})"
            )


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
