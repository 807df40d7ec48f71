"""Memory lifecycle: per-task updates and periodic consolidation.

After every finished task, :func:`post_task_update` extracts lessons, appends
the episode and bumps the evidence counters of any procedures that were
used; transactive state is derived from the stored tasks when it is read.
Every ``interval_n`` new episodes, :func:`maybe_consolidate` clusters the
episodic store by lesson similarity. Each cluster with enough successful
members keeps one procedure for its whole life: a new cluster is distilled
into a fresh procedure (under ``hybrid``, merged into a shared one of the
same strategy), a grown cluster extends its procedure in place, and
clusters that merged merge their procedures. Procedures whose source sets
are dominated are pruned.

Lesson extraction and generalization go through a :class:`Generator`. The
bundled :class:`StubGenerator` is fully deterministic; an external
LLM-backed generator plugs in behind the same interface using the prompt
templates at the bottom of this module.
"""

from __future__ import annotations

import hashlib
import itertools
import logging
from dataclasses import dataclass, field, replace
from typing import Iterable, Protocol, Sequence

from .embedding import EmbeddingProvider, EmbeddingVector, cosines, mean_vector
from .retrieval import embedding_text_for_procedure
from .store import MemoryView, Topology, _now_iso
from .types import Episode, Outcome, Procedure, derive_reliability

logger = logging.getLogger(__name__)

EXTRACTION_FAILED_LESSON = "<extraction failed>"
MAX_LESSONS = 3

# The paper's consolidation rule: single link at lesson cosine >= 0.80, and a
# procedure for every cluster with at least two successful episodes.
CLUSTER_THRESHOLD = 0.80
MIN_SUCCESSES = 2


class Generator(Protocol):
    """Turns raw task experience into lessons and generalized strategies."""

    def extract_lessons(
        self,
        task: str,
        actions: Sequence[str],
        outcome: Outcome,
        role: str | None = None,
    ) -> list[str]: ...

    def generalize(self, episodes: Sequence[Episode]) -> tuple[str, str]: ...


@dataclass(frozen=True)
class ConsolidationConfig:
    interval_n: int = 5

    def __post_init__(self) -> None:
        if self.interval_n < 1:
            raise ValueError("interval_n must be >= 1")


def _task_digest(task: str) -> int:
    return int.from_bytes(hashlib.blake2b(task.encode("utf-8"), digest_size=4).digest(), "big")


def stub_extract_lessons(task: str, actions: Sequence[str], outcome: Outcome) -> list[str]:
    """Deterministic lesson extraction used by the stub generator.

    Emits one to three templated strings keyed on the outcome flag and a
    hash of the task text, referencing the opening action so that repeated
    use of the same playbook produces a small, stable set of lesson strings.
    """
    first_action = actions[0] if actions else "plan the approach first"
    digest = _task_digest(task)
    if outcome.success:
        lessons = [f"Repeat '{first_action}' early; it led to success."]
        variants = [
            f"Open with '{first_action}' for similar tasks ahead.",
            f"Open with '{first_action}' for similar tasks soon.",
        ]
    else:
        lessons = [f"'{first_action}' did not prevent failure; adjust it before retrying."]
        variants = [
            f"Rework '{first_action}' before taking on similar tasks ahead.",
            f"Rework '{first_action}' before taking on similar tasks soon.",
        ]
    lessons.append(variants[digest % 2])
    if digest % 3 == 0 and len(actions) > 1:
        word = "sufficient" if outcome.success else "insufficient"
        lessons.append(f"A plan of {len(actions)} steps was {word} here.")
    return lessons[:MAX_LESSONS]


def stub_generalize(episodes: Sequence[Episode]) -> tuple[str, str]:
    """Deterministic generalization used by the stub generator.

    The title is the first six tokens of the most frequent lesson (count,
    then lexicographic order breaks ties); the knowledge is every distinct
    lesson joined in sorted order.
    """
    counts: dict[str, int] = {}
    for episode in episodes:
        for lesson in episode.lessons:
            counts[lesson] = counts.get(lesson, 0) + 1
    if not counts:
        return ("Reuse the prior approach", "Repeat what worked on similar tasks.")
    top = min(counts, key=lambda lesson: (-counts[lesson], lesson))
    title = " ".join(top.split()[:6])
    knowledge = "; ".join(sorted(counts))
    return (title, knowledge)


class StubGenerator:
    """Offline deterministic generator; safe for tests and simulations."""

    def extract_lessons(
        self,
        task: str,
        actions: Sequence[str],
        outcome: Outcome,
        role: str | None = None,
    ) -> list[str]:
        return stub_extract_lessons(task, actions, outcome)

    def generalize(self, episodes: Sequence[Episode]) -> tuple[str, str]:
        return stub_generalize(episodes)


def _safe_lessons(
    generator: Generator,
    task: str,
    actions: Sequence[str],
    outcome: Outcome,
    role: str | None,
) -> tuple[str, ...]:
    try:
        raw = generator.extract_lessons(task, actions, outcome, role=role)
        lessons = [s.strip() for s in raw if isinstance(s, str) and s.strip()]
        if not lessons:
            raise ValueError("generator returned no usable lessons")
        return tuple(lessons[:MAX_LESSONS])
    except Exception:
        logger.warning("lesson extraction failed for task %r; storing placeholder", task[:80])
        return (EXTRACTION_FAILED_LESSON,)


def post_task_update(
    view: MemoryView,
    task: str,
    actions: Sequence[str],
    outcome: Outcome,
    procedures_used: Sequence[str],
    generator: Generator,
    task_type: str,
    *,
    team_composition: Sequence[str] | None = None,
    env_context: str = "",
    role: str | None = None,
    task_index: int | None = None,
    timestamp: str | None = None,
) -> Episode:
    """Fold one finished task into memory; returns the stored episode.

    Extraction failures never lose the episode: a placeholder lesson is
    stored and a warning logged. Under
    :class:`~teammem.embedding.HashEmbedder` at dim 1 and at every
    power-of-two dim up to 256, the default included, the placeholder embeds
    to the zero vector, so such an episode never joins a cluster or a
    procedure.

    The episode and the evidence counters of the procedures used persist as
    one task record (see :meth:`MemoryView.record_task`) before return, or at
    the end of the caller's batch inside one. The record, with its
    ``task_type``, is all that profiles and team patterns are derived from;
    nothing else is written for them.
    """
    lessons = _safe_lessons(generator, task, actions, outcome, role)
    if task_index is None:
        own = [e.task_index for e in view.episodes() if e.agent_id == view.agent_id]
        task_index = max(own) + 1 if own else 0
    stamp = timestamp or _now_iso()
    episode = Episode(
        agent_id=view.agent_id,
        task_index=task_index,
        timestamp=stamp,
        task_description=task,
        team_composition=tuple(team_composition or (view.agent_id,)),
        actions=tuple(actions),
        outcome=outcome,
        env_context=env_context,
        lessons=lessons,
        related_procedures=frozenset(procedures_used),
    )
    view.record_task(episode, task_type, procedures_used)
    return episode


def lesson_vector(lessons: tuple[str, ...], embedder: EmbeddingProvider) -> EmbeddingVector:
    """Mean embedding of a lesson tuple (zero vector when empty)."""
    vectors = [embedder.embed(lesson) for lesson in lessons]
    return mean_vector(vectors, embedder.dim)


@dataclass
class _SingleLink:
    """Single-link clustering of numbered lesson tuples, extended as numbers are added.

    Consolidation numbers a log's lesson classes, :func:`cluster_by_lessons`
    its input's distinct tuples. Equal tuples embed to equal vectors and
    ``cosines`` is symmetric, so the episodes of one number link to exactly
    the same episodes, and a tuple seen under both outcomes is two classes
    that link alike. A new number is embedded once and compared with every
    earlier one and itself; single-link clusters only merge as points are
    added (Sibson's SLINK), so earlier pairs are never revisited. Every
    episode of a *linked* number (one that clears the threshold with any,
    itself included) joins its root; every episode of an unlinked one (a
    zero or non-finite vector, or a threshold above its self-cosine) is a
    cluster of its own.
    """

    embedder: EmbeddingProvider
    threshold: float
    vectors: list[EmbeddingVector] = field(default_factory=list)
    parent: list[int] = field(default_factory=list)
    linked: list[bool] = field(default_factory=list)

    def _find(self, number: int) -> int:
        parent = self.parent
        while parent[number] != number:
            parent[number] = parent[parent[number]]
            number = parent[number]
        return number

    def groups(self, tuples: Iterable[tuple[str, ...]]) -> list[list[int]]:
        """Extend over the tuples past the known ones; return the linked numbers by cluster.

        ``tuples`` is every number's lesson tuple in number order: what the
        last call was given, extended. Clusters come in order of their lowest
        number, numbers ascending; an unlinked number is in none.
        """
        for lessons in itertools.islice(tuples, len(self.vectors), None):
            number = len(self.vectors)
            self.vectors.append(lesson_vector(lessons, self.embedder))
            self.parent.append(number)
            self.linked.append(False)
            for k, similarity in enumerate(cosines(self.vectors[number], self.vectors)):
                if similarity >= self.threshold:
                    self.linked[k] = self.linked[number] = True
                    self.parent[self._find(k)] = number  # number stays a root
        groups: dict[int, list[int]] = {}
        for number, linked in enumerate(self.linked):
            if linked:
                groups.setdefault(self._find(number), []).append(number)
        return list(groups.values())


def cluster_by_lessons(
    episodes: Sequence[Episode], embedder: EmbeddingProvider, threshold: float
) -> list[list[Episode]]:
    """Single-link agglomeration over lesson-embedding cosine similarity.

    Two episodes land in the same cluster whenever a chain of pairwise
    similarities at or above ``threshold`` connects them. Clusters are
    ordered by their first member's position; members keep input order.
    """
    numbers: dict[tuple[str, ...], int] = {}
    of = [numbers.setdefault(e.lessons, len(numbers)) for e in episodes]
    groups = _SingleLink(embedder, threshold).groups(numbers)
    cluster_of = {number: c for c, group in enumerate(groups) for number in group}
    # Keyed by cluster, or by ~index for an episode of an unlinked tuple.
    clusters: dict[int, list[Episode]] = {}
    for i, (episode, number) in enumerate(zip(episodes, of)):
        clusters.setdefault(cluster_of.get(number, ~i), []).append(episode)
    return list(clusters.values())


def _prune_dominated(view: MemoryView) -> set[str]:
    """Remove procedures whose source sets are dominated; returns removed ids.

    A procedure loses when its source set is a strict subset of another's.
    Procedures with identical source sets keep the one with higher derived
    reliability, then earlier ``created_at``, then lower id.
    """
    procedures = view.procedures()
    by_sources: dict[frozenset[str], list[Procedure]] = {}
    for procedure in procedures.values():
        by_sources.setdefault(procedure.source_episodes, []).append(procedure)

    removed: set[str] = set()
    winners: list[Procedure] = []
    for group in by_sources.values():
        group.sort(key=lambda p: (-derive_reliability(p), p.created_at, p.procedure_id))
        winners.append(group[0])
        removed.update(p.procedure_id for p in group[1:])

    for p in winners:
        for q in winners:
            if p.procedure_id != q.procedure_id and p.source_episodes < q.source_episodes:
                removed.add(p.procedure_id)
                break

    view.remove_procedures(sorted(removed))
    return removed


def _similar_procedure(
    live: dict[str, Procedure], text: str, embedder: EmbeddingProvider
) -> Procedure | None:
    """The lowest-id live procedure whose text embeds at ``CLUSTER_THRESHOLD`` to ``text``."""
    ids = sorted(live)
    vectors = [embedder.embed(embedding_text_for_procedure(live[pid])) for pid in ids]
    for pid, similarity in zip(ids, cosines(embedder.embed(text), vectors)):
        if similarity >= CLUSTER_THRESHOLD:
            return live[pid]
    return None


def consolidate(
    view: MemoryView,
    cfg: ConsolidationConfig,
    generator: Generator,
    embedder: EmbeddingProvider,
    *,
    timestamp: str | None = None,
) -> list[Procedure]:
    """Run one consolidation pass over every episode visible to ``view``.

    Each cluster with at least ``MIN_SUCCESSES`` successful members (ids
    ``S``) is matched to the live procedures whose sources share an id with
    ``S``. Single-link clusters only merge as episodes are appended, so a
    procedure's sources stay inside one cluster of their pool:

    * one match: the procedure is extended in place without a ``generalize``
      call. Its id, ``created_at``, text and counters stay; ``S`` joins its
      sources and each new source adds a success. Nothing is written when
      ``S`` is already covered.
    * no match: ``S`` is generalized into a fresh procedure seeded with one
      success per source. Under ``hybrid``, where every agent's pool feeds
      one shared set, a text that embeds at ``CLUSTER_THRESHOLD`` or above to
      a live procedure is merged into the lowest-id such procedure instead:
      ``S`` joins its sources and adds ``|S|`` successes.
    * several matches (their clusters merged): ``S`` is generalized once
      into the lowest-id match, which takes the summed counters and the
      union of the sources; the other matches are removed.

    Then procedures whose source sets are dominated are pruned. The
    episodic store is never modified, and every change is flushed once, at
    the end. Returns the procedures the pass created, extended or merged
    into that survive pruning. ``cfg`` sets only the interval, which
    :func:`maybe_consolidate` reads.
    """
    log = view.episodic_store()
    if log.cluster_state is None or log.cluster_state.embedder is not embedder:
        log.cluster_state = _SingleLink(embedder, CLUSTER_THRESHOLD)
    classes = list(log.class_numbers)
    with view.batch():
        owner = view.procedure_owner()
        stamp = timestamp or _now_iso()
        live = view.procedures()
        changed: dict[str, Procedure] = {}
        # An unlinked class's episodes are clusters of one, below MIN_SUCCESSES.
        for cluster in log.cluster_state.groups(lessons for lessons, _ in classes):
            # the members of its classes whose success flag is set
            sources = frozenset().union(*(log.class_members[n] for n in cluster if classes[n][1]))
            if len(sources) < MIN_SUCCESSES:
                continue
            matches = [p for p in live.values() if not p.source_episodes.isdisjoint(sources)]
            if len(matches) == 1:
                procedure = matches[0]
                if sources <= procedure.source_episodes:
                    continue
            else:
                successful = [e for e in log.episodic if e.episode_id in sources]
                try:
                    title, knowledge = generator.generalize(successful)
                    if not title or not knowledge:
                        raise ValueError("generalization returned empty title or knowledge")
                except Exception:
                    logger.warning(
                        "generalization failed for a cluster of %d episodes; skipping",
                        sum(len(log.class_members[n]) for n in cluster),
                    )
                    continue
                if matches:  # their clusters merged: the lowest id takes them all
                    matches.sort(key=lambda p: p.procedure_id)
                    procedure = replace(
                        matches[0],
                        title=title,
                        knowledge=knowledge,
                        successes=sum(p.successes for p in matches),
                        failures=sum(p.failures for p in matches),
                        source_episodes=frozenset().union(*(p.source_episodes for p in matches)),
                    )
                    gone = [p.procedure_id for p in matches[1:]]
                    view.remove_procedures(gone)
                    for pid in gone:
                        del live[pid]
                        changed.pop(pid, None)
                else:  # under hybrid, another agent's pool may have this strategy
                    procedure = None
                    if view.topology is Topology.HYBRID:
                        procedure = _similar_procedure(live, f"{title} {knowledge}", embedder)
                if procedure is None:
                    procedure = Procedure(
                        procedure_id=view.allocate_procedure_id(),
                        owner_id=owner,
                        created_at=stamp,
                        updated_at=stamp,
                        title=title,
                        knowledge=knowledge,
                        successes=len(sources),
                        failures=0,
                        source_episodes=sources,
                    )
            # one success per source it did not hold yet
            procedure = replace(
                procedure,
                successes=procedure.successes + len(sources - procedure.source_episodes),
                source_episodes=procedure.source_episodes | sources,
            )
            pid = view.upsert_procedure(procedure, timestamp=stamp)
            live[pid] = changed[pid] = view.get_procedure(pid)
        removed = _prune_dominated(view)
        return [p for pid, p in changed.items() if pid not in removed]


def maybe_consolidate(
    view: MemoryView,
    cfg: ConsolidationConfig,
    generator: Generator,
    embedder: EmbeddingProvider,
    *,
    timestamp: str | None = None,
) -> list[Procedure]:
    """Consolidate when ``interval_n`` episodes accumulated since last time."""
    count = len(view.episodic_store().episodic)
    if count - view.consolidation_watermark() < cfg.interval_n:
        return []
    new_procedures = consolidate(view, cfg, generator, embedder, timestamp=timestamp)
    view.set_consolidation_watermark(count)
    return new_procedures


# ---------------------------------------------------------------------------
# Prompt contract for external (LLM-backed) generators. The stub never uses
# these; they define the byte-exact rendering an external generator must send.
# ---------------------------------------------------------------------------

LESSON_EXTRACTION_SYSTEM_PROMPT = (
    "You are a reflective learning assistant that extracts actionable lessons "
    "from task experiences."
)

GENERALIZATION_SYSTEM_PROMPT = (
    "You extract generalized, reusable strategies from task experiences."
)


def _outcome_str(outcome: Outcome) -> str:
    verdict = "success" if outcome.success else "failure"
    return f"{verdict} (TS={outcome.ts:.2f}, CS={outcome.cs:.2f})"


def render_lesson_extraction_prompt(
    task: str,
    actions: Sequence[str],
    outcome: Outcome,
    *,
    role: str | None = None,
    task_summary: str | None = None,
) -> str:
    """User prompt asking an external generator for 1-3 lessons."""
    role_section = f"You are acting as: {role}." if role else ""
    summary_section = f"Task summary context: {task_summary}" if task_summary else ""
    actions_str = "; ".join(actions) if actions else "(none recorded)"
    focus = (
        "The task succeeded. Focus on which concrete actions to repeat."
        if outcome.success
        else "The task had issues. Focus on which concrete actions to change."
    )
    return (
        "Based on the following task experience, extract 1-3 concise, actionable lessons learned.\n"
        "Focus on CONCRETE actions: which tool functions should have been called, what patterns worked or failed, and what specific steps to take next time.\n"
        "Do NOT suggest vague advice like 'communicate better' or 'provide clearer instructions'.\n"
        "Instead, suggest specific tool calls or strategies.\n"
        "\n"
        f"{role_section}\n"
        f"Task: {task}\n"
        "\n"
        f"{summary_section}\n"
        f"Actions taken: {actions_str}\n"
        f"Outcome: {_outcome_str(outcome)}\n"
        "\n"
        f"{focus}\n"
        "Return the lessons as a JSON array of strings. Example:\n"
        '["Lesson 1", ...]'
    )


def render_generalization_prompt(episodes: Sequence[Episode]) -> str:
    """User prompt asking an external generator for a reusable strategy."""
    blocks = []
    for i, episode in enumerate(episodes, start=1):
        blocks.append(
            f"Episode {i}:\n"
            f"  Task: {episode.task_description}\n"
            f"  Lessons: {'; '.join(episode.lessons)}\n"
            f"  Outcome: {_outcome_str(episode.outcome)}"
        )
    episodes_str = "\n\n".join(blocks)
    return (
        "Based on the following successful task experiences, extract a generalized\n"
        "and actionable strategy and skill that can be reused in similar future situations.\n"
        "Avoid vague advice.\n"
        "\n"
        f"{episodes_str}\n"
        "\n"
        "Respond in JSON format:\n"
        '{"title": "Short descriptive title",\n'
        ' "knowledge_content": "Detailed strategy and skill description"}'
    )
