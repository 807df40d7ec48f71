"""Memory retrieval: standardized relevance-plus-importance scoring.

Given a query, every visible candidate of one kind is scored

    score = z(relevance) + z(importance)

where relevance is the cosine between query and item embeddings, importance
is the item's intrinsic weight (procedure reliability, or the episode's
combined score rescaled to [0, 1]), and both are z-standardized over the
query-time pool of that kind. Retrieval is hierarchical: procedures are
preferred when the best raw procedural relevance clears a threshold,
otherwise episodes serve as fallback.

Procedures are few and rebuilt per query, so they are scored with
``cosines``. Episodes are ranked through an :class:`EpisodicIndex`, which the
store set owning the log keeps between queries: its bucket index computes
only the dot products a query's nonzero buckets can reach, bit-equal to
``cosines``, and the importance z-scores are kept until the pool grows. The
top ``k`` are the items scoring at least the ``k``-th largest score
(``heapq.nlargest``), sorted by the ranking key. Every result equals the
first ``k`` of :func:`score_pool`'s full ranking, float for float.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

from .embedding import BucketIndex, EmbeddingProvider, cosines
from .store import MemoryView
from .types import (
    Episode,
    MemoryItem,
    Procedure,
    combined_score,
    derive_reliability,
)

DEFAULT_TOP_K = 3
DEFAULT_PROC_FALLBACK_THRESHOLD = 0.30

# Below this spread a pool is treated as constant and z-scores collapse to 0.
_STD_EPSILON = 1e-12


@dataclass(frozen=True)
class Query:
    text: str
    k: int = DEFAULT_TOP_K
    proc_fallback_threshold: float = DEFAULT_PROC_FALLBACK_THRESHOLD

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")


@dataclass(frozen=True)
class ScoredItem:
    item: MemoryItem
    rel: float
    imp: float
    rel_z: float
    imp_z: float
    score: float


@dataclass(frozen=True)
class RetrievalResult:
    kind_used: str
    items: tuple[ScoredItem, ...]

    @property
    def ids(self) -> tuple[str, ...]:
        return tuple(s.item.id for s in self.items)


def embedding_text_for_episode(episode: Episode) -> str:
    """Task description plus all lessons, space-joined."""
    return " ".join([episode.task_description, *episode.lessons])


def embedding_text_for_procedure(procedure: Procedure) -> str:
    """Title plus knowledge, space-joined."""
    return f"{procedure.title} {procedure.knowledge}"


def episode_importance(episode: Episode) -> float:
    """Combined task score rescaled to [0, 1]."""
    return combined_score(episode.outcome) / 100.0


def episodic_items(episodes: Iterable[Episode]) -> list[MemoryItem]:
    return [
        MemoryItem(
            kind="episodic",
            id=e.episode_id,
            text_for_embedding=embedding_text_for_episode(e),
            importance_raw=episode_importance(e),
            payload=e,
        )
        for e in episodes
    ]


def procedural_items(procedures: Iterable[Procedure]) -> list[MemoryItem]:
    return [
        MemoryItem(
            kind="procedural",
            id=p.procedure_id,
            text_for_embedding=embedding_text_for_procedure(p),
            importance_raw=derive_reliability(p),
            payload=p,
        )
        for p in procedures
    ]


def _zscores(values: Sequence[float]) -> list[float]:
    n = len(values)
    mean = sum(values) / n
    std = math.sqrt(sum((v - mean) ** 2 for v in values) / n)
    if std < _STD_EPSILON:
        return [0.0] * n
    return [(v - mean) / std for v in values]


def _relevances(
    query: Query, pool: Sequence[MemoryItem], embedder: EmbeddingProvider
) -> list[float]:
    query_vec = embedder.embed(query.text)
    return cosines(query_vec, (embedder.embed(item.text_for_embedding) for item in pool))


def _rank(
    pool: Sequence[MemoryItem],
    rels: Sequence[float],
    k: int,
    imp_z: Sequence[float] | None = None,
) -> list[ScoredItem]:
    """The pool's ``k`` best items, best first.

    ``heapq.nsmallest`` returns exactly ``sorted(...)[:k]``, so the top ``k``
    are the first ``k`` of the full ranking. Every one of them scores at
    least the ``k``-th largest score, so only the items that do are ranked;
    a NaN ``k``-th score (z-scores are all NaN or none) ranks them all, as
    does ``k >= len(pool)``. Only the selected items become ScoredItems. The
    importance z-scores are computed here unless the caller kept them.
    """
    if imp_z is None:
        imp_z = _zscores([item.importance_raw for item in pool])
    rel_z = _zscores(rels)
    scores = [r + i for r, i in zip(rel_z, imp_z)]

    def key(i: int) -> tuple[float, float, str]:
        return (-scores[i], -rels[i], pool[i].id)

    candidates: Sequence[int] = range(len(pool))
    if k < len(pool):
        kth = heapq.nlargest(k, scores)[-1]
        if kth == kth:
            candidates = [i for i, s in enumerate(scores) if s >= kth]
    return [
        ScoredItem(
            item=pool[i],
            rel=rels[i],
            imp=pool[i].importance_raw,
            rel_z=rel_z[i],
            imp_z=imp_z[i],
            score=scores[i],
        )
        for i in heapq.nsmallest(k, candidates, key=key)
    ]


def score_pool(
    query: Query, pool: Sequence[MemoryItem], embedder: EmbeddingProvider
) -> list[ScoredItem]:
    """Score and rank one pool of a single memory kind.

    Both relevance and importance are standardized over this pool. Output is
    sorted by descending score; ties fall back to higher raw relevance, then
    to the lexicographically lower item id.
    """
    if not pool:
        return []
    return _rank(pool, _relevances(query, pool, embedder), len(pool))


def _procedural_hit(
    query: Query, procedural_pool: Sequence[MemoryItem], embedder: EmbeddingProvider
) -> RetrievalResult | None:
    """The procedural result when any procedure reaches the threshold, else None."""
    if procedural_pool:
        rels = _relevances(query, procedural_pool, embedder)
        if max(rels) >= query.proc_fallback_threshold:
            ranked = _rank(procedural_pool, rels, query.k)
            return RetrievalResult(kind_used="procedural", items=tuple(ranked))
    return None


class EpisodicIndex:
    """Episodic memory items with their vectors, bound to one embedder.

    The items in order, and their vectors in a
    :class:`~teammem.embedding.BucketIndex`. The importance z-scores do not
    depend on the query, so they are kept until the next :meth:`extend`.
    Vectors are embedded once, so a reused index assumes a provider that maps
    equal text to equal vectors.
    """

    def __init__(self, embedder: EmbeddingProvider, items: Iterable[MemoryItem] = ()) -> None:
        self.embedder = embedder
        self.items: list[MemoryItem] = []
        self.vectors = BucketIndex()
        self._imp_z: list[float] = []
        self.extend(items)

    def __len__(self) -> int:
        return len(self.items)

    def extend(self, items: Iterable[MemoryItem]) -> None:
        added = list(items)
        self.items += added
        embed = self.embedder.embed
        self.vectors.extend([embed(item.text_for_embedding) for item in added])

    def rank(self, query: Query) -> list[ScoredItem]:
        """The first ``query.k`` of :func:`score_pool` over the items."""
        if not self.items:
            return []
        if len(self._imp_z) != len(self.items):
            self._imp_z = _zscores([item.importance_raw for item in self.items])
        rels = self.vectors.cosines(self.embedder.embed(query.text))
        return _rank(self.items, rels, query.k, self._imp_z)


def retrieve_from_pools(
    query: Query,
    procedural_pool: Sequence[MemoryItem],
    episodic_pool: Sequence[MemoryItem] | EpisodicIndex,
    embedder: EmbeddingProvider,
) -> RetrievalResult:
    """Hierarchical retrieval over prebuilt pools.

    Procedures win when any of them reaches the raw-relevance threshold;
    otherwise episodes are used. Empty pools yield an empty result, never an
    error. Procedural relevances are computed once and serve both the
    threshold test and the ranking. Only the top ``k`` of a pool become
    ScoredItems; they equal the first ``k`` of :func:`score_pool`. Episodes
    are ranked through an :class:`EpisodicIndex`: ``episodic_pool`` itself
    when it is one, which must be bound to ``embedder`` (else ``ValueError``),
    or one built for this query.
    """
    hit = _procedural_hit(query, procedural_pool, embedder)
    if hit is not None:
        return hit
    index = episodic_pool
    if not isinstance(index, EpisodicIndex):
        index = EpisodicIndex(embedder, index)
    elif index.embedder is not embedder:
        raise ValueError("the episodic index is bound to another embedder")
    return RetrievalResult(kind_used="episodic", items=tuple(index.rank(query)))


def _episodic_index(view: MemoryView, embedder: EmbeddingProvider) -> EpisodicIndex:
    """The view's episodes, indexed for ``embedder``, kept on the store set that owns them.

    The episode log only grows, so only the episodes appended since the last
    call are added; a reopened store, or another embedder, starts a new index.
    """
    store = view.episodic_store()
    index = store.episodic_index
    if index is None or index.embedder is not embedder:
        index = store.episodic_index = EpisodicIndex(embedder)
    index.extend(episodic_items(store.episodic[len(index):]))
    return index


def retrieve(view: MemoryView, query: Query, embedder: EmbeddingProvider) -> RetrievalResult:
    """Retrieve the top-k memory items visible to ``view`` for this query.

    The episodic index is built only when procedures do not serve the query,
    and then only extended by the episodes appended since the last fallback.
    """
    hit = _procedural_hit(query, procedural_items(view.procedures().values()), embedder)
    if hit is not None:
        return hit
    return retrieve_from_pools(query, (), _episodic_index(view, embedder), embedder)


def render_memory_context(result: RetrievalResult) -> str:
    """Render a retrieval result as the past-experience prompt block.

    An empty result renders as the empty string so callers can drop the
    surrounding delimiters entirely.
    """
    if not result.items:
        return ""
    lines: list[str] = []
    if result.kind_used == "procedural":
        lines.append("[Relevant Procedures & Strategies]")
        for scored in result.items:
            procedure: Procedure = scored.item.payload
            rate = derive_reliability(procedure)
            lines.append(f"- {procedure.title} (success rate: {rate:.2f})")
            lines.append(f"  Strategy : {procedure.knowledge}")
    else:
        lines.append("[Past Experiences]")
        for scored in result.items:
            episode: Episode = scored.item.payload
            verdict = "succeeded" if episode.outcome.success else "had issues"
            lines.append(f"- Similar past task: {episode.task_description}")
            lines.append(f"  Result: {verdict}")
            lines.append(f"  Takeaway: {'; '.join(episode.lessons)}")
    return "\n".join(lines)
