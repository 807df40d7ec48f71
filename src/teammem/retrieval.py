"""Memory retrieval: standardized relevance-plus-importance scoring.

Given a query, every visible candidate of one kind is scored

    score = z(relevance) + z(importance)

where relevance is the cosine between query and item embeddings, importance
is the item's intrinsic weight (procedure reliability, or the episode's
combined score rescaled to [0, 1]), and both are z-standardized over the
query-time pool of that kind. Retrieval is hierarchical: procedures are
preferred when the best raw procedural relevance clears a threshold,
otherwise episodes serve as fallback.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

from .embedding import EmbeddingProvider, cosines
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


def _rank(pool: Sequence[MemoryItem], rels: Sequence[float], k: int) -> list[ScoredItem]:
    """The pool's ``k`` best items, best first.

    ``heapq.nsmallest`` returns exactly ``sorted(...)[:k]``, so the top ``k``
    are the first ``k`` of the full ranking, and ``k >= len(pool)`` ranks the
    whole pool; only the selected items become ScoredItems.
    """
    imps = [item.importance_raw for item in pool]
    rel_z = _zscores(rels)
    imp_z = _zscores(imps)
    scores = [r + i for r, i in zip(rel_z, imp_z)]

    def key(i: int) -> tuple[float, float, str]:
        return (-scores[i], -rels[i], pool[i].id)

    return [
        ScoredItem(
            item=pool[i],
            rel=rels[i],
            imp=imps[i],
            rel_z=rel_z[i],
            imp_z=imp_z[i],
            score=scores[i],
        )
        for i in heapq.nsmallest(k, range(len(pool)), key=key)
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


def retrieve_from_pools(
    query: Query,
    procedural_pool: Sequence[MemoryItem],
    episodic_pool: Sequence[MemoryItem],
    embedder: EmbeddingProvider,
) -> RetrievalResult:
    """Hierarchical retrieval over prebuilt pools.

    Procedures win when any of them reaches the raw-relevance threshold;
    otherwise episodes are used. Empty pools yield an empty result, never an
    error. Procedural relevances are computed once and serve both the
    threshold test and the ranking. Only the top ``k`` of a pool become
    ScoredItems; they equal the first ``k`` of :func:`score_pool`.
    """
    hit = _procedural_hit(query, procedural_pool, embedder)
    if hit is not None:
        return hit
    if not episodic_pool:
        return RetrievalResult(kind_used="episodic", items=())
    ranked = _rank(episodic_pool, _relevances(query, episodic_pool, embedder), query.k)
    return RetrievalResult(kind_used="episodic", items=tuple(ranked))


def _episodic_pool(view: MemoryView) -> list[MemoryItem]:
    """The view's episodes as memory items, kept on the store set that owns them.

    The episode log only grows, so only the episodes appended since the last
    call become new items; a reopened store starts with an empty pool.
    """
    store = view.episodic_store()
    pool = store.episodic_pool
    pool.extend(episodic_items(store.episodic[len(pool):]))
    return pool


def retrieve(view: MemoryView, query: Query, embedder: EmbeddingProvider) -> RetrievalResult:
    """Retrieve the top-k memory items visible to ``view`` for this query.

    The episodic pool is built only when procedures do not serve the query,
    and then only extended by the episodes appended since the last fallback.
    """
    hit = _procedural_hit(query, procedural_items(view.procedures().values()), embedder)
    if hit is not None:
        return hit
    return retrieve_from_pools(query, (), _episodic_pool(view), embedder)


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
