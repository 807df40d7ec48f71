"""Brute-force retrieval reference, written from the documented contract.

It recomputes which memory kind serves a query and the top-k ids without
importing ``teammem.retrieval``: the signed feature-hashing recipe from the
``teammem.embedding`` docstring, cosine relevance, z-scores over the pool,
``score = z(relevance) + z(importance)`` and the tie-breaks (higher score,
then higher relevance, then lower id). The arithmetic follows the same order
as the recipe, so scores agree to the last bit; near-ties within
``TIE_TOLERANCE`` are still accepted so that a change that only reorders
floating-point sums is not reported as a wrong answer.
"""

from __future__ import annotations

import hashlib
import math
import re
from typing import Iterable

DIM = 256
STD_EPSILON = 1e-12
TIE_TOLERANCE = 1e-9
NEUTRAL_RELIABILITY = 0.5

_TOKEN_RE = re.compile(r"[a-z0-9]+")


def embed(text: str, dim: int = DIM) -> tuple[float, ...]:
    buckets = [0.0] * dim
    for token in _TOKEN_RE.findall(text.lower()):
        h = int.from_bytes(hashlib.blake2b(token.encode("utf-8"), digest_size=8).digest(), "big")
        buckets[h % dim] += 1.0 if (h >> 63) == 0 else -1.0
    norm = math.sqrt(sum(v * v for v in buckets))
    if norm == 0.0:
        return tuple(buckets)
    return tuple(v / norm for v in buckets)


def cosine(u: tuple[float, ...], v: tuple[float, ...]) -> float:
    norm_u = math.sqrt(sum(a * a for a in u))
    norm_v = math.sqrt(sum(b * b for b in v))
    if norm_u == 0.0 or norm_v == 0.0:
        return 0.0
    return sum(a * b for a, b in zip(u, v)) / (norm_u * norm_v)


def zscores(values: list[float]) -> list[float]:
    n = len(values)
    mean = sum(values) / n
    std = math.sqrt(sum((v - mean) ** 2 for v in values) / n)
    if std < STD_EPSILON:
        return [0.0] * n
    return [(v - mean) / std for v in values]


class Reference:
    """Reference answers over one fixed snapshot of a view's memory.

    Items are ``(id, text, importance)``; their vectors are computed once,
    since the snapshot does not change while it is queried.
    """

    def __init__(self, episodes: Iterable, procedures: Iterable) -> None:
        self.episodic = [
            (
                f"{e.agent_id}:{e.task_index}",
                " ".join([e.task_description, *e.lessons]),
                (e.outcome.ts + e.outcome.cs) / 2.0 / 100.0,
            )
            for e in episodes
        ]
        self.procedural = []
        for p in procedures:
            total = p.successes + p.failures
            reliability = p.successes / total if total else NEUTRAL_RELIABILITY
            self.procedural.append((p.procedure_id, f"{p.title} {p.knowledge}", reliability))
        self._vectors = {text: embed(text) for _, text, _ in self.episodic + self.procedural}

    def _rank(self, qvec, pool) -> list[tuple[float, float, str]]:
        rels = [cosine(qvec, self._vectors[text]) for _, text, _ in pool]
        rel_z = zscores(rels)
        imp_z = zscores([imp for _, _, imp in pool])
        ranked = [(rel_z[i] + imp_z[i], rels[i], pool[i][0]) for i in range(len(pool))]
        ranked.sort(key=lambda r: (-r[0], -r[1], r[2]))
        return ranked

    def check(self, text: str, k: int, threshold: float, kind_used: str, ids: tuple[str, ...]) -> str | None:
        """None when the answer matches the reference, else what differs."""
        qvec = embed(text)
        kind, pool = "episodic", self.episodic
        if self.procedural:
            best = max(cosine(qvec, self._vectors[t]) for _, t, _ in self.procedural)
            near_threshold = abs(best - threshold) <= TIE_TOLERANCE
            if best >= threshold:
                kind, pool = "procedural", self.procedural
            if kind != kind_used and near_threshold:
                kind, pool = kind_used, (self.procedural if kind_used == "procedural" else self.episodic)
        if kind != kind_used:
            return f"kind {kind_used!r}, reference {kind!r}"
        ranked = self._rank(qvec, pool) if pool else []
        expected = tuple(r[2] for r in ranked[:k])
        if ids == expected:
            return None
        scores = {r[2]: r[0] for r in ranked}
        if len(ids) != len(expected) or any(i not in scores for i in ids):
            return f"ids {ids}, reference {expected}"
        if len(set(ids)) == len(ids) and all(
            abs(scores[a] - scores[b]) <= TIE_TOLERANCE for a, b in zip(ids, expected)
        ):
            return None
        return f"ids {ids}, reference {expected}"
