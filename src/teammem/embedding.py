"""Deterministic text embeddings.

The built-in provider is a signed feature-hashing embedder. It exists so that
every retrieval and consolidation decision in this package is reproducible
byte-for-byte across processes and machines; swap in a semantic provider
behind the same interface when real embeddings are wanted.

Hash recipe (the contract tests recompute this independently):

1. Tokenize: lowercase the text and take maximal runs of ``[a-z0-9]``;
   whitespace and punctuation both act as separators.
2. For each token, hash with ``blake2b(token.encode("utf-8"), digest_size=8)``
   and read the digest as a big-endian unsigned integer ``h``.
3. Bucket ``h % dim`` accumulates ``+1`` when the top digest bit
   (``h >> 63``) is 0, else ``-1``.
4. L2-normalize the bucket counts. No tokens at all yields the zero vector.
"""

from __future__ import annotations

import functools
import hashlib
import math
import operator
import re
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, Protocol

DEFAULT_DIM = 256

_TOKEN_RE = re.compile(r"[a-z0-9]+")

# Every empty bucket of a built vector is this one float object, so a vector
# kept in a memo holds a float object only per nonzero entry.
_ZERO = 0.0


def tokenize(text: str) -> list[str]:
    """Lowercase alphanumeric tokens; everything else separates."""
    return _TOKEN_RE.findall(text.lower())


@dataclass(frozen=True)
class EmbeddingVector:
    """Fixed-dimension embedding; unit L2 norm or the all-zero vector.

    The norm and the nonzero entries are derived once, on first use; they are
    not dataclass fields, so equality, hashing and ``values`` ignore them.
    """

    values: tuple[float, ...]

    @property
    def dim(self) -> int:
        return len(self.values)

    @cached_property
    def _norm(self) -> float:
        return math.sqrt(sum(v * v for v in self.values))

    @cached_property
    def _nonzero(self) -> tuple[int, ...]:
        """Indices of the nonzero entries, ascending."""
        return tuple(i for i, v in enumerate(self.values) if v != 0.0)

    def norm(self) -> float:
        return self._norm

    def is_zero(self) -> bool:
        return all(v == 0.0 for v in self.values)


def _token_signature(token: str, dim: int) -> tuple[int, float]:
    digest = hashlib.blake2b(token.encode("utf-8"), digest_size=8).digest()
    h = int.from_bytes(digest, "big")
    sign = 1.0 if (h >> 63) == 0 else -1.0
    return h % dim, sign


def hash_embed(text: str, dim: int = DEFAULT_DIM) -> EmbeddingVector:
    """Embed ``text`` with the signed feature-hashing recipe above."""
    if dim < 1:
        raise ValueError(f"dim must be >= 1, got {dim}")
    buckets = [0.0] * dim
    for token in tokenize(text):
        index, sign = _token_signature(token, dim)
        buckets[index] += sign
    norm = math.sqrt(sum(v * v for v in buckets))
    if norm == 0.0:
        return EmbeddingVector(values=(_ZERO,) * dim)
    return EmbeddingVector(values=tuple(v / norm if v else _ZERO for v in buckets))


def cosines(u: EmbeddingVector, vectors: Iterable[EmbeddingVector]) -> list[float]:
    """Cosine similarity of ``u`` with each of ``vectors``, in order.

    0.0 whenever either vector is all zeros; a dimension mismatch raises
    ``ValueError``. The norm, nonzero indices and dimension of ``u`` are read
    once, so scoring a pool against one query pays for the query once.
    """
    dim = u.dim
    norm_u = u._norm
    nonzero_u = u._nonzero
    values_u = u.values
    at_u = values_u.__getitem__
    out: list[float] = []
    for v in vectors:
        if len(v.values) != dim:
            raise ValueError(f"dimension mismatch: {dim} != {v.dim}")
        norm_v = v._norm
        if norm_u == 0.0 or norm_v == 0.0:
            out.append(0.0)
            continue
        if not math.isfinite(norm_u * norm_v):
            out.append(sum(a * b for a, b in zip(values_u, v.values)) / (norm_u * norm_v))
            continue
        # Sparse dot, bit-identical to the dense sum above: with finite
        # entries every skipped term is an exact +-0.0, and adding +-0.0 never
        # changes a float sum that starts at +0. The kept terms are summed in
        # index order over the sparser side's indices, ``u``'s on a tie.
        nonzero_v = v._nonzero
        indices = nonzero_u if len(nonzero_u) <= len(nonzero_v) else nonzero_v
        kept_v = map(v.values.__getitem__, indices)
        dot = sum(map(operator.mul, map(at_u, indices), kept_v))
        out.append(dot / (norm_u * norm_v))
    return out


def cosine(u: EmbeddingVector, v: EmbeddingVector) -> float:
    """Cosine similarity; 0.0 whenever either vector is all zeros."""
    return cosines(u, (v,))[0]


def mean_vector(vectors: list[EmbeddingVector], dim: int) -> EmbeddingVector:
    """Plain componentwise mean; zero vector for an empty list."""
    if not vectors:
        return EmbeddingVector(values=(_ZERO,) * dim)
    acc = [0.0] * dim
    for vec in vectors:
        if vec.dim != dim:
            raise ValueError(f"dimension mismatch: {vec.dim} != {dim}")
        for i, value in enumerate(vec.values):
            acc[i] += value
    n = len(vectors)
    return EmbeddingVector(values=tuple(v / n if v else _ZERO for v in acc))


class EmbeddingProvider(Protocol):
    """Anything that turns text into a fixed-dimension vector."""

    @property
    def dim(self) -> int: ...

    def embed(self, text: str) -> EmbeddingVector: ...


# Vectors kept by the memo every HashEmbedder shares; least recently used
# ones are dropped first.
_MEMO_SIZE = 512


@functools.lru_cache(maxsize=_MEMO_SIZE)
def _memo_embed(text: str, dim: int) -> EmbeddingVector:
    return hash_embed(text, dim)


class HashEmbedder:
    """Default provider: deterministic signed feature hashing.

    Vectors are memoized by text on the instance, and a new instance is
    seeded from one bounded memo that every instance in the process shares,
    so it does not hash again what an earlier embedder already did. A vector
    depends only on the text and ``dim``, so a hit returns exactly what a
    miss would build.
    """

    def __init__(self, dim: int = DEFAULT_DIM) -> None:
        if dim < 1:
            raise ValueError(f"dim must be >= 1, got {dim}")
        self._dim = dim
        self._memo: dict[str, EmbeddingVector] = {}

    @property
    def dim(self) -> int:
        return self._dim

    def embed(self, text: str) -> EmbeddingVector:
        vector = self._memo.get(text)
        if vector is None:
            vector = self._memo[text] = _memo_embed(text, self._dim)
        return vector


_PROVIDER_FACTORIES: dict[str, Callable[[int], EmbeddingProvider]] = {
    "hash": lambda dim: HashEmbedder(dim),
}


def register_provider(name: str, factory: Callable[[int], EmbeddingProvider]) -> None:
    """Register an external provider factory under a config name."""
    _PROVIDER_FACTORIES[name] = factory


def provider_from_config(config: dict | None) -> EmbeddingProvider:
    """Build a provider from an ``embedding`` config section.

    Recognized keys: ``provider`` (default ``"hash"``) and ``dim``
    (default 256). Unknown provider names raise ``ValueError`` naming
    the offending key.
    """
    config = config or {}
    name = config.get("provider", "hash")
    dim = config.get("dim", DEFAULT_DIM)
    factory = _PROVIDER_FACTORIES.get(name)
    if factory is None:
        known = ", ".join(sorted(_PROVIDER_FACTORIES))
        raise ValueError(f"embedding.provider: unknown provider {name!r} (known: {known})")
    return factory(dim)
