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

``hash_embed`` and ``mean_vector`` fill only the buckets their inputs touch,
and every vector derives its norm and nonzero indices once, when it is made,
from its entries alone: one C-level scan picks the nonzero entries, and the
norm sums their squares in index order. Neither changes a single bit of the
recipe's output: every skipped term is an exact zero, and adding an exact
zero changes no float sum that starts at +0.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import math
import operator
import re
from dataclasses import dataclass
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

    The norm and the indices of the nonzero entries (ascending; NaN is
    nonzero, +-0.0 is not) are derived once, when the vector is made. They
    are not dataclass fields, so equality, hashing and ``values`` ignore them.
    """

    values: tuple[float, ...]

    def __post_init__(self) -> None:
        values = self.values
        kept = list(itertools.compress(values, values))
        derived = self.__dict__
        derived["_nonzero"] = tuple(itertools.compress(range(len(values)), values))
        derived["_norm"] = math.sqrt(sum(map(operator.mul, kept, kept)))

    @property
    def dim(self) -> int:
        return len(self.values)

    def norm(self) -> float:
        return self._norm

    def is_zero(self) -> bool:
        return not self._nonzero


def _token_signature(token: str, dim: int) -> tuple[int, float]:
    digest = hashlib.blake2b(token.encode("utf-8"), digest_size=8).digest()
    h = int.from_bytes(digest, "big")
    sign = 1.0 if (h >> 63) == 0 else -1.0
    return h % dim, sign


def _check_dim(dim: int) -> None:
    if not isinstance(dim, int) or isinstance(dim, bool):
        raise ValueError(f"dim must be an integer, got {dim!r}")
    if dim < 1:
        raise ValueError(f"dim must be >= 1, got {dim}")


def hash_embed(text: str, dim: int = DEFAULT_DIM) -> EmbeddingVector:
    """Embed ``text`` with the signed feature-hashing recipe above."""
    _check_dim(dim)
    counts: dict[int, float] = {}
    for token in tokenize(text):
        index, sign = _token_signature(token, dim)
        counts[index] = counts.get(index, 0.0) + sign
    # Counts are small integers, so their squares sum exactly in any order.
    norm = math.sqrt(sum(count * count for count in counts.values()))
    values = [_ZERO] * dim
    for i, count in counts.items():
        if count:
            values[i] = count / norm
    return EmbeddingVector(values=tuple(values))


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


class BucketIndex:
    """Vectors in order, with an inverted index of their nonzero buckets.

    ``index.cosines(u)`` equals ``cosines(u, index.vectors)`` bit for bit,
    but reads only the postings of ``u``'s nonzero buckets: feature-hashed
    vectors are sparse (Weinberger et al., "Feature hashing for large scale
    multitask learning", ICML 2009), so a short query shares few buckets with
    any item (Zobel and Moffat, "Inverted files for text search engines", ACM
    Computing Surveys 2006). A vector's dot with ``u`` is ``sum()`` of the
    products ``u[j] * v[j]`` at the buckets both hold, ascending. ``cosines``
    sums the same products with ``sum()``, and each term it adds beyond them
    is an exact +-0.0, which changes no float sum that starts at +0, plain or
    compensated (Python 3.12 on), so the sums are equal. A vector sharing no
    bucket with ``u`` scores +0.0, as there. Any case where ``cosines``
    leaves the sparse dot (a dimension mismatch, which raises; a norm product
    that is not finite, or that underflows to zero) scores the whole list
    with ``cosines`` itself.

    A bucket's postings are built when a query first reads it, by one scan
    over every vector's entry there, and each later read scans only the
    vectors added since. Building only the buckets queries read keeps a fresh
    index cheap: a bucket list per vector at extension costs more than the
    first query's whole scan.
    """

    def __init__(self) -> None:
        self.vectors: list[EmbeddingVector] = []
        # Each vector's entries, so that a bucket's postings are scanned in C.
        self._values: list[tuple[float, ...]] = []
        # Postings of the buckets read so far, and how many vectors each has scanned.
        self._buckets: dict[int, list[int]] = {}
        self._scanned: dict[int, int] = {}
        self._dims: set[int] = set()
        # Over the vectors with a nonzero entry: the largest norm (inf if one
        # is not finite) and the smallest.
        self._max_norm = 0.0
        self._min_norm = math.inf

    def extend(self, vectors: Iterable[EmbeddingVector]) -> None:
        added = list(vectors)
        values = [v.values for v in added]
        self.vectors += added
        self._values += values
        self._dims.update(map(len, values))
        norms = [v._norm for v in added if v._nonzero]
        if norms:
            finite = all(map(math.isfinite, norms))
            self._max_norm = max(self._max_norm, *norms) if finite else math.inf
            self._min_norm = min(self._min_norm, *norms)

    def _postings(self, j: int) -> list[int]:
        """Indices of the vectors with a nonzero entry in bucket ``j``, ascending."""
        postings = self._buckets.setdefault(j, [])
        start = self._scanned.get(j, 0)
        if start < len(self._values):
            entries = map(operator.itemgetter(j), self._values[start:])
            postings += itertools.compress(itertools.count(start), entries)
            self._scanned[j] = len(self._values)
        return postings

    def cosines(self, u: EmbeddingVector) -> list[float]:
        """``cosines(u, self.vectors)``, reading only the postings ``u`` touches."""
        norm_u = u._norm
        if self._dims - {u.dim} or not (
            norm_u == 0.0
            or (math.isfinite(norm_u * self._max_norm) and norm_u * self._min_norm != 0.0)
        ):
            return cosines(u, self.vectors)
        out = [0.0] * len(self.vectors)
        if norm_u == 0.0:
            return out
        values = self._values
        terms: dict[int, list[float]] = {}
        for j in u._nonzero:
            a = u.values[j]
            for i in self._postings(j):
                terms.setdefault(i, []).append(a * values[i][j])
        vectors = self.vectors
        for i, products in terms.items():
            out[i] = sum(products) / (norm_u * vectors[i]._norm)
        return out


def cosine(u: EmbeddingVector, v: EmbeddingVector) -> float:
    """Cosine similarity; 0.0 whenever either vector is all zeros."""
    return cosines(u, (v,))[0]


def mean_vector(vectors: list[EmbeddingVector], dim: int) -> EmbeddingVector:
    """Plain componentwise mean; zero vector for an empty list.

    Each input adds only its nonzero entries. A running sum that starts at
    +0.0 is never -0.0, and adding +-0.0 leaves any other float unchanged, so
    the sums equal the dense ones bit for bit.
    """
    sums: dict[int, float] = {}
    for vec in vectors:
        if vec.dim != dim:
            raise ValueError(f"dimension mismatch: {vec.dim} != {dim}")
        entries = vec.values
        for i in vec._nonzero:
            sums[i] = sums.get(i, 0.0) + entries[i]
    n = len(vectors)
    values = [_ZERO] * dim
    for i, total in sums.items():
        if total:
            values[i] = total / n
    return EmbeddingVector(values=tuple(values))


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

    An embedder holds only its ``dim``. Vectors come from the one bounded
    memo that every embedder in the process shares, so a new embedder (a new
    run, a new query session over a reopened store) does not hash again what
    an earlier one did. A vector depends only on the text and ``dim``, so a
    hit returns exactly what a miss would build.
    """

    def __init__(self, dim: int = DEFAULT_DIM) -> None:
        _check_dim(dim)
        self._dim = dim

    @property
    def dim(self) -> int:
        return self._dim

    def embed(self, text: str) -> EmbeddingVector:
        return _memo_embed(text, self._dim)


_PROVIDER_FACTORIES: dict[str, Callable[[int], EmbeddingProvider]] = {
    "hash": lambda dim: HashEmbedder(dim),
}


def register_provider(name: str, factory: Callable[[int], EmbeddingProvider]) -> None:
    """Register an external provider factory under a config name."""
    _PROVIDER_FACTORIES[name] = factory


def provider_factory(name: str) -> Callable[[int], EmbeddingProvider]:
    """The factory registered under ``name``; ``ValueError`` lists the known names."""
    factory = _PROVIDER_FACTORIES.get(name)
    if factory is None:
        known = ", ".join(sorted(_PROVIDER_FACTORIES))
        raise ValueError(f"unknown provider {name!r} (known: {known})")
    return factory


def provider_from_config(config: dict | None) -> EmbeddingProvider:
    """Build a provider from an ``embedding`` config section.

    Recognized keys: ``provider`` (default ``"hash"``) and ``dim``
    (default 256). An unknown provider name or a bad dim raises
    ``ValueError`` naming the offending key.
    """
    config = config or {}
    try:
        factory = provider_factory(config.get("provider", "hash"))
    except ValueError as exc:
        raise ValueError(f"embedding.provider: {exc}") from None
    try:
        return factory(config.get("dim", DEFAULT_DIM))
    except ValueError as exc:
        raise ValueError(f"embedding.dim: {exc}") from None
