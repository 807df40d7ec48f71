"""Embedding contract tests.

The hash recipe is recomputed here from scratch (blake2b, bucket, sign,
normalize) so that any drift in the implementation shows up against an
independent reimplementation rather than against itself.
"""

import functools
import hashlib
import math
import re
import string
import struct

import pytest
from hypothesis import example, given, strategies as st

from teammem.embedding import (
    _MEMO_SIZE,
    _ZERO,
    _memo_embed,
    DEFAULT_DIM,
    BucketIndex,
    EmbeddingVector,
    HashEmbedder,
    cosine,
    cosines,
    hash_embed,
    mean_vector,
    provider_from_config,
    register_provider,
    tokenize,
)


def reference_hash(token):
    digest = hashlib.blake2b(token.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big")


def reference_counts(text, dim=DEFAULT_DIM):
    """Independent recomputation of the documented recipe's bucket counts."""
    import re

    buckets = [0.0] * dim
    for token in re.findall(r"[a-z0-9]+", text.lower()):
        h = reference_hash(token)
        buckets[h % dim] += 1.0 if (h >> 63) == 0 else -1.0
    return buckets


def reference_embed(text, dim=DEFAULT_DIM):
    """Independent recomputation of the documented recipe."""
    buckets = reference_counts(text, dim)
    norm = math.sqrt(sum(v * v for v in buckets))
    if norm == 0.0:
        return tuple(buckets)
    return tuple(v / norm for v in buckets)


def test_tokenize_splits_on_non_alphanumerics():
    assert tokenize("Hello, World! 42") == ["hello", "world", "42"]
    assert tokenize("a-b_c") == ["a", "b", "c"]
    assert tokenize("...") == []
    assert tokenize("") == []


def test_alpha_beta_frozen_vector():
    # Recomputed by hand from the recipe: "alpha" lands in bucket 154 with
    # sign +1, "beta" in bucket 174 with sign +1; both end up at 1/sqrt(2).
    v = hash_embed("alpha beta")
    expected = 1.0 / math.sqrt(2.0)
    assert v.dim == 256
    assert v.values[154] == pytest.approx(expected, abs=1e-12)
    assert v.values[174] == pytest.approx(expected, abs=1e-12)
    assert sum(1 for x in v.values if x != 0.0) == 2


def test_matches_reference_implementation():
    texts = [
        "alpha beta",
        "Deploy the payment service safely",
        "repeated repeated repeated words",
        "MiXeD CaSe 123 !!!",
        "",
        "zephyr",
    ]
    for text in texts:
        assert hash_embed(text).values == reference_embed(text)
    for text in texts:
        assert hash_embed(text, dim=16).values == reference_embed(text, dim=16)


def test_embedding_is_stable_across_repeats():
    first = hash_embed("payment gateway retry storm triage")
    for _ in range(1000):
        assert hash_embed("payment gateway retry storm triage") == first


def test_empty_text_gives_zero_vector():
    v = hash_embed("?!")
    assert v.is_zero()
    assert v.norm() == 0.0


def test_nonempty_text_gives_unit_norm():
    assert hash_embed("one two three").norm() == pytest.approx(1.0, abs=1e-12)


def test_cosine_basics():
    a = hash_embed("alpha beta")
    b = hash_embed("alpha gamma")
    assert cosine(a, a) == pytest.approx(1.0, abs=1e-12)
    assert cosine(a, b) == cosine(b, a)
    assert cosine(a, hash_embed("")) == 0.0


def test_cosine_dimension_mismatch_raises():
    with pytest.raises(ValueError):
        cosine(hash_embed("x", dim=8), hash_embed("x", dim=16))


def test_mean_vector():
    a = EmbeddingVector(values=(1.0, 0.0))
    b = EmbeddingVector(values=(0.0, 1.0))
    assert mean_vector([a, b], 2).values == (0.5, 0.5)
    assert mean_vector([], 4).is_zero()
    with pytest.raises(ValueError):
        mean_vector([a], 3)


def test_hash_embed_rejects_bad_dim():
    with pytest.raises(ValueError):
        hash_embed("x", dim=0)
    with pytest.raises(ValueError):
        HashEmbedder(dim=-1)
    # a config names its key, as it does for a bad provider
    for dim in (0, -1):
        with pytest.raises(ValueError, match=f"^embedding\\.dim: dim must be >= 1, got {dim}$"):
            provider_from_config({"dim": dim})
    # a bool is not a dim, and a float or a string fails at once, naming the dim
    for dim in (True, False, 16.0, "16", None):
        named = re.escape(f"dim must be an integer, got {dim!r}")
        with pytest.raises(ValueError, match=named):
            hash_embed("x", dim=dim)
        with pytest.raises(ValueError, match=named):
            HashEmbedder(dim)
        with pytest.raises(ValueError, match=f"^embedding\\.dim: {named}$"):
            provider_from_config({"dim": dim})


def test_provider_from_config():
    p = provider_from_config(None)
    assert p.dim == 256
    p = provider_from_config({"provider": "hash", "dim": 32})
    assert p.dim == 32
    assert p.embed("alpha beta").values == reference_embed("alpha beta", dim=32)


def test_unknown_provider_names_the_key():
    with pytest.raises(ValueError) as exc:
        provider_from_config({"provider": "nonexistent"})
    assert "embedding.provider" in str(exc.value)


def test_register_provider_makes_name_available():
    class Fixed:
        dim = 2

        def embed(self, text):
            return EmbeddingVector(values=(1.0, 0.0))

    register_provider("fixed-for-test", lambda dim: Fixed())
    p = provider_from_config({"provider": "fixed-for-test"})
    assert p.embed("anything").values == (1.0, 0.0)


@given(st.text(max_size=200))
def test_norm_is_zero_or_one(text):
    n = hash_embed(text).norm()
    assert n == 0.0 or abs(n - 1.0) < 1e-9


@given(st.text(max_size=200))
def test_lowercasing_is_canonical(text):
    assert hash_embed(text) == hash_embed(text.lower())


@given(st.text(alphabet=string.ascii_letters + string.digits + " .,-", max_size=200))
def test_ascii_case_insensitive(text):
    assert hash_embed(text) == hash_embed(text.upper())


@given(
    st.lists(st.sampled_from("alpha beta gamma delta epsilon zeta".split()), max_size=12),
    st.lists(st.sampled_from("alpha beta gamma delta epsilon zeta".split()), max_size=12),
)
def test_cosine_bounded(words_a, words_b):
    c = cosine(hash_embed(" ".join(words_a)), hash_embed(" ".join(words_b)))
    assert -1.0 - 1e-9 <= c <= 1.0 + 1e-9


# -- derived state: memo, cached norm, sparse dot -------------------------------


def dense_cosine(u, v):
    """The dense formula, term for term, as the contract states it."""
    norm_u = math.sqrt(sum(a * a for a in u.values))
    norm_v = math.sqrt(sum(b * b for b in v.values))
    if norm_u == 0.0 or norm_v == 0.0:
        return 0.0
    return sum(a * b for a, b in zip(u.values, v.values)) / (norm_u * norm_v)


WORDS = st.lists(
    st.sampled_from("alpha beta gamma delta epsilon zeta eta theta iota kappa".split()),
    max_size=10,
)
TEXTS = WORDS.map(" ".join) | st.text(max_size=80)


@given(TEXTS, TEXTS, st.sampled_from([4, 16, DEFAULT_DIM]))
def test_cosine_equals_dense_sum_exactly_on_texts(text_a, text_b, dim):
    u, v = hash_embed(text_a, dim), hash_embed(text_b, dim)
    assert cosine(u, v) == dense_cosine(u, v)
    assert cosine(v, u) == dense_cosine(v, u)


@given(st.lists(TEXTS, max_size=4), st.lists(TEXTS, max_size=4), st.sampled_from([8, DEFAULT_DIM]))
def test_cosine_equals_dense_sum_exactly_on_mean_vectors(texts_a, texts_b, dim):
    u = mean_vector([hash_embed(t, dim) for t in texts_a], dim)
    v = mean_vector([hash_embed(t, dim) for t in texts_b], dim)
    assert cosine(u, v) == dense_cosine(u, v)
    assert cosine(u, hash_embed(" ".join(texts_b), dim)) == dense_cosine(
        u, hash_embed(" ".join(texts_b), dim)
    )


@given(
    st.lists(st.floats(min_value=-1.0, max_value=1.0) | st.just(0.0), min_size=6, max_size=6),
    st.lists(st.floats(min_value=-1.0, max_value=1.0) | st.just(0.0), min_size=6, max_size=6),
)
def test_cosine_equals_dense_sum_exactly_on_raw_vectors(a, b):
    u, v = EmbeddingVector(values=tuple(a)), EmbeddingVector(values=tuple(b))
    assert cosine(u, v) == dense_cosine(u, v)


def bits(x):
    return struct.pack("<d", x)


ENTRY = st.floats(min_value=-1.0, max_value=1.0) | st.sampled_from([0.0, -0.0])
RAW = st.lists(ENTRY, min_size=6, max_size=6).map(tuple) | st.sampled_from(
    [
        (0.0,) * 6,
        (-0.0,) * 6,
        (0.0, 0.0, 0.5, 0.0, 0.0, 0.0),
        (1.0,) * 6,
        (math.inf, 0.0, 1.0, 0.0, 0.0, 0.0),  # non-finite norm: the dense fallback
    ]
)


@given(RAW, st.lists(RAW, max_size=8))
def test_cosines_is_bit_equal_to_the_dense_sum_for_every_vector(u_values, vs_values):
    u = EmbeddingVector(values=u_values)
    vs = [EmbeddingVector(values=v) for v in vs_values]
    assert [bits(c) for c in cosines(u, vs)] == [bits(dense_cosine(u, v)) for v in vs]
    assert [bits(c) for c in cosines(u, vs)] == [bits(cosine(u, v)) for v in vs]


def test_cosines_checks_every_dimension():
    u = hash_embed("alpha beta", 8)
    vectors = [hash_embed("alpha", 8), hash_embed("alpha", 4)]
    index = BucketIndex()
    assert cosines(u, []) == index.cosines(u) == []
    index.extend(vectors)
    for score in (lambda: cosines(u, vectors), lambda: index.cosines(u)):
        with pytest.raises(ValueError, match="dimension mismatch: 8 != 4"):
            score()


def outcome(score, *args):
    """The scores' bits, or the error raised."""
    try:
        return [bits(c) for c in score(*args)]
    except (ValueError, ZeroDivisionError) as exc:
        return type(exc), str(exc)


# 1e200 overflows a norm to inf; 1e-170 keeps each norm but underflows a
# product of two of them to 0.0; 1e-200 underflows the norm itself.
SCALED = st.tuples(RAW, st.sampled_from([1.0, 1.0, 1e200, 1e-170, 1e-200])).map(
    lambda raw_scale: EmbeddingVector(values=tuple(x * raw_scale[1] for x in raw_scale[0]))
)


@given(SCALED, st.lists(SCALED, max_size=8), st.integers(0, 8))
# Before Python 3.12 only ascending buckets sum this dot to exactly 0.0; from
# 3.12 on, sum() gives 1e-16 and a plain running sum still gives 0.0.
@example(
    u=EmbeddingVector(values=(1.0, 1.0, 1.0, 0.0)),
    vs=[EmbeddingVector(values=(1.0, 1e-16, -1.0, 0.0))],
    split=0,
)
def test_bucket_index_cosines_equal_cosines_bit_for_bit(u, vs, split):
    """Including every case cosines leaves the sparse dot, and postings read
    before some vectors were added."""
    index = BucketIndex()
    index.extend(vs[:split])
    assert outcome(index.cosines, u) == outcome(cosines, u, vs[:split])
    index.extend(vs[split:])
    assert outcome(index.cosines, u) == outcome(cosines, u, vs)


def test_cosine_with_zero_vectors_is_zero():
    zero = EmbeddingVector(values=(0.0,) * 8)
    negative_zero = EmbeddingVector(values=(-0.0,) * 8)
    some = hash_embed("alpha beta", 8)
    for u, v in [(zero, some), (some, zero), (zero, zero), (negative_zero, some)]:
        assert cosine(u, v) == dense_cosine(u, v) == 0.0


def test_cosine_with_non_finite_entries_matches_dense_sum():
    u = EmbeddingVector(values=(float("inf"), 0.0, 1.0))
    v = EmbeddingVector(values=(0.0, 1.0, 1.0))
    assert math.isnan(cosine(u, v)) and math.isnan(dense_cosine(u, v))


# -- sparse builders against the dense ones ------------------------------------


def assert_built_like_dense(vector, dense_values, empty):
    """``vector`` holds ``dense_values`` bit for bit, its derived state was set
    at build time and equals the dense derivation, and each index in ``empty``
    is the shared ``_ZERO``."""
    assert {"_norm", "_nonzero"} <= vector.__dict__.keys()
    assert [bits(x) for x in vector.values] == [bits(x) for x in dense_values]
    assert bits(vector._norm) == bits(math.sqrt(sum(x * x for x in dense_values)))
    assert vector._nonzero == tuple(i for i, x in enumerate(dense_values) if x != 0.0)
    assert vector.is_zero() == all(x == 0.0 for x in dense_values)
    assert all(vector.values[i] is _ZERO for i in empty)


@functools.lru_cache(maxsize=None)
def cancelling_pair(dim):
    """Two tokens that land in one bucket of ``dim`` with opposite signs."""
    first_by_key = {}
    for i in range(100_000):
        token = f"t{i}"
        h = reference_hash(token)
        opposite = first_by_key.get((h % dim, 1 - (h >> 63)))
        if opposite is not None:
            return opposite, token
        first_by_key.setdefault((h % dim, h >> 63), token)
    raise AssertionError(f"no cancelling pair for dim {dim}")


@given(st.integers(1, DEFAULT_DIM), WORDS, st.integers(0, 3), st.randoms(use_true_random=False))
@example(dim=DEFAULT_DIM, words=[], pairs=1, rng=None)
@example(dim=DEFAULT_DIM, words=["alpha", "beta"], pairs=2, rng=None)
def test_hash_embed_is_bit_equal_to_the_dense_builder(dim, words, pairs, rng):
    tokens = words + list(cancelling_pair(dim)) * pairs
    if rng is not None:
        rng.shuffle(tokens)
    text = " ".join(tokens)
    empty = [i for i, count in enumerate(reference_counts(text, dim)) if not count]
    assert_built_like_dense(hash_embed(text, dim), reference_embed(text, dim), empty)


def dense_mean(rows, dim):
    """The componentwise mean over every entry; also returns the sums."""
    sums = [0.0] * dim
    for row in rows:
        for i, x in enumerate(row):
            sums[i] += x
    n = len(rows)
    return [v / n if v else 0.0 for v in sums], sums


MEAN_ENTRY = st.floats(allow_subnormal=True) | st.sampled_from(
    [0.0, -0.0, 1.0, -1.0, 0.5, -0.5, 5e-324, -5e-324, 1e-310, math.inf, -math.inf, math.nan]
)


@given(
    st.integers(1, 6).flatmap(
        lambda dim: st.tuples(
            st.just(dim), st.lists(st.lists(MEAN_ENTRY, min_size=dim, max_size=dim), max_size=5)
        )
    )
)
@example(case=(3, [[1.0, -0.0, math.nan], [-1.0, 0.0, 0.0], [0.0, -0.0, 5e-324]]))
@example(case=(2, [[math.inf, 1.0], [-math.inf, 1.0]]))
@example(case=(4, []))
@example(case=(2, [[5e-324, 0.0]]))  # nonzero, yet its norm underflows to 0.0
def test_mean_vector_is_bit_equal_to_the_dense_mean(case):
    dim, rows = case
    vectors = [EmbeddingVector(values=tuple(row)) for row in rows]
    dense, sums = dense_mean(rows, dim)
    empty = [i for i, total in enumerate(sums) if total == 0.0]
    assert_built_like_dense(mean_vector(vectors, dim), dense, empty)


def test_is_zero_counts_nan_as_nonzero_and_negative_zero_as_zero():
    assert EmbeddingVector(values=(-0.0, 0.0)).is_zero()
    assert not EmbeddingVector(values=(0.0, math.nan)).is_zero()
    assert not EmbeddingVector(values=(0.0, 5e-324)).is_zero()
    assert not mean_vector([hash_embed("alpha", 8)], 8).is_zero()


def test_derived_state_stays_out_of_equality_and_hash():
    fresh = hash_embed("alpha beta gamma")
    used = hash_embed("alpha beta gamma")
    cosine(used, hash_embed("beta"))
    assert used.norm() == fresh.norm()
    assert used == fresh and hash(used) == hash(fresh)
    assert repr(used) == repr(fresh)
    built = [
        fresh,
        mean_vector([hash_embed("alpha beta"), hash_embed("beta gamma delta")], DEFAULT_DIM),
        hash_embed("?!"),
        hash_embed(" ".join(cancelling_pair(DEFAULT_DIM))),
        mean_vector([], 8),
        mean_vector([EmbeddingVector(values=(1.0, -0.0)), EmbeddingVector(values=(-1.0, 0.0))], 2),
        # NaN, +-inf, -0.0 and subnormal entries
        mean_vector(
            [
                EmbeddingVector(values=(math.nan, -0.0, math.inf, 5e-324, 1.0)),
                EmbeddingVector(values=(0.0, -0.0, 1.0, 5e-324, -math.inf)),
            ],
            5,
        ),
        mean_vector([EmbeddingVector(values=(math.inf, -math.inf, 1e-310, -0.0))], 4),
        mean_vector([EmbeddingVector(values=(5e-324, -0.0))], 2),  # its norm underflows to 0.0
    ]
    for vector in built:
        rebuilt = EmbeddingVector(values=vector.values)
        # rebuilt from its entries, a vector carries the builder's derived state, bit for bit
        assert bits(rebuilt._norm) == bits(vector._norm)
        assert bits(vector._norm) == bits(math.sqrt(sum(x * x for x in vector.values)))
        assert rebuilt._nonzero == vector._nonzero
        assert vector._nonzero == tuple(i for i, x in enumerate(vector.values) if x != 0.0)
        assert rebuilt == vector and hash(rebuilt) == hash(vector)
        assert repr(rebuilt) == repr(vector)
    assert [v.is_zero() for v in built] == [False, False, True, True, True, True, False, False, False]


def test_hash_embedder_memoizes_by_text():
    embedder = HashEmbedder(dim=32)
    first = embedder.embed("payment gateway retry")
    assert embedder.embed("payment gateway retry") is first
    assert first == hash_embed("payment gateway retry", 32)
    # a new embedder of the same dim gets its vector from the shared memo
    assert HashEmbedder(dim=32).embed("payment gateway retry") is first
    assert HashEmbedder(dim=16).embed("payment gateway retry").dim == 16


def test_an_embedder_keeps_no_vectors_and_the_shared_memo_is_bounded():
    embedder = HashEmbedder(dim=8)
    first = embedder.embed("memo bound probe 0")
    for i in range(1, 2 * _MEMO_SIZE):
        embedder.embed(f"memo bound probe {i}")
    assert vars(embedder) == {"_dim": 8}
    assert _memo_embed.cache_info().currsize == _MEMO_SIZE
    # two embedders of one dim get the same vector object for a recent text
    recent = f"memo bound probe {2 * _MEMO_SIZE - 1}"
    assert HashEmbedder(dim=8).embed(recent) is embedder.embed(recent)
    assert embedder.embed(recent) == hash_embed(recent, 8)
    # the memo dropped its least recently used vectors: one comes back equal, not identical
    rebuilt = embedder.embed("memo bound probe 0")
    assert rebuilt == first and rebuilt is not first
    assert HashEmbedder(dim=16).embed("memo bound probe 0").dim == 16
