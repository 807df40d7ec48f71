"""Embedding contract tests.

The hash recipe is recomputed here from scratch (blake2b, bucket, sign,
normalize) so that any drift in the implementation shows up against an
independent reimplementation rather than against itself.
"""

import hashlib
import math
import string
import struct

import pytest
from hypothesis import given, strategies as st

from teammem.embedding import (
    _MEMO_SIZE,
    _memo_embed,
    DEFAULT_DIM,
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


def reference_embed(text, dim=DEFAULT_DIM):
    """Independent recomputation of the documented recipe."""
    import re

    buckets = [0.0] * dim
    for token in re.findall(r"[a-z0-9]+", text.lower()):
        digest = hashlib.blake2b(token.encode("utf-8"), digest_size=8).digest()
        h = int.from_bytes(digest, "big")
        buckets[h % dim] += 1.0 if (h >> 63) == 0 else -1.0
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
    assert cosines(u, []) == []
    with pytest.raises(ValueError, match="dimension mismatch: 8 != 4"):
        cosines(u, [hash_embed("alpha", 8), hash_embed("alpha", 4)])


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


def test_derived_state_stays_out_of_equality_and_hash():
    fresh = hash_embed("alpha beta gamma")
    used = hash_embed("alpha beta gamma")
    cosine(used, hash_embed("beta"))
    assert used.norm() == fresh.norm()
    assert used == fresh and hash(used) == hash(fresh)
    assert repr(used) == repr(fresh)


def test_hash_embedder_memoizes_by_text():
    embedder = HashEmbedder(dim=32)
    first = embedder.embed("payment gateway retry")
    assert embedder.embed("payment gateway retry") is first
    assert first == hash_embed("payment gateway retry", 32)
    # a new embedder of the same dim is seeded from the shared memo
    assert HashEmbedder(dim=32).embed("payment gateway retry") is first
    assert HashEmbedder(dim=16).embed("payment gateway retry").dim == 16


def test_shared_memo_is_bounded_and_the_instance_memo_is_not():
    embedder = HashEmbedder(dim=8)
    first = embedder.embed("memo bound probe 0")
    for i in range(1, _MEMO_SIZE + 1):
        embedder.embed(f"memo bound probe {i}")
    assert _memo_embed.cache_info().currsize == _MEMO_SIZE
    # the shared memo dropped its least recently used vector; the instance kept it
    assert embedder.embed("memo bound probe 0") is first
    rebuilt = HashEmbedder(dim=8).embed("memo bound probe 0")
    assert rebuilt is not first and rebuilt == first
