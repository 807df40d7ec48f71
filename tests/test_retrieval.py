"""Retrieval scoring, hierarchy, and rendering.

The five-item ranking below was computed with an independent scorer
(cosines, population z-scores, and the tie rules applied by hand) and then
frozen; see the score constants in test_pool_of_five_frozen_ranking.
"""

import dataclasses
import random
import struct
from collections import Counter

import pytest
from hypothesis import given, strategies as st

from teammem.embedding import EmbeddingVector, HashEmbedder, cosine, cosines, hash_embed
from teammem.retrieval import (
    EpisodicIndex,
    Query,
    render_memory_context,
    retrieve,
    retrieve_from_pools,
    score_pool,
    embedding_text_for_episode,
    embedding_text_for_procedure,
    episode_importance,
    episodic_items,
    procedural_items,
    RetrievalResult,
)
from teammem.store import open_store
from teammem.types import Episode, MemoryItem, Outcome, Procedure

from helpers import record

EMBEDDER = HashEmbedder()


def episode(agent, index, desc, ts=80.0, cs=60.0, success=True, lessons=()):
    return Episode(
        agent_id=agent,
        task_index=index,
        timestamp="2026-01-01T00:00:00+00:00",
        task_description=desc,
        team_composition=(agent,),
        actions=("act",),
        outcome=Outcome(ts=ts, cs=cs, success=success),
        lessons=tuple(lessons),
    )


def procedure(pid, title, knowledge, s=1, f=0):
    return Procedure(
        procedure_id=pid,
        owner_id="agent-1",
        created_at="2026-01-01T00:00:00+00:00",
        updated_at="2026-01-01T00:00:00+00:00",
        title=title,
        knowledge=knowledge,
        successes=s,
        failures=f,
        source_episodes=frozenset({"agent-1:1"}),
    )


def item(kind, iid, text, imp):
    return MemoryItem(kind=kind, id=iid, text_for_embedding=text, importance_raw=imp)


# -- item construction ---------------------------------------------------------


def test_embedding_text_for_episode_joins_description_and_lessons():
    e = episode("a", 1, "fix the build", lessons=("pin the compiler", "cache deps"))
    assert embedding_text_for_episode(e) == "fix the build pin the compiler cache deps"


def test_embedding_text_for_procedure():
    p = procedure("proc-00001", "Pin the compiler", "Pin compiler versions in CI.")
    assert embedding_text_for_procedure(p) == "Pin the compiler Pin compiler versions in CI."


def test_episode_importance_is_rescaled_combined_score():
    e = episode("a", 1, "x", ts=80.0, cs=60.0)
    assert episode_importance(e) == 0.70


def test_item_builders_carry_payloads():
    e = episode("a", 1, "fix the build")
    p = procedure("proc-00001", "t", "k", s=3, f=1)
    (ei,) = episodic_items([e])
    (pi,) = procedural_items([p])
    assert ei.id == "a:1" and ei.payload is e and ei.importance_raw == 0.70
    assert pi.id == "proc-00001" and pi.payload is p and pi.importance_raw == 0.75


# -- scoring ---------------------------------------------------------------


def test_pool_of_five_frozen_ranking():
    """Hand-scored pool: e2 wins on importance, e1/e4 tie on id, e3/e5 trail."""
    pool = [
        item("episodic", "e1", "deploy the payment service safely and verify", 0.70),
        item("episodic", "e2", "deploy the billing service", 0.90),
        item("episodic", "e3", "write quarterly report for finance", 0.95),
        item("episodic", "e4", "deploy the payment service safely and verify", 0.70),
        item("episodic", "e5", "restart the payment gateway", 0.40),
    ]
    ranked = score_pool(Query(text="deploy the payment service safely"), pool, EMBEDDER)
    assert [s.item.id for s in ranked] == ["e2", "e1", "e4", "e3", "e5"]
    assert ranked[0].score == pytest.approx(1.221458, abs=1e-6)
    assert ranked[1].score == pytest.approx(0.740661, abs=1e-6)
    assert ranked[1].score == ranked[2].score
    assert ranked[3].score == pytest.approx(-0.639436, abs=1e-6)
    assert ranked[4].score == pytest.approx(-2.063345, abs=1e-6)
    assert ranked[1].rel == pytest.approx(0.845154, abs=1e-6)


def test_score_is_sum_of_zscores():
    pool = [
        item("episodic", "e1", "alpha beta", 0.2),
        item("episodic", "e2", "alpha gamma", 0.9),
        item("episodic", "e3", "delta epsilon", 0.5),
    ]
    ranked = score_pool(Query(text="alpha"), pool, EMBEDDER)
    for s in ranked:
        assert s.score == pytest.approx(s.rel_z + s.imp_z, abs=1e-12)


def test_constant_pool_collapses_zscores_to_zero():
    pool = [
        item("episodic", "e1", "alpha beta", 0.5),
        item("episodic", "e2", "alpha beta", 0.5),
    ]
    ranked = score_pool(Query(text="alpha beta"), pool, EMBEDDER)
    assert all(s.score == 0.0 for s in ranked)
    # everything ties, so ids decide
    assert [s.item.id for s in ranked] == ["e1", "e2"]


def test_empty_pool_scores_empty():
    assert score_pool(Query(text="anything"), [], EMBEDDER) == []


# -- hierarchy -----------------------------------------------------------------


def test_procedures_win_when_relevant_enough():
    procs = [item("procedural", "p1", "deploy payment service checklist", 0.8)]
    eps = [item("episodic", "e1", "deploy the payment service safely", 0.7)]
    result = retrieve_from_pools(
        Query(text="deploy the payment service"), procs, eps, EMBEDDER
    )
    assert result.kind_used == "procedural"
    assert result.ids == ("p1",)


def test_falls_back_to_episodes_below_threshold():
    procs = [item("procedural", "p1", "quarterly finance report template", 0.8)]
    eps = [item("episodic", "e1", "deploy the payment service safely", 0.7)]
    result = retrieve_from_pools(
        Query(text="deploy the payment service"), procs, eps, EMBEDDER
    )
    assert result.kind_used == "episodic"
    assert result.ids == ("e1",)


def test_falls_back_when_procedural_pool_empty():
    eps = [item("episodic", "e1", "deploy the payment service safely", 0.7)]
    result = retrieve_from_pools(Query(text="deploy"), [], eps, EMBEDDER)
    assert result.kind_used == "episodic"
    assert result.ids == ("e1",)


def test_both_pools_empty_yields_empty_result():
    result = retrieve_from_pools(Query(text="deploy"), [], [], EMBEDDER)
    assert result.items == ()
    assert result.ids == ()


def test_threshold_is_inclusive():
    # craft a pool where the best raw relevance equals the threshold exactly
    procs = [item("procedural", "p1", "alpha beta gamma delta", 0.5)]
    eps = [item("episodic", "e1", "unrelated words entirely", 0.5)]
    rel = cosine(hash_embed("alpha beta"), hash_embed("alpha beta gamma delta"))
    result = retrieve_from_pools(
        Query(text="alpha beta", proc_fallback_threshold=rel), procs, eps, EMBEDDER
    )
    assert result.kind_used == "procedural"


def test_top_k_truncates():
    pool = [item("episodic", f"e{i}", f"alpha beta {i}", 0.1 * i) for i in range(5)]
    result = retrieve_from_pools(Query(text="alpha beta", k=2), [], pool, EMBEDDER)
    assert len(result.items) == 2


def test_query_rejects_nonpositive_k():
    with pytest.raises(ValueError):
        Query(text="x", k=0)


def _random_pool(rng, kind, n):
    words = "alpha beta gamma delta epsilon zeta eta theta".split()
    return [
        item(
            kind,
            f"{kind[0]}{i:03d}",
            " ".join(rng.choices(words, k=rng.randint(1, 5))),
            rng.choice([0.0, 0.25, 0.5, 0.75, 1.0]),
        )
        for i in range(n)
    ]


def test_ranking_invariant_under_pool_permutation():
    rng = random.Random(7)
    for _ in range(25):
        pool = _random_pool(rng, "episodic", rng.randint(2, 12))
        query = Query(text="alpha beta gamma", k=3)
        baseline = [s.item.id for s in score_pool(query, pool, EMBEDDER)]
        shuffled = pool[:]
        rng.shuffle(shuffled)
        assert [s.item.id for s in score_pool(query, shuffled, EMBEDDER)] == baseline


def test_top_k_is_prefix_of_top_k_plus_one():
    rng = random.Random(11)
    for _ in range(25):
        pool = _random_pool(rng, "episodic", rng.randint(3, 12))
        for k in range(1, len(pool)):
            a = retrieve_from_pools(Query(text="alpha beta", k=k), [], pool, EMBEDDER)
            b = retrieve_from_pools(Query(text="alpha beta", k=k + 1), [], pool, EMBEDDER)
            assert b.ids[:k] == a.ids


VOCABULARY = "alpha beta gamma delta".split()
# Few texts, importances and ids, so equal scores, duplicate texts and even
# duplicate ids are common.
POOL_ITEMS = st.lists(
    st.tuples(
        st.lists(st.sampled_from(VOCABULARY), min_size=0, max_size=3).map(" ".join),
        st.sampled_from([0.0, 0.5, 1.0]),
        st.integers(0, 6),
    ),
    max_size=10,
)


def sort_then_slice(query, procedural_pool, episodic_pool):
    """Hierarchical retrieval from full rankings, cut to k afterwards."""
    ranked = score_pool(query, procedural_pool, EMBEDDER)
    if ranked and max(s.rel for s in ranked) >= query.proc_fallback_threshold:
        return RetrievalResult(kind_used="procedural", items=tuple(ranked[: query.k]))
    ranked = score_pool(query, episodic_pool, EMBEDDER)
    return RetrievalResult(kind_used="episodic", items=tuple(ranked[: query.k]))


@given(
    POOL_ITEMS,
    POOL_ITEMS,
    st.lists(st.sampled_from(VOCABULARY), max_size=3).map(" ".join),
    st.integers(1, 12),
    st.sampled_from([0.0, 0.3, 0.6, 1.01]),
)
def test_top_k_selection_equals_sort_then_slice(procs, eps, text, k, threshold):
    procedural_pool = [item("procedural", f"p{i}", t, imp) for t, imp, i in procs]
    episodic_pool = [item("episodic", f"e{i}", t, imp) for t, imp, i in eps]
    query = Query(text=text, k=k, proc_fallback_threshold=threshold)
    result = retrieve_from_pools(query, procedural_pool, episodic_pool, EMBEDDER)
    expected = sort_then_slice(query, procedural_pool, episodic_pool)
    assert result.kind_used == expected.kind_used
    assert len(result.items) == len(expected.items) == min(k, len(
        procedural_pool if result.kind_used == "procedural" else episodic_pool
    ))
    for got, want in zip(result.items, expected.items):
        assert dataclasses.astuple(got) == dataclasses.astuple(want)
        assert got.item is want.item


def bits(x):
    return struct.pack("<d", x)


def scored_bits(items):
    return [
        (s.item.id, bits(s.rel), bits(s.imp), bits(s.rel_z), bits(s.imp_z), bits(s.score))
        for s in items
    ]


# More words than buckets at dim 8 or 16, so buckets collide; "", "!!" and
# "..." embed to the zero vector.
INDEX_TEXTS = st.lists(
    st.sampled_from("alpha beta gamma delta epsilon zeta eta theta iota kappa".split()),
    max_size=4,
).map(" ".join) | st.sampled_from(["", "!!", "..."])


@given(
    st.lists(
        st.tuples(INDEX_TEXTS, st.sampled_from([0.0, 0.25, 0.5, 1.0]), st.integers(0, 9)),
        max_size=14,
    ),
    INDEX_TEXTS,
    st.integers(1, 16),
    st.sampled_from([HashEmbedder(8), HashEmbedder(16)]),
    st.integers(0, 14),
)
def test_indexed_ranking_equals_the_full_ranking_bit_for_bit(entries, text, k, embedder, split):
    """Also through an index extended after a query read its postings."""
    pool = [item("episodic", f"e{i}", t, imp) for t, imp, i in entries]
    query = Query(text=text, k=k)
    index = EpisodicIndex(embedder, pool[:split])
    assert scored_bits(retrieve_from_pools(query, (), index, embedder).items) == scored_bits(
        score_pool(query, pool[:split], embedder)[:k]
    )
    index.extend(pool[split:])
    want = scored_bits(score_pool(query, pool, embedder)[:k])
    assert scored_bits(retrieve_from_pools(query, (), pool, embedder).items) == want
    assert scored_bits(retrieve_from_pools(query, (), index, embedder).items) == want


class ScaledEmbedder:
    """Hash vectors, times 1e200 for texts that say "huge": their norms overflow to inf."""

    dim = 16

    def embed(self, text):
        vector = hash_embed(text, self.dim)
        scale = 1e200 if "huge" in text else 1.0
        return EmbeddingVector(values=tuple(x * scale for x in vector.values))


@pytest.mark.parametrize("query_text", ["alpha beta", "huge alpha", ""])
def test_huge_vectors_score_as_cosines_does(query_text):
    embedder = ScaledEmbedder()
    texts = ["alpha beta", "huge alpha beta", "huge gamma", "", "beta delta", "alpha"]
    pool = [item("episodic", f"e{i}", t, 0.1 * i) for i, t in enumerate(texts)]
    result = retrieve_from_pools(Query(text=query_text, k=len(pool)), (), pool, embedder)
    want = cosines(embedder.embed(query_text), [embedder.embed(t) for t in texts])
    assert {s.item.id: bits(s.rel) for s in result.items} == {
        entry.id: bits(rel) for entry, rel in zip(pool, want)
    }
    # NaN scores rank too
    assert len(retrieve_from_pools(Query(text=query_text, k=2), (), pool, embedder).items) == 2


class SplitDimEmbedder:
    """Embeds queries at dim 8 and everything else at dim 16."""

    dim = 16

    def embed(self, text):
        return hash_embed(text, 8 if text.startswith("query") else 16)


def test_a_dimension_mismatch_raises_on_the_indexed_path(tmp_path):
    embedder = SplitDimEmbedder()
    query = Query(text="query alpha")
    view = open_store(tmp_path / "store", "local", ["agent-1"])["agent-1"]
    record(view, episode("agent-1", 1, "alpha beta"))
    pool = episodic_items(view.episodes())
    for retrieval in (
        lambda: retrieve_from_pools(query, (), pool, embedder),
        lambda: retrieve_from_pools(query, (), EpisodicIndex(embedder, pool), embedder),
        lambda: retrieve(view, query, embedder),
    ):
        with pytest.raises(ValueError, match="dimension mismatch: 8 != 16"):
            retrieval()


def test_an_index_bound_to_another_embedder_is_rejected():
    pool = [item("episodic", "e1", "alpha beta", 0.5)]
    index = EpisodicIndex(HashEmbedder(), pool)
    with pytest.raises(ValueError, match="bound to another embedder"):
        retrieve_from_pools(Query(text="alpha"), (), index, HashEmbedder())


def test_query_case_does_not_change_results():
    rng = random.Random(13)
    pool = _random_pool(rng, "episodic", 8)
    lower = retrieve_from_pools(Query(text="alpha beta gamma"), [], pool, EMBEDDER)
    upper = retrieve_from_pools(Query(text="ALPHA BETA GAMMA"), [], pool, EMBEDDER)
    assert lower.ids == upper.ids


class CountingEmbedder:
    """Unmemoized hash embeddings that count every request by text."""

    dim = 256

    def __init__(self):
        self.calls = Counter()

    def embed(self, text):
        self.calls[text] += 1
        return hash_embed(text, self.dim)


@pytest.mark.parametrize(
    "query_text, kind_used",
    [("deploy the payment service", "procedural"), ("quarterly audit", "episodic")],
)
def test_each_item_is_embedded_once_per_query(query_text, kind_used):
    procs = [
        item("procedural", "p1", "deploy payment service checklist", 0.8),
        item("procedural", "p2", "rotate the database credentials", 0.4),
        item("procedural", "p3", "payment service rollback plan", 0.6),
    ]
    eps = [
        item("episodic", "e1", "quarterly finance audit went fine", 0.7),
        item("episodic", "e2", "audit the quarterly report", 0.2),
    ]
    embedder = CountingEmbedder()
    result = retrieve_from_pools(Query(text=query_text), procs, eps, embedder)
    assert result.kind_used == kind_used
    for p in procs:
        assert embedder.calls[p.text_for_embedding] == 1
    for e in eps:
        assert embedder.calls[e.text_for_embedding] == (kind_used == "episodic")


# -- end to end through a store --------------------------------------------------


def test_retrieve_through_a_view(tmp_path):
    views = open_store(tmp_path / "store", "local", ["agent-1"])
    view = views["agent-1"]
    record(view, episode("agent-1", 1, "deploy the payment service safely"))
    record(view, episode("agent-1", 2, "write quarterly finance report"))
    result = retrieve(view, Query(text="deploy the payment service"), EMBEDDER)
    assert result.kind_used == "episodic"
    assert result.ids[0] == "agent-1:1"


@pytest.mark.parametrize(
    "query_text, kind_used",
    [("deploy the payment service", "procedural"), ("quarterly audit", "episodic")],
)
def test_retrieve_builds_the_episodic_pool_only_on_fallback(
    tmp_path, monkeypatch, query_text, kind_used
):
    import teammem.retrieval as retrieval_module

    view = open_store(tmp_path / "store", "local", ["agent-1"])["agent-1"]
    record(view, episode("agent-1", 1, "quarterly finance audit went fine"))
    record(view, episode("agent-1", 2, "audit the quarterly report"))
    view.upsert_procedure(procedure("proc-00001", "Deploy payment service", "checklist first"))
    query = Query(text=query_text)
    expected = retrieve_from_pools(
        query,
        procedural_items(view.procedures().values()),
        episodic_items(view.episodes()),
        EMBEDDER,
    )
    built = []
    real = retrieval_module.episodic_items
    monkeypatch.setattr(
        retrieval_module, "episodic_items", lambda episodes: built.append(1) or real(episodes)
    )
    result = retrieve(view, query, EMBEDDER)
    assert result.kind_used == kind_used
    assert result == expected
    assert len(built) == (kind_used == "episodic")


def test_the_episodic_pool_grows_with_the_store_and_is_rebuilt_on_reopen(
    tmp_path, monkeypatch
):
    import teammem.retrieval as retrieval_module

    root = tmp_path / "store"
    view = open_store(root, "local", ["agent-1"])["agent-1"]
    built = []
    real = retrieval_module.episodic_items

    def counting(episodes):
        items = real(episodes)
        built.extend(items)
        return items

    monkeypatch.setattr(retrieval_module, "episodic_items", counting)
    query = Query(text="quarterly audit")

    def miss(view):
        result = retrieve(view, query, EMBEDDER)
        assert result == retrieve_from_pools(query, (), real(view.episodes()), EMBEDDER)
        return result

    def files():
        return {
            path: (path.read_bytes(), path.stat().st_mtime_ns)
            for path in sorted(root.rglob("*"))
            if path.is_file()
        }

    record(view, episode("agent-1", 1, "quarterly finance audit went fine"))
    record(view, episode("agent-1", 2, "audit the quarterly report"))
    miss(view)
    assert len(built) == 2
    for index in (3, 4):
        record(view, episode("agent-1", index, f"audit number {index}"))
        before = files()
        miss(view)
        miss(view)
        assert files() == before
    assert len(built) == 4  # each miss built items for the new episodes only

    store = view.episodic_store()
    assert len(store.episodic_index.items) == 4
    assert dataclasses.replace(store, episodic_index=None) == store
    assert "episodic_index" not in repr(store)

    view = open_store(root)["agent-1"]
    miss(view)
    miss(view)
    assert len(built) == 8  # the reopened store rebuilt its pool once


def test_the_episodic_index_follows_the_store_and_the_embedder(tmp_path):
    """Appends after a fallback, a second embedder of another dim, and a reopen
    each give the from-scratch ranking; queries change no store byte."""
    roots = [tmp_path / "queried", tmp_path / "twin"]
    views = [open_store(root, "local", ["agent-1"])["agent-1"] for root in roots]
    first, other = HashEmbedder(), HashEmbedder(16)
    query = Query(text="quarterly audit")

    def append(index):
        for view in views:
            record(view, episode("agent-1", index, f"quarterly audit number {index}"))

    def miss(embedder):
        view = views[0]
        result = retrieve(view, query, embedder)
        assert result.kind_used == "episodic"
        assert result == retrieve_from_pools(query, (), episodic_items(view.episodes()), embedder)
        index = view.episodic_store().episodic_index
        assert index.embedder is embedder and len(index) == len(view.episodes())
        assert {v.dim for v in index.vectors.vectors} == {embedder.dim}

    append(1)
    append(2)
    miss(first)
    append(3)
    miss(first)
    miss(other)
    append(4)
    miss(other)
    miss(first)
    views[0] = open_store(roots[0])["agent-1"]
    miss(first)
    append(5)
    miss(first)

    def files(root):
        return {
            path.relative_to(root): path.read_bytes()
            for path in sorted(root.rglob("*"))
            if path.is_file()
        }

    assert files(roots[0]) == files(roots[1])


# -- rendering -------------------------------------------------------------------


def _result(kind, ranked):
    from teammem.retrieval import RetrievalResult

    return RetrievalResult(kind_used=kind, items=tuple(ranked))


def test_render_procedural_block():
    p1 = procedure(
        "proc-00001",
        "Retry with exponential backoff",
        "Retry transient failures with backoff; cap attempts at five.",
        s=3,
        f=1,
    )
    p2 = procedure(
        "proc-00002",
        "Verify checksums after copy",
        "Always verify checksums after bulk copies.",
        s=0,
        f=0,
    )
    ranked = score_pool(Query(text="retry backoff"), procedural_items([p1, p2]), EMBEDDER)
    ordered = sorted(ranked, key=lambda s: s.item.id)  # golden lists proc-00001 first
    text = render_memory_context(_result("procedural", ordered))
    from pathlib import Path

    expected = (Path(__file__).parent / "golden" / "memory_block_procedural.txt").read_text()
    assert text == expected


def test_render_episodic_block():
    e1 = episode(
        "agent-1",
        1,
        "Handle payment gateway retry storm triage case amber cobalt",
        success=True,
        lessons=("lesson one", "lesson two"),
    )
    e2 = episode(
        "agent-2",
        1,
        "Handle nightly data warehouse sync audit case reef opal",
        ts=40.0,
        cs=40.0,
        success=False,
        lessons=("only lesson",),
    )
    items = episodic_items([e1, e2])
    ranked = score_pool(Query(text="payment gateway"), items, EMBEDDER)
    ordered = sorted(ranked, key=lambda s: s.item.id)  # golden lists e1 first
    text = render_memory_context(_result("episodic", ordered))
    from pathlib import Path

    expected = (Path(__file__).parent / "golden" / "memory_block_episodic.txt").read_text()
    assert text == expected


def test_render_empty_result_is_empty_string():
    assert render_memory_context(_result("episodic", [])) == ""
