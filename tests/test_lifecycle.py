"""Lifecycle tests: per-task updates, clustering, consolidation, pruning."""

import json
import logging
import math
import tempfile
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from teammem.embedding import EmbeddingVector, HashEmbedder, cosine, hash_embed, mean_vector
from teammem.harness import SimConfig, TaskFamily, run_sim
from teammem.lifecycle import (
    CLUSTER_THRESHOLD,
    EXTRACTION_FAILED_LESSON,
    ConsolidationConfig,
    StubGenerator,
    _SingleLink,
    cluster_by_lessons,
    consolidate,
    maybe_consolidate,
    post_task_update,
    render_generalization_prompt,
    render_lesson_extraction_prompt,
    stub_extract_lessons,
    stub_generalize,
)
from teammem.retrieval import _episodic_index, episodic_items
from teammem.store import MemoryView, open_store
from teammem.types import Episode, Outcome, Procedure

from helpers import record

EMBEDDER = HashEmbedder()


def episode(agent, index, lessons, success=True, desc="triage the queue"):
    return Episode(
        agent_id=agent,
        task_index=index,
        timestamp=f"2026-01-01T00:{index:02d}:00+00:00",
        task_description=desc,
        team_composition=(agent,),
        actions=("act",),
        outcome=Outcome(ts=70.0, cs=70.0, success=success),
        lessons=tuple(lessons),
    )


def seeded_procedure(pid, sources, created="2026-01-01T00:00:00+00:00", s=1, f=0):
    return Procedure(
        procedure_id=pid,
        owner_id="agent-1",
        created_at=created,
        updated_at=created,
        title=f"Procedure {pid}",
        knowledge="Do the thing that worked.",
        successes=s,
        failures=f,
        source_episodes=frozenset(sources),
    )


# -- stub generator ---------------------------------------------------------


def test_stub_lessons_failure_fixture_is_frozen():
    out = Outcome(ts=40.0, cs=30.0, success=False)
    lessons = stub_extract_lessons(
        "migrate the billing database", ("dump schema", "copy rows"), out
    )
    assert lessons == [
        "'dump schema' did not prevent failure; adjust it before retrying.",
        "Rework 'dump schema' before taking on similar tasks soon.",
    ]


def test_stub_lessons_success_fixture_is_frozen():
    out = Outcome(ts=80.0, cs=90.0, success=True)
    lessons = stub_extract_lessons(
        "migrate the billing database", ("dump schema", "copy rows"), out
    )
    assert lessons == [
        "Repeat 'dump schema' early; it led to success.",
        "Open with 'dump schema' for similar tasks soon.",
    ]


def test_stub_lessons_plan_size_lesson_when_digest_allows():
    # this task text hashes to digest % 3 == 0, which adds the third lesson
    out = Outcome(ts=80.0, cs=90.0, success=True)
    lessons = stub_extract_lessons(
        "restore the search index", ("check snapshots", "replay journal"), out
    )
    assert lessons == [
        "Repeat 'check snapshots' early; it led to success.",
        "Open with 'check snapshots' for similar tasks soon.",
        "A plan of 2 steps was sufficient here.",
    ]


def test_stub_lessons_without_actions_uses_placeholder_opening():
    out = Outcome(ts=10.0, cs=10.0, success=False)
    lessons = stub_extract_lessons("anything at all", (), out)
    assert lessons[0] == (
        "'plan the approach first' did not prevent failure; adjust it before retrying."
    )


def test_stub_lessons_never_exceed_three():
    out = Outcome(ts=80.0, cs=90.0, success=True)
    for task in ("a", "ab", "abc", "restore the search index"):
        assert len(stub_extract_lessons(task, ("x", "y", "z"), out)) <= 3


def test_stub_generalize_picks_most_frequent_lesson():
    eps = [
        episode("a", 1, ["alpha beta gamma", "delta"]),
        episode("a", 2, ["alpha beta gamma"]),
    ]
    title, knowledge = stub_generalize(eps)
    assert title == "alpha beta gamma"
    assert knowledge == "alpha beta gamma; delta"


def test_stub_generalize_breaks_count_ties_lexicographically():
    eps = [episode("a", 1, ["zulu"]), episode("a", 2, ["alpha"])]
    title, _ = stub_generalize(eps)
    assert title == "alpha"


def test_stub_generalize_truncates_title_to_six_tokens():
    eps = [episode("a", 1, ["one two three four five six seven eight"])]
    title, _ = stub_generalize(eps)
    assert title == "one two three four five six"


def test_stub_generalize_empty_fallback():
    assert stub_generalize([]) == (
        "Reuse the prior approach",
        "Repeat what worked on similar tasks.",
    )


# -- post-task update ----------------------------------------------------------


def one_agent_view(tmp_path, topology="local"):
    return open_store(tmp_path / "store", topology, ["agent-1"])["agent-1"]


def test_post_task_update_appends_episode_and_transactive(tmp_path):
    view = one_agent_view(tmp_path)
    ep = post_task_update(
        view,
        "triage the alert queue",
        ("scan queue", "close dupes"),
        Outcome(ts=80.0, cs=80.0, success=True),
        procedures_used=(),
        generator=StubGenerator(),
        task_type="incident",
        timestamp="2026-01-01T00:00:00+00:00",
    )
    assert ep.lessons == tuple(
        stub_extract_lessons(
            "triage the alert queue",
            ("scan queue", "close dupes"),
            Outcome(ts=80.0, cs=80.0, success=True),
        )
    )
    assert len(view.episodes()) == 1
    profile = view.profiles()["agent-1"]
    assert profile.task_type_counts["incident"].attempts == 1
    assert profile.proficiency["incident"] == 1.0


def test_post_task_update_assigns_increasing_indices(tmp_path):
    view = one_agent_view(tmp_path)
    gen = StubGenerator()
    first = post_task_update(
        view, "task one", ("a",), Outcome(ts=70.0, cs=70.0, success=True), (), gen, "qa"
    )
    second = post_task_update(
        view, "task two", ("a",), Outcome(ts=70.0, cs=70.0, success=True), (), gen, "qa"
    )
    assert (first.task_index, second.task_index) == (0, 1)


def test_post_task_update_bumps_used_procedures(tmp_path):
    view = one_agent_view(tmp_path)
    view.upsert_procedure(seeded_procedure("proc-00001", ["agent-1:0"], s=2, f=0))
    post_task_update(
        view,
        "reuse the playbook",
        ("run playbook",),
        Outcome(ts=40.0, cs=40.0, success=False),
        procedures_used=("proc-00001",),
        generator=StubGenerator(),
        task_type="incident",
    )
    p = view.get_procedure("proc-00001")
    assert (p.successes, p.failures) == (2, 1)
    assert view.episodes()[0].related_procedures == frozenset({"proc-00001"})


class ExplodingGenerator:
    def extract_lessons(self, task, actions, outcome, role=None):
        raise RuntimeError("model unavailable")

    def generalize(self, episodes):
        raise RuntimeError("model unavailable")


class EmptyGenerator:
    def extract_lessons(self, task, actions, outcome, role=None):
        return ["   ", ""]

    def generalize(self, episodes):
        return ("", "")


class VerboseGenerator:
    def extract_lessons(self, task, actions, outcome, role=None):
        return [f"lesson {i}" for i in range(10)]

    def generalize(self, episodes):
        return ("t", "k")


def test_failing_generator_stores_placeholder_and_warns(tmp_path, caplog):
    view = one_agent_view(tmp_path)
    with caplog.at_level(logging.WARNING):
        ep = post_task_update(
            view,
            "task with broken extraction",
            ("a",),
            Outcome(ts=70.0, cs=70.0, success=True),
            (),
            ExplodingGenerator(),
            "qa",
        )
    assert ep.lessons == (EXTRACTION_FAILED_LESSON,)
    assert any("lesson extraction failed" in r.message for r in caplog.records)
    assert len(view.episodes()) == 1  # the episode is never lost


def test_blank_lessons_also_fall_back_to_placeholder(tmp_path):
    view = one_agent_view(tmp_path)
    ep = post_task_update(
        view, "t", ("a",), Outcome(ts=70.0, cs=70.0, success=True), (), EmptyGenerator(), "qa"
    )
    assert ep.lessons == (EXTRACTION_FAILED_LESSON,)


def test_oversized_lesson_lists_are_truncated(tmp_path):
    view = one_agent_view(tmp_path)
    ep = post_task_update(
        view, "t", ("a",), Outcome(ts=70.0, cs=70.0, success=True), (), VerboseGenerator(), "qa"
    )
    assert ep.lessons == ("lesson 0", "lesson 1", "lesson 2")


# -- clustering ------------------------------------------------------------------


def test_identical_lessons_cluster_together():
    eps = [episode("a", 1, ["alpha beta gamma"]), episode("a", 2, ["alpha beta gamma"])]
    clusters = cluster_by_lessons(eps, EMBEDDER, 0.80)
    assert len(clusters) == 1 and len(clusters[0]) == 2


def test_unrelated_lessons_stay_apart():
    eps = [episode("a", 1, ["alpha beta gamma"]), episode("a", 2, ["start zulu route"])]
    clusters = cluster_by_lessons(eps, EMBEDDER, 0.80)
    assert len(clusters) == 2


def test_single_link_chains_merge():
    # a~b and b~c clear the threshold (0.857), a~c does not (0.714); single
    # linkage still puts all three in one cluster
    eps = [
        episode("a", 1, ["keep alpha keep beta gamma"]),
        episode("a", 2, ["keep alpha keep beta delta"]),
        episode("a", 3, ["keep alpha keep omega delta"]),
    ]
    clusters = cluster_by_lessons(eps, EMBEDDER, 0.80)
    assert len(clusters) == 1 and len(clusters[0]) == 3


def test_clusters_preserve_input_order():
    eps = [
        episode("a", 1, ["alpha beta gamma"]),
        episode("a", 2, ["start zulu route"]),
        episode("a", 3, ["alpha beta gamma"]),
    ]
    clusters = cluster_by_lessons(eps, EMBEDDER, 0.80)
    assert [[e.task_index for e in c] for c in clusters] == [[1, 3], [2]]


def test_lessonless_episodes_do_not_cluster_with_anything():
    eps = [episode("a", 1, []), episode("a", 2, []), episode("a", 3, ["alpha beta"])]
    clusters = cluster_by_lessons(eps, EMBEDDER, 0.80)
    # zero vectors have cosine 0 with everything, including each other
    assert [len(c) for c in clusters] == [1, 1, 1]


# -- incremental clustering --------------------------------------------------------


class CountingEmbedder:
    """Unmemoized hash embeddings that count every request by text."""

    def __init__(self, dim=256):
        self.dim = dim
        self.calls = Counter()

    def embed(self, text):
        self.calls[text] += 1
        return hash_embed(text, self.dim)


def oracle_clusters(episodes, embedder, threshold):
    """Connected components of the similarity graph by BFS, in first-member order."""
    vectors = [
        mean_vector([embedder.embed(lesson) for lesson in e.lessons], embedder.dim)
        for e in episodes
    ]
    assigned, clusters = set(), []
    for start in range(len(episodes)):
        if start in assigned:
            continue
        component, frontier = {start}, [start]
        while frontier:
            i = frontier.pop()
            for j in range(len(episodes)):
                if j not in component and cosine(vectors[i], vectors[j]) >= threshold:
                    component.add(j)
                    frontier.append(j)
        assigned |= component
        clusters.append([episodes[k] for k in sorted(component)])
    return clusters


LESSON_POOL = [
    "keep alpha keep beta gamma",
    "keep alpha keep beta delta",
    "keep alpha keep omega delta",
    "start zulu route echo canyon",
    "start zulu route echo harbor",
    "alpha beta gamma",
]


class ConstantEmbedder:
    """Every text gets the same vector, so all lessoned episodes cluster."""

    dim = 4

    def embed(self, text):
        return EmbeddingVector(values=(1.0, 0.0, 0.0, 0.0))


class NanEmbedder:
    """Hash embeddings, except that a text naming zulu embeds to NaN entries.

    A lesson tuple holding such a text averages to a non-finite vector, whose
    cosine with anything, itself included, is NaN and clears no threshold.
    """

    dim = 16

    def embed(self, text):
        if "zulu" in text:
            return EmbeddingVector(values=(math.nan,) * self.dim)
        return hash_embed(text, self.dim)


# Two distinct embedders with equal settings, one with another dim, one that
# disagrees with all of them, and one with non-finite vectors.
EMBEDDERS = (
    HashEmbedder(), HashEmbedder(), HashEmbedder(dim=16), ConstantEmbedder(), NanEmbedder()
)
LESSONS = st.lists(st.sampled_from(LESSON_POOL), max_size=3)
OPS = st.one_of(
    st.tuples(
        st.just("append"), st.lists(st.tuples(LESSONS, st.booleans()), min_size=1, max_size=4)
    ),
    st.tuples(st.just("cluster"), st.integers(0, len(EMBEDDERS) - 1)),
    st.tuples(st.just("reopen")),
)


def from_groups(episodes, groups):
    """The episode clusters that ``groups`` of the episodes' lesson classes stand for.

    Classes are numbered by first appearance, as a store numbers its log's.
    An episode of a class in no group is a cluster of its own; clusters come
    in first-member order with members in input order, as the oracle gives.
    """
    numbers = {}
    for e in episodes:
        numbers.setdefault((e.lessons, e.outcome.success), len(numbers))
    cluster_of = {n: c for c, group in enumerate(groups) for n in group}
    clusters = {}
    for i, e in enumerate(episodes):
        number = numbers[(e.lessons, e.outcome.success)]
        clusters.setdefault(cluster_of.get(number, ~i), []).append(e)
    return list(clusters.values())


def kept_groups(view):
    """The linked class numbers of ``view``'s log by cluster, as its last pass kept them."""
    live = view.episodic_store()
    return live.cluster_state.groups([lessons for lessons, _ in live.class_numbers])


@settings(max_examples=60, deadline=None)
@given(st.lists(OPS, max_size=12))
def test_incremental_clusters_equal_from_scratch(ops):
    """Every index derived from the episode log equals a from-scratch build."""
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp) / "store"
        view = open_store(root, "local", ["agent-1"])["agent-1"]
        next_index = 1
        for op in [*ops, ("cluster", 0)]:
            if op[0] == "append":
                for lessons, success in op[1]:
                    record(view, episode("agent-1", next_index, lessons, success))
                    next_index += 1
            elif op[0] == "reopen":
                view = open_store(root)["agent-1"]
            else:
                embedder = EMBEDDERS[op[1]]
                consolidate(view, CFG, StubGenerator(), embedder)
                live = view.episodic_store()
                state, tuples = live.cluster_state, [lessons for lessons, _ in live.class_numbers]
                # the pass left its clustering extended over every class
                assert state.embedder is embedder and len(state.vectors) == len(tuples)
                got = state.groups(tuples)
                assert got == _SingleLink(embedder, CLUSTER_THRESHOLD).groups(tuples)
                assert got == sorted(map(sorted, got))
                episodes = view.episodes()
                expected = oracle_clusters(episodes, embedder, CLUSTER_THRESHOLD)
                assert from_groups(episodes, got) == expected
                assert cluster_by_lessons(episodes, embedder, CLUSTER_THRESHOLD) == expected
            episodes = view.episodes()
            classes = {}
            for e in episodes:
                classes.setdefault((e.lessons, e.outcome.success), []).append(e.episode_id)
            live = view.episodic_store()
            assert live.class_numbers == {key: n for n, key in enumerate(classes)}
            assert live.class_members == list(classes.values())
            numbers = {eid: n for n, ids in enumerate(classes.values()) for eid in ids}
            assert live.episode_class == numbers
            assert _episodic_index(view, EMBEDDER).items == episodic_items(episodes)


# A few lesson tuples, so that repeats dominate; the empty tuple embeds to the
# zero vector. Drawn with either outcome, a tuple makes twin classes.
TUPLE_POOL = [
    (),
    ("alpha beta gamma",),
    ("keep alpha keep beta gamma", "keep alpha keep beta delta"),
    ("keep alpha keep omega delta",),
    ("start zulu route echo canyon",),
    ("start zulu route echo harbor", "alpha beta gamma"),
    (EXTRACTION_FAILED_LESSON,),
]
# Below, at and above every self-cosine, so that repeats of one tuple link to
# each other under some thresholds and not under others.
THRESHOLDS = (-1.0, 0.0, CLUSTER_THRESHOLD, 1.0, 1.5)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.tuples(st.sampled_from(TUPLE_POOL), st.booleans()), max_size=24),
    st.integers(0, len(EMBEDDERS) - 1),
    st.integers(0, 24),
)
def test_clusters_of_repeated_tuples_equal_the_oracle(tasks, which, cut):
    """Clustering one vector per lesson class stays exact at any threshold, twins included."""
    episodes = [episode("a", i, lessons, success) for i, (lessons, success) in enumerate(tasks)]
    classes = list(dict.fromkeys((e.lessons, e.outcome.success) for e in episodes))
    tuples = [lessons for lessons, _ in classes]
    known = len({(e.lessons, e.outcome.success) for e in episodes[:cut]})
    embedder = EMBEDDERS[which]
    for threshold in THRESHOLDS:
        expected = oracle_clusters(episodes, embedder, threshold)
        assert cluster_by_lessons(episodes, embedder, threshold) == expected
        state = _SingleLink(embedder, threshold)
        state.groups(tuples[:known])
        got = state.groups(tuples)
        assert got == _SingleLink(embedder, threshold).groups(tuples)
        assert got == sorted(map(sorted, got))
        assert from_groups(episodes, got) == expected


def test_a_repeated_tuple_costs_no_cosine(tmp_path, monkeypatch):
    import teammem.lifecycle as lifecycle

    calls, real = [], lifecycle.cosines

    def counting_cosines(u, vectors):
        calls.append(u)
        return real(u, vectors)

    monkeypatch.setattr(lifecycle, "cosines", counting_cosines)
    view = one_agent_view(tmp_path)
    tuples = [(), ("alpha beta",), (), ("alpha beta",), (), ()]
    for i, lessons in enumerate(tuples):
        record(view, episode("agent-1", i, lessons))
    consolidate(view, CFG, StubGenerator(), EMBEDDER)
    # one call per class; the zero vector links to nothing, itself included
    assert len(calls) == 2
    assert kept_groups(view) == [[1]]
    # repeated classes cost nothing; a twin class costs one more
    for i, lessons in enumerate(tuples, start=len(tuples)):
        record(view, episode("agent-1", i, lessons))
    consolidate(view, CFG, StubGenerator(), EMBEDDER)
    assert len(calls) == 2
    record(view, episode("agent-1", 12, ("alpha beta",), success=False))
    consolidate(view, CFG, StubGenerator(), EMBEDDER)
    assert len(calls) == 3
    assert kept_groups(view) == [[1, 2]]
    clusters = cluster_by_lessons(view.episodes()[:6], EMBEDDER, CLUSTER_THRESHOLD)
    assert [[e.task_index for e in c] for c in clusters] == [[0], [1, 3], [2], [4], [5]]


def test_placeholder_twins_are_two_classes_that_link_alike(tmp_path):
    view = one_agent_view(tmp_path)
    for i, success in enumerate([True, False, True, False], start=1):
        record(view, episode("agent-1", i, [EXTRACTION_FAILED_LESSON], success))
    live, episodes = view.episodic_store(), list(view.episodes())
    placeholder = (EXTRACTION_FAILED_LESSON,)
    assert list(live.class_numbers) == [(placeholder, True), (placeholder, False)]
    # "extraction" and "failed" cancel in one bucket at dim 256: a zero vector
    assert consolidate(view, CFG, StubGenerator(), EMBEDDER) == []
    assert kept_groups(view) == []
    assert cluster_by_lessons(episodes, EMBEDDER, CLUSTER_THRESHOLD) == [[e] for e in episodes]
    wide = HashEmbedder(dim=512)
    (p,) = consolidate(view, CFG, StubGenerator(), wide)
    assert p.source_episodes == {"agent-1:1", "agent-1:3"}
    assert kept_groups(view) == [[0, 1]]
    assert cluster_by_lessons(episodes, wide, CLUSTER_THRESHOLD) == [episodes]


def test_second_consolidation_embeds_only_the_new_lessons(tmp_path):
    view = one_agent_view(tmp_path)
    embedder = CountingEmbedder()
    for i in range(1, 7):
        record(view, episode("agent-1", i, [f"lesson {i % 3}", "alpha beta gamma"]))
    consolidate(view, CFG, StubGenerator(), embedder)
    # one embedding per lesson of each distinct tuple: 3 tuples of 2 lessons
    assert sum(embedder.calls.values()) == 6

    embedder.calls.clear()
    new = [episode("agent-1", i, [f"fresh lesson {i}"]) for i in range(7, 10)]
    for e in new:
        record(view, e)
    consolidate(view, CFG, StubGenerator(), embedder)
    assert embedder.calls == Counter(lesson for e in new for lesson in e.lessons)

    # a reopened store rebuilds the state once (6 distinct tuples, 9 lessons),
    # then extends it again
    view = open_store(tmp_path / "store")["agent-1"]
    embedder.calls.clear()
    consolidate(view, CFG, StubGenerator(), embedder)
    assert sum(embedder.calls.values()) == 9
    embedder.calls.clear()
    consolidate(view, CFG, StubGenerator(), embedder)
    assert sum(embedder.calls.values()) == 0

    # appended episodes whose tuples were all seen before embed nothing
    for i in range(10, 16):
        record(view, episode("agent-1", i, [f"lesson {i % 3}", "alpha beta gamma"]))
    record(view, episode("agent-1", 16, ["fresh lesson 7"]))
    consolidate(view, CFG, StubGenerator(), embedder)
    assert sum(embedder.calls.values()) == 0


def test_cluster_state_is_derived_only(tmp_path):
    view = one_agent_view(tmp_path)
    record(view, episode("agent-1", 1, ["alpha beta gamma"]))
    record(view, episode("agent-1", 2, ["alpha beta gamma"], success=False))
    files = {p: p.read_bytes() for p in (tmp_path / "store").rglob("*") if p.is_file()}
    assert consolidate(view, CFG, StubGenerator(), EMBEDDER) == []
    live = view.episodic_store()
    assert live.cluster_state is not None
    assert view.snapshot().cluster_state is None
    assert view.snapshot() == live  # equality ignores the derived state
    assert "cluster_state" not in repr(live)
    view.persist()
    assert {p: p.read_bytes() for p in (tmp_path / "store").rglob("*") if p.is_file()} == files


# -- consolidation ----------------------------------------------------------------


CFG = ConsolidationConfig(interval_n=5)


def test_cluster_with_one_success_is_not_generalized(tmp_path):
    view = one_agent_view(tmp_path)
    record(view, episode("agent-1", 1, ["alpha beta gamma"], success=True))
    record(view, episode("agent-1", 2, ["alpha beta gamma"], success=False))
    created = consolidate(view, CFG, StubGenerator(), EMBEDDER)
    assert created == []
    assert view.procedures() == {}


def test_two_successes_become_one_procedure(tmp_path):
    view = one_agent_view(tmp_path)
    record(view, episode("agent-1", 1, ["alpha beta gamma"], success=True))
    record(view, episode("agent-1", 2, ["alpha beta gamma"], success=True))
    created = consolidate(
        view, CFG, StubGenerator(), EMBEDDER, timestamp="2026-01-01T01:00:00+00:00"
    )
    assert len(created) == 1
    p = created[0]
    assert p.procedure_id == "proc-00001"
    assert p.owner_id == "agent-1"  # local topology keeps ownership private
    assert (p.successes, p.failures) == (2, 0)
    assert p.source_episodes == frozenset({"agent-1:1", "agent-1:2"})
    assert p.title == "alpha beta gamma"
    assert p.created_at == "2026-01-01T01:00:00+00:00"
    assert view.get_procedure("proc-00001") == p


def test_failed_members_are_excluded_from_sources(tmp_path):
    view = one_agent_view(tmp_path)
    record(view, episode("agent-1", 1, ["alpha beta gamma"], success=True))
    record(view, episode("agent-1", 2, ["alpha beta gamma"], success=True))
    record(view, episode("agent-1", 3, ["alpha beta gamma"], success=False))
    (p,) = consolidate(view, CFG, StubGenerator(), EMBEDDER)
    assert p.source_episodes == frozenset({"agent-1:1", "agent-1:2"})
    assert p.successes == 2


def test_shared_topology_consolidates_into_shared_owner(tmp_path):
    views = open_store(tmp_path / "store", "shared", ["agent-1", "agent-2"])
    record(views["agent-1"], episode("agent-1", 1, ["alpha beta gamma"]))
    record(views["agent-2"], episode("agent-2", 1, ["alpha beta gamma"]))
    (p,) = consolidate(views["agent-1"], CFG, StubGenerator(), EMBEDDER)
    assert p.owner_id == "shared"
    assert p.source_episodes == frozenset({"agent-1:1", "agent-2:1"})
    assert views["agent-2"].get_procedure(p.procedure_id) is not None


def test_strict_subset_procedures_are_pruned(tmp_path):
    view = one_agent_view(tmp_path)
    view.upsert_procedure(seeded_procedure("proc-00001", ["agent-1:1"]))
    view.upsert_procedure(seeded_procedure("proc-00002", ["agent-1:1", "agent-1:2"]))
    consolidate(view, CFG, StubGenerator(), EMBEDDER)
    assert sorted(view.procedures()) == ["proc-00002"]


def test_equal_source_sets_keep_the_more_reliable(tmp_path):
    view = one_agent_view(tmp_path)
    view.upsert_procedure(seeded_procedure("proc-00001", ["agent-1:1"], s=1, f=1))
    view.upsert_procedure(seeded_procedure("proc-00002", ["agent-1:1"], s=3, f=0))
    consolidate(view, CFG, StubGenerator(), EMBEDDER)
    assert sorted(view.procedures()) == ["proc-00002"]


def test_equal_source_sets_and_reliability_keep_the_earlier(tmp_path):
    view = one_agent_view(tmp_path)
    view.upsert_procedure(
        seeded_procedure("proc-00002", ["agent-1:1"], created="2026-01-01T00:00:00+00:00")
    )
    view.upsert_procedure(
        seeded_procedure("proc-00001", ["agent-1:1"], created="2026-01-02T00:00:00+00:00")
    )
    consolidate(view, CFG, StubGenerator(), EMBEDDER)
    assert sorted(view.procedures()) == ["proc-00002"]


def test_fully_tied_duplicates_keep_the_lower_id(tmp_path):
    view = one_agent_view(tmp_path)
    view.upsert_procedure(seeded_procedure("proc-00002", ["agent-1:1"]))
    view.upsert_procedure(seeded_procedure("proc-00001", ["agent-1:1"]))
    consolidate(view, CFG, StubGenerator(), EMBEDDER)
    assert sorted(view.procedures()) == ["proc-00001"]


def test_generalization_failure_skips_cluster_with_warning(tmp_path, caplog):
    view = one_agent_view(tmp_path)
    record(view, episode("agent-1", 1, ["alpha beta gamma"]))
    record(view, episode("agent-1", 2, ["alpha beta gamma"]))
    with caplog.at_level(logging.WARNING):
        created = consolidate(view, CFG, ExplodingGenerator(), EMBEDDER)
    assert created == []
    assert view.procedures() == {}
    assert any("generalization failed" in r.message for r in caplog.records)


class RecordingGenerator(StubGenerator):
    def __init__(self):
        self.inputs = []

    def generalize(self, episodes):
        self.inputs.append([e.episode_id for e in episodes])
        return super().generalize(episodes)


def test_generalize_takes_a_cluster_successes_in_log_order(tmp_path, caplog):
    # two linked tuples (cosine 0.857) whose success classes interleave in the
    # log, and a failure of each
    near, far = "keep alpha keep beta gamma", "keep alpha keep beta delta"
    tasks = [(near, True), (far, True), (near, False), (near, True), (far, True), (far, False)]
    view = one_agent_view(tmp_path)
    for i, (lesson, success) in enumerate(tasks, start=1):
        record(view, episode("agent-1", i, [lesson], success))
    with caplog.at_level(logging.WARNING):
        assert consolidate(view, CFG, ExplodingGenerator(), EMBEDDER) == []
    warnings = [r.getMessage() for r in caplog.records if "generalization" in r.getMessage()]
    assert warnings == ["generalization failed for a cluster of 6 episodes; skipping"]
    gen = RecordingGenerator()
    consolidate(view, CFG, gen, EMBEDDER)
    assert gen.inputs == [["agent-1:1", "agent-1:2", "agent-1:4", "agent-1:5"]]


def test_empty_generalization_output_also_skips(tmp_path):
    view = one_agent_view(tmp_path)
    record(view, episode("agent-1", 1, ["alpha beta gamma"]))
    record(view, episode("agent-1", 2, ["alpha beta gamma"]))
    created = consolidate(view, CFG, EmptyGenerator(), EMBEDDER)
    assert created == []


def test_consolidation_never_deletes_episodes(tmp_path):
    view = one_agent_view(tmp_path)
    for i in range(1, 5):
        record(view, episode("agent-1", i, ["alpha beta gamma"]))
    consolidate(view, CFG, StubGenerator(), EMBEDDER)
    assert len(view.episodes()) == 4


# -- procedures keep their identity and evidence ------------------------------------


class CountingGenerator(StubGenerator):
    def __init__(self):
        self.calls = 0

    def generalize(self, episodes):
        self.calls += 1
        return super().generalize(episodes)


# Pass stamps before every episode's, so that a later recorded use never
# stamps a procedure earlier than its creation.
EARLY = "2025-12-31T01:00:00+00:00"
LATER = "2025-12-31T02:00:00+00:00"


def store_files(root):
    return {p: (p.read_bytes(), p.stat().st_mtime_ns) for p in root.rglob("*") if p.is_file()}


def test_a_grown_cluster_extends_its_procedure_in_place(tmp_path):
    view = one_agent_view(tmp_path)
    gen = CountingGenerator()
    record(view, episode("agent-1", 1, ["alpha beta gamma"]))
    record(view, episode("agent-1", 2, ["alpha beta gamma"]))
    (first,) = consolidate(view, CFG, gen, EMBEDDER, timestamp=EARLY)
    view.record_task(episode("agent-1", 3, ["alpha beta gamma"], success=False), "qa",
                     [first.procedure_id])
    record(view, episode("agent-1", 4, ["alpha beta gamma"]))
    (grown,) = consolidate(view, CFG, gen, EMBEDDER, timestamp=LATER)
    assert gen.calls == 1
    assert grown.procedure_id == first.procedure_id
    assert (grown.created_at, grown.title, grown.knowledge) == (
        first.created_at, first.title, first.knowledge
    )
    assert grown.updated_at == LATER
    assert (grown.successes, grown.failures) == (3, 1)
    assert grown.source_episodes == {"agent-1:1", "agent-1:2", "agent-1:4"}
    assert view.procedures() == {first.procedure_id: grown}


def test_merged_clusters_merge_their_procedures(tmp_path):
    view = one_agent_view(tmp_path)
    gen = CountingGenerator()
    for i, lessons in enumerate(["keep alpha keep beta gamma", "keep alpha keep omega delta"] * 2):
        record(view, episode("agent-1", i + 1, [lessons]))
    first, second = consolidate(view, CFG, gen, EMBEDDER, timestamp=EARLY)
    view.record_task(episode("agent-1", 5, ["zulu"], success=False), "qa",
                     [second.procedure_id])
    # a lesson that links both clusters merges them
    record(view, episode("agent-1", 6, ["keep alpha keep beta delta"]))
    (merged,) = consolidate(view, CFG, gen, EMBEDDER, timestamp=LATER)
    assert gen.calls == 3
    assert merged.procedure_id == first.procedure_id
    assert merged.source_episodes == first.source_episodes | second.source_episodes | {"agent-1:6"}
    assert (merged.successes, merged.failures) == (5, 1)
    assert sorted(view.procedures()) == [first.procedure_id]


def test_failures_of_procedure_served_tasks_survive_later_passes(tmp_path):
    # procedures distilled from the steady family serve every task, and the
    # other family's memory bonus is too small for its tasks to succeed
    families = (
        TaskFamily("payment gateway retry storm triage", "incident", 65.0, 65.0, 0.0),
        TaskFamily("nightly data warehouse sync audit", "analytics", 55.0, 55.0, 1.0),
    )
    cfg = SimConfig(topology="shared", team_size=2, n_tasks=40, seed=3, families=families,
                    proc_threshold=-1.0)
    result = run_sim(cfg, tmp_path / "run")
    assert len(result.consolidations) >= 4
    view = open_store(tmp_path / "run" / "store")["agent-1"]
    procedures = view.procedures()
    assert sum(p.failures for p in procedures.values()) >= 10
    for pid, p in procedures.items():
        used = [e.outcome.success for e in view.episodes() if pid in e.related_procedures]
        assert p.failures == used.count(False), pid
        assert p.successes == len(p.source_episodes) + used.count(True), pid


@pytest.mark.parametrize("topology", ["local", "shared", "hybrid"])
def test_a_repeated_pass_calls_no_generator_and_writes_nothing(tmp_path, topology):
    views = open_store(tmp_path / "store", topology, ["agent-1", "agent-2"])
    for i in range(12):
        agent = f"agent-{i % 2 + 1}"
        lessons = ["alpha beta gamma"] if i % 3 else ["start zulu route echo canyon"]
        record(views[agent], episode(agent, i, lessons, success=i != 5))
    first = CountingGenerator()
    for view in views.values():
        consolidate(view, CFG, first, EMBEDDER)
    assert first.calls > 0
    files = store_files(tmp_path / "store")
    again = CountingGenerator()
    for view in open_store(tmp_path / "store").values():
        assert consolidate(view, CFG, again, EMBEDDER) == []
    assert again.calls == 0
    assert store_files(tmp_path / "store") == files


def test_hybrid_agents_with_one_strategy_share_one_procedure(tmp_path):
    views = open_store(tmp_path / "store", "hybrid", ["agent-1", "agent-2", "agent-3"])
    for agent in ("agent-1", "agent-2"):
        for i in (1, 2):
            record(views[agent], episode(agent, i, ["alpha beta gamma"]))
    (shared,) = consolidate(views["agent-1"], CFG, StubGenerator(), EMBEDDER, timestamp=EARLY)
    views["agent-1"].record_task(episode("agent-1", 3, ["zulu"], success=False), "qa",
                                 [shared.procedure_id])
    (merged,) = consolidate(views["agent-2"], CFG, StubGenerator(), EMBEDDER, timestamp=LATER)
    assert merged.procedure_id == shared.procedure_id
    assert merged.source_episodes == {"agent-1:1", "agent-1:2", "agent-2:1", "agent-2:2"}
    assert (merged.successes, merged.failures) == (4, 1)
    assert (merged.title, merged.knowledge) == (shared.title, shared.knowledge)
    # every view sees the one procedure; the merge allocated no id
    for view in views.values():
        assert view.procedures() == {shared.procedure_id: merged}
    assert views["agent-3"].allocate_procedure_id() == "proc-00002"


def test_hybrid_agents_with_different_strategies_keep_both(tmp_path):
    views = open_store(tmp_path / "store", "hybrid", ["agent-1", "agent-2"])
    for agent, lessons in (("agent-1", "alpha beta gamma"), ("agent-2", "start zulu route")):
        for i in (1, 2):
            record(views[agent], episode(agent, i, [lessons]))
    consolidate(views["agent-1"], CFG, StubGenerator(), EMBEDDER)
    consolidate(views["agent-2"], CFG, StubGenerator(), EMBEDDER)
    assert sorted(views["agent-1"].procedures()) == ["proc-00001", "proc-00002"]


# Two clusters of lessons, a lesson that bridges them, and an unrelated one.
BRIDGED = [
    "keep alpha keep beta gamma", "keep alpha keep omega delta", "keep alpha keep beta delta",
    "start zulu route echo canyon",
]
# (lesson, success, use the lowest-id live procedure), mostly successes, so
# that clusters qualify, grow and merge.
TASK = st.tuples(st.sampled_from(BRIDGED), st.sampled_from([True, True, False]), st.booleans())
EVIDENCE_OPS = st.one_of(
    st.tuples(st.just("append"), st.integers(0, 1), st.lists(TASK, min_size=1, max_size=6)),
    st.tuples(st.just("pass"), st.integers(0, 1)),
)


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(["local", "shared", "hybrid"]),
    st.lists(EVIDENCE_OPS, min_size=2, max_size=16),
)
def test_a_pass_never_loses_evidence(topology, ops):
    """Across a pass every procedure's evidence lives on, and sources are successes."""
    agents = ["agent-1", "agent-2"]
    with tempfile.TemporaryDirectory() as tmp:
        views = open_store(Path(tmp) / "store", topology, agents)
        index = 0
        for op in ops:
            view = views[agents[op[1]]]
            if op[0] == "append":
                for lesson, success, use in op[2]:
                    used = sorted(view.procedures())[:1] if use else []
                    index += 1
                    view.record_task(episode(view.agent_id, index, [lesson], success), "qa", used)
                continue
            before = view.procedures()
            consolidate(view, CFG, StubGenerator(), EMBEDDER, timestamp=EARLY)
            after = view.procedures()
            for pid, p in before.items():
                # a procedure merged away lives on in the lowest id of its merge
                heir = after.get(pid) or next(
                    q for q in after.values() if p.source_episodes <= q.source_episodes
                )
                assert heir.successes + heir.failures >= p.successes + p.failures, pid
            for p in after.values():
                assert p.successes >= len(p.source_episodes), p.procedure_id
            assert_sources_are_class_prefixes(views, view, Path(tmp) / "store")


def assert_sources_are_class_prefixes(views, view, root):
    """Within each lesson class, ``view``'s procedures hold a prefix of its members.

    A class is one episode log's episodes with one lesson tuple and success
    flag, in log order. Sources are successes, and the snapshot spells a
    procedure's sources in one entry per class they touch.
    """
    classes = {}
    for log in {id(v.episodic_store()): v.episodic_store() for v in views.values()}.values():
        for e in log.episodic:
            classes.setdefault((id(log), e.lessons, e.outcome.success), []).append(e.episode_id)
    snapshot = root / view.procedure_owner() / "procedural.json"
    procedures = view.procedures()
    on_disk = json.loads(snapshot.read_text())["procedures"] if procedures else []
    assert sorted(d["procedure_id"] for d in on_disk) == sorted(procedures)
    for d in on_disk:
        sources = procedures[d["procedure_id"]].source_episodes
        touched = 0
        for (_, _, success), members in classes.items():
            held = [m in sources for m in members]
            if any(held):
                assert success and held == sorted(held, reverse=True), d["procedure_id"]
                touched += 1
        assert len(d["source_episodes"]) == touched, d["procedure_id"]


# -- the watermark trigger ---------------------------------------------------------


def test_maybe_consolidate_waits_for_the_interval(tmp_path):
    view = one_agent_view(tmp_path)
    cfg = ConsolidationConfig(interval_n=3)
    gen = StubGenerator()
    record(view, episode("agent-1", 1, ["alpha beta gamma"]))
    record(view, episode("agent-1", 2, ["alpha beta gamma"]))
    assert maybe_consolidate(view, cfg, gen, EMBEDDER) == []
    assert view.consolidation_watermark() == 0
    record(view, episode("agent-1", 3, ["alpha beta gamma"]))
    created = maybe_consolidate(view, cfg, gen, EMBEDDER)
    assert len(created) == 1
    assert view.consolidation_watermark() == 3
    # immediately after, the counter is reset relative to the new watermark
    assert maybe_consolidate(view, cfg, gen, EMBEDDER) == []


def test_maybe_consolidate_does_not_copy_the_history_to_count_it(tmp_path, monkeypatch):
    view = one_agent_view(tmp_path)
    record(view, episode("agent-1", 1, ["alpha beta gamma"]))

    def no_copy(self):
        raise AssertionError("episodes() copied the whole history")

    monkeypatch.setattr(MemoryView, "episodes", no_copy)
    assert maybe_consolidate(view, ConsolidationConfig(interval_n=2), StubGenerator(), EMBEDDER) == []


def test_watermark_blocks_reconsolidation_after_reopen(tmp_path):
    view = one_agent_view(tmp_path)
    cfg = ConsolidationConfig(interval_n=2)
    gen = StubGenerator()
    record(view, episode("agent-1", 1, ["alpha beta gamma"]))
    record(view, episode("agent-1", 2, ["alpha beta gamma"]))
    maybe_consolidate(view, cfg, gen, EMBEDDER)
    reopened = open_store(tmp_path / "store")["agent-1"]
    assert reopened.consolidation_watermark() == 2
    assert maybe_consolidate(reopened, cfg, gen, EMBEDDER) == []


def test_consolidation_config_validation():
    with pytest.raises(ValueError):
        ConsolidationConfig(interval_n=0)


# -- prompt templates for external generators ----------------------------------------


def test_lesson_extraction_prompt_snapshot():
    text = render_lesson_extraction_prompt(
        "migrate the billing database",
        ("dump schema", "copy rows"),
        Outcome(ts=40.0, cs=30.0, success=False),
        role="database operator",
    )
    assert "Task: migrate the billing database" in text
    assert "You are acting as: database operator." in text
    assert "Actions taken: dump schema; copy rows" in text
    assert "Outcome: failure (TS=40.00, CS=30.00)" in text
    assert "The task had issues. Focus on which concrete actions to change." in text
    assert text.endswith('["Lesson 1", ...]')


def test_lesson_extraction_prompt_success_branch():
    text = render_lesson_extraction_prompt(
        "t", (), Outcome(ts=80.0, cs=90.0, success=True)
    )
    assert "Outcome: success (TS=80.00, CS=90.00)" in text
    assert "Actions taken: (none recorded)" in text
    assert "The task succeeded. Focus on which concrete actions to repeat." in text


def test_generalization_prompt_snapshot():
    eps = [
        episode("a", 1, ["alpha beta"], desc="first task"),
        episode("a", 2, ["gamma delta"], desc="second task"),
    ]
    text = render_generalization_prompt(eps)
    assert "Episode 1:\n  Task: first task\n  Lessons: alpha beta" in text
    assert "Episode 2:\n  Task: second task\n  Lessons: gamma delta" in text
    assert text.endswith('"knowledge_content": "Detailed strategy and skill description"}')
