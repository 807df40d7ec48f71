"""Acceptance suite: one test per shipped guarantee.

Each test prints a single "[acceptance] criterion N (...): PASS|FAIL" line
(visible under ``pytest -s``) and fails loudly when its guarantee breaks.
Oracles here are deliberately independent reimplementations: exact-rational
metric math, a brute-force retrieval scorer, and a BFS clustering reference.
"""

import math
import random
import time
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

from teammem.embedding import HashEmbedder, cosine
from teammem.harness import (
    SimConfig,
    SimRunner,
    TaskFamily,
    render_action_prompt,
    run_sim,
    sweep,
)
from teammem.lifecycle import (
    ConsolidationConfig,
    StubGenerator,
    cluster_by_lessons,
    consolidate,
)
from teammem.metrics import RunLog, RunLogEntry, cma, series_from_log
from teammem.retrieval import (
    Query,
    RetrievalResult,
    episodic_items,
    procedural_items,
    render_memory_context,
    retrieve_from_pools,
    score_pool,
)
from teammem.store import open_store
from teammem.types import Episode, MemoryItem, Outcome, Procedure

from helpers import record

EMBEDDER = HashEmbedder()
GOLDEN = Path(__file__).parent / "golden"


def report(criterion, name, passed):
    verdict = "PASS" if passed else "FAIL"
    print(f"[acceptance] criterion {criterion} ({name}): {verdict}")


# -- shared fixture builders -----------------------------------------------


def episode(agent, index, lessons=(), success=True, desc="task", ts=70.0, cs=70.0):
    return Episode(
        agent_id=agent,
        task_index=index,
        timestamp=f"2026-01-01T00:{index % 60:02d}:00+00:00",
        task_description=desc,
        team_composition=(agent,),
        actions=("act",),
        outcome=Outcome(ts=ts, cs=cs, success=success),
        lessons=tuple(lessons),
    )


def simple_log(scores):
    return RunLog(
        entries=tuple(
            RunLogEntry(
                task_index=i + 1,
                task_id=f"t{i + 1:04d}",
                ts=float(s),
                cs=float(s),
                tokens_in=10,
                tokens_out=5,
                team_size=1,
                kind_used="none",
            )
            for i, s in enumerate(scores)
        )
    )


# -- criterion 1 --------------------------------------------------------------


def test_criterion_1_metric_exactness():
    ok = False
    try:
        start = time.perf_counter()
        rng = random.Random(101)
        for _ in range(100):
            n = rng.randint(1, 1000)
            method_scores = [rng.randint(0, 100) for _ in range(n)]
            baseline_scores = [rng.randint(0, 100) for _ in range(n)]
            method = simple_log(method_scores)
            baseline = simple_log(baseline_scores)

            series = series_from_log(method)
            running = Fraction(0)
            for t, s in enumerate(method_scores, start=1):
                running += Fraction(s)
                assert abs(series.as_curve[t - 1] - float(running / t)) < 1e-9
            aas_exact = Fraction(0)
            acc = Fraction(0)
            for t, s in enumerate(method_scores, start=1):
                acc += Fraction(s)
                aas_exact += acc / t
            aas_exact /= n
            assert abs(series.aas - float(aas_exact)) < 1e-9

            curve = cma(method, baseline)
            running = Fraction(0)
            for t, (m, b) in enumerate(zip(method_scores, baseline_scores)):
                running += Fraction(m) - Fraction(b)
                assert abs(curve[t] - float(running)) < 1e-9

            # CMA_T equals T times the difference of the mean scores, exactly
            mean_m = Fraction(sum(method_scores), n)
            mean_b = Fraction(sum(baseline_scores), n)
            assert Fraction(int(curve[-1])) == n * (mean_m - mean_b)
            assert curve[-1] == float(n * (mean_m - mean_b))

            assert cma(method, method) == (0.0,) * n
        elapsed = time.perf_counter() - start
        assert elapsed < 5.0, f"criterion 1 took {elapsed:.2f}s"
        ok = True
    finally:
        report(1, "metric exactness", ok)


# -- criterion 2 --------------------------------------------------------------


def _oracle_zscores(values):
    mean = sum(values) / len(values)
    std = math.sqrt(sum((v - mean) ** 2 for v in values) / len(values))
    if std < 1e-12:
        return [0.0] * len(values)
    return [(v - mean) / std for v in values]


def _oracle_rank(query_text, pool, embedder):
    qv = embedder.embed(query_text)
    rels = [cosine(qv, embedder.embed(m.text_for_embedding)) for m in pool]
    imps = [m.importance_raw for m in pool]
    rel_z = _oracle_zscores(rels)
    imp_z = _oracle_zscores(imps)
    order = sorted(
        range(len(pool)),
        key=lambda i: (-(rel_z[i] + imp_z[i]), -rels[i], pool[i].id),
    )
    return [pool[i].id for i in order]


def _oracle_retrieve(query, procs, eps, embedder):
    qv = embedder.embed(query.text)
    if procs:
        best = max(cosine(qv, embedder.embed(m.text_for_embedding)) for m in procs)
        if best >= query.proc_fallback_threshold:
            return "procedural", _oracle_rank(query.text, procs, embedder)[: query.k]
    if not eps:
        return "episodic", []
    return "episodic", _oracle_rank(query.text, eps, embedder)[: query.k]


def test_criterion_2_retrieval_equivalence():
    ok = False
    try:
        start = time.perf_counter()
        rng = random.Random(202)
        words = "alpha beta gamma delta epsilon zeta eta theta iota kappa".split()

        def random_pool(kind, prefix, n):
            return [
                MemoryItem(
                    kind=kind,
                    id=f"{prefix}{i:03d}",
                    text_for_embedding=" ".join(rng.choices(words, k=rng.randint(1, 6))),
                    importance_raw=rng.choice([0.0, 0.2, 0.25, 0.5, 0.75, 0.8, 1.0]),
                )
                for i in range(n)
            ]

        for _ in range(200):
            n_procs = rng.randint(0, 25)
            n_eps = rng.randint(0, 25)
            procs = random_pool("procedural", "p", n_procs)
            eps = random_pool("episodic", "e", n_eps)
            query = Query(
                text=" ".join(rng.choices(words, k=rng.randint(1, 4))),
                k=rng.randint(1, 6),
                proc_fallback_threshold=rng.choice([0.0, 0.2, 0.3, 0.5, 0.9]),
            )
            got = retrieve_from_pools(query, procs, eps, EMBEDDER)
            want_kind, want_ids = _oracle_retrieve(query, procs, eps, EMBEDDER)
            assert got.kind_used == want_kind
            assert list(got.ids) == want_ids
            # scored values themselves must match the reference formula
            pool = procs if want_kind == "procedural" else eps
            if pool:
                rels = [
                    cosine(EMBEDDER.embed(query.text), EMBEDDER.embed(m.text_for_embedding))
                    for m in pool
                ]
                rel_z = _oracle_zscores(rels)
                imp_z = _oracle_zscores([m.importance_raw for m in pool])
                by_id = {m.id: rel_z[i] + imp_z[i] for i, m in enumerate(pool)}
                for scored in got.items:
                    assert scored.score == by_id[scored.item.id]
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0, f"criterion 2 took {elapsed:.2f}s"
        ok = True
    finally:
        report(2, "retrieval equivalence", ok)


# -- criterion 3 --------------------------------------------------------------


def _oracle_clusters(episodes, embedder, threshold):
    def mean_vec(ep):
        vecs = [embedder.embed(lesson) for lesson in ep.lessons]
        if not vecs:
            return [0.0] * embedder.dim
        return [
            sum(v.values[i] for v in vecs) / len(vecs) for i in range(embedder.dim)
        ]

    def cos(u, v):
        nu = math.sqrt(sum(x * x for x in u))
        nv = math.sqrt(sum(x * x for x in v))
        if nu == 0.0 or nv == 0.0:
            return 0.0
        return sum(a * b for a, b in zip(u, v)) / (nu * nv)

    n = len(episodes)
    vectors = [mean_vec(e) for e in episodes]
    seen = [False] * n
    components = []
    for i in range(n):
        if seen[i]:
            continue
        stack, members = [i], []
        seen[i] = True
        while stack:
            k = stack.pop()
            members.append(k)
            for j in range(n):
                if not seen[j] and cos(vectors[k], vectors[j]) >= threshold:
                    seen[j] = True
                    stack.append(j)
        components.append(frozenset(episodes[m].episode_id for m in members))
    return components


def test_criterion_3_consolidation_conformance(tmp_path):
    ok = False
    try:
        cfg = ConsolidationConfig(interval_n=5)
        gen = StubGenerator()

        # (a) a cluster with a single successful member is not generalized
        view = open_store(tmp_path / "a", "local", ["agent-1"])["agent-1"]
        record(view, episode("agent-1", 1, ["alpha beta gamma"], success=True))
        record(view, episode("agent-1", 2, ["alpha beta gamma"], success=False))
        assert consolidate(view, cfg, gen, EMBEDDER) == []
        assert view.procedures() == {}

        # (b) two successes yield one procedure seeded with both sources
        view = open_store(tmp_path / "b", "local", ["agent-1"])["agent-1"]
        record(view, episode("agent-1", 1, ["alpha beta gamma"], success=True))
        record(view, episode("agent-1", 2, ["alpha beta gamma"], success=True))
        created = consolidate(view, cfg, gen, EMBEDDER)
        assert len(created) == 1
        assert created[0].source_episodes == frozenset({"agent-1:1", "agent-1:2"})
        assert (created[0].successes, created[0].failures) == (2, 0)

        # (c) strict-subset source sets are pruned
        view = open_store(tmp_path / "c", "local", ["agent-1"])["agent-1"]

        def seeded(pid, sources):
            return Procedure(
                procedure_id=pid,
                owner_id="agent-1",
                created_at="2026-01-01T00:00:00+00:00",
                updated_at="2026-01-01T00:00:00+00:00",
                title="t",
                knowledge="k",
                successes=1,
                failures=0,
                source_episodes=frozenset(sources),
            )

        view.upsert_procedure(seeded("proc-00001", ["agent-1:1"]))
        view.upsert_procedure(seeded("proc-00002", ["agent-1:1", "agent-1:2"]))
        consolidate(view, cfg, gen, EMBEDDER)
        assert sorted(view.procedures()) == ["proc-00002"]

        # (d) 20 random fixtures against the BFS single-link oracle
        rng = random.Random(303)
        lesson_pool = [
            "keep alpha keep beta gamma",
            "keep alpha keep beta delta",
            "keep alpha keep omega delta",
            "start zulu route echo canyon",
            "start zulu route echo harbor",
            "mellow yellow quartz violet umber",
            "alpha beta gamma",
        ]
        for fixture in range(20):
            n = rng.randint(1, 10)
            eps = [
                episode(
                    "agent-1",
                    i + 1,
                    rng.sample(lesson_pool, rng.randint(1, 2)),
                    success=True,
                )
                for i in range(n)
            ]
            got = [
                frozenset(e.episode_id for e in c)
                for c in cluster_by_lessons(eps, EMBEDDER, 0.80)
            ]
            want = _oracle_clusters(eps, EMBEDDER, 0.80)
            assert sorted(got, key=sorted) == sorted(want, key=sorted), (
                f"fixture {fixture} diverged"
            )
        ok = True
    finally:
        report(3, "consolidation conformance", ok)


# -- criterion 4 --------------------------------------------------------------


def test_criterion_4_topology_isolation(tmp_path):
    ok = False
    try:
        expected = {
            # topology: (episodes, procedures, aggregate profile,
            #            owner's collab history, team patterns) seen by agent-b
            "local": (False, False, False, False, False),
            "shared": (True, True, True, True, True),
            "hybrid": (False, True, True, False, True),
        }
        for topology, want in expected.items():
            views = open_store(tmp_path / topology, topology, ["agent-a", "agent-b"])
            writer = views["agent-a"]
            ep = Episode(
                agent_id="agent-a",
                task_index=1,
                timestamp="2026-01-01T00:01:00+00:00",
                task_description="pair on the incident",
                team_composition=("agent-a", "agent-b"),
                actions=("act",),
                outcome=Outcome(ts=80.0, cs=80.0, success=True),
                lessons=("stay on the call",),
            )
            record(writer, ep, "incident")
            writer.upsert_procedure(
                Procedure(
                    procedure_id="proc-00001",
                    owner_id="agent-a",
                    created_at="2026-01-01T00:02:00+00:00",
                    updated_at="2026-01-01T00:02:00+00:00",
                    title="t",
                    knowledge="k",
                    successes=1,
                    failures=0,
                    source_episodes=frozenset({"agent-a:1"}),
                )
            )

            reader = views["agent-b"]
            profiles = reader.profiles()
            got = (
                any(e.agent_id == "agent-a" for e in reader.episodes()),
                "proc-00001" in reader.procedures(),
                "agent-a" in profiles and profiles["agent-a"].total_tasks == 1,
                bool(profiles.get("agent-a"))
                and bool(profiles["agent-a"].collaboration_history),
                ("agent-a", "agent-b") in reader.team_patterns(),
            )
            assert got == want, f"{topology}: saw {got}, wanted {want}"
        ok = True
    finally:
        report(4, "topology isolation", ok)


# -- criteria 5 and 6 ------------------------------------------------------------


LEARNING_CFG = SimConfig(
    topology="local",
    team_size=3,
    n_tasks=60,
    consolidation_n=5,
    retrieval_k=3,
    seed=11,
)


def test_criterion_5_lifelong_learning_curve(tmp_path):
    ok = False
    try:
        start = time.perf_counter()
        memory = run_sim(LEARNING_CFG, tmp_path / "memory")
        baseline = run_sim(
            replace(LEARNING_CFG, memory_enabled=False), tmp_path / "nomem"
        )
        curve = cma(memory.log, baseline.log)
        assert curve[0] == 0.0, "cold start must show no advantage"
        assert curve[-1] > 0.0, "memory must end ahead"

        as_memory = series_from_log(memory.log).as_curve
        as_baseline = series_from_log(baseline.log).as_curve
        for t in range(11, 61):
            assert as_memory[t - 1] >= as_baseline[t - 1] - 1e-12, f"AS dips at task {t}"

        rerun = run_sim(LEARNING_CFG, tmp_path / "memory-again")
        first = (tmp_path / "memory" / "runlog.jsonl").read_bytes()
        again = (tmp_path / "memory-again" / "runlog.jsonl").read_bytes()
        assert first == again, "learning run is not deterministic"

        elapsed = time.perf_counter() - start
        assert elapsed < 30.0, f"criterion 5 took {elapsed:.2f}s"
        ok = True
    finally:
        report(5, "lifelong learning curve", ok)


def test_criterion_6_context_compression(tmp_path):
    ok = False
    try:
        procedural = run_sim(LEARNING_CFG, tmp_path / "procedural")
        episodic_only = run_sim(
            replace(LEARNING_CFG, proc_threshold=2.0), tmp_path / "episodic"
        )
        first = procedural.first_consolidation_index
        assert first is not None, "the run never consolidated"
        after_proc = procedural.context_tokens[first:]
        after_epi = episodic_only.context_tokens[first:]
        mean_proc = sum(after_proc) / len(after_proc)
        mean_epi = sum(after_epi) / len(after_epi)
        assert mean_proc < mean_epi, (
            f"procedural context ({mean_proc:.1f}) not below episodic ({mean_epi:.1f})"
        )
        ok = True
    finally:
        report(6, "context compression", ok)


# -- criterion 7 --------------------------------------------------------------


def test_criterion_7_team_size_sweep(tmp_path):
    ok = False
    try:
        base = SimConfig(
            n_tasks=30,
            seed=0,
            families=(
                TaskFamily(
                    key="payment gateway retry storm triage",
                    task_type="incident",
                    base_ts=55.0,
                    base_cs=55.0,
                    memory_bonus=10.0,
                ),
            ),
        )
        report_data = sweep(
            base, team_sizes=(1, 3, 5, 7), n_seeds=1, out_dir=tmp_path / "sweep"
        )
        cells = report_data["cells"]
        assert [c["team_size"] for c in cells] == [1, 3, 5, 7], "grid incomplete"

        memory_tokens = [c["avg_tokens_memory"] for c in cells]
        baseline_tokens = [c["avg_tokens_baseline"] for c in cells]
        assert all(
            a < b for a, b in zip(memory_tokens, memory_tokens[1:])
        ), f"memory tokens not increasing: {memory_tokens}"
        assert all(
            a < b for a, b in zip(baseline_tokens, baseline_tokens[1:])
        ), f"baseline tokens not increasing: {baseline_tokens}"

        sweep(base, team_sizes=(1, 3, 5, 7), n_seeds=1, out_dir=tmp_path / "sweep-again")
        first = (tmp_path / "sweep" / "sweep_report.json").read_bytes()
        again = (tmp_path / "sweep-again" / "sweep_report.json").read_bytes()
        assert first == again, "sweep is not deterministic"
        ok = True
    finally:
        report(7, "team size sweep", ok)


# -- criterion 8 --------------------------------------------------------------


def _tree_bytes(root):
    return {
        path.relative_to(root).as_posix(): path.read_bytes()
        for path in sorted(root.rglob("*"))
        if path.is_file()
    }


def test_criterion_8_durability(tmp_path):
    ok = False
    try:
        cfg = SimConfig(n_tasks=20, seed=3, team_size=3)
        run_sim(cfg, tmp_path / "straight")

        # kill and reload: a fresh runner per task, resuming from disk each time
        interrupted = tmp_path / "interrupted"
        for _ in range(cfg.n_tasks):
            SimRunner(cfg, interrupted).step()

        straight = _tree_bytes(tmp_path / "straight")
        resumed = _tree_bytes(interrupted)
        assert straight.keys() == resumed.keys(), (
            f"file sets differ: {sorted(set(straight) ^ set(resumed))}"
        )
        differing = [k for k in straight if straight[k] != resumed[k]]
        assert differing == [], f"files differ after resume: {differing}"
        ok = True
    finally:
        report(8, "durability", ok)


# -- criterion 9 --------------------------------------------------------------


def test_criterion_9_prompt_fidelity():
    ok = False
    try:
        # memory blocks: rebuild the exact fixtures the goldens were
        # transcribed for, then compare bytes
        p1 = Procedure(
            procedure_id="proc-00001",
            owner_id="agent-1",
            created_at="2026-01-01T00:00:00+00:00",
            updated_at="2026-01-01T00:00:00+00:00",
            title="Retry with exponential backoff",
            knowledge="Retry transient failures with backoff; cap attempts at five.",
            successes=3,
            failures=1,
            source_episodes=frozenset({"agent-1:1"}),
        )
        p2 = Procedure(
            procedure_id="proc-00002",
            owner_id="agent-1",
            created_at="2026-01-01T00:00:00+00:00",
            updated_at="2026-01-01T00:00:00+00:00",
            title="Verify checksums after copy",
            knowledge="Always verify checksums after bulk copies.",
            successes=0,
            failures=0,
            source_episodes=frozenset({"agent-1:2"}),
        )
        ranked = score_pool(
            Query(text="retry backoff"), procedural_items([p1, p2]), EMBEDDER
        )
        block = render_memory_context(
            RetrievalResult(
                kind_used="procedural",
                items=tuple(sorted(ranked, key=lambda s: s.item.id)),
            )
        )
        assert block == (GOLDEN / "memory_block_procedural.txt").read_text()

        e1 = episode(
            "agent-1",
            1,
            lessons=("lesson one", "lesson two"),
            success=True,
            desc="Handle payment gateway retry storm triage case amber cobalt",
        )
        e2 = episode(
            "agent-2",
            1,
            lessons=("only lesson",),
            success=False,
            desc="Handle nightly data warehouse sync audit case reef opal",
            ts=40.0,
            cs=40.0,
        )
        ranked = score_pool(
            Query(text="payment gateway"), episodic_items([e1, e2]), EMBEDDER
        )
        block = render_memory_context(
            RetrievalResult(
                kind_used="episodic",
                items=tuple(sorted(ranked, key=lambda s: s.item.id)),
            )
        )
        assert block == (GOLDEN / "memory_block_episodic.txt").read_text()

        prompt = render_action_prompt(
            agent_profile_text="agent-1: scripted operator covering rotation slot 1",
            reasoning_prompt=(
                "Review any past experience, then execute the scripted steps in order."
            ),
            memory_block=(GOLDEN / "memory_block_procedural.txt").read_text(),
            task="Handle payment gateway retry storm triage case amber cobalt",
            agent_descriptions=(
                "- agent-2: scripted operator covering rotation slot 2\n"
                "- agent-3: scripted operator covering rotation slot 3"
            ),
        )
        assert prompt == (GOLDEN / "action_prompt_filled.txt").read_text()

        prompt = render_action_prompt(
            agent_profile_text="agent-1: scripted operator covering rotation slot 1",
            reasoning_prompt=(
                "Review any past experience, then execute the scripted steps in order."
            ),
            memory_block="",
            task="Handle payment gateway retry storm triage case amber cobalt",
            agent_descriptions=(
                "- agent-2: scripted operator covering rotation slot 2\n"
                "- agent-3: scripted operator covering rotation slot 3"
            ),
        )
        assert prompt == (GOLDEN / "action_prompt_empty_memory.txt").read_text()
        ok = True
    finally:
        report(9, "prompt fidelity", ok)
