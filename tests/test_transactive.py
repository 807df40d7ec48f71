"""Transactive state: a tally of the task records, read off on demand, never stored."""

import builtins
import json
import os
import pathlib
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from teammem.harness import SimConfig, SimRunner
from teammem.store import SHARED_OWNER, StoreError, open_store
from teammem.types import (
    AgentProfile,
    CollabStats,
    Episode,
    Outcome,
    TeamPattern,
    TypeStats,
    canonical_team_key,
)

SRC = Path(__file__).resolve().parents[1] / "src"
TASK_TYPES = ("incident", "qa", "review")


def episode(agent_id, index, team, success=True):
    return Episode(
        agent_id=agent_id,
        task_index=index,
        timestamp=f"2026-01-01T00:{index % 60:02d}:00+00:00",
        task_description=f"triage ticket {index}",
        team_composition=tuple(team),
        actions=("read runbook",),
        outcome=Outcome(ts=80.0, cs=70.0, success=success),
        lessons=("keep the runbook open",),
    )


def files_of(root):
    return {
        path: (path.read_bytes(), path.stat().st_mtime_ns)
        for path in sorted(root.rglob("*"))
        if path.is_file()
    }


# -- a from-scratch oracle -----------------------------------------------------------


def oracle(topology, tasks, viewer):
    """The profiles and team patterns ``viewer`` sees after ``tasks``.

    ``tasks`` holds ``(executor, team, task_type, success)`` in record order.
    Under ``local`` a view sees only its own agent's tasks. Under ``shared``
    it sees every task, with collaboration counted for both sides. Under
    ``hybrid`` it sees every task's aggregates, but only its own agent's
    collaboration history.
    """
    aggregates = {}  # agent -> [successes, total, Counter attempts, Counter successes]
    history = {}  # agent -> partner -> [joint tasks, joint successes]
    patterns = {}  # team -> task type -> [attempts, successes]
    for executor, team, task_type, success in tasks:
        if topology == "local" and executor != viewer:
            continue
        agg = aggregates.setdefault(executor, [0, 0, Counter(), Counter()])
        agg[0] += success
        agg[1] += 1
        agg[2][task_type] += 1
        agg[3][task_type] += success
        key = canonical_team_key(team)
        counts = patterns.setdefault(key, {}).setdefault(task_type, [0, 0])
        counts[0] += 1
        counts[1] += success
        for partner in key:
            if partner == executor:
                continue
            pairs = [(executor, partner)]
            if topology != "local":
                pairs.append((partner, executor))
            for subject, other in pairs:
                if topology == "hybrid" and subject != viewer:
                    continue
                joint = history.setdefault(subject, {}).setdefault(other, [0, 0])
                joint[0] += 1
                joint[1] += success
    profiles = {}
    for agent in sorted(set(aggregates) | set(history)):
        successes, total, attempts, wins = aggregates.get(agent, [0, 0, Counter(), Counter()])
        profiles[agent] = AgentProfile(
            agent_id=agent,
            task_type_counts={t: TypeStats(attempts[t], wins[t]) for t in attempts},
            collaboration_history={
                p: CollabStats(*counts) for p, counts in history.get(agent, {}).items()
            },
            successes=successes,
            total_tasks=total,
        )
    team_patterns = {
        key: TeamPattern(
            composition=key,
            suited_task_types={t: TypeStats(*counts) for t, counts in by_type.items()},
        )
        for key, by_type in sorted(patterns.items())
    }
    return profiles, team_patterns


def check_reads(views, topology, tasks):
    for viewer, view in views.items():
        profiles, team_patterns = oracle(topology, tasks, viewer)
        got = view.profiles()
        assert got == profiles, viewer
        assert list(got) == sorted(got)
        patterns = view.team_patterns()
        assert patterns == team_patterns, viewer
        assert list(patterns) == sorted(patterns)
        assert view.get_profile(viewer) == profiles.get(viewer)


# -- the fold is exact -----------------------------------------------------------------


TASK = st.tuples(
    st.just("task"),
    st.integers(0, 3),  # executor, taken modulo the team size
    st.sets(st.integers(0, 3), min_size=1),  # roster, likewise
    st.sampled_from(TASK_TYPES),
    st.booleans(),
)
READ = st.tuples(st.just("read"))
OPS = st.one_of(
    TASK,
    READ,
    st.tuples(st.just("reopen")),
    st.tuples(st.just("batch"), st.lists(st.one_of(TASK, READ), max_size=4)),
)


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(["local", "shared", "hybrid"]),
    st.integers(2, 4),
    st.lists(OPS, max_size=16),
)
def test_the_lazily_extended_fold_equals_a_from_scratch_fold(topology, team_size, ops):
    agents = [f"agent-{i + 1}" for i in range(team_size)]
    tasks = []
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp) / "store"
        views = open_store(root, topology, agents)

        def apply(op):
            if op[0] == "read":
                check_reads(views, topology, tasks)
                return
            _, executor, roster, task_type, success = op
            executor = agents[executor % team_size]
            team = sorted({agents[i % team_size] for i in roster})
            index = sum(task[0] == executor for task in tasks)
            views[executor].record_task(episode(executor, index, team, success), task_type, [])
            tasks.append((executor, team, task_type, success))

        for op in ops:
            if op[0] == "reopen":
                views = open_store(root)
            elif op[0] == "batch":
                with views[agents[0]].batch():
                    for inner in op[1]:
                        apply(inner)
            else:
                apply(op)
        check_reads(views, topology, tasks)
        check_reads(open_store(root), topology, tasks)


# -- derived only when read ------------------------------------------------------------


@pytest.mark.parametrize("topology", ["local", "shared", "hybrid"])
def test_a_run_that_never_reads_profiles_never_folds_them(tmp_path, topology):
    cfg = SimConfig(topology=topology, team_size=3, n_tasks=12, seed=3)
    runner = SimRunner(cfg, tmp_path / "run")
    runner.run()
    store = runner.views["agent-1"]._store
    sets = [store.store_set(owner) for owner in store._owners]
    assert all(s.profiles == {} and s.team_patterns == {} for s in sets)
    assert sum(tasks for s in sets for tasks, _ in s.tally.values()) == cfg.n_tasks

    root = tmp_path / "run" / "store"
    files = files_of(root)
    for view in runner.views.values():
        assert sum(p.total_tasks for p in view.profiles().values()) > 0
        view.team_patterns()
        view.snapshot()
    assert files_of(root) == files
    assert not list(root.rglob("transactive.json"))


def test_hybrid_folds_into_the_shared_store_set_only(tmp_path):
    runner = SimRunner(SimConfig(topology="hybrid", team_size=3, n_tasks=12, seed=3), tmp_path)
    runner.run()
    seen = {agent: view.profiles() for agent, view in runner.views.items()}
    assert any(profiles[agent].collaboration_history for agent, profiles in seen.items())
    store = runner.views["agent-1"]._store
    for agent in store.agents:
        assert store.store_set(agent).profiles == {}
        assert store.store_set(agent).team_patterns == {}
    assert store.store_set(SHARED_OWNER).team_patterns


@pytest.mark.parametrize("topology", ["local", "shared", "hybrid"])
def test_a_team_the_fold_cannot_take_is_rejected_before_changing_anything(tmp_path, topology):
    views = open_store(tmp_path / "store", topology, ["agent-1", "agent-2"])
    views["agent-1"].record_task(episode("agent-1", 1, ("agent-1", "agent-2")), "qa", [])
    files = files_of(tmp_path / "store")
    with pytest.raises(StoreError, match="empty team composition"):
        views["agent-1"].record_task(episode("agent-1", 2, ()), "qa", [])
    with pytest.raises(StoreError, match="task_type must be a string"):
        views["agent-1"].record_task(episode("agent-1", 2, ("agent-1",)), 5, [])
    if topology == "hybrid":
        # no view could read the history of an agent outside the roster
        with pytest.raises(StoreError, match="outside the roster: \\['agent-9'\\]"):
            views["agent-1"].record_task(episode("agent-1", 2, ("agent-1", "agent-9")), "qa", [])
    assert files_of(tmp_path / "store") == files
    assert len(views["agent-1"].episodes()) == 1
    assert views["agent-1"].get_profile("agent-1").total_tasks == 1
    assert views["agent-1"].get_profile("agent-1").collaboration_history == {
        "agent-2": CollabStats(1, 1)
    }
    reopened = open_store(tmp_path / "store")
    assert reopened["agent-1"].profiles() == views["agent-1"].profiles()

    # the loader holds a record to the same rules, naming the file and the line
    log = tmp_path / "store" / ("shared" if topology == "shared" else "agent-1") / "episodic.jsonl"
    record = json.loads(log.read_text())
    edits = [
        ({"team_composition": []}, "empty team composition"),
        ({"team_composition": ["agent-1", 2]}, "non-string agent id"),
        ({"task_type": ["qa"]}, "task_type must be a string"),
    ]
    if topology == "hybrid":
        edits.append(({"team_composition": ["agent-1", "agent-9"]}, "outside the roster"))
    for edit, message in edits:
        log.write_text(json.dumps({**record, **edit}) + "\n", encoding="utf-8")
        with pytest.raises(StoreError, match=message) as exc:
            open_store(tmp_path / "store")
        assert f"{log}, line 1" in str(exc.value)


@pytest.mark.parametrize("read_between", [False, True])
def test_hybrid_histories_list_partners_in_seq_order(tmp_path, read_between):
    root = tmp_path / "store"
    views = open_store(root, "hybrid", AGENTS)
    views["agent-3"].record_task(episode("agent-3", 1, ("agent-1", "agent-3")), "incident", [])
    if read_between:
        views["agent-1"].profiles()
    views["agent-2"].record_task(episode("agent-2", 2, ("agent-1", "agent-2")), "qa", [])
    for view in (views["agent-1"], open_store(root)["agent-1"]):
        history = view.get_profile("agent-1").collaboration_history
        assert list(history) == ["agent-3", "agent-2"]


HASH_SEED_SCRIPT = """
import sys, tempfile
from pathlib import Path
from teammem.store import open_store
from teammem.types import Episode, Outcome

agents = ["agent-1", "agent-2", "agent-3", "agent-4"]
with tempfile.TemporaryDirectory() as tmp:
    views = open_store(Path(tmp) / "store", "hybrid", agents)
    for i in range(8):
        agent = agents[(i * 3) % 4]
        team = (agent, agents[(i + 1) % 4], agents[(i + 2) % 4])
        views[agent].record_task(
            Episode(agent_id=agent, task_index=i, timestamp="2026-01-01T00:00:00+00:00",
                    task_description="t", team_composition=team, actions=(),
                    outcome=Outcome(ts=80.0, cs=70.0, success=i % 3 != 0)),
            "incident" if i % 2 else "qa", [])
    for agent, view in sorted(views.items()):
        print(agent, list(view.profiles()), list(view.team_patterns()))
"""


def test_profile_and_pattern_order_does_not_depend_on_the_hash_seed():
    outputs = []
    for seed in ("1", "2"):
        env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": str(SRC)}
        done = subprocess.run(
            [sys.executable, "-c", HASH_SEED_SCRIPT],
            env=env, capture_output=True, text=True, check=True,
        )
        outputs.append(done.stdout)
    assert outputs[0] == outputs[1]
    assert "['agent-1', 'agent-2', 'agent-3', 'agent-4']" in outputs[0]


# -- stores written by a build that kept transactive.json ------------------------------


AGENTS = ["agent-1", "agent-2", "agent-3"]


def record_four_tasks(views):
    views["agent-1"].record_task(episode("agent-1", 1, ("agent-1", "agent-2")), "incident", [])
    views["agent-2"].record_task(episode("agent-2", 2, ("agent-2", "agent-3")), "qa", [])
    views["agent-3"].record_task(
        episode("agent-3", 3, ("agent-1", "agent-3"), success=False), "incident", []
    )
    views["agent-1"].record_task(episode("agent-1", 4, ("agent-1",)), "qa", [])


def collab(*pairs):
    return {p: {"joint_successes": s, "joint_tasks": n} for p, n, s in pairs}


def counts(**by_type):
    return {t: {"attempts": a, "successes": s} for t, (a, s) in by_type.items()}


def profile(agent, history=None, successes=0, total=0, **by_type):
    return {
        "agent_id": agent, "collaboration_history": history or {}, "successes": successes,
        "task_type_counts": counts(**by_type), "total_tasks": total,
    }


def private(agent, seq, history):
    return {"profiles": [profile(agent, history)], "schema_version": 3, "seq": seq,
            "team_patterns": []}


# The transactive.json files an earlier build left after record_four_tasks.
# The shared one names seq 3, so it lacks agent-1's second task.
OLD_TRANSACTIVE = {
    "agent-1": private("agent-1", 3, collab(("agent-2", 1, 1), ("agent-3", 1, 0))),
    "agent-2": private("agent-2", 2, collab(("agent-1", 1, 1), ("agent-3", 1, 1))),
    "agent-3": private("agent-3", 3, collab(("agent-1", 1, 0), ("agent-2", 1, 1))),
    SHARED_OWNER: {
        "profiles": [
            profile("agent-1", successes=1, total=1, incident=(1, 1)),
            profile("agent-2", successes=1, total=1, qa=(1, 1)),
            profile("agent-3", successes=0, total=1, incident=(1, 0)),
        ],
        "schema_version": 3,
        "seq": 3,
        "team_patterns": [
            {"composition": ["agent-1", "agent-2"], "suited_task_types": counts(incident=(1, 1))},
            {"composition": ["agent-1", "agent-3"], "suited_task_types": counts(incident=(1, 0))},
            {"composition": ["agent-2", "agent-3"], "suited_task_types": counts(qa=(1, 1))},
        ],
    },
}


def test_a_stale_transactive_file_is_ignored_and_left_untouched(tmp_path, monkeypatch):
    root = tmp_path / "store"
    live = open_store(root, "hybrid", AGENTS)
    record_four_tasks(live)
    for owner, document in OLD_TRANSACTIVE.items():
        (root / owner).mkdir(exist_ok=True)
        line = json.dumps(document, sort_keys=True, separators=(",", ":")) + "\n"
        (root / owner / "transactive.json").write_text(line, encoding="utf-8")
    files = files_of(root)

    opened = []
    real_open, real_path_open = builtins.open, pathlib.Path.open

    def spy_open(file, *args, **kwargs):
        opened.append(Path(file).name)
        return real_open(file, *args, **kwargs)

    def spy_path_open(self, *args, **kwargs):
        opened.append(self.name)
        return real_path_open(self, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", spy_open)
    monkeypatch.setattr(pathlib.Path, "open", spy_path_open)
    reopened = open_store(root)
    monkeypatch.undo()
    assert files_of(root) == files
    monkeypatch.setattr(builtins, "open", spy_open)
    monkeypatch.setattr(pathlib.Path, "open", spy_path_open)
    for agent, view in reopened.items():
        assert view.profiles() == live[agent].profiles()
        assert view.team_patterns() == live[agent].team_patterns()
    monkeypatch.undo()
    assert "episodic.jsonl" in opened and "transactive.json" not in opened
    assert files_of(root) == files

    # the fold counts the task the stale shared file lacks
    assert reopened["agent-2"].get_profile("agent-1").task_type_counts == {
        "incident": TypeStats(1, 1), "qa": TypeStats(1, 1)
    }
    assert reopened["agent-1"].team_patterns()[("agent-1",)].suited_task_types == {
        "qa": TypeStats(1, 1)
    }
