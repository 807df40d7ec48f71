"""Simulation harness: config parsing, task generation, runs, resume, sweep."""

import hashlib
import json
import math
import re
from collections import Counter
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import example, given, strategies as st

import teammem.harness as harness_module
from teammem.harness import (
    _FAMILY_ROWS,
    _SIM_ROWS,
    DEFAULT_FAMILIES,
    ConfigError,
    SimConfig,
    SimRunner,
    TaskFamily,
    config_to_dict,
    load_sim_config,
    make_task,
    render_action_prompt,
    run_sim,
    sim_timestamp,
    sweep,
)
from teammem.metrics import cma
from teammem.store import Topology

SINGLE_FAMILY = (
    TaskFamily(
        key="payment gateway retry storm triage",
        task_type="incident",
        base_ts=55.0,
        base_cs=55.0,
        memory_bonus=10.0,
    ),
)

GOLDEN = Path(__file__).parent / "golden"
README = Path(__file__).parent.parent / "README.md"


# -- config ---------------------------------------------------------------


def test_config_defaults():
    cfg = SimConfig()
    assert cfg.topology is Topology.LOCAL
    assert cfg.team_size == 3
    assert cfg.agent_ids == ("agent-1", "agent-2", "agent-3")
    assert cfg.families == DEFAULT_FAMILIES


def test_config_accepts_topology_string():
    cfg = SimConfig(topology="hybrid")
    assert cfg.topology is Topology.HYBRID


def test_load_sim_config_nested_keys():
    cfg = load_sim_config(
        {
            "topology": "shared",
            "team_size": 2,
            "n_tasks": 12,
            "consolidation": {"n": 4},
            "retrieval": {"k": 2, "proc_threshold": 0.5},
            "seed": 9,
            "embedding": {"dim": 64},
        }
    )
    assert cfg.topology is Topology.SHARED
    assert cfg.consolidation_n == 4
    assert cfg.retrieval_k == 2
    assert cfg.proc_threshold == 0.5
    assert cfg.embedding_dim == 64


def test_load_sim_config_rejects_unknown_keys():
    with pytest.raises(ConfigError) as exc:
        load_sim_config({"n_tasks": 5, "topolgy": "local"})
    assert "topolgy" in str(exc.value)


def test_load_sim_config_rejects_unknown_keys_inside_sections():
    for config, keys in [
        # the removed cluster knobs, and a typo of dim
        (
            {"consolidation": {"n": 5, "threshold": 0.95, "min_cluster": 3}},
            "consolidation.min_cluster, consolidation.threshold",
        ),
        ({"embedding": {"dimm": 16}}, "embedding.dimm"),
        ({"retrieval": {"k": 2, "proc_treshold": 0.5}}, "retrieval.proc_treshold"),
        ({"families": [{"key": "a"}, {"key": "b", "bonus": 5}]}, "families[1].bonus"),
    ]:
        with pytest.raises(ConfigError) as exc:
            load_sim_config(config)
        assert str(exc.value) == f"unknown config keys: {keys}", config


def test_load_sim_config_rejects_bad_topology():
    with pytest.raises(ConfigError) as exc:
        load_sim_config({"topology": "galactic"})
    assert "topology" in str(exc.value)


def test_load_sim_config_rejects_non_integers():
    for config, key in [
        ({"team_size": "three"}, "team_size"),
        ({"consolidation": {"n": 2.5}}, "consolidation.n"),
        ({"embedding": {"dim": "16"}}, "embedding.dim"),
        ({"embedding": {"dim": True}}, "embedding.dim"),
        # booleans and numbers must have their JSON types too
        ({"memory_enabled": "false"}, "memory_enabled"),
        ({"memory_enabled": 0}, "memory_enabled"),
        ({"retrieval": {"proc_threshold": "high"}}, "retrieval.proc_threshold"),
        ({"success_threshold": None}, "success_threshold"),
        ({"families": [{"key": "triage", "memory_bonus": "10"}]}, "families[0].memory_bonus"),
        # sections and family entries must be JSON objects, and a family needs a key
        ({"consolidation": 5}, "consolidation"),
        ({"retrieval": [1]}, "retrieval"),
        ({"embedding": "hash"}, "embedding"),
        ({"families": ["triage"]}, "families[0]"),
        ({"families": [{"key": "triage"}, {"task_type": "ops"}]}, "families[1].key"),
        ({"families": [{"key": 7}]}, "families[0].key"),
        # task types and the provider name must be strings; a task type not blank
        ({"families": [{"key": "triage", "task_type": 5}]}, "families[0].task_type"),
        ({"families": [{"key": "triage", "task_type": " "}]}, "families[0].task_type"),
        ({"families": [{"key": "a"}, {"key": "b", "task_type": None}]}, "families[1].task_type"),
        ({"embedding": {"provider": ["hash"]}}, "embedding.provider"),
        ({"embedding": {"provider": 1}}, "embedding.provider"),
        # numbers must be finite: JSON's NaN and Infinity literals parse
        ({"retrieval": {"proc_threshold": float("nan")}}, "retrieval.proc_threshold"),
        ({"success_threshold": float("inf")}, "success_threshold"),
        ({"success_threshold": 10**400}, "success_threshold"),
        (
            {"families": [{"key": "triage", "memory_bonus": -float("inf")}]},
            "families[0].memory_bonus",
        ),
    ]:
        with pytest.raises(ConfigError) as exc:
            load_sim_config(config)
        assert str(exc.value).startswith(f"{key}: "), config


def test_load_sim_config_rejects_empty_families():
    with pytest.raises(ConfigError):
        load_sim_config({"families": []})


def test_load_sim_config_from_file(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"n_tasks": 7, "seed": 3}), encoding="utf-8")
    cfg = load_sim_config(path)
    assert cfg.n_tasks == 7 and cfg.seed == 3
    path.write_text("[1]", encoding="utf-8")
    with pytest.raises(ConfigError, match=f"^{re.escape(str(path))}: must be a JSON object$"):
        load_sim_config(path)


def test_load_sim_config_names_a_torn_file(tmp_path):
    path = tmp_path / "torn.json"
    path.write_text('{"topology": "loc', encoding="utf-8")
    with pytest.raises(
        ConfigError,
        match=f"^{re.escape(str(path))}: corrupt JSON: Unterminated string starting at",
    ):
        load_sim_config(path)


def test_config_round_trips_through_dict():
    cfg = SimConfig(topology="hybrid", team_size=5, n_tasks=11, seed=42)
    assert load_sim_config(config_to_dict(cfg)) == cfg


def test_config_with_every_field_set_round_trips_through_json(tmp_path):
    cfg = SimConfig(
        topology="shared",
        team_size=2,
        n_tasks=9,
        consolidation_n=4,
        retrieval_k=2,
        proc_threshold=0.45,
        seed=3,
        memory_enabled=False,
        families=(TaskFamily("log shipper backlog", "ops", 40.0, 60.0, 2.5),),
        success_threshold=65.0,
        embedding_dim=32,
    )
    assert load_sim_config(config_to_dict(cfg)) == cfg
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config_to_dict(cfg)), encoding="utf-8")
    assert load_sim_config(path) == cfg


def test_config_validation():
    with pytest.raises(ConfigError):
        SimConfig(team_size=0)
    with pytest.raises(ConfigError):
        SimConfig(n_tasks=0)
    with pytest.raises(ConfigError):
        SimConfig(families=())
    with pytest.raises(ConfigError) as exc:
        load_sim_config({"embedding": {"dim": 0}})
    assert str(exc.value) == "embedding.dim: must be >= 1, got 0"
    with pytest.raises(ConfigError):
        TaskFamily(key=" ", task_type="x", base_ts=50, base_cs=50, memory_bonus=0)
    # direct construction applies the loader's checks, with the loader's messages
    for fields, config, message in [
        ({"team_size": True}, {"team_size": True}, "team_size: must be an integer, got True"),
        ({"team_size": 2.5}, {"team_size": 2.5}, "team_size: must be an integer, got 2.5"),
        (
            {"proc_threshold": math.nan},
            {"retrieval": {"proc_threshold": math.nan}},
            "retrieval.proc_threshold: must be finite, got nan",
        ),
        (
            {"embedding_provider": "bogus"},
            {"embedding": {"provider": "bogus"}},
            "embedding.provider: unknown provider 'bogus' (known: ",
        ),
    ]:
        with pytest.raises(ConfigError) as direct:
            SimConfig(**fields)
        with pytest.raises(ConfigError) as loaded:
            load_sim_config(config)
        assert str(direct.value) == str(loaded.value), fields
        assert str(direct.value).startswith(message), fields


_ODD = (
    st.booleans()
    | st.floats()
    | st.integers(min_value=-(2**70), max_value=2**70)
    | st.text(max_size=3)
)
_POSITIVE = st.integers(min_value=1, max_value=2**70)
_FINITE = st.floats(allow_nan=False, allow_infinity=False) | st.integers(
    min_value=-(2**70), max_value=2**70
)
_PERCENT = st.floats(min_value=0, max_value=100) | st.integers(min_value=0, max_value=100)


def _fields_with_one_odd(required, optional):
    """Valid constructor fields, with at most one of them swapped for an odd value."""
    names = sorted({**required, **optional})
    return st.tuples(
        st.fixed_dictionaries(required, optional=optional),
        st.dictionaries(st.sampled_from(names), _ODD, max_size=1),
    ).map(lambda pair: {**pair[0], **pair[1]})


_FAMILY_FIELDS = _fields_with_one_odd(
    {"key": st.text(min_size=1, max_size=8)},
    {
        "task_type": st.text(min_size=1, max_size=8),
        "base_ts": _PERCENT,
        "base_cs": _PERCENT,
        "memory_bonus": _FINITE,
    },
)
_SIM_FIELDS = _fields_with_one_odd(
    {},
    {
        "topology": st.sampled_from(["local", "shared", "hybrid", Topology.HYBRID]),
        "team_size": _POSITIVE,
        "n_tasks": _POSITIVE,
        "consolidation_n": _POSITIVE,
        "retrieval_k": _POSITIVE,
        "proc_threshold": _FINITE,
        "seed": st.integers(min_value=-(2**70), max_value=2**70),
        "memory_enabled": st.booleans(),
        "success_threshold": _FINITE,
        "embedding_provider": st.just("hash"),
        "embedding_dim": _POSITIVE,
    },
)


@given(_SIM_FIELDS, st.none() | st.lists(_FAMILY_FIELDS, max_size=3))
@example({"team_size": True}, None)
@example({"team_size": 2.5}, None)
@example({"proc_threshold": math.nan}, None)
def test_every_constructible_config_round_trips_through_json(fields, families):
    try:
        if families is not None:
            fields["families"] = tuple(TaskFamily(**family) for family in families)
        cfg = SimConfig(**fields)
    except ConfigError:
        return
    assert load_sim_config(json.loads(json.dumps(config_to_dict(cfg)))) == cfg


def test_readme_config_reference_matches_the_table():
    section = README.read_text(encoding="utf-8").split("\n## Quick start (CLI)\n")[1]
    section = section.split("\n## ")[0]
    documented = re.findall(r"^\| `([^`]+)` \|", section, flags=re.MULTILINE)
    paths = [path for path, *_ in _SIM_ROWS] + [f"families[].{path}" for path, *_ in _FAMILY_ROWS]
    assert sorted(documented) == sorted(paths)
    quick_start = section.split("```json\n")[1].split("```")[0]
    load_sim_config(json.loads(quick_start))


# -- task generation ---------------------------------------------------------


def test_sim_timestamps_are_frozen():
    assert sim_timestamp(0) == "2026-01-01T00:00:00+00:00"
    assert sim_timestamp(5) == "2026-01-01T00:05:00+00:00"
    assert sim_timestamp(90) == "2026-01-01T01:30:00+00:00"


def test_make_task_is_deterministic():
    cfg = SimConfig(seed=4)
    assert make_task(cfg, 3) == make_task(cfg, 3)
    assert make_task(cfg, 3) != make_task(SimConfig(seed=5), 3)


def test_make_task_rotates_families_and_formats_ids():
    cfg = SimConfig(families=SINGLE_FAMILY + DEFAULT_FAMILIES[1:2])
    t0, t1, t2 = (make_task(cfg, i) for i in range(3))
    assert t0.family_key == SINGLE_FAMILY[0].key
    assert t1.family_key == DEFAULT_FAMILIES[1].key
    assert t2.family_key == SINGLE_FAMILY[0].key
    assert (t0.task_id, t1.task_id, t2.task_id) == ("t0001", "t0002", "t0003")
    assert t0.description.startswith("Handle payment gateway retry storm triage case ")
    assert len(t0.description.split()) == 9  # Handle + key (5) + case + 2 noise words


def test_task_noise_is_independent_of_team_size():
    a = make_task(SimConfig(seed=7, team_size=1), 5)
    b = make_task(SimConfig(seed=7, team_size=7), 5)
    assert a == b


# -- prompt rendering ----------------------------------------------------------


def test_action_prompt_matches_golden():
    memory_block = (GOLDEN / "memory_block_procedural.txt").read_text()
    prompt = render_action_prompt(
        agent_profile_text="agent-1: scripted operator covering rotation slot 1",
        reasoning_prompt="Review any past experience, then execute the scripted steps in order.",
        memory_block=memory_block,
        task="Handle payment gateway retry storm triage case amber cobalt",
        agent_descriptions=(
            "- agent-2: scripted operator covering rotation slot 2\n"
            "- agent-3: scripted operator covering rotation slot 3"
        ),
    )
    assert prompt == (GOLDEN / "action_prompt_filled.txt").read_text()


def test_action_prompt_without_memory_matches_golden():
    prompt = render_action_prompt(
        agent_profile_text="agent-1: scripted operator covering rotation slot 1",
        reasoning_prompt="Review any past experience, then execute the scripted steps in order.",
        memory_block="",
        task="Handle payment gateway retry storm triage case amber cobalt",
        agent_descriptions=(
            "- agent-2: scripted operator covering rotation slot 2\n"
            "- agent-3: scripted operator covering rotation slot 3"
        ),
    )
    assert prompt == (GOLDEN / "action_prompt_empty_memory.txt").read_text()


# -- runs ------------------------------------------------------------------------


def test_no_memory_run_scores_stay_at_base(tmp_path):
    cfg = SimConfig(memory_enabled=False, n_tasks=6, families=SINGLE_FAMILY)
    result = run_sim(cfg, tmp_path / "run")
    assert [e.combined for e in result.log.entries] == [55.0] * 6
    assert all(e.kind_used == "none" for e in result.log.entries)
    assert not (tmp_path / "run" / "store").exists()


def test_memory_run_learns_after_first_exposure(tmp_path):
    cfg = SimConfig(team_size=1, n_tasks=10, families=SINGLE_FAMILY, seed=0)
    memory = run_sim(cfg, tmp_path / "memory")
    baseline = run_sim(
        SimConfig(
            team_size=1, n_tasks=10, families=SINGLE_FAMILY, seed=0, memory_enabled=False
        ),
        tmp_path / "nomem",
    )
    # first encounter runs cold, every later one collects the bonus
    assert [e.combined for e in memory.log.entries] == [55.0] + [65.0] * 9
    assert cma(memory.log, baseline.log) == (
        0.0, 10.0, 20.0, 30.0, 40.0, 50.0, 60.0, 70.0, 80.0, 90.0,
    )


def test_memory_run_switches_to_procedures_after_consolidation(tmp_path):
    cfg = SimConfig(team_size=1, n_tasks=10, families=SINGLE_FAMILY, seed=0)
    result = run_sim(cfg, tmp_path / "run")
    kinds = [e.kind_used for e in result.log.entries]
    assert kinds[:5] == ["episodic"] * 5
    assert kinds[5:] == ["procedural"] * 5
    assert result.first_consolidation_index == 5
    procedural = result.log.entries[5]
    assert procedural.procedures_used == procedural.retrieved_ids != ()


def test_runlog_bytes_are_reproducible(tmp_path):
    cfg = SimConfig(n_tasks=8, seed=21)
    run_sim(cfg, tmp_path / "one")
    run_sim(cfg, tmp_path / "two")
    one = (tmp_path / "one" / "runlog.jsonl").read_bytes()
    two = (tmp_path / "two" / "runlog.jsonl").read_bytes()
    assert one == two
    run_sim(SimConfig(n_tasks=8, seed=22), tmp_path / "three")
    assert (tmp_path / "three" / "runlog.jsonl").read_bytes() != one


@pytest.mark.parametrize("topology", ["local", "shared", "hybrid"])
def test_store_bytes_match_the_pinned_digests(tmp_path, topology):
    cfg = SimConfig(topology=topology, team_size=5, n_tasks=60, seed=7)
    run_sim(cfg, tmp_path / "run")
    store = tmp_path / "run" / "store"
    digests = {
        path.relative_to(store).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(store.rglob("*"))
        if path.is_file()
    }
    pinned = json.loads((GOLDEN / "store_sha256.json").read_text())[topology]
    assert digests == pinned


@pytest.mark.parametrize("topology", ["local", "shared", "hybrid"])
def test_a_run_never_reads_the_clock(tmp_path, monkeypatch, topology):
    def no_clock():
        raise AssertionError("the simulation read the wall clock")

    monkeypatch.setattr("teammem.store._now_iso", no_clock)
    monkeypatch.setattr("teammem.lifecycle._now_iso", no_clock)
    result = run_sim(SimConfig(topology=topology, team_size=3, n_tasks=60, seed=7), tmp_path)
    assert len(result.log) == 60 and result.consolidations


def test_resumed_run_matches_uninterrupted_run(tmp_path):
    cfg = SimConfig(n_tasks=8, seed=5)
    run_sim(cfg, tmp_path / "full")

    resumed_dir = tmp_path / "resumed"
    runner = SimRunner(cfg, resumed_dir)
    for _ in range(3):
        runner.step()
    # simulate a crash: throw the runner away mid-run and start fresh
    runner = SimRunner(cfg, resumed_dir)
    assert runner.completed == 3
    runner.run()

    full = (tmp_path / "full" / "runlog.jsonl").read_bytes()
    assert (resumed_dir / "runlog.jsonl").read_bytes() == full


def test_resume_under_a_different_config_fails_loudly(tmp_path):
    cfg = SimConfig(n_tasks=4, seed=5)
    out = tmp_path / "run"
    SimRunner(cfg, out).step()
    written = (out / "config.json").read_bytes()
    changed = replace(cfg, seed=6, retrieval_k=2)
    with pytest.raises(ConfigError) as exc:
        SimRunner(changed, out)
    assert "differing keys: retrieval, seed" in str(exc.value)
    assert (out / "config.json").read_bytes() == written
    # the same config still resumes, and leaves config.json untouched
    assert SimRunner(cfg, out).completed == 1
    assert (out / "config.json").read_bytes() == written


def test_a_runner_that_cannot_start_freezes_no_config(tmp_path, monkeypatch):
    def unavailable(*args):
        raise OSError("store volume not mounted")

    monkeypatch.setattr(harness_module, "open_store", unavailable)
    with pytest.raises(OSError):
        SimRunner(SimConfig(n_tasks=2, seed=1), tmp_path / "run")
    assert not (tmp_path / "run" / "config.json").exists()
    monkeypatch.undo()
    # a different config then starts in the same directory
    assert run_sim(SimConfig(n_tasks=2), tmp_path / "run").log.entries


def test_step_after_completion_raises(tmp_path):
    cfg = SimConfig(n_tasks=2, team_size=1, families=SINGLE_FAMILY)
    runner = SimRunner(cfg, tmp_path / "run")
    runner.run()
    with pytest.raises(RuntimeError):
        runner.step()


def test_run_writes_config_snapshot(tmp_path):
    cfg = SimConfig(n_tasks=2, seed=17)
    run_sim(cfg, tmp_path / "run")
    snapshot = json.loads((tmp_path / "run" / "config.json").read_text())
    assert load_sim_config(snapshot) == cfg


def test_run_tracks_context_tokens_per_task(tmp_path):
    cfg = SimConfig(team_size=1, n_tasks=6, families=SINGLE_FAMILY)
    result = run_sim(cfg, tmp_path / "run")
    assert len(result.context_tokens) == 6
    assert result.context_tokens[0] == 0  # first task has nothing to retrieve
    assert result.context_tokens[1] > 0


# -- sweep --------------------------------------------------------------------


def test_sweep_runs_full_grid(tmp_path):
    base = SimConfig(n_tasks=6, seed=0, families=SINGLE_FAMILY)
    report = sweep(base, team_sizes=(2, 1), n_seeds=2, out_dir=tmp_path / "sweep")
    assert report["team_sizes"] == [1, 2]
    cells = report["cells"]
    assert [(c["team_size"], c["seed"]) for c in cells] == [
        (1, 0), (1, 1), (2, 0), (2, 1),
    ]
    for size, seed in [(1, 0), (1, 1), (2, 0), (2, 1)]:
        cell_dir = tmp_path / "sweep" / "cells" / f"size-{size}_seed-{seed}"
        assert (cell_dir / "memory" / "runlog.jsonl").exists()
        assert (cell_dir / "nomem" / "runlog.jsonl").exists()
    written = json.loads((tmp_path / "sweep" / "sweep_report.json").read_text())
    assert written == report


def test_sweep_cells_have_memory_advantage(tmp_path):
    base = SimConfig(n_tasks=8, seed=0, families=SINGLE_FAMILY)
    report = sweep(base, team_sizes=(1,), out_dir=tmp_path / "sweep")
    (cell,) = report["cells"]
    assert cell["aas_memory"] > cell["aas_baseline"]
    assert cell["final_cma"] > 0


def test_sweep_rejects_bad_arguments(tmp_path):
    base = SimConfig(n_tasks=2)
    with pytest.raises(ConfigError):
        sweep(base, team_sizes=(), out_dir=tmp_path / "a")
    with pytest.raises(ConfigError):
        sweep(base, team_sizes=(0, 1), out_dir=tmp_path / "b")
    with pytest.raises(ConfigError):
        sweep(base, n_seeds=0, out_dir=tmp_path / "c")


def test_baseline_prompt_grows_with_team_size(tmp_path):
    small = run_sim(
        SimConfig(team_size=1, n_tasks=4, memory_enabled=False), tmp_path / "one"
    )
    large = run_sim(
        SimConfig(team_size=5, n_tasks=4, memory_enabled=False), tmp_path / "five"
    )
    small_avg = sum(e.tokens_in for e in small.log.entries) / 4
    large_avg = sum(e.tokens_in for e in large.log.entries) / 4
    assert large_avg > small_avg


# -- store writes per step ---------------------------------------------------------


@pytest.mark.parametrize("topology", ["shared", "hybrid"])
def test_each_step_flushes_every_store_file_once(tmp_path, writes, topology):
    cfg = SimConfig(topology=topology, n_tasks=100, seed=3)
    store = tmp_path / "run" / "store"
    runner = SimRunner(cfg, tmp_path / "run")
    written = {}
    for task in range(1, cfg.n_tasks + 1):
        executor = cfg.agent_ids[(task - 1) % cfg.team_size]
        own_log = store / ("shared" if topology == "shared" else executor) / "episodic.jsonl"
        logs = {p: p.read_bytes() for p in store.rglob("*.jsonl")}
        writes.clear()
        runner.step()
        replaced = [path for op, path, _ in writes if op == "replace"]
        assert max(Counter(replaced).values(), default=1) == 1, f"task {task}: {Counter(replaced)}"
        after = own_log.read_bytes()
        before = logs.get(own_log, b"")
        assert after.startswith(before)
        assert after[len(before):].count(b"\n") == 1
        assert all(p.read_bytes() == data for p, data in logs.items() if p != own_log)
        written[task] = sum(p.stat().st_size for p in replaced) + len(after) - len(before)
    # procedures list their source episodes, so a little growth remains; whole
    # history rewrites would add tens of KiB over these 80 tasks
    assert written[100] <= written[20] + 4096


@pytest.mark.parametrize("topology", ["local", "shared", "hybrid"])
def test_a_run_writes_every_file_through_the_seam_in_task_order(tmp_path, writes, topology):
    cfg = SimConfig(topology=topology, team_size=2, n_tasks=12, seed=5, consolidation_n=3)
    out = tmp_path / "run"
    runner = SimRunner(cfg, out)
    checkpoints = []
    for index in range(cfg.n_tasks):
        view = runner.views[cfg.agent_ids[index % cfg.team_size]]
        watermark = view.consolidation_watermark()
        start = len(writes)
        runner.step()
        step = writes[start:]
        # one episode-log line, then the task's run-log line
        appended = [(path.name, text.count("\n")) for op, path, text in step if op == "append"]
        assert appended == [("episodic.jsonl", 1), ("runlog.jsonl", 1)], index
        # a snapshot is replaced only when a consolidation pass moved a watermark
        checkpoint = view.consolidation_watermark() != watermark
        replaced = [path.name for op, path, _ in step if op == "replace"]
        assert replaced == (["procedural.json"] if checkpoint else []), index
        checkpoints.append(checkpoint)
    assert any(checkpoints) and not all(checkpoints)
    # the appends, and each file's last replace, are every byte the run left
    rebuilt = {}
    for op, path, text in writes:
        rebuilt[path] = (rebuilt.get(path, b"") if op == "append" else b"") + text.encode()
    assert rebuilt == {path: path.read_bytes() for path in out.rglob("*") if path.is_file()}


def test_resume_over_a_torn_runlog_line_names_the_line(tmp_path):
    cfg = SimConfig(n_tasks=4, seed=5)
    out = tmp_path / "run"
    runner = SimRunner(cfg, out)
    runner.step()
    runner.step()
    runlog = out / "runlog.jsonl"
    runlog.write_bytes(runlog.read_bytes()[:-10])
    with pytest.raises(ValueError) as exc:
        SimRunner(cfg, out)
    assert not isinstance(exc.value, json.JSONDecodeError)
    assert f"{runlog}, line 2" in str(exc.value)
