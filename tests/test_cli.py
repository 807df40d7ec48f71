"""CLI behaviour through main(); output frozen against golden run logs."""

import json
import re
import shutil
from pathlib import Path

import pytest

from teammem.cli import main
from teammem.harness import ConfigError, SimConfig, SimRunner, load_sim_config

GOLDEN = Path(__file__).parent / "golden"


def write_config(tmp_path, **overrides):
    cfg = {
        "topology": "local",
        "team_size": 1,
        "n_tasks": 6,
        "seed": 0,
        "families": [
            {
                "key": "payment gateway retry storm triage",
                "task_type": "incident",
                "base_ts": 55.0,
                "base_cs": 55.0,
                "memory_bonus": 10.0,
            }
        ],
    }
    cfg.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    return path


def test_run_command(tmp_path, capsys):
    config = write_config(tmp_path)
    out_dir = tmp_path / "out"
    assert main(["run", "--config", str(config), "--out", str(out_dir)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "tasks: 6"
    assert lines[1].startswith("AAS: ")
    assert lines[2].startswith("avg tokens (proxy): ")
    assert (out_dir / "runlog.jsonl").exists()
    assert (out_dir / "config.json").exists()


def test_metrics_command_golden_output(capsys):
    rc = main(
        [
            "metrics",
            "--log", str(GOLDEN / "runlog_method.jsonl"),
            "--baseline", str(GOLDEN / "runlog_baseline.jsonl"),
        ]
    )
    assert rc == 0
    assert capsys.readouterr().out == (
        "tasks: 4\n"
        "AAS: 75.729167\n"
        "avg tokens (proxy): 136.25\n"
        "baseline AAS: 62.708333\n"
        "final CMA: 65.000000\n"
    )


def test_metrics_command_without_baseline(capsys):
    rc = main(["metrics", "--log", str(GOLDEN / "runlog_method.jsonl")])
    assert rc == 0
    out = capsys.readouterr().out
    assert "baseline AAS" not in out
    assert "final CMA" not in out


def test_metrics_command_missing_file(tmp_path, capsys):
    rc = main(["metrics", "--log", str(tmp_path / "nope.jsonl")])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error: ")


def test_inspect_command(tmp_path, capsys):
    config = write_config(tmp_path)
    out_dir = tmp_path / "out"
    main(["run", "--config", str(config), "--out", str(out_dir)])
    capsys.readouterr()
    rc = main(["inspect", "--store", str(out_dir / "store")])
    assert rc == 0
    out = capsys.readouterr().out
    assert "agent agent-1 (local topology):" in out
    assert "episodes visible: 6" in out
    assert "procedures visible: 1" in out
    assert "checkpoint" not in out


def test_inspect_unknown_agent_fails_cleanly(tmp_path, capsys):
    config = write_config(tmp_path)
    out_dir = tmp_path / "out"
    main(["run", "--config", str(config), "--out", str(out_dir)])
    capsys.readouterr()
    rc = main(["inspect", "--store", str(out_dir / "store"), "--agent", "agent-9"])
    assert rc == 1
    assert "agent-9" in capsys.readouterr().err


def test_consolidate_command(tmp_path, capsys):
    # run with a huge interval so the store holds only raw episodes
    config = write_config(tmp_path, consolidation={"n": 100})
    out_dir = tmp_path / "out"
    main(["run", "--config", str(config), "--out", str(out_dir)])
    capsys.readouterr()
    rc = main(["consolidate", "--store", str(out_dir / "store")])
    assert rc == 0
    out = capsys.readouterr().out
    assert "agent-1: 1 new procedures" in out
    assert "total new procedures: 1" in out


def test_consolidate_command_covers_every_hybrid_agent(tmp_path, capsys):
    # hybrid episodes are private, so each agent needs its own pass
    config = write_config(tmp_path, topology="hybrid", team_size=2, consolidation={"n": 100})
    out_dir = tmp_path / "out"
    main(["run", "--config", str(config), "--out", str(out_dir)])
    capsys.readouterr()
    rc = main(["consolidate", "--store", str(out_dir / "store")])
    assert rc == 0
    out = capsys.readouterr().out
    # agent-2's pass distills the same strategy, so it extends agent-1's procedure
    assert "agent-1: 1 new procedures, 0 extended" in out
    assert "agent-2: 0 new procedures, 1 extended" in out
    assert "total new procedures: 1" in out


def halfway(tmp_path, topology):
    """A 36-task run with no pass of its own, stopped after 18 tasks; returns its config."""
    cfg = SimConfig(topology=topology, team_size=2, n_tasks=36, consolidation_n=100)
    runner = SimRunner(cfg, tmp_path / "out")
    for _ in range(18):
        runner.step()
    return cfg


@pytest.mark.parametrize("topology", ["local", "shared", "hybrid"])
def test_a_run_resumes_after_a_consolidation(tmp_path, capsys, topology):
    cfg = halfway(tmp_path, topology)
    assert main(["consolidate", "--store", str(tmp_path / "out" / "store")]) == 0
    assert "total new procedures: 0" not in capsys.readouterr().out
    # the run's own stamps bump the pass's procedures, whatever the pass stamped
    result = SimRunner(cfg, tmp_path / "out").run()
    assert len(result.log) == 36
    assert any(entry.procedures_used for entry in result.log.entries[18:])


def store_bytes(root):
    return {path.relative_to(root): path.read_bytes() for path in root.rglob("*") if path.is_file()}


@pytest.mark.parametrize("topology", ["local", "shared", "hybrid"])
def test_a_consolidation_leaves_the_same_bytes_at_any_hour(tmp_path, monkeypatch, topology):
    halfway(tmp_path, topology)
    before = store_bytes(tmp_path / "out" / "store")
    for clock in ("2026-10-21T00:19:54+00:00", "2031-05-05T12:00:00+00:00"):
        monkeypatch.setattr("teammem.store._now_iso", lambda clock=clock: clock)
        monkeypatch.setattr("teammem.lifecycle._now_iso", lambda clock=clock: clock)
        copy = tmp_path / clock[:4]
        shutil.copytree(tmp_path / "out" / "store", copy)
        assert main(["consolidate", "--store", str(copy)]) == 0
    after = store_bytes(tmp_path / "2026")
    assert after != before  # the pass wrote procedures
    assert after == store_bytes(tmp_path / "2031")


def test_sweep_command(tmp_path, capsys):
    config = write_config(tmp_path, n_tasks=4)
    out_dir = tmp_path / "sweep"
    rc = main(
        [
            "sweep",
            "--config", str(config),
            "--out", str(out_dir),
            "--sizes", "1,2",
            "--seeds", "1",
        ]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "team_size=1 seed=0" in out
    assert "team_size=2 seed=0" in out
    assert (out_dir / "sweep_report.json").exists()


def test_unknown_subcommand_exits_with_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_bad_config_reports_the_key(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"topolgy": "local"}), encoding="utf-8")
    rc = main(["run", "--config", str(path), "--out", str(tmp_path / "out")])
    assert rc == 1
    assert "topolgy" in capsys.readouterr().err


@pytest.mark.parametrize(
    "data, message",
    [
        (b'{"topology": "loc', "corrupt JSON: Unterminated string"),
        (b"[1]\n", "must be a JSON object"),
        (b'{"topology": "loc\xffl"}', "corrupt JSON: 'utf-8' codec can't decode byte 0xff"),
    ],
    ids=["torn", "not-an-object", "not-utf8"],
)
def test_a_damaged_config_file_is_named(tmp_path, capsys, data, message):
    path = tmp_path / "torn.json"
    path.write_bytes(data)
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err.startswith(f"error: {path}: {message}")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "damage",
    [lambda written: written[:13], lambda written: b"[1]\n"],
    ids=["truncated", "not-an-object"],
)
def test_a_damaged_run_config_fails_resume_naming_the_file(tmp_path, capsys, damage):
    config = write_config(tmp_path, n_tasks=2)
    out_dir = tmp_path / "out"
    assert main(["run", "--config", str(config), "--out", str(out_dir)]) == 0
    frozen = out_dir / "config.json"
    frozen.write_bytes(damage(frozen.read_bytes()))
    damaged = frozen.read_bytes()
    with pytest.raises(ConfigError, match=f"^{re.escape(str(frozen))}: "):
        SimRunner(load_sim_config(config), out_dir)
    capsys.readouterr()
    assert main(["run", "--config", str(config), "--out", str(out_dir)]) == 1
    assert capsys.readouterr().err.startswith(f"error: {frozen}: ")
    assert frozen.read_bytes() == damaged


def test_bad_provider_leaves_nothing_to_resume_under(tmp_path, capsys):
    out_dir = tmp_path / "out"
    bad = write_config(tmp_path, embedding={"provider": "bogus"})
    assert main(["run", "--config", str(bad), "--out", str(out_dir)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: embedding.provider: unknown provider 'bogus' (known: ")
    assert not (out_dir / "config.json").exists()
    good = write_config(tmp_path)
    assert main(["run", "--config", str(good), "--out", str(out_dir)]) == 0
    assert (out_dir / "config.json").exists()
