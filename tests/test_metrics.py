"""Metric math against an exact-rational oracle, plus log and report IO."""

import json
import re
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from teammem.metrics import (
    RunLog,
    RunLogEntry,
    append_runlog_entry,
    cma,
    cost_reduction,
    cost_summary,
    emit_report,
    read_runlog,
    series_from_log,
    token_proxy,
    write_runlog,
)
from teammem.types import read_jsonl


def entry(i, s, tokens_in=10, tokens_out=5, task_id=None):
    """Entry whose ts and cs are both ``s`` so the combined score is ``s``."""
    return RunLogEntry(
        task_index=i,
        task_id=task_id or f"t{i:04d}",
        ts=float(s),
        cs=float(s),
        tokens_in=tokens_in,
        tokens_out=tokens_out,
        team_size=1,
        kind_used="none",
    )


def log_of(scores, **kw):
    return RunLog(entries=tuple(entry(i + 1, s, **kw) for i, s in enumerate(scores)))


def test_token_proxy_counts_whitespace_separated_words():
    assert token_proxy("one two  three\nfour") == 4
    assert token_proxy("") == 0
    assert token_proxy("   ") == 0


def test_entry_validation():
    with pytest.raises(ValueError):
        entry(1, 101)
    with pytest.raises(ValueError):
        entry(1, 50, tokens_in=-1)


def test_entry_combined_score():
    e = RunLogEntry(
        task_index=1, task_id="t0001", ts=80.0, cs=60.0,
        tokens_in=0, tokens_out=0, team_size=1, kind_used="none",
    )
    assert e.combined == 70.0


def test_runlog_requires_strictly_increasing_indices_from_one():
    with pytest.raises(ValueError):
        RunLog(entries=(entry(2, 50),))
    with pytest.raises(ValueError):
        RunLog(entries=(entry(1, 50), entry(1, 50)))
    with pytest.raises(ValueError):
        RunLog(entries=(entry(1, 50), entry(3, 50)))
    RunLog(entries=(entry(1, 50), entry(2, 50)))  # fine


def test_series_simple_example():
    series = series_from_log(log_of([100, 50]))
    assert series.s == (100.0, 50.0)
    assert series.as_curve == (100.0, 75.0)
    assert series.aas == 87.5


def test_series_empty_log_raises():
    with pytest.raises(ValueError):
        series_from_log(RunLog(entries=()))


@given(st.lists(st.integers(min_value=0, max_value=100), min_size=1, max_size=60))
def test_series_matches_fraction_oracle(scores):
    series = series_from_log(log_of(scores))
    as_exact = []
    running = Fraction(0)
    for t, s in enumerate(scores, start=1):
        running += Fraction(s)
        as_exact.append(running / t)
    aas_exact = sum(as_exact, Fraction(0)) / len(as_exact)
    for got, want in zip(series.as_curve, as_exact):
        assert abs(got - float(want)) < 1e-9
    assert abs(series.aas - float(aas_exact)) < 1e-9


def test_cma_hand_example():
    method = log_of([70, 80, 80, 95])
    baseline = log_of([60, 65, 65, 70])
    assert cma(method, baseline) == (10.0, 25.0, 40.0, 65.0)


def test_cma_against_itself_is_zero():
    log = log_of([55, 65, 65, 70, 80])
    assert cma(log, log) == (0.0, 0.0, 0.0, 0.0, 0.0)


def test_cma_length_mismatch_raises():
    with pytest.raises(ValueError):
        cma(log_of([50]), log_of([50, 60]))


def test_cma_task_id_mismatch_raises():
    method = RunLog(entries=(entry(1, 50, task_id="tA"),))
    baseline = RunLog(entries=(entry(1, 50, task_id="tB"),))
    with pytest.raises(ValueError) as exc:
        cma(method, baseline)
    assert "tA" in str(exc.value) and "tB" in str(exc.value)


@given(
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=100),
            st.integers(min_value=0, max_value=100),
        ),
        min_size=1,
        max_size=60,
    )
)
def test_cma_matches_fraction_oracle(pairs):
    method = log_of([m for m, _ in pairs])
    baseline = log_of([b for _, b in pairs])
    got = cma(method, baseline)
    running = Fraction(0)
    for (m, b), g in zip(pairs, got):
        running += Fraction(m) - Fraction(b)
        assert abs(g - float(running)) < 1e-9


def test_cost_summary_and_reduction():
    method = log_of([50, 50], tokens_in=80, tokens_out=20)  # 100 per task
    baseline = log_of([50, 50], tokens_in=160, tokens_out=40)  # 200 per task
    assert cost_summary(method) == {
        "avg_tokens_per_task": 100.0,
        "total_in": 160,
        "total_out": 40,
    }
    assert cost_reduction(method, baseline) == 50.0


def test_cost_reduction_zero_baseline_raises():
    with pytest.raises(ValueError):
        cost_reduction(
            log_of([50], tokens_in=1, tokens_out=0),
            log_of([50], tokens_in=0, tokens_out=0),
        )


# -- JSONL persistence -----------------------------------------------------------


def test_runlog_round_trip(tmp_path):
    log = log_of([55, 65, 70])
    path = tmp_path / "runlog.jsonl"
    write_runlog(path, log)
    assert read_runlog(path) == log


def test_write_then_append_matches_bulk_write(tmp_path):
    log = log_of([55, 65, 70])
    bulk = tmp_path / "bulk.jsonl"
    incremental = tmp_path / "incremental.jsonl"
    write_runlog(bulk, log)
    for e in log.entries:
        append_runlog_entry(incremental, e)
    assert bulk.read_bytes() == incremental.read_bytes()


def test_runlog_lines_have_sorted_keys(tmp_path):
    path = tmp_path / "runlog.jsonl"
    write_runlog(path, log_of([55]))
    line = path.read_text().splitlines()[0]
    keys = list(json.loads(line))
    assert keys == sorted(keys)


@pytest.mark.parametrize(
    "damage, line, problem",
    [
        (lambda text: text[:-9], 3, "truncated"),  # torn last append
        (lambda text: text.replace("\n", "\n{garbage\n", 1), 2, "malformed"),
        (lambda text: text.replace("\n", '\n{"task_index": 2}\n', 1), 2, "malformed"),
    ],
    ids=["truncated-last-line", "garbage-line", "not-an-entry"],
)
def test_damaged_runlog_names_file_and_line(tmp_path, damage, line, problem):
    path = tmp_path / "runlog.jsonl"
    write_runlog(path, log_of([55, 65, 70]))
    path.write_text(damage(path.read_text()), encoding="utf-8")
    with pytest.raises(ValueError) as exc:
        read_runlog(path)
    assert not isinstance(exc.value, json.JSONDecodeError)
    assert f"{path}, line {line}: {problem}" in str(exc.value)


@pytest.mark.parametrize(
    "line",
    [' {"a": 1}\n', '{"a": 1} \n', '"text"\n', "NaN\n", "[1, 2]\n",
     '{"a": 1} {"b": 2}\n', '\ufeff{"a": 1}\n', '{"a": }\n', "\n{}\n"],
    ids=["leading-space", "trailing-space", "string", "nan", "list",
         "extra-data", "bom", "no-value", "blank-line"],
)
def test_a_log_line_reads_as_json_loads_reads_it(tmp_path, line):
    path = tmp_path / "log.jsonl"
    path.write_text(line, encoding="utf-8")
    try:
        expected = [json.loads(part) for part in line.splitlines() if part.strip()]
    except json.JSONDecodeError as error:
        with pytest.raises(ValueError, match=re.escape(repr(error))):
            read_jsonl(path, lambda value: value)
    else:
        assert json.dumps(read_jsonl(path, lambda value: value)) == json.dumps(expected)


def test_read_runlog_from_golden_fixture():
    golden = Path(__file__).parent / "golden" / "runlog_method.jsonl"
    log = read_runlog(golden)
    assert len(log) == 4
    assert log.entries[0].combined == 70.0
    assert log.entries[1].procedures_used == ("proc-00001",)


# -- reports -----------------------------------------------------------------------


def test_emit_report_with_baseline(tmp_path):
    runs = {
        "memory": log_of([70, 80, 80, 95], tokens_in=100, tokens_out=20),
        "nomem": log_of([60, 65, 65, 70], tokens_in=150, tokens_out=20),
    }
    paths = emit_report(tmp_path, runs, baseline="nomem")
    report = json.loads(paths["report"].read_text())
    assert report["baseline"] == "nomem"
    assert report["token_note"] == "whitespace token proxy, not a tokenizer count"
    assert report["runs"]["memory"]["tasks"] == 4
    assert report["runs"]["memory"]["final_cma"] == 65.0
    assert report["runs"]["nomem"]["final_cma"] == 0.0
    assert abs(report["runs"]["memory"]["aas"] - 75.729166666666667) < 1e-9

    lines = paths["series"].read_text().splitlines()
    assert lines[0] == "run,task_index,task_id,s,as,cma,tokens"
    assert len(lines) == 1 + 4 + 4
    # baseline's own cma column is identically zero
    nomem_rows = [l for l in lines[1:] if l.startswith("nomem,")]
    assert all(row.split(",")[5] == "0.0" for row in nomem_rows)


def test_emit_report_without_baseline_omits_cma(tmp_path):
    runs = {"solo": log_of([50, 60])}
    paths = emit_report(tmp_path, runs)
    report = json.loads(paths["report"].read_text())
    assert report["baseline"] is None
    assert "final_cma" not in report["runs"]["solo"]
    lines = paths["series"].read_text().splitlines()
    assert lines[0] == "run,task_index,task_id,s,as,tokens"


def test_emit_report_unknown_baseline_raises(tmp_path):
    with pytest.raises(ValueError):
        emit_report(tmp_path, {"a": log_of([50])}, baseline="missing")


def test_emit_report_bytes_are_deterministic(tmp_path):
    runs = {
        "memory": log_of([70, 80], tokens_in=100, tokens_out=20),
        "nomem": log_of([60, 65], tokens_in=150, tokens_out=20),
    }
    first = emit_report(tmp_path / "one", runs, baseline="nomem")
    second = emit_report(tmp_path / "two", runs, baseline="nomem")
    assert first["report"].read_bytes() == second["report"].read_bytes()
    assert first["series"].read_bytes() == second["series"].read_bytes()
