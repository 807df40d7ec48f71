"""Evaluation metrics over run logs.

Per task the combined score is S = (ts + cs) / 2 on a 0-100 scale. From a
sequence of combined scores:

* average score AS(t) = mean of S over the first t tasks,
* adaptability AAS = mean of AS(t) over the whole run,
* cumulative memory advantage CMA(t) = running sum of the per-task score
  difference between a method run and a no-memory baseline aligned by task.

Run logs persist as JSONL, one entry per task, and reports as a JSON summary
plus a per-task CSV. Both are byte-deterministic for identical inputs.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from . import disk
from .types import (
    Record,
    _non_negative,
    _number,
    _percent,
    _strings,
    from_dict,
    json_line,
    read_jsonl,
    record,
    stored,
    to_dict,
)

TOKEN_PROXY_NOTE = "whitespace token proxy, not a tokenizer count"


def token_proxy(text: str) -> int:
    """Whitespace token count; the package-wide cost proxy."""
    return len(text.split())


@record
class RunLogEntry(Record):
    task_index: int = stored(int)
    task_id: str = stored(str)
    ts: float = stored(_number, _percent)
    cs: float = stored(_number, _percent)
    tokens_in: int = stored(int, _non_negative)
    tokens_out: int = stored(int, _non_negative)
    team_size: int = stored(int)
    kind_used: str = stored(str)
    retrieved_ids: tuple[str, ...] = stored(_strings, default=())
    procedures_used: tuple[str, ...] = stored(_strings, default=())

    @property
    def combined(self) -> float:
        return (self.ts + self.cs) / 2.0


@dataclass(frozen=True)
class RunLog:
    entries: tuple[RunLogEntry, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "entries", tuple(self.entries))
        for position, entry in enumerate(self.entries, start=1):
            if entry.task_index != position:
                raise ValueError(
                    f"task_index must run 1, 2, ... without gaps; "
                    f"saw {entry.task_index} at position {position}"
                )

    def __len__(self) -> int:
        return len(self.entries)


@dataclass(frozen=True)
class MetricSeries:
    s: tuple[float, ...]
    as_curve: tuple[float, ...]
    aas: float


def series_from_log(log: RunLog) -> MetricSeries:
    """Combined scores, prefix averages, and their overall mean."""
    if not log.entries:
        raise ValueError("cannot compute metrics over an empty run log")
    s = [entry.combined for entry in log.entries]
    as_curve: list[float] = []
    running = 0.0
    for t, value in enumerate(s, start=1):
        running += value
        as_curve.append(running / t)
    aas = sum(as_curve) / len(as_curve)
    return MetricSeries(s=tuple(s), as_curve=tuple(as_curve), aas=aas)


def cma(method: RunLog, baseline: RunLog) -> tuple[float, ...]:
    """Cumulative per-task advantage of ``method`` over ``baseline``.

    Logs must have equal length and matching task ids position by position.
    """
    if len(method) != len(baseline):
        raise ValueError(
            f"run logs differ in length: {len(method)} vs {len(baseline)}"
        )
    curve: list[float] = []
    running = 0.0
    for m, b in zip(method.entries, baseline.entries):
        if m.task_id != b.task_id:
            raise ValueError(
                f"task alignment mismatch at index {m.task_index}: "
                f"{m.task_id!r} vs {b.task_id!r}"
            )
        running += m.combined - b.combined
        curve.append(running)
    return tuple(curve)


def cost_summary(log: RunLog) -> dict[str, float | int]:
    if not log.entries:
        raise ValueError("cannot summarize an empty run log")
    total_in = sum(e.tokens_in for e in log.entries)
    total_out = sum(e.tokens_out for e in log.entries)
    return {
        "avg_tokens_per_task": (total_in + total_out) / len(log),
        "total_in": total_in,
        "total_out": total_out,
    }


def cost_reduction(method: RunLog, baseline: RunLog) -> float:
    """Percent token saving of ``method`` relative to ``baseline``."""
    avg_method = cost_summary(method)["avg_tokens_per_task"]
    avg_baseline = cost_summary(baseline)["avg_tokens_per_task"]
    if avg_baseline == 0:
        raise ValueError("baseline run has zero tokens; cost reduction undefined")
    return 100.0 * (1.0 - avg_method / avg_baseline)


# ---------------------------------------------------------------------------
# Persistence: JSONL run logs and report files.
# ---------------------------------------------------------------------------


def write_runlog(path: Path | str, log: RunLog) -> None:
    disk.replace(Path(path), "".join(json_line(to_dict(e)) for e in log.entries))


def append_runlog_entry(path: Path | str, entry: RunLogEntry) -> None:
    disk.append(path, json_line(to_dict(entry)))


def read_runlog(path: Path | str) -> RunLog:
    """Read a run log, each line decoded by :attr:`RunLogEntry.ROWS`.

    A torn line, and a line that does not decode (a wrong type, a missing or
    unknown key), raise :class:`ValueError` naming the file and the line.
    """
    return RunLog(entries=tuple(read_jsonl(path, lambda d: from_dict(RunLogEntry, d))))


def emit_report(
    out_dir: Path | str,
    runs: dict[str, RunLog],
    baseline: str | None = None,
) -> dict[str, Path]:
    """Write ``report.json`` and ``series.csv`` for a set of named runs.

    When ``baseline`` names one of the runs, every run gains a CMA column
    against it (the baseline's own column is identically zero). Without a
    baseline the CMA column is omitted entirely. Output bytes are
    deterministic for identical inputs.
    """
    if baseline is not None and baseline not in runs:
        raise ValueError(f"baseline {baseline!r} is not among the runs {sorted(runs)}")
    out = Path(out_dir)

    summary: dict[str, Any] = {}
    cma_curves: dict[str, tuple[float, ...]] = {}
    for name in sorted(runs):
        log = runs[name]
        series = series_from_log(log)
        info: dict[str, Any] = {
            "tasks": len(log),
            "aas": series.aas,
            "final_as": series.as_curve[-1],
            "cost": cost_summary(log),
        }
        if baseline is not None:
            curve = cma(log, runs[baseline])
            cma_curves[name] = curve
            info["final_cma"] = curve[-1]
        summary[name] = info

    report_path = out / "report.json"
    report = {"token_note": TOKEN_PROXY_NOTE, "baseline": baseline, "runs": summary}
    disk.replace(report_path, json.dumps(report, indent=2, sort_keys=True) + "\n")

    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    header = ["run", "task_index", "task_id", "s", "as", "tokens"]
    if baseline is not None:
        header.insert(5, "cma")
    writer.writerow(header)
    for name in sorted(runs):
        log = runs[name]
        series = series_from_log(log)
        for i, entry in enumerate(log.entries):
            row: list[Any] = [
                name,
                entry.task_index,
                entry.task_id,
                repr(series.s[i]),
                repr(series.as_curve[i]),
                entry.tokens_in + entry.tokens_out,
            ]
            if baseline is not None:
                row.insert(5, repr(cma_curves[name][i]))
            writer.writerow(row)
    csv_path = out / "series.csv"
    disk.replace(csv_path, buffer.getvalue())
    return {"report": report_path, "series": csv_path}
