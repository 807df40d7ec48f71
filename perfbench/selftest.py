"""Fast self-test of the benchmark at a tiny size.

    python3 perfbench/selftest.py

Runs every workload shrunk to a few tasks and queries, untraced and traced,
in this process, and checks that:

* every metric ``BENCHMARK.json`` names is emitted, with the unit it declares,
  and ``error_rate`` is reported with a unit;
* counts, bytes and digests repeat exactly between two runs of one seed;
* the traced store + run-log bytes reconcile with the untraced ``wchar`` delta;
* an injected query failure is counted in ``failed`` and ``error_rate`` and
  makes the run exit non-zero;
* a hook whose target does not exist is reported absent and the run finishes;
* in a directory holding only ``BENCHMARK.json`` and ``perfbench/``, the
  command exits non-zero without printing a result.

Exits 0 when every check passes.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import io
import json
import re
import shutil
import subprocess
import sys

import run

run.import_package()
import teammem  # noqa: E402

import tracer  # noqa: E402
import workloads  # noqa: E402

TINY = {
    "shared-history": dict(history=10, window=10, probes=4, rep_s=1e9, min_reps=2),
    "hybrid-fanout": dict(history=14, window=14, probes=4, rep_s=1e9, min_reps=2),
    "recall": dict(episodes=20, builds=2, pair_s=1e9, min_pairs=4),
}
REPORTED = (
    "setup_s", "tasks_per_s", "step_ms_p50", "step_ms_p95", "write_kb_per_task", "store_kb",
    "queries_per_s", "hit_query_ms_p50", "hit_query_ms_p95", "miss_query_ms_p50",
    "miss_query_ms_p95", "peak_rss_mb", "error_rate",
)
DETERMINISTIC_E2E = ("write_kb_per_task", "store_kb")
DETERMINISTIC_LAYERS = re.compile(r"\.(calls|pairs|removed)$|^store\.(files|bytes)_written$")

failures: list[str] = []


def check(condition: bool, message: str) -> None:
    print(("ok    " if condition else "FAIL  ") + message)
    if not condition:
        failures.append(message)


def invoke(name: str, trace: int, seed: int = 3) -> tuple[int, list[str], dict]:
    args = argparse.Namespace(workload=name, seed=seed, seconds=1.0, trace=trace)
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = run.run_one(args)
    lines = buffer.getvalue().splitlines()
    return code, lines, json.loads(lines[-1])


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    # Tiny results must not be mistaken for full-size ones of the same seed.
    run.WORK = run.WORK / "selftest"
    shutil.rmtree(run.WORK, ignore_errors=True)
    for name, sizes in TINY.items():
        workloads.WORKLOADS[name] = dataclasses.replace(workloads.WORKLOADS[name], **sizes)
    check(sorted(w["name"] for w in spec["workloads"]) == sorted(workloads.WORKLOADS),
          "BENCHMARK.json lists exactly the workloads the benchmark runs")
    layer_map = json.loads((run.ROOT / "perfbench" / "layers.json").read_text())["layer_map"]
    mapped = [name for entry in layer_map for name in entry["layers"]]
    check(sorted(mapped) == sorted(m["name"] for m in spec["per_layer"]),
          "layers.json maps every per-layer metric exactly once")

    for name in workloads.WORKLOADS:
        code, lines, plain = invoke(name, 0)
        traced_code, traced_lines, trace = invoke(name, 1)
        check(code == traced_code == 0 and plain["correct"] and trace["correct"],
              f"{name}: untraced and traced runs are correct")
        for level, result in (("end_to_end", plain), ("per_layer", trace)):
            emitted = result["metrics"]
            declared = {m["name"]: m["unit"] for m in spec[level]}
            check(set(emitted) == set(declared), f"{name}: emits every {level} metric and no other")
            check(all(emitted[k]["unit"] == declared[k] for k in declared if k in emitted),
                  f"{name}: every {level} metric carries its declared unit")
        check(all(any(re.match(rf"{metric}\s+\S+\s+\S+\s+\d+\s+(gated|info)$", line)
                      for line in lines) for metric in REPORTED),
              f"{name}: all {len(REPORTED)} end-to-end metrics are printed with unit and sample count")

        _, _, again = invoke(name, 0)
        check(all(plain["metrics"][k]["value"] == again["metrics"][k]["value"]
                  for k in DETERMINISTIC_E2E), f"{name}: write and store sizes repeat exactly")
        digest = [line for line in lines if line.startswith("output digest")]
        _, lines_again, _ = invoke(name, 0)
        check(digest == [line for line in lines_again if line.startswith("output digest")],
              f"{name}: output digest repeats exactly")
        _, _, trace_again = invoke(name, 1)
        counts = [k for k in trace["metrics"] if DETERMINISTIC_LAYERS.search(k)]
        check(all(trace["metrics"][k]["value"] == trace_again["metrics"][k]["value"]
                  for k in counts), f"{name}: per-layer counts repeat exactly")
        gaps = [line for line in traced_lines if "gap" in line]
        check(bool(gaps) and all(re.search(r"gap( to hooked)? \+0\.000 KiB", g) for g in gaps),
              f"{name}: traced bytes reconcile with wchar (no gap)")

    original = teammem.retrieval.retrieve
    calls = {"n": 0}

    def flaky(*args, **kwargs):
        calls["n"] += 1
        if calls["n"] == 2:
            raise RuntimeError("injected failure")
        return original(*args, **kwargs)

    teammem.retrieval.retrieve = flaky
    try:
        code, lines, result = invoke("recall", 0)
    finally:
        teammem.retrieval.retrieve = original
    rate = [line for line in lines if line.startswith("error_rate:")]
    check(code != 0 and not result["correct"] and result["failed"] == 1,
          "injected failure is counted and fails the run")
    check(bool(rate) and rate[0].endswith(f"= {1 / result['attempted']}"),
          "injected failure shows in error_rate")

    tracer.FUNCTION_HOOKS += (("lifecycle.renamed_away", "teammem.lifecycle", "no_such_function"),)
    code, lines, result = invoke("shared-history", 1)
    check(code == 0 and result["metrics"]["trace.hooks_absent"]["value"] == 1
          and any("absent layers" in line and "lifecycle.renamed_away" in line for line in lines),
          "a missing hook target is reported absent and the traced run finishes")

    bare = run.WORK / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.ROOT / "perfbench", bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "recall", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=120,
    )
    shutil.rmtree(run.WORK)
    check(proc.returncode != 0 and '"correct"' not in proc.stdout,
          "without the package source the command fails and prints no result")

    print(f"{len(failures)} failed check(s)" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
