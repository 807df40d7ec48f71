"""teammem benchmark: one closed-loop workload per process.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload shared-history --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15

``--trace 0`` measures the end-to-end metrics with no hooks installed.
``--trace 1`` runs the same work with span hooks installed and reports the
per-layer metrics instead; comparing it with a ``--trace 0`` run of the same
seed gives the tracing overhead and reconciles the byte counters.
``--workload all`` runs every workload, each in a fresh process.

The package is imported from ``src/`` of the checkout this file sits in, never
from an installed copy. Human-readable lines come first; the last line of
standard output is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``. The exit code is 0 only when every output check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench_work"


def import_package():
    """Import teammem from this checkout's src/, refusing any other copy."""
    src = ROOT / "src"
    if not (src / "teammem" / "__init__.py").is_file():
        sys.exit(f"perfbench: no package source at {src / 'teammem'}; run from a full checkout")
    sys.path.insert(0, str(src))
    import teammem

    if Path(teammem.__file__).resolve().parent != (src / "teammem").resolve():
        sys.exit(f"perfbench: imported teammem from {teammem.__file__}, not {src}")
    return teammem


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def report_end_to_end(name: str, m, metrics: dict, gated: tuple[str, ...]) -> None:
    print(f"# {name}: end-to-end metrics (tracing off)")
    print(f"{'metric':<22}{'value':>14}  {'unit':<8}{'samples':>8}")
    for key, (value, unit, n) in metrics.items():
        print(f"{key:<22}{_fmt(value):>14}  {unit:<8}{n:>8}  {'gated' if key in gated else 'info'}")
    hits = len(m.query_s["hit"])
    print(f"hit queries served by procedures: {m.hit_served_by_procedures}/{hits}")
    print(f"output digest (sha256 of run log + store files): {m.digest}")


def report_layers(name: str, tracer, m, layers: dict, untraced: dict | None) -> None:
    print(f"# {name}: per-layer metrics (tracing on)")
    for key, (value, unit) in layers.items():
        print(f"{key:<44}{_fmt(value):>14}  {unit}")
    if tracer.absent:
        print(f"absent layers (hook target not found): {', '.join(tracer.absent)}")
    if tracer.count_errors:
        print(f"counters that could not be read: {', '.join(sorted(tracer.count_errors))}")

    step_ms = tracer.ms("harness.step")
    in_step = tracer.self_ms_within("harness.step")
    order = in_step if step_ms else {span: tracer.self_ms(span) for span in tracer.calls}
    print("# self time by span" + ("; self time inside steps, and its share of step time" if step_ms else ""))
    for span in sorted(tracer.calls, key=lambda s: -order.get(s, 0.0)):
        line = (f"  {span:<34}{tracer.calls[span]:>9} calls {tracer.self_ms(span):>12.1f} ms self"
                f" {tracer.ms(span):>12.1f} ms total")
        if step_ms:
            ms = in_step.get(span, 0.0)
            line += f" {ms:>12.1f} ms {100 * ms / step_ms:5.1f}%"
        print(line)

    wchar_kib = m.write_bytes / 1024
    hooked_kib = m.hooked_write_bytes / 1024
    print(f"bytes reconcile (measured tasks): hooked store + run log {hooked_kib:.3f} KiB,"
          f" wchar {wchar_kib:.3f} KiB, gap {wchar_kib - hooked_kib:+.3f} KiB")
    if untraced is not None:
        untraced_kib = untraced["write_kb_per_task"] * len(m.step_s)
        print(f"untraced run of this seed: wchar {untraced_kib:.3f} KiB,"
              f" gap to hooked {untraced_kib - hooked_kib:+.3f} KiB")
        traced = {"tasks_per_s": len(m.step_s) / sum(m.step_s) if m.step_s else 0.0}
        queries = m.query_s["hit"] + m.query_s["miss"]
        traced["queries_per_s"] = len(queries) / sum(queries) if queries else 0.0
        for key, value in traced.items():
            if value:
                print(f"tracing overhead on {key}: {100 * (untraced[key] / value - 1):+.1f}%")
    else:
        print("no untraced result of this seed in this checkout; run --trace 0 first"
              " for the tracing overhead and the wchar comparison")


def run_one(args) -> int:
    from tracer import Tracer, layer_metrics
    from workloads import GATED, WORKLOADS, end_to_end, run_workload

    workload = WORKLOADS[args.workload]
    work = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}-pid{os.getpid()}"
    result_name = f"result-{args.workload}-seed{args.seed}-seconds{args.seconds:g}-trace{{}}.json"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    tracer = Tracer() if args.trace else None
    try:
        if tracer:
            tracer.install()
        m = run_workload(workload, args.seed, args.seconds, work, tracer)
    finally:
        if tracer:
            tracer.uninstall()
        shutil.rmtree(work, ignore_errors=True)

    e2e = end_to_end(m)
    if tracer:
        layers = layer_metrics(tracer, m.live_procedures, m.final_store_bytes)
        untraced_path = WORK / result_name.format(0)
        untraced = json.loads(untraced_path.read_text()) if untraced_path.exists() else None
        report_layers(args.workload, tracer, m, layers, untraced)
        tracer.write_spans(WORK / f"spans-{args.workload}.jsonl")
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in layers.items()}
    else:
        report_end_to_end(args.workload, m, e2e, GATED)
        metrics = {k: {"value": v, "unit": u} for k, (v, u, _) in e2e.items() if k in GATED}
        (WORK / result_name.format(0)).write_text(json.dumps({k: v for k, (v, _, _) in e2e.items()}))
    print(f"error_rate: {m.failed}/{m.attempted} = {e2e['error_rate'][0]}")
    for problem in m.problems:
        print(f"FAILED: {problem}")
    correct = m.failed == 0
    print(json.dumps({"correct": correct, "attempted": m.attempted, "failed": m.failed,
                      "metrics": metrics}))
    return 0 if correct else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    import_package()
    from workloads import WORKLOADS

    if args.workload != "all":
        if args.workload not in WORKLOADS:
            parser.error(f"--workload must be one of {', '.join(WORKLOADS)} or all")
        return run_one(args)
    summary, status = {}, 0
    for name in WORKLOADS:
        command = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]) if proc.returncode in (0, 1) else proc.stdout)
        status = status or proc.returncode
        summary[name] = json.loads(lines[-1]) if proc.returncode in (0, 1) and lines else None
    print(json.dumps(summary))
    return status

if __name__ == "__main__":
    sys.exit(main())
