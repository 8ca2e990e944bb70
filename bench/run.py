"""End-to-end benchmark of the chgevrey CLI.

    python3 bench/run.py --workload march --seed 0 --seconds 15 --trace 0

Runs one workload (see ``workloads.py``) from the root of a source checkout:
the program is imported from ``src/`` and nothing is installed.  A closed loop
of one caller: each op starts after the previous one returned, in a single
worker process at a time.

``--trace 0`` starts ``SETUPS`` worker processes one after another; each sets
up, runs one warm-up op and then times ops for ``seconds / SETUPS``.  It
reports the end-to-end metrics of ``END_TO_END``.  The times are adjusted for
the host's speed (``hostclock.py``): a shared host slows a vCPU by up to 1.7x
for seconds to minutes, which spread plain wall times by 10-40% between runs.
``op_s`` and ``cpu_s`` are the median adjusted wall and CPU seconds of the
timed ops, ``setup_s`` and ``peak_rss_mb`` the medians over the workers.  The
plain wall-time medians and the number of timed ops are printed alongside.

``--trace 1`` starts two workers on the same seed.  Each alternates an
untraced op with an op traced by ``tracer.Tracer`` and reports the per-layer
metrics of ``tracer.PER_LAYER`` (medians over the traced ops;
``trace.overhead_s`` is the median of traced minus the untraced op before it).
Every count must repeat exactly across all traced ops, or the run is not
correct.  Spans are written to ``.bench_out/<workload>/w<k>/spans.csv``.

Every op, warm-ups included, goes through the correctness gate (``gate.py``).
Any integer ``--seed`` is accepted; ``workloads.reference_seed`` folds it onto
a seed with stored references.  The last stdout line is the JSON result; a
worker that fails or a missing reference ends the run with a non-zero exit
code and no result.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import EXACT, PER_LAYER
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUPS = 3
TRACED_RUNS = 2
DEADLINE_S = 170.0

END_TO_END = (
    ("op_s", "s"),
    ("cpu_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ok_ratio", "ratio"),
)


def run_workers(args, count: int) -> list:
    """Start ``count`` workers one after another; return their parsed results."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    deadline = time.monotonic() + DEADLINE_S
    results = []
    for k in range(count):
        cmd = [
            sys.executable, str(BENCH / "worker.py"),
            "--workload", args.workload,
            "--seed", str(args.seed),
            "--seconds", repr(args.seconds / count),
            "--trace", str(args.trace),
            "--root", str(ROOT),
            "--work", str(ROOT / ".bench_out" / args.workload / f"w{k}"),
        ]
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, stdin=subprocess.DEVNULL, capture_output=True,
            text=True, timeout=max(1.0, deadline - time.monotonic()),
        )
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise SystemExit(f"bench: worker {k} exited with code {proc.returncode}")
        results.append(json.loads(proc.stdout.splitlines()[-1]))
    return results


def end_to_end(results: list, ops: list) -> dict:
    timed = [op for op in ops if op["kind"] == "timed"]
    return {
        "op_s": statistics.median(op["wall_adj"] for op in timed),
        "cpu_s": statistics.median(op["cpu_adj"] for op in timed),
        "setup_s": statistics.median(r["setup_adj"] for r in results),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in results),
        "ok_ratio": sum(not op["problems"] for op in ops) / len(ops),
    }


def per_layer(results: list) -> tuple:
    """Median per-layer metrics over the traced ops, and the counts that differ."""
    layers = [layer for r in results for layer in r["layers"]]
    metrics = {
        name: layers[0][name] if name in EXACT else statistics.median(layer[name] for layer in layers)
        for name, _ in PER_LAYER
        if name != "trace.overhead_s"
    }
    # each traced op runs right after an untraced one; pairing them cancels
    # the drift of the machine's speed between the start and end of a run
    metrics["trace.overhead_s"] = statistics.median(
        op["wall"] - r["ops"][i - 1]["wall"]
        for r in results
        for i, op in enumerate(r["ops"])
        if op["kind"] == "traced"
    )
    unsteady = [name for name in EXACT if len({layer[name] for layer in layers}) > 1]
    return {name: metrics[name] for name, _ in PER_LAYER}, unsteady


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "chgevrey" / "__init__.py").is_file():
        print(f"bench: no chgevrey sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    results = run_workers(args, TRACED_RUNS if args.trace else SETUPS)
    ops = [op for r in results for op in r["ops"]]
    failed = [op for op in ops if op["problems"]]
    for op in failed[:3]:
        print(f"failed {op['kind']} op: " + "; ".join(op["problems"][:5]), file=sys.stderr)

    if args.trace:
        units = PER_LAYER
        metrics, unsteady = per_layer(results)
        for name in unsteady:
            print(f"count {name} differs between traced ops of one seed", file=sys.stderr)
    else:
        units, unsteady = END_TO_END, []
        metrics = end_to_end(results, ops)
        walls = [op["wall"] for op in ops if op["kind"] == "timed"]
        print(
            f"{args.workload:<7} {len(walls)} timed ops; plain wall medians: "
            f"op {statistics.median(walls):.6g} s, "
            f"setup {statistics.median(r['setup_wall'] for r in results):.6g} s"
        )
    units = dict(units)
    for name, value in metrics.items():
        print(f"{args.workload:<7} {name:<40} {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": not failed and not unsteady,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
