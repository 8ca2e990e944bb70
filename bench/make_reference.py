"""Regenerate ``reference.json`` from the program in ``src/``.

    PYTHONPATH=src python3 bench/make_reference.py

Rewriting the references is a deliberate act, like re-pinning constants: do
it only when a change is meant to alter what the program computes, and say so.

For every workload and every seed in ``REFERENCE_SEEDS`` (``verify``: seed 42
only) this runs the op and stores its exit code, ``report.json`` and rows of
``trajectory.csv``: every row of ``march``, every ``RADIUS_ROW_STRIDE``-th and
the last of ``radius``.  Each new entry must pass the gate's checks that need
no reference (the ``radius`` oracle), or nothing is written.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import chgevrey.cli

from gate import REFERENCE_FILE, check_op, read_artifacts
from worker import run_op
from workloads import REFERENCE_SEEDS, VERIFY_SEED, WORKLOADS, write_inputs

RADIUS_ROW_STRIDE = 50


def entry(workload: str, code: int, out: Path) -> dict:
    found = read_artifacts(out)
    ref = {"exit": code}
    if "report" in found:
        ref["report"] = found["report"]
    if "rows" in found:
        rows = found["rows"]
        keep = range(len(rows)) if workload == "march" else sorted(
            set(range(0, len(rows), RADIUS_ROW_STRIDE)) | {len(rows) - 1}
        )
        ref["trajectory"] = {
            "header": found["header"],
            "n_rows": len(rows),
            "rows": {str(i): rows[i] for i in keep},
        }
    return ref


def main() -> int:
    seeds: dict = {}
    failures = 0
    with tempfile.TemporaryDirectory(dir=Path(__file__).resolve().parent.parent) as tmp:
        for workload in WORKLOADS:
            seeds[workload] = {}
            for seed in [VERIFY_SEED] if workload == "verify" else REFERENCE_SEEDS:
                work = Path(tmp) / f"{workload}-{seed}"
                code, wall, _ = run_op(chgevrey.cli.main, write_inputs(workload, seed, work), work / "out")
                ref = entry(workload, code, work / "out")
                seeds[workload][str(seed)] = ref
                print(f"{workload} seed {seed}: exit {code}, {wall:.2f} s", file=sys.stderr)
                problems = check_op(workload, code, work / "out", ref)
                failures += bool(problems)
                for problem in problems[:5]:
                    print(f"  {problem}", file=sys.stderr)
    if failures:
        print(f"{failures} ops fail their own reference; nothing written", file=sys.stderr)
        return 1
    lines = ",\n".join(
        f" {json.dumps(workload)}: {{\n"
        + ",\n".join(f"  {json.dumps(seed)}: {json.dumps(ref, sort_keys=True)}" for seed, ref in refs.items())
        + "\n }"
        for workload, refs in seeds.items()
    )
    REFERENCE_FILE.write_text('{"seeds": {\n' + lines + "\n}}\n", encoding="utf-8")
    print(f"wrote {REFERENCE_FILE}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
