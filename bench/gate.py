"""Correctness gate: every op's exit code and artifacts against stored references.

``reference.json`` holds, per workload and seed, the exit code, the full
``report.json`` and rows of ``trajectory.csv`` that the program produced for
that seed's inputs at the commit that defined the benchmark.  Numbers agree
when they are within ``RTOL`` relative (NaN only matches NaN; integers, nulls
and strings match exactly).  The artifacts are byte-identical for a fixed
input, so RTOL only leaves room for changes that round differently: moving
every datum coefficient by one ulp (seeds 0-2) moved no stored value by more
than 7e-9 relative (the decay fit ``delta_fit``), and RTOL is 15 times that.

Picard distances are the exception.  The existence window caps the horizon,
so each iterate contracts the distance by about 1e-5, and the weighted sup
norm of a difference has a rounding floor near 1e-6 of the first distance.
Every distance after the second sits at that floor, and the second one is
2.6e-6 to 8.8e-6 of the first.  The same one-ulp move of the datum moved
them by up to 9e-7 of the first distance and changed ``converged_at`` from
4 to 5 on one seed.  So the distances get ``PICARD_NOISE`` times the first
distance as an absolute allowance, twice that move, and the ratios and
``converged_at``, which are built from the distances, are checked against
the distances the op reported, by the rules ``PicardResult`` documents.

``radius`` also checks an oracle that needs no reference: the datum has
|c_m| = 0.01 exp(-0.8 m), so the t=0 decay fit must return 0.8.

A problem makes the op fail; ``check_op`` returns the problems and never
raises on bad artifacts or a malformed reference entry.  A seed with no
stored reference raises ``MissingReference``: the run stops instead of
skipping the check.  The benchmark folds every seed onto a stored one
(``workloads.reference_seed``), so this fires when ``reference.json`` lacks
an entry it should hold.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

from workloads import RADIUS_RATE

RTOL = 1e-7
ORACLE_RTOL = 1e-9
PICARD_NOISE = 2e-6
REFERENCE_FILE = Path(__file__).with_name("reference.json")


class MissingReference(LookupError):
    """No stored reference for this workload and seed."""


def load_reference(workload: str, seed: int, path=REFERENCE_FILE) -> dict:
    with open(path, encoding="utf-8") as fh:
        blob = json.load(fh)
    try:
        return blob["seeds"][workload][str(seed)]
    except KeyError:
        raise MissingReference(
            f"{path} has no reference for workload {workload!r}, seed {seed}; "
            "bench/make_reference.py writes one"
        ) from None


def read_artifacts(out: Path) -> dict:
    """What an op left in its output directory (missing files are absent keys)."""
    found = {}
    if (out / "metadata.json").is_file():
        found["metadata"] = json.loads((out / "metadata.json").read_text(encoding="utf-8"))
    if (out / "report.json").is_file():
        found["report"] = json.loads((out / "report.json").read_text(encoding="utf-8"))
    if (out / "trajectory.csv").is_file():
        with open(out / "trajectory.csv", encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))
        found["header"] = rows[0] if rows else []
        found["rows"] = [[float(v) for v in row] for row in rows[1:]]
    return found


def _close(got, want, rtol: float, atol: float = 0.0) -> bool:
    if isinstance(want, bool) or want is None or isinstance(want, str):
        return got == want
    if isinstance(want, int):
        return type(got) is int and got == want
    if not isinstance(got, (int, float)) or isinstance(got, bool):
        return False
    if math.isnan(want) or math.isnan(got):
        return math.isnan(want) and math.isnan(got)
    return abs(got - want) <= rtol * abs(want) + atol


def compare(got, want, where: str, problems: list, atol: float = 0.0) -> None:
    """Append a line to ``problems`` for every mismatch between two JSON values."""
    if isinstance(want, dict):
        if not isinstance(got, dict) or set(got) != set(want):
            problems.append(f"{where}: {got!r} does not have the keys {sorted(want)}")
            return
        for key in want:
            compare(got[key], want[key], f"{where}.{key}", problems, atol)
        return
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            problems.append(f"{where}: {got!r} != {want!r}")
            return
        for i, (g, w) in enumerate(zip(got, want)):
            compare(g, w, f"{where}[{i}]", problems, atol)
        return
    if not _close(got, want, RTOL, atol):
        problems.append(f"{where}: {got!r} != {want!r}")


def _check_picard(got: dict, want: dict, problems: list) -> None:
    if not isinstance(got, dict) or set(got) != set(want):
        problems.append(f"report: {got!r} does not have the keys {sorted(want)}")
        return
    derived = ("ratios", "converged_at", "diffs")
    compare(
        {key: got[key] for key in want if key not in derived},
        {key: want[key] for key in want if key not in derived},
        "report", problems,
    )
    compare(got["diffs"], want["diffs"], "report.diffs", problems, PICARD_NOISE * abs(want["diffs"][0]))
    diffs, floor = got["diffs"], got["floor"]
    above = next((k for k, d in enumerate(diffs) if d <= floor), len(diffs))
    ratios = [diffs[k + 1] / diffs[k] for k in range(min(above, len(diffs) - 1))]
    compare(got["ratios"], ratios, "report.ratios (from diffs)", problems)
    converged = above + 1 if above < len(diffs) else None
    if got["converged_at"] != converged:
        problems.append(f"report.converged_at {got['converged_at']!r} != {converged!r} (from diffs)")


def check_op(workload: str, exit_code: int, out: Path, reference: dict) -> list:
    """Problems with one op's result; an empty list means the op is correct."""
    problems: list = []
    try:
        if exit_code != reference["exit"]:
            problems.append(f"exit code {exit_code} != {reference['exit']}")
        found = read_artifacts(out)
        if "metadata" not in found:
            problems.append("metadata.json missing")
        if "report" in reference:
            if "report" not in found:
                problems.append("report.json missing")
            elif workload == "picard":
                _check_picard(found["report"], reference["report"], problems)
            else:
                compare(found["report"], reference["report"], "report", problems)
        if "trajectory" in reference:
            want = reference["trajectory"]
            if "rows" not in found:
                problems.append("trajectory.csv missing")
            elif found["header"] != want["header"]:
                problems.append(f"trajectory header {found['header']} != {want['header']}")
            elif len(found["rows"]) != want["n_rows"]:
                problems.append(f"trajectory has {len(found['rows'])} rows, not {want['n_rows']}")
            else:
                for index, row in want["rows"].items():
                    compare(found["rows"][int(index)], row, f"trajectory[{index}]", problems)
        if workload == "radius":
            fit = found["rows"][0][found["header"].index("delta_fit")]
            if not _close(fit, RADIUS_RATE, ORACLE_RTOL):
                problems.append(f"oracle: t=0 delta_fit {fit!r} != generated rate {RADIUS_RATE}")
    except (KeyError, IndexError, TypeError, ValueError, AttributeError) as err:
        problems.append(f"cannot check against the reference: {type(err).__name__}: {err}")
    return problems
