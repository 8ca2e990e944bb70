"""Self-tests of the benchmark: the correctness gate, the references, the tracer.

    PYTHONPATH=src python3 -m pytest bench -q
"""

import copy
import json
import math
import sys
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import chgevrey.cli  # noqa: E402
import chgevrey.model  # noqa: E402
from chgevrey import ModelParams, TorusGrid, field_from_modes  # noqa: E402

import gate  # noqa: E402
import hostclock  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from worker import run_op  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def radius_op(tmp_path_factory):
    """One real radius op on the default seed, with its stored reference."""
    work = tmp_path_factory.mktemp("radius")
    seed = workloads.DEFAULT_SEED
    argv = workloads.write_inputs("radius", seed, work)
    code, _, _ = run_op(chgevrey.cli.main, argv, work / "out")
    reference = gate.load_reference("radius", seed)
    return code, work / "out", reference


def test_real_op_passes_its_reference(radius_op):
    code, out, reference = radius_op
    assert gate.check_op("radius", code, out, reference) == []


def _corruptions(reference):
    """(label, corrupted copy) pairs; each must fail the op."""
    def edit(label, change):
        ref = copy.deepcopy(reference)
        change(ref)
        return label, ref

    return [
        edit("value", lambda r: r["report"].update(c_cal=r["report"]["c_cal"] * (1 + 1e-3))),
        edit("row value", lambda r: r["trajectory"]["rows"]["50"].__setitem__(1, 0.5)),
        edit("nan for number", lambda r: r["trajectory"]["rows"]["100"].__setitem__(2, math.nan)),
        edit("exit code", lambda r: r.update(exit=1)),
        edit("row count", lambda r: r["trajectory"].update(n_rows=r["trajectory"]["n_rows"] + 1)),
        edit("missing key", lambda r: r["report"].pop("c_cal")),
        edit("wrong type", lambda r: r["report"].update(delta0="0.5")),
        edit("no exit", lambda r: r.pop("exit")),
        edit("bad row index", lambda r: r["trajectory"]["rows"].update({"9999": [0.0] * 8})),
        edit("not a dict", lambda r: r.update(trajectory=[1, 2, 3])),
    ]


def test_corrupted_reference_counts_as_failed_op(radius_op):
    code, out, reference = radius_op
    for label, corrupted in _corruptions(reference):
        problems = gate.check_op("radius", code, out, corrupted)
        assert problems, f"corruption {label!r} passed"


def test_missing_artifact_fails(radius_op, tmp_path):
    code, _, reference = radius_op
    assert gate.check_op("radius", code, tmp_path, reference)


def test_nan_matches_only_nan():
    assert gate._close(math.nan, math.nan, gate.RTOL)
    assert not gate._close(1.0, math.nan, gate.RTOL)
    assert not gate._close(math.nan, 1.0, gate.RTOL)
    assert gate._close(1.0 + 1e-9, 1.0, gate.RTOL)
    assert not gate._close(1.0 + 1e-6, 1.0, gate.RTOL)
    assert not gate._close(3.0, 3, gate.RTOL)  # an integer field stays an integer


def test_radius_oracle_rejects_a_vacuous_fit(tmp_path):
    """A NaN t=0 fit fails even when the reference agrees with it."""
    header = ["t", "sobolev", "gevrey", "delta_fit", "delta_theory", "f", "b", "H"]
    row = [0.0, 1.0, 1.0, math.nan, 0.5, 1.0, 2.0, 1.0]
    (tmp_path / "metadata.json").write_text("{}")
    (tmp_path / "trajectory.csv").write_text(",".join(header) + "\n" + ",".join(map(str, row)) + "\n")
    reference = {"exit": 0, "trajectory": {"header": header, "n_rows": 1, "rows": {"0": row}}}
    problems = gate.check_op("radius", 0, tmp_path, reference)
    assert any(p.startswith("oracle") for p in problems)


def _write_picard(tmp_path, report):
    (tmp_path / "metadata.json").write_text("{}")
    (tmp_path / "report.json").write_text(json.dumps(report))


def test_picard_derived_fields_follow_the_reported_distances(tmp_path):
    report = {
        "horizon": 1e-5, "floor": 1e-14, "diffs": [1e-7, 1e-12, 1e-15, 0.0],
        "ratios": [1e-5, 1e-3], "converged_at": 3, "diverged_at": None,
    }
    reference = {"exit": 0, "report": report}
    _write_picard(tmp_path, report)
    assert gate.check_op("picard", 0, tmp_path, reference) == []
    _write_picard(tmp_path, dict(report, converged_at=4))
    assert gate.check_op("picard", 0, tmp_path, reference)
    _write_picard(tmp_path, dict(report, ratios=[1e-5]))
    assert gate.check_op("picard", 0, tmp_path, reference)


def test_picard_second_distance_is_checked_against_the_reference(tmp_path):
    """The allowance covers rounding noise, not a changed contraction."""
    reference = gate.load_reference("picard", workloads.DEFAULT_SEED)
    report = reference["report"]
    _write_picard(tmp_path, report)
    assert gate.check_op("picard", 0, tmp_path, reference) == []
    doubled = copy.deepcopy(reference)
    doubled["report"]["diffs"][1] *= 2.0
    assert gate.check_op("picard", 0, tmp_path, doubled)
    noisy = dict(report, diffs=[d + 0.5 * gate.PICARD_NOISE * report["diffs"][0] for d in report["diffs"]])
    _write_picard(tmp_path, noisy)
    problems = gate.check_op("picard", 0, tmp_path, reference)
    assert not any(p.startswith("report.diffs") for p in problems)


def test_a_seed_without_reference_fails_loudly():
    stored = max(workloads.REFERENCE_SEEDS)
    gate.load_reference("march", stored)
    with pytest.raises(gate.MissingReference):
        gate.load_reference("march", stored + 1)


def test_every_reference_seed_is_stored():
    blob = json.loads(gate.REFERENCE_FILE.read_text())["seeds"]
    for workload in workloads.WORKLOADS:
        want = [workloads.VERIFY_SEED] if workload == "verify" else list(workloads.REFERENCE_SEEDS)
        assert sorted(map(int, blob[workload])) == want


def test_seeds_give_distinct_inputs_and_one_seed_the_same_input():
    a = workloads.datum("march", 1)
    assert (workloads.datum("march", 1) == a).all()
    assert not (workloads.datum("march", 2) == a).all()


def test_every_seed_folds_onto_a_stored_reference():
    stored = len(workloads.REFERENCE_SEEDS)
    for seed in (0, 7, stored, 12345, 2**63 + 5, -1):
        folded = workloads.reference_seed("march", seed)
        assert folded in workloads.REFERENCE_SEEDS and folded == seed % stored
        gate.load_reference("march", folded)
    assert workloads.reference_seed("verify", 12345) == workloads.VERIFY_SEED


def test_benchmark_json_names_what_the_code_reports():
    blob = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in blob["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in blob["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in blob["per_layer"]] == list(tracer.PER_LAYER)


def test_host_clock_adjusts_by_the_probe_speed():
    clock = hostclock.HostClock()
    mark = clock.mark()
    with pytest.raises(RuntimeError):
        clock.since(mark)  # no probe ran: no speed to adjust by
    clock.start()
    try:
        mark = clock.mark()
        end = time.perf_counter() + 0.2
        while time.perf_counter() < end:
            pass
        wall, cpu, wall_adj, cpu_adj = clock.since(mark)
    finally:
        clock.stop()
    probes = clock._probes[mark[2]:]
    assert len(probes) >= 5
    speed = sum(hostclock.REFERENCE_PROBE_S / p for p in probes) / len(probes)
    assert wall_adj == pytest.approx((wall - sum(probes)) * speed)
    assert 0.0 < cpu_adj <= wall_adj * 1.05


def test_tracer_counts_one_rhs_and_restores_every_binding():
    grid = TorusGrid(16)
    u = field_from_modes(grid, {1: 0.01, 2: 0.005j})
    p = ModelParams(alpha=0.1, beta=0.3, gamma=0.2, Gamma_coef=0.05)
    original = chgevrey.model.rhs
    t = tracer.Tracer()
    t.install()
    try:
        t.begin_op(0)
        chgevrey.model.rhs(u, p)
        t.end_op()
    finally:
        t.uninstall()
    assert chgevrey.model.rhs is original
    assert chgevrey.model.product.__name__ == "product" and not hasattr(chgevrey.model.product, "__wrapped__")
    metrics = t.layer_metrics(0)
    # u*u_x, u*u and u_x*u_x at pad 3/2 (24 points); u^2, u^3, u^4 at pad 5/2 (40)
    assert metrics["model.rhs.calls"] == 1
    assert metrics["spectral.product.calls"] == 6
    assert metrics["spectral.fft.calls"] == 18
    assert metrics["spectral.fft.points"] == 9 * 24 + 9 * 40
    assert metrics["model.rhs.self_s"] >= 0.0
    assert metrics["model.rhs.total_s"] >= metrics["model.rhs.self_s"]
    assert metrics["trace.op_s"] >= metrics["model.rhs.total_s"]
