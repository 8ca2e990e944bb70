"""The four benchmark workloads and the seeded inputs they hand to the CLI.

Each workload is one ``chgevrey`` subcommand on a fixed config.  The datum is
generated here from the workload seed and written as a ``coeff_file``, so the
program only ever sees generated inputs.

Any integer seed is accepted.  It is folded onto one of ``REFERENCE_SEEDS``
(``seed % 64``), the seeds whose expected artifacts ``reference.json`` stores
(``gate.py``), and the datum is drawn from ``default_rng([tag, folded seed])``.
So the same seed gives the same coefficient file, seeds that differ modulo 64
give distinct ones, and every op is checked against a reference computed for
exactly its input.

``verify`` ignores the seed: its suites run on the seed-42 ensembles that the
packaged pins were measured on, and a pin comparison means nothing elsewhere.

Why each workload exists is recorded in ``BENCHMARK.json``.  Left out on
purpose:

* ``continuity``: its exit status ignores the per-amplitude verdict.  The CLI
  tests the truthiness of the non-empty tuple ``within_bounds``, so the default
  config returns ``(False, True, False, False)`` and still exits 0; a gate on
  the exit code would pass a wrong answer (ROADMAP item 4).
* ``lifespan``: it runs in under 1 ms, so an op would time only call overhead.
* the tier-1 pytest suite: a check, not traffic.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

DEFAULT_SEED = 0
HELDOUT_SEED = 7  # confirms a claim made on DEFAULT_SEED on another datum
VERIFY_SEED = 42
REFERENCE_SEEDS = range(64)  # seeds with stored artifacts; every seed folds onto one

# the full quartic model of march and picard; radius keeps the default
# (linear) model, so its decay fits weigh as much as its march
MODEL = {"alpha": 0.1, "beta": 0.3, "gamma": 0.2, "Gamma": 0.05, "lambda": 1.0}

# workload -> (subcommand, config apart from the datum)
WORKLOADS = {
    "march": (
        "simulate",
        {
            "model": MODEL,
            "grid": {"n_points": 512},
            "solver": {"dt": 0.005, "t_end": 4.0, "record_every": 100},
        },
    ),
    "picard": (
        "picard",
        {"model": MODEL, "grid": {"n_points": 64}, "picard": {"n_iters": 8, "n_nodes": 512}},
    ),
    "verify": ("verify", {"seed": VERIFY_SEED}),
    "radius": (
        "radius",
        {"grid": {"n_points": 128}, "solver": {"dt": 0.005, "t_end": 2.0, "record_every": 1}},
    ),
}

RADIUS_RATE = 0.8  # |c_m| = 0.01 exp(-RADIUS_RATE m) for the radius datum
_TAG = {"march": 1, "picard": 2, "radius": 3}


def reference_seed(workload: str, seed: int) -> int:
    """Seed of the datum the workload actually runs (``verify`` ignores it)."""
    return VERIFY_SEED if workload == "verify" else seed % len(REFERENCE_SEEDS)


def _band_datum(rng: np.random.Generator, n: int, band: int, rms: float) -> np.ndarray:
    # complex Gaussian modes 1..band with m^-2 fall-off, scaled to a given RMS
    m = np.arange(1, band + 1)
    z = (rng.standard_normal(band) + 1j * rng.standard_normal(band)) * m**-2.0
    c = np.zeros(n // 2, dtype=np.complex128)
    c[1 : band + 1] = z * (rms / math.sqrt(2.0 * np.sum(np.abs(z) ** 2)))
    return c


def datum(workload: str, seed: int) -> np.ndarray:
    """Coefficients c_0 .. c_{n/2-1} of the seed's datum."""
    rng = np.random.default_rng([_TAG[workload], seed])
    if workload == "march":  # physical amplitude ~0.05
        return _band_datum(rng, 512, 32, 0.05 / math.sqrt(2.0))
    if workload == "picard":
        return _band_datum(rng, 64, 4, 0.01 / math.sqrt(2.0))
    if workload == "radius":
        m = np.arange(128 // 2)
        phase = np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, m.size))
        phase[0] = 1.0  # the mean of a real field is real
        return 0.01 * np.exp(-RADIUS_RATE * m) * phase
    raise KeyError(workload)


def write_inputs(workload: str, seed: int, directory: Path) -> list:
    """Write the config (and coefficient file) for one seed; return CLI argv."""
    subcommand, base = WORKLOADS[workload]
    directory.mkdir(parents=True, exist_ok=True)
    config = dict(base, subcommand=subcommand)
    if workload == "verify":
        config["initial_data"] = {"name": "cosine", "amplitude": 0.01}
    else:
        coeff_path = directory / "datum.txt"
        lines = [f"{float(z.real)!r} {float(z.imag)!r}" for z in datum(workload, seed)]
        coeff_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        config["initial_data"] = {"name": "coeff_file", "path": str(coeff_path)}
    config_path = directory / "config.json"
    config_path.write_text(json.dumps(config, indent=2) + "\n", encoding="utf-8")
    return [subcommand, "--config", str(config_path), "--out", str(directory / "out")]
