"""The traced benchmark patches chgevrey by name; every name it patches must
still resolve, so a refactor cannot silently drop a layer from the trace."""

import importlib
import importlib.util
from pathlib import Path

import numpy as np

from chgevrey.spectral import SpectralField, TorusGrid

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("chgevrey_bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_still_resolves():
    tracer = _load_tracer()
    missing = [
        f"{module}.{func}"
        for module, func, _ in tracer.TRACED
        if not callable(getattr(importlib.import_module(f"chgevrey.{module}"), func, None))
    ]
    assert missing == []
    assert callable(SpectralField.__dict__.get("__post_init__"))
    assert isinstance(TorusGrid.__dict__.get("wavenumbers"), property)
    assert all(callable(getattr(np.fft, name, None)) for name in tracer.FFT_FUNCTIONS)
