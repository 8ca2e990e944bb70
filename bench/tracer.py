"""Outside-in tracer for the traced benchmark run.

``Tracer.install`` wraps chgevrey's public functions in every ``chgevrey.*``
namespace that binds them (``model.product``, ``integrate.rhs``,
``verify.gevrey_norm``, ...), plus ``SpectralField.__post_init__``,
``TorusGrid.wavenumbers`` and the transforms of ``numpy.fft``.  Nothing
inside the package changes; ``uninstall`` restores every binding.

A wrapped call records a span ``(layer, start, end, parent, op, ok)`` in
memory; the FFTs and ``wavenumbers`` only count.  ``layer_metrics`` turns one
op's spans into the per-layer metrics: calls, self time (duration minus the
time covered by child spans) and total time.
"""

from __future__ import annotations

import sys
import time
from collections import Counter

import numpy as np

SUITES = (
    "embedding",
    "derivative_bound",
    "algebra",
    "norm_equivalence",
    "symbol_lemma",
    "commutator_estimate",
    "interpolation",
    "ea_integral",
    "H_monotone",
)

# (defining module, function, layer); integrate.integrate, analyticity.calibrate
# and verify.run_all_suites report no metric of their own but keep their time
# out of cli.run's self time, which is meant to be dispatch and artifact writing
TRACED = (
    ("spectral", "product", "spectral.product"),
    ("spectral", "gevrey_norm", "spectral.norm"),
    ("spectral", "gevrey_norm_bar", "spectral.norm"),
    ("spectral", "sobolev_norm", "spectral.norm"),
    ("model", "rhs", "model.rhs"),
    ("model", "functional_H", "model.functional_H"),
    ("integrate", "step_rk4", "integrate.step_rk4"),
    ("integrate", "integrate", "integrate.integrate"),
    ("integrate", "picard_iterate", "integrate.picard_iterate"),
    ("analyticity", "ea_norm", "analyticity.ea_norm"),
    ("analyticity", "estimate_radius", "analyticity.estimate_radius"),
    ("analyticity", "track_radius", "analyticity.track_radius"),
    ("analyticity", "calibrate_radius_constant", "analyticity.calibrate"),
    ("verify", "run_all_suites", "verify.run_all_suites"),
    *(("verify", f"verify_{suite}", f"verify.{suite}") for suite in SUITES),
    ("cli", "parse_config", "cli.parse_config"),
    ("cli", "run", "cli.run"),
)

FFT_FUNCTIONS = (
    "fft", "ifft", "rfft", "irfft", "hfft", "ihfft",
    "fft2", "ifft2", "rfft2", "irfft2", "fftn", "ifftn", "rfftn", "irfftn",
)
_HALF_SPECTRUM_INPUT = ("irfft", "hfft")

# (name, unit) of every per-layer metric, in report order
PER_LAYER = (
    ("spectral.product.calls", "count"),
    ("spectral.product.self_s", "s"),
    ("spectral.fft.calls", "count"),
    ("spectral.fft.points", "count"),
    ("spectral.field.builds", "count"),
    ("spectral.field.self_s", "s"),
    ("spectral.wavenumbers.calls", "count"),
    ("spectral.norm.calls", "count"),
    ("spectral.norm.self_s", "s"),
    ("spectral.norm.share", "ratio"),
    ("model.rhs.calls", "count"),
    ("model.rhs.self_s", "s"),
    ("model.rhs.total_s", "s"),
    ("model.rhs.share", "ratio"),
    ("model.functional_H.self_s", "s"),
    ("integrate.step_rk4.calls", "count"),
    ("integrate.step_rk4.self_s", "s"),
    ("integrate.picard_iterate.self_s", "s"),
    ("analyticity.ea_norm.calls", "count"),
    ("analyticity.ea_norm.self_s", "s"),
    ("analyticity.estimate_radius.calls", "count"),
    ("analyticity.estimate_radius.self_s", "s"),
    ("analyticity.estimate_radius.ok_ratio", "ratio"),
    ("analyticity.track_radius.calls", "count"),
    ("analyticity.track_radius.self_s", "s"),
    ("analyticity.track_radius.share", "ratio"),
    *((f"verify.{suite}.total_s", "s") for suite in SUITES),
    ("verify.cases", "count"),
    ("cli.parse_config.total_s", "s"),
    ("cli.run.self_s", "s"),
    ("trace.op_s", "s"),
    ("trace.overhead_s", "s"),
)

# metrics that must repeat exactly between runs of the same seed
EXACT = tuple(
    name
    for name, _ in PER_LAYER
    if name.endswith(".calls") or name in ("spectral.fft.points", "spectral.field.builds", "verify.cases")
)


def _fft_points(name: str, args, kwargs) -> int:
    """Points transformed by one call: transform length times batch size."""
    a = np.asarray(args[0] if args else kwargs["a"])
    if name.endswith(("fft2", "fftn")) or a.ndim == 0:
        return int(a.size)
    axis = kwargs.get("axis", args[2] if len(args) > 2 else -1)
    n = kwargs.get("n", args[1] if len(args) > 1 else None)
    m = a.shape[axis]
    if n is None:
        n = 2 * (m - 1) if name in _HALF_SPECTRUM_INPUT else m
    return (a.size // m if m else 0) * int(n)


class Tracer:
    """Spans and counters of one traced process; install once, uninstall once."""

    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()  # (op, counter) -> value
        self.op = -1
        self._stack = [-1]
        self._op_start = 0.0
        self._undo: list = []

    # --- wrappers ---------------------------------------------------------------

    def _span(self, layer: str, fn, on_result=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(idx)
            ok = False
            start = clock()
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (layer, start, end, parent, self.op, ok)
            if on_result is not None:
                on_result(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _fft(self, name: str, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[self.op, "spectral.fft.calls"] += 1
            counts[self.op, "spectral.fft.points"] += _fft_points(name, args, kwargs)
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    def _count_cases(self, result):
        report = result[0] if isinstance(result, tuple) else result
        self.counts[self.op, "verify.cases"] += report.cases

    def _patch(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    # --- install / uninstall ----------------------------------------------------

    def install(self) -> None:
        from chgevrey.spectral import SpectralField, TorusGrid

        replacements = {}  # id(original) -> wrapper
        for module, func, layer in TRACED:
            original = getattr(sys.modules[f"chgevrey.{module}"], func)
            on_result = self._count_cases if layer.removeprefix("verify.") in SUITES else None
            replacements[id(original)] = self._span(layer, original, on_result)
        for name in FFT_FUNCTIONS:
            original = getattr(np.fft, name)
            replacements[id(original)] = self._fft(name, original)
        namespaces = [np.fft] + [
            mod for name, mod in sorted(sys.modules.items())
            if name == "chgevrey" or name.startswith("chgevrey.")
        ]
        for namespace in namespaces:
            for attr, value in list(vars(namespace).items()):
                wrapper = replacements.get(id(value))
                if wrapper is not None:
                    self._patch(namespace, attr, wrapper)

        self._patch(
            SpectralField,
            "__post_init__",
            self._span("spectral.field", SpectralField.__post_init__),
        )
        counts, fget = self.counts, TorusGrid.wavenumbers.fget

        def wavenumbers(grid):
            counts[self.op, "spectral.wavenumbers.calls"] += 1
            return fget(grid)

        self._patch(TorusGrid, "wavenumbers", property(wavenumbers))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # --- ops and reports ----------------------------------------------------------

    def begin_op(self, op: int) -> None:
        """Open the root span of op ``op``; every span until end_op is its child."""
        self.op = op
        self._stack.append(len(self.spans))
        self.spans.append(None)
        self._op_start = time.perf_counter()

    def end_op(self) -> None:
        end = time.perf_counter()
        self.spans[self._stack.pop()] = ("op", self._op_start, end, -1, self.op, True)
        self.op = -1

    def layer_metrics(self, op: int) -> dict:
        """Per-layer metrics of op ``op``, keyed as in PER_LAYER; the caller
        adds ``trace.overhead_s``, which needs the untraced ops."""
        calls, total, self_s, ok = Counter(), Counter(), Counter(), Counter()
        covered = Counter()
        spans = [(i, s) for i, s in enumerate(self.spans) if s[4] == op]
        for _, (layer, start, end, parent, _, _) in spans:
            if parent >= 0:
                covered[parent] += end - start
        op_s = 0.0
        for i, (layer, start, end, _, _, success) in spans:
            if layer == "op":
                op_s = end - start
            calls[layer] += 1
            total[layer] += end - start
            self_s[layer] += end - start - covered[i]
            ok[layer] += success
        counts = Counter({name: value for (o, name), value in self.counts.items() if o == op})
        fits = calls["analyticity.estimate_radius"]
        return {
            "spectral.product.calls": calls["spectral.product"],
            "spectral.product.self_s": self_s["spectral.product"],
            "spectral.fft.calls": counts["spectral.fft.calls"],
            "spectral.fft.points": counts["spectral.fft.points"],
            "spectral.field.builds": calls["spectral.field"],
            "spectral.field.self_s": self_s["spectral.field"],
            "spectral.wavenumbers.calls": counts["spectral.wavenumbers.calls"],
            "spectral.norm.calls": calls["spectral.norm"],
            "spectral.norm.self_s": self_s["spectral.norm"],
            "spectral.norm.share": total["spectral.norm"] / op_s,
            "model.rhs.calls": calls["model.rhs"],
            "model.rhs.self_s": self_s["model.rhs"],
            "model.rhs.total_s": total["model.rhs"],
            "model.rhs.share": total["model.rhs"] / op_s,
            "model.functional_H.self_s": self_s["model.functional_H"],
            "integrate.step_rk4.calls": calls["integrate.step_rk4"],
            "integrate.step_rk4.self_s": self_s["integrate.step_rk4"],
            "integrate.picard_iterate.self_s": self_s["integrate.picard_iterate"],
            "analyticity.ea_norm.calls": calls["analyticity.ea_norm"],
            "analyticity.ea_norm.self_s": self_s["analyticity.ea_norm"],
            "analyticity.estimate_radius.calls": fits,
            "analyticity.estimate_radius.self_s": self_s["analyticity.estimate_radius"],
            "analyticity.estimate_radius.ok_ratio": (
                ok["analyticity.estimate_radius"] / fits if fits else 0.0
            ),
            "analyticity.track_radius.calls": calls["analyticity.track_radius"],
            "analyticity.track_radius.self_s": self_s["analyticity.track_radius"],
            "analyticity.track_radius.share": total["analyticity.track_radius"] / op_s,
            **{f"verify.{s}.total_s": total[f"verify.{s}"] for s in SUITES},
            "verify.cases": counts["verify.cases"],
            "cli.parse_config.total_s": total["cli.parse_config"],
            "cli.run.self_s": self_s["cli.run"],
            "trace.op_s": op_s,
        }

    def write_spans(self, path) -> None:
        """Dump every span as CSV: layer,start,end,parent,op,ok."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("layer,start,end,parent,op,ok\n")
            for layer, start, end, parent, op, ok in self.spans:
                fh.write(f"{layer},{start:.9f},{end:.9f},{parent},{op},{int(ok)}\n")
