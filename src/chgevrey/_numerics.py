"""NumPy copies of the three SciPy reductions the package uses.

Each one repeats the arithmetic of SciPy 1.17 (``scipy.special.logsumexp``,
``scipy.integrate.cumulative_trapezoid`` and ``scipy.integrate.trapezoid``)
operation for operation, so results agree with SciPy bit for bit and do not
depend on which SciPy release is installed.  Steps done in place on a temporary
are SciPy's operations on the same operands, so they round as SciPy does.
"""

from __future__ import annotations

import numpy as np


def logsumexp(a: np.ndarray) -> np.ndarray:
    """log(sum(exp(a))) over the last axis; a 1-D input gives a 0-d array.

    The tied maxima are taken out of the sum and counted as ``m``, so the
    result is log1p(s/m) + log(m) + max with s the sum of the shifted rest
    (Blanchard, Higham & Higham 2021).  Rows where that is not finite (all
    -inf, or holding +inf or NaN) fall back to log(sum(exp(a))).
    """
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        a_max = np.max(a, axis=-1, keepdims=True)
        tied = a == a_max
        m = np.count_nonzero(tied, axis=-1, keepdims=True).astype(float)
        shifted = np.where(tied, -np.inf, a)
        shifted -= a_max
        s = np.sum(np.exp(shifted, out=shifted), axis=-1, keepdims=True)
        s = np.where(s == 0, s, s / m)
        out = np.log1p(s) + np.log(m) + a_max
        bad = ~np.isfinite(out)
        if np.any(bad):
            out = np.where(bad, np.log(np.sum(np.exp(a), axis=-1, keepdims=True)), out)
    return out[..., 0]


def cumulative_trapezoid(y: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Running trapezoid integral of the rows of the 2-D ``y`` over ``x``, from 0."""
    steps = np.diff(x)[:, None] * (y[1:] + y[:-1]) / 2.0
    total = np.cumsum(steps, axis=0)
    return np.concatenate((np.zeros_like(total[:1]), total))


def trapezoid(y: np.ndarray, x: np.ndarray) -> float:
    """Trapezoid integral of the 1-D samples ``y`` over ``x``."""
    return np.add.reduce((x[1:] - x[:-1]) * (y[1:] + y[:-1]) / 2.0)
