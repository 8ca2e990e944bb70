"""NumPy copies of the three SciPy reductions the package uses.

Each one returns, bit for bit, what SciPy 1.17 returns, so results do not
depend on which SciPy release is installed.  ``cumulative_trapezoid`` and
``trapezoid`` repeat SciPy's arithmetic operation for operation.
``logsumexp_modes`` returns ``scipy.special.logsumexp`` of per-mode values
unfolded over all n modes (the layout of ``spectral._unfold``) but takes them
on the stored modes 0 .. n/2: the max, the tie count, the shift and the
exponentials run once per stored mode, and only the exponentials are laid out
in the unfolded order, so the one sum adds SciPy's terms in SciPy's order.
The tie count is one product of the tie mask with the slot multiplicities
(1, 2, ..., 2, 1), an exact small integer, so it equals SciPy's float sum of
the unfolded mask.
Steps done in place on a temporary are SciPy's operations on the same operands,
so they round as SciPy does.
"""

from __future__ import annotations

import numpy as np


def _unfolded_sum(e: np.ndarray) -> np.ndarray:
    # sum over the unfolded layout 0 .. n/2, n/2-1 .. 1, in that order
    return np.sum(np.concatenate((e, e[..., -2:0:-1]), axis=-1), axis=-1, keepdims=True)


def logsumexp_modes(h: np.ndarray) -> np.ndarray:
    """log(sum(exp(a))) over all n modes, for ``h`` the per-mode values on the
    stored modes 0 .. n/2 (last axis) and ``a`` their unfolded layout, in which
    each mode 1 .. n/2-1 appears twice; a 1-D input gives a 0-d array.

    The tied maxima are taken out of the sum and counted as ``m``, so the
    result is log1p(s/m) + log(m) + max with s the sum of the shifted rest
    (Blanchard, Higham & Higham 2021); ``m`` is the tie mask times the
    multiplicities (1, 2, ..., 2, 1) of the stored slots.  Rows where that is
    not finite (all -inf, or holding +inf or NaN) fall back to
    log(sum(exp(a))), computed for those rows alone.
    """
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        h_max = np.max(h, axis=-1, keepdims=True)
        tied = h == h_max
        twice = np.full(h.shape[-1], 2.0)
        twice[[0, -1]] = 1.0  # modes 1 .. n/2-1 appear twice in the unfolded layout
        m = (tied @ twice)[..., None]
        shifted = np.where(tied, -np.inf, h)
        shifted -= h_max
        s = _unfolded_sum(np.exp(shifted, out=shifted))
        s = np.where(s == 0, s, s / m)
        out = np.log1p(s) + np.log(m) + h_max
        bad = ~np.isfinite(out[..., 0])
        if np.any(bad):
            out[bad] = np.log(_unfolded_sum(np.exp(h[bad])))
    return out[..., 0]


def cumulative_trapezoid(y: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Running trapezoid integral of the rows of the 2-D ``y`` over ``x``, from 0."""
    steps = np.diff(x)[:, None] * (y[1:] + y[:-1]) / 2.0
    total = np.cumsum(steps, axis=0)
    return np.concatenate((np.zeros_like(total[:1]), total))


def trapezoid(y: np.ndarray, x: np.ndarray) -> float:
    """Trapezoid integral of the 1-D samples ``y`` over ``x``."""
    return np.add.reduce((x[1:] - x[:-1]) * (y[1:] + y[:-1]) / 2.0)
