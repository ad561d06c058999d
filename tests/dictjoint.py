"""The dict-backed joint count path, kept as a reference for the array path.

An independent referee for the containers of `homleap.channels`: the
channels and `amplitude_expansion` as they were when a joint was a
{(p, q): probability} dict, validated entry by entry and marginalized by a
Python loop.  The numerical kernels (`_binomial`, `_thinning`, `_counts`)
are the package's own, so the two paths must agree bit for bit: same keys,
same key order, same values, same value types.
"""
import math
from fractions import Fraction

import numpy as np

from homleap.channels import _binomial, _thinning
from homleap.closedform import _counts
from homleap.states import DENORMAL_FLOOR, NORMALIZATION_TOL, FockPair


def checked(values) -> tuple:
    """The probabilities as validated Python numbers: exact kept, floats flushed."""
    if all(isinstance(v, (int, Fraction)) for v in values):
        assert all(v >= 0 for v in values) and sum(values) == 1
        return tuple(values)
    values = np.asarray(values, dtype=float)
    values = np.where(np.abs(values) < DENORMAL_FLOOR, 0.0, values)
    total = float(values.sum())
    assert math.isfinite(total) and values.min() >= 0
    assert abs(total - 1.0) <= NORMALIZATION_TOL
    return tuple(values.tolist())


def joint(grid: np.ndarray, keep: np.ndarray) -> dict:
    """The dense (p, q) array as a validated count dict over the cells where keep holds."""
    ps, qs = np.nonzero(keep)
    keys = list(zip(ps.tolist(), qs.tolist()))
    return dict(zip(keys, checked(grid[ps, qs].tolist())))


def amplitude_expansion(mode_a, mode_b, bs, mode) -> dict:
    pair = FockPair.from_modes(mode_a, mode_b)
    probs = _counts(mode_a, mode_b, bs, mode)
    entries = {(p, pair.total - p): prob for p, prob in enumerate(probs)}
    return dict(zip(entries, checked(list(entries.values()))))


def mixed_distribution(src_a, src_b, bs, mode) -> dict:
    sources = (src_a, src_b)
    size = src_a.nominal + src_b.nominal
    grid = np.zeros((size + 1, size + 1), dtype=object if mode.is_exact else float)
    common = 1 if mode.is_exact else float(max((s.eta for s in sources if s.nominal), default=0))
    if common == 0:
        grid[0, 0] = 1.0
    else:
        residual_a, residual_b = (_binomial(src.nominal, src.eta / common) for src in sources)
        for k, w_k in enumerate(residual_a):
            for l, w_l in enumerate(residual_b):
                if w_k != 0 and w_l != 0:
                    ports = np.arange(k + l + 1)
                    counts = _counts(k, l, bs, mode)
                    grid[ports, k + l - ports] += w_k * w_l * np.array(counts, dtype=grid.dtype)
        if common != 1:
            thin = _thinning(size, common)
            grid = thin @ grid @ thin.T
    reached = np.flatnonzero(np.convolve(*(np.array(src.weights()) != 0 for src in sources)))
    counts = np.arange(size + 1)
    return joint(grid, np.isin(np.add.outer(counts, counts), reached))


def apply_detector_loss(entries: dict, eff) -> dict:
    if eff == 1.0:
        return entries
    exact = all(isinstance(v, (int, Fraction)) for v in (eff, *entries.values()))
    size = max(max(key) for key in entries)
    grid = np.zeros((size + 1, size + 1), dtype=object if exact else float)
    grid[tuple(zip(*entries))] = list(entries.values())
    thin = _thinning(size, eff if exact else float(eff), grid.dtype)
    below = np.logical_or.accumulate(np.logical_or.accumulate(grid[::-1, ::-1] != 0), axis=1)
    return joint(thin @ grid @ thin.T, below[::-1, ::-1])


def delta_marginal(entries: dict) -> dict:
    out = {}
    for (p, q), prob in sorted(entries.items()):
        out[p - q] = out.get(p - q, 0) + prob
    return dict(sorted(out.items()))
