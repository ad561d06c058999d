"""Moment laws, nonclassicality visibility, parity and transfer diagnostics.

The mean and variance laws are the exact closed forms from the spin
picture with the calibrated rotation angle (alpha = 2*theta, r =
sin^2(theta)): mean Delta*(1-2r), variance ((S^2-Delta^2)/2 + S)*4r(1-r).
Their small-angle expansion is the usual ballistic-spread form, checked in
the tests up to a single global constant.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Union

import numpy as np

from .errors import DegenerateError, RangeError
from .states import DeltaDistribution

Number = Union[int, float, Fraction]


def _arrays(dist):
    """Delta_out keys in increasing order and their probabilities, as two arrays."""
    if isinstance(dist, DeltaDistribution):
        return np.arange(-dist.total, dist.total + 1, 2), np.array(dist.probs)
    keys, probs = zip(*sorted(dist.items()))
    return np.array(keys), np.array(probs)


def _sum(values: np.ndarray):
    """Exact sum of ints and Fractions; correctly rounded `math.fsum` of floats,
    the same on every Python (the built-in float sum is compensated from 3.12)."""
    if values.dtype.kind == "f":
        return math.fsum(values.tolist())
    return sum(values.tolist())


def mean_delta(dist):
    """First moment of Delta_out over a distribution or marginal map."""
    keys, probs = _arrays(dist)
    return _sum(keys * probs)


def variance_delta(dist):
    """Second central moment of Delta_out."""
    mean = mean_delta(dist)
    keys, probs = _arrays(dist)
    return _sum(probs * (keys - mean) ** 2)


def _check_reflectivity(r):
    # one chained comparison, exact for Fraction and float, and false for NaN
    if not 0 <= r <= 1:
        raise RangeError(f"reflectivity must lie in [0, 1], got {r!r}")


def predicted_mean(total: int, delta: int, r):
    """Exact mean law Delta*(1-2r); Fraction in, Fraction out."""
    _check_reflectivity(r)
    return delta * (1 - 2 * r)


def predicted_variance(total: int, delta: int, r):
    """Exact variance law ((S^2-Delta^2)/2 + S) * 4r(1-r).

    sin^2 of the calibrated rotation angle is 4r(1-r); the small-r limit
    is proportional to the ballistic theta^2 form.
    """
    _check_reflectivity(r)
    base = (total * total - delta * delta) // 2 + total
    return base * 4 * r * (1 - r)


@dataclass(frozen=True)
class VisibilityReport:
    """Second-order interference visibility and its quantumness flag."""

    value: Number
    nonclassical: bool

    def __post_init__(self):
        if self.nonclassical != (2 * self.value > 1):
            raise RangeError("nonclassical flag must equal (value > 1/2)")


def _report(value) -> VisibilityReport:
    # doubling is exact for floats and Fractions: the test against 1/2 is exact
    return VisibilityReport(value, 2 * value > 1)


def visibility_from_moments(g_ab, g_aa, g_bb, r) -> VisibilityReport:
    """Visibility from normally ordered moments <:na nb:>, <:na^2:>, <:nb^2:>.

    Invariant under common scaling of the three moments, which is the
    algebraic form of loss immunity.
    """
    _check_reflectivity(r)
    t = 1 - r
    numerator = 2 * r * t * g_ab
    denominator = r * t * (g_aa + g_bb) + (r * r + t * t) * g_ab
    if denominator == 0:
        raise DegenerateError("visibility denominator vanished")
    return _report(numerator / denominator)


def visibility_fock(n: int, m: int, r) -> VisibilityReport:
    """Visibility of |n> meeting |m>; Fock moments <:n^2:> = n(n-1)."""
    if n < 0 or m < 0:
        raise RangeError("photon numbers must be non-negative")
    return visibility_from_moments(n * m, n * (n - 1), m * (m - 1), r)


def nonclassical_mask(n_max: int, m_max: int, r) -> Dict[tuple, bool]:
    """Grid scan of the nonclassical region over 0 <= n <= n_max, 0 <= m <= m_max.

    Degenerate cells (vanishing denominator, e.g. a bare single photon
    against vacuum) are reported classical.
    """
    mask = {}
    for n in range(n_max + 1):
        for m in range(m_max + 1):
            try:
                mask[(n, m)] = visibility_fock(n, m, r).nonclassical
            except DegenerateError:
                mask[(n, m)] = False
    return mask


def parity_violation(dist, total: int | None = None):
    """Largest probability found off the parity lattice of the photon total.

    A DeltaDistribution stores the dense parity lattice, so any violation
    would be a construction bug and the result is structurally zero; for a
    plain Delta_out -> probability map (e.g. a lossy marginal) pass the
    nominal total so the reference parity is known.
    """
    if isinstance(dist, DeltaDistribution):
        total = dist.total
    elif total is None:
        raise RangeError("a plain marginal needs the nominal photon total")
    keys, probs = _arrays(dist)
    # 0 first: max keeps the int when nothing off the lattice is positive
    return max([0, *probs[(total - keys) % 2 != 0].tolist()])


def tv_distance(dist_a, dist_b):
    """Total variation distance, supports united with zeros."""
    (keys_a, probs_a), (keys_b, probs_b) = _arrays(dist_a), _arrays(dist_b)
    keys = np.union1d(keys_a, keys_b)
    gap = np.zeros(keys.size, dtype=np.result_type(probs_a, probs_b))
    gap[np.searchsorted(keys, keys_a)] += probs_a
    gap[np.searchsorted(keys, keys_b)] -= probs_b
    return _sum(np.abs(gap)) / 2


def transfer_fidelity(dist: DeltaDistribution, delta: int):
    """Probability of arriving at the mirrored position -delta."""
    return dist.prob(-delta)
