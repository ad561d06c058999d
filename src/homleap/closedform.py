"""Closed-form output statistics of two Fock states meeting at a beam splitter.

The port/sign convention is pinned by the single-photon case: a photon
entering the first mode leaves through the first port with probability
1-r, so r = 0 is the identity and r = 1 maps Delta to -Delta.

`_counts` is the one lossless router.  It returns the count vector P(p),
p = 0..K+L, that `distribution`, `amplitude_expansion` and the channels
read, and picks its route in this order: an exact point mass at r in
{0, 1}; the output-state expansion's alternating sum per outcome
(`_count_probability`), in Fractions in exact mode and in floats at and
below DIRECT_FLOAT_LIMIT; the squared eigenvector column of `walk` above
it.  `prob_delta_out` takes one entry on the same routes in O(S).  The
single-sum closed form (`_closed_form`, exact, 0 < r < 1) is a different
sum for the same entry and no production route: it is the referee of
`check` and the tests.
"""
from __future__ import annotations

import math
from fractions import Fraction
from math import comb, factorial
from typing import Sequence

import numpy as np

from .errors import LatticeError
from .states import (
    FLOAT,
    BeamSplitter,
    DeltaDistribution,
    FockPair,
    JointCountDistribution,
    NumericMode,
    _integer,
)
from . import walk

#: largest S whose float distributions come from the expansion's alternating
#: sum; above it they are squared eigenvector columns.  Against exact
#: rationals the sum's worst absolute error grows from ~1e-15 at S = 12 to
#: ~4e-14 at S = 30, and the eigenvector is faster from about S = 8-10
#: (Intel Xeon, 2 vCPU: 25 vs 27 us at S = 8, 29 vs 38 us at S = 12).  The
#: sum stays at small S because it keeps exact zeros the eigenvector only
#: approaches, such as the Hong-Ou-Mandel dip at (S=2, Delta=0, r=1/2).
DIRECT_FLOAT_LIMIT = 12


def _term_range(total, delta, delta_out):
    lo = max(0, (delta_out - delta) // 2)
    hi = min((total - delta) // 2, (total + delta_out) // 2)
    return lo, hi


def _closed_form(total, delta, delta_out, r):
    """Single-sum closed form in exact rational arithmetic, 0 < r < 1; the referee.

    With r = a/b the summands C(f-, k) C(f+, f+out - k) (-a / (b-a))^k share
    the denominator (b-a)^hi, so the sum runs over integers.
    """
    a, b = r.numerator, r.denominator
    c = b - a
    f_plus_out = (total + delta_out) // 2
    f_minus_out = (total - delta_out) // 2
    f_plus = (total + delta) // 2
    f_minus = (total - delta) // 2
    lo, hi = _term_range(total, delta, delta_out)
    partial = sum(
        comb(f_minus, k) * comb(f_plus, f_plus_out - k) * (-a) ** k * c ** (hi - k)
        for k in range(lo, hi + 1)
    )
    weight = Fraction(
        factorial(f_plus_out) * factorial(f_minus_out) * c**total,
        factorial(f_plus) * factorial(f_minus) * b**total,
    )
    return weight * Fraction(partial, c**hi) ** 2 * Fraction(a, c) ** ((delta - delta_out) // 2)


def _count_probability(cap_k, cap_l, p, r):
    """P(p, q = K+L-p) of the output-state expansion; generic over Fraction and float r.

    The amplitude is sqrt(p! q! / (K! L!)) times the alternating sum over k
    of C(K, k) C(L, p-k) sqrt(r)^(K+p-2k) sqrt(1-r)^(L-p+2k).  Past one
    common sqrt(r) and sqrt(1-r) factor each summand is a monomial of degree
    (S - leftovers)/2 in r and 1-r, so exact r = a/b sums integers in a and
    b-a and divides by b^S once.
    """
    exact = isinstance(r, Fraction)
    a, b = (r.numerator, r.denominator) if exact else (r, 1.0)
    c = b - a
    total = cap_k + cap_l
    rho_r = (cap_k + p) % 2  # leftover sqrt(r) power
    rho_t = (cap_l + p) % 2  # leftover sqrt(1-r) power
    terms = []
    for k in range(max(0, p - cap_l), min(cap_k, p) + 1):
        term = (
            comb(cap_k, k)
            * comb(cap_l, p - k)
            * a ** ((cap_k + p - 2 * k - rho_r) // 2)
            * c ** ((cap_l - p + 2 * k - rho_t) // 2)
        )
        terms.append(-term if (cap_k - k) % 2 else term)
    bracket = sum(terms) if exact else math.fsum(terms)
    numerator = factorial(p) * factorial(total - p)
    denominator = factorial(cap_k) * factorial(cap_l)
    weight = Fraction(numerator, denominator * b**total) if exact else numerator / denominator
    return bracket * bracket * a**rho_r * c**rho_t * weight


def _counts(mode_a: int, mode_b: int, bs: BeamSplitter, mode: NumericMode = FLOAT) -> Sequence:
    """Lossless P(p) for p = 0..K+L photons leaving by the first port of |K>|L>."""
    total = mode_a + mode_b
    r = bs.value(mode.is_exact)
    # endpoints short-circuit before any division by r or 1-r
    if r in (0, 1):
        one = Fraction(1) if mode.is_exact else 1.0
        return [one * (p == (mode_a if r == 0 else mode_b)) for p in range(total + 1)]
    if mode.is_exact or total <= DIRECT_FLOAT_LIMIT:
        r = r if mode.is_exact else float(r)
        return [_count_probability(mode_a, mode_b, p, r) for p in range(total + 1)]
    # through the module attribute, which a profiler may wrap
    return walk.rotation_probabilities(total, mode_a - mode_b, 2.0 * bs.theta)


def prob_delta_out(
    pair: FockPair, bs: BeamSplitter, delta_out: int, mode: NumericMode = FLOAT
):
    """Entry delta_out of `distribution` in O(S): exact Fraction in rational mode
    (which needs a rational beam splitter), float otherwise."""
    total = pair.total
    if abs(delta_out) > total or (total - delta_out) % 2 != 0:
        raise LatticeError(f"{delta_out} is off the lattice of S={total}")
    r = bs.value(mode.is_exact)
    p = (delta_out + total) // 2
    if r in (0, 1):
        return _counts(pair.mode_a, pair.mode_b, bs, mode)[p]
    if mode.is_exact or total <= DIRECT_FLOAT_LIMIT:
        return _count_probability(pair.mode_a, pair.mode_b, p, r if mode.is_exact else float(r))
    amplitude = walk.wigner_d(total, delta_out, pair.delta, 2.0 * bs.theta)
    return amplitude * amplitude


def distribution(
    pair: FockPair, bs: BeamSplitter, mode: NumericMode = FLOAT
) -> DeltaDistribution:
    """Distribution over the full Delta_out lattice: the count vector of `_counts`.

    Entry i is P(p = i), Delta_out = 2i - S; the route is the one `_counts`
    picks (point mass, alternating sum or kernel column).
    """
    return DeltaDistribution(pair.total, _counts(pair.mode_a, pair.mode_b, bs, mode))


def amplitude_expansion(
    mode_a: int, mode_b: int, bs: BeamSplitter, mode: NumericMode = FLOAT
) -> JointCountDistribution:
    """Joint output counts from the term-by-term output-state expansion.

    Expands (sqrt(1-r) c1 - sqrt(r) c2)^K (sqrt(r) c1 + sqrt(1-r) c2)^L
    over the two output-port creation operators, collects the amplitude on
    each (p, q) with p + q = K + L, and squares.  The counts are those of
    `_counts`, on its route, so the Delta_out marginal is `distribution`.
    """
    mode_a = _integer(mode_a, "mode occupation")
    mode_b = _integer(mode_b, "mode occupation")
    if mode_a < 0 or mode_b < 0:
        raise LatticeError("mode occupations must be non-negative")
    total = mode_a + mode_b
    ps = np.arange(total + 1)
    return JointCountDistribution.from_arrays(ps, total - ps, _counts(mode_a, mode_b, bs, mode))
