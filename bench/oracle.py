"""Output checks that run outside every timed span.

Every check is independent of the code path that produced the output:

* normalization and non-negativity, and the parity comb (a lossless
  output lives on the step-2 lattice of its photon total);
* the exact mean and variance laws, extended here to binomially degraded
  sources, detector thinning and partial distinguishability;
* agreement, to ``PROB_TOL``, with brute-force unitary evolution of the
  walk generator (its own eigendecomposition, no package code) where
  S <= ``EVOLVE_MAX``.

``Checker`` tallies raised and wrong outputs separately and never raises
itself, so one bad output cannot end a run.
"""
from __future__ import annotations

import math
from functools import lru_cache

import numpy as np
from scipy.linalg import eigh_tridiagonal

PROB_TOL = 1e-9
NORM_TOL = 1e-9
#: the moment laws are checked relative to the scale of the moment
LAW_RTOL = 1e-9
EVOLVE_MAX = 400
#: evolved comparisons per run: the first outputs with S <= EVOLVE_MAX get
#: one; a cap keeps the checking time bounded however fast the package gets
EVOLVE_CHECKS = 2000
MAX_EXAMPLES = 5


@lru_cache(maxsize=128)
def evolved_probs(total: int, delta: int, r: float) -> np.ndarray:
    """|<Delta_out| exp(-i theta H) |Delta>|^2 from the tridiagonal generator."""
    if total == 0:
        return np.ones(1)
    d = np.arange(-total + 2, total + 1, 2, dtype=float)
    couplings = 0.5 * np.sqrt((total + d) * (total - d + 2))
    vals, vecs = eigh_tridiagonal(np.zeros(total + 1), couplings)
    theta = math.asin(math.sqrt(r))
    start = vecs[(delta + total) // 2, :]
    amps = vecs @ (np.exp(-1j * theta * vals) * start)
    probs = np.abs(amps) ** 2
    probs.setflags(write=False)
    return probs


def pure_moments(total, delta, r):
    """Exact mean and variance of Delta_out for a lossless pure pair."""
    return delta * (1 - 2 * r), ((total * total - delta * delta) // 2 + total) * 4 * r * (1 - r)


def mixed_moments(cap_k, cap_l, r, eta_a, eta_b, eff=1.0):
    """Mean and variance of p - q for degraded sources and thinned detectors.

    Conditioned on k and l surviving photons the pure laws hold; the law of
    total variance adds the spread of (k - l)(1 - 2r).  Thinning each port
    with efficiency e scales the mean by e and adds e(1-e) per photon.
    """
    spin = 4 * r * (1 - r)
    mean = (eta_a * cap_k - eta_b * cap_l) * (1 - 2 * r)
    mean_photons = eta_a * cap_k + eta_b * cap_l
    var = spin * (2 * eta_a * eta_b * cap_k * cap_l + mean_photons) + (1 - 2 * r) ** 2 * (
        eta_a * (1 - eta_a) * cap_k + eta_b * (1 - eta_b) * cap_l
    )
    return eff * mean, eff * eff * var + eff * (1 - eff) * mean_photons


def decohered_moments(cap_k, cap_l, r, y):
    """Beam a rotated by y: the mean is unchanged, the pair term scales by cos^2 y."""
    total = cap_k + cap_l
    var = 4 * r * (1 - r) * (2 * cap_k * cap_l * math.cos(y) ** 2 + total)
    return (cap_k - cap_l) * (1 - 2 * r), var


def binomial_purity(nominal: int, eta: float) -> float:
    """Sum of squared Binomial(K, eta) weights."""
    if eta in (0.0, 1.0):
        return 1.0
    log_pmf = [
        math.lgamma(nominal + 1) - math.lgamma(k + 1) - math.lgamma(nominal - k + 1)
        + k * math.log(eta) + (nominal - k) * math.log1p(-eta)
        for k in range(nominal + 1)
    ]
    return math.fsum(math.exp(2 * v) for v in log_pmf)


def _moments(values, probs):
    mean = float(np.dot(values, probs))
    return mean, float(np.dot((values - mean) ** 2, probs))


class Checker:
    """Counts outcomes and keeps the worst deviation and a few examples."""

    def __init__(self):
        self.checked = 0
        self.raised = 0
        self.wrong = 0
        self.max_err = 0.0
        self.examples = []
        self.evolve_left = EVOLVE_CHECKS

    @property
    def failed(self):
        return self.raised + self.wrong

    def _failure(self, request, reason):
        self.checked += 1
        if len(self.examples) < MAX_EXAMPLES:
            self.examples.append({"request": repr(request)[:300], "reason": reason[:300]})

    def record_raised(self, request, error: str):
        """A request that raised; error is its one-line description."""
        self.raised += 1
        self._failure(request, error)

    def record_wrong(self, request, reason):
        self.wrong += 1
        self._failure(request, reason)

    def guarded(self, request, check, *args):
        """Run one check; a crash inside the check counts as a wrong output."""
        try:
            problem = check(*args)
        except Exception as exc:  # the checker must outlive any malformed output
            problem = f"unreadable output: {type(exc).__name__}: {exc}"
        if problem:
            self.record_wrong(request, problem)
        else:
            self.checked += 1

    # ------------------------------------------------------------ checks
    # each returns None when the output is right, else a one-line reason

    def reference(self, probs, ref):
        err = float(np.max(np.abs(probs - ref)))
        self.max_err = max(self.max_err, err)
        if err > PROB_TOL:
            return f"max |p - evolved| = {err:.3e}"
        return None

    def laws(self, values, probs, mean_law, var_law, scale):
        mean, var = _moments(values, probs)
        if abs(mean - mean_law) > LAW_RTOL * max(1.0, scale):
            return f"mean {mean!r} vs law {mean_law!r}"
        if abs(var - var_law) > LAW_RTOL * max(1.0, scale * scale):
            return f"variance {var!r} vs law {var_law!r}"
        return None

    def mass(self, probs):
        if probs.size and float(probs.min()) < 0.0:
            return "negative probability"
        total = math.fsum(probs)
        if abs(total - 1.0) > NORM_TOL:
            return f"mass {total!r}"
        return None

    def _lattice(self, total, probs, moments):
        """Shape, mass and moment laws of an output over the Delta_out lattice of S."""
        if probs.shape != (total + 1,):
            return f"{probs.size} lattice entries for S={total}"
        values = np.arange(-total, total + 1, 2, dtype=float)
        return self.mass(probs) or self.laws(values, probs, *moments, total)

    def pure(self, total, delta, r, probs):
        """A lossless pure output over the Delta_out lattice of S."""
        probs = np.asarray(probs, dtype=float)
        problem = self._lattice(total, probs, pure_moments(total, delta, r))
        if problem is None and total <= EVOLVE_MAX and self.evolve_left > 0:
            self.evolve_left -= 1
            return self.reference(probs, evolved_probs(total, delta, r))
        return problem

    def point(self, value, expected):
        """One probability against a checked reference value."""
        err = abs(float(value) - float(expected))
        self.max_err = max(self.max_err, err)
        if err > PROB_TOL:
            return f"point {value!r} vs {expected!r}"
        return None

    def joint(self, entries, nominal_total, mean_law, var_law):
        """A joint (p, q) count map with its moment laws."""
        keys = np.array(list(entries.keys()), dtype=float).reshape(-1, 2)
        probs = np.array(list(entries.values()), dtype=float)
        if probs.size and float(keys.sum(axis=1).max()) > nominal_total:
            return "more photons out than in"
        return self.mass(probs) or self.laws(
            keys[:, 0] - keys[:, 1], probs, mean_law, var_law, nominal_total
        )

    def decohered(self, cap_k, cap_l, r, y, probs, endpoint_ref):
        """Partially distinguishable inputs; endpoint_ref is the y = 0 or pi/2 limit."""
        probs = np.asarray(probs, dtype=float)
        problem = self._lattice(cap_k + cap_l, probs, decohered_moments(cap_k, cap_l, r, y))
        if problem is None and endpoint_ref is not None:
            return self.reference(probs, np.asarray(endpoint_ref, dtype=float))
        return problem

    def purity(self, nominals, etas, target, joint):
        if joint:
            got = binomial_purity(nominals[0], etas[0]) * binomial_purity(nominals[1], etas[1])
            if abs(got - target) > PROB_TOL:
                return f"joint purity {got!r} vs target {target!r}"
            return None
        for nominal, eta in zip(nominals, etas):
            if nominal and abs(binomial_purity(nominal, eta) - target) > PROB_TOL:
                return f"purity of K={nominal} at eta={eta!r} vs target {target!r}"
        return None

    def summary(self):
        return {
            "checked": self.checked,
            "raised": self.raised,
            "wrong": self.wrong,
            "max_err": self.max_err,
            "examples": self.examples,
        }
