"""Physical imperfection models: distinguishability, mixed inputs, lossy detectors.

Distinguishability rotates the first input beam into a superposition over
an orthogonal polarization.  The beam splitter does not mix polarizations
and counting detectors trace over them, so the output is exactly an
incoherent binomial mixture over the polarization split: interference of
the surviving parallel photons convolved with the plain binomial splitting
of the orthogonal remainder.  Only the relative polarization of the two
beams enters, so decomposing the second beam instead gives the same
statistics.  The equivalence with a coherent four-mode evolution is still
verified at small S in the test suite.

Loss is binomial thinning B_eta[k, j] = C(j, k) eta^k (1-eta)^(j-k), with
B_eta1 B_eta2 = B_(eta1 eta2); uniform loss commutes with a passive beam
splitter (Oszmaniec & Brod, NJP 20, 092002, 2018).  Sources surviving with
eta = m rho are thinned by rho before the splitter and by m after it, as
B_m M B_m^T on the dense (p, q) count array M.  The float path takes m as the
largest eta of the non-vacuum sources (a vacuum source's eta changes nothing),
so only the other source is mixed; exact mode mixes every input count pair.

The lossy channels work on that dense array and return the cells they keep
as the p, q and probability arrays of a `JointCountDistribution`
(`from_arrays`); `apply_detector_loss` scatters those arrays back into its
grid, so no per-entry dict is built between stages.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from math import comb

import numpy as np

# amplitude_expansion is re-exported for code that looks it up on this module
from .closedform import _counts, amplitude_expansion  # noqa: F401
from .errors import ModeError, NoSolution, RangeError
from .states import (
    FLOAT,
    BeamSplitter,
    DeltaDistribution,
    FockPair,
    JointCountDistribution,
    NumericMode,
    _integer,
)


def _binomial(count: int, p):
    """Probabilities of k = 0..count successes in count trials of probability p.

    Float p walks the ratio w[k+1] / w[k] = (n-k) p / ((k+1) (1-p)) out from
    the mode and normalizes, so no C(n, k) becomes a float (it overflows
    above about 1030 trials); exact p keeps the literal formula.
    """
    if not isinstance(p, float):
        return [comb(count, k) * p**k * (1 - p) ** (count - k) for k in range(count + 1)]
    weights = [0.0] * (count + 1)
    mode = min(count, int((count + 1) * p))
    weights[mode] = 1.0
    for k in range(mode, count):
        weights[k + 1] = weights[k] * (count - k) * p / ((k + 1) * (1 - p))
    for k in range(mode, 0, -1):
        weights[k - 1] = weights[k] * k * (1 - p) / ((count - k + 1) * p)
    norm = math.fsum(weights)
    return [w / norm for w in weights]


def _thinning(size: int, eta, dtype=float) -> np.ndarray:
    """B_eta[k, j] for 0 <= k, j <= size, column by column by Pascal's rule."""
    table = np.zeros((size + 1, size + 1), dtype=dtype)
    table[0, 0] = 1
    for j in range(1, size + 1):
        table[:, j] = (1 - eta) * table[:, j - 1]
        table[1:, j] += eta * table[:-1, j - 1]
    return table


@dataclass(frozen=True)
class DistinguishabilityAngle:
    """Polarization rotation angle: 0 = indistinguishable, pi/2 = distinguishable.

    Values within 1e-4 of the endpoints snap onto them, so hand-rounded
    inputs like 1.5708 mean exactly pi/2.
    """

    y: float

    _ENDPOINT_SNAP = 1e-4

    def __post_init__(self):
        # compared before float(), which overflows on a huge Fraction
        if not (-self._ENDPOINT_SNAP < self.y < math.pi / 2 + self._ENDPOINT_SNAP):
            raise RangeError(f"distinguishability angle must lie in [0, pi/2], got {self.y}")
        object.__setattr__(self, "y", min(max(float(self.y), 0.0), math.pi / 2))

    def weights(self, count: int, exact: bool = False):
        """Binomial weights over the parallel-sector photon number n."""
        if exact and self.y not in (0.0, math.pi / 2):
            raise ModeError("exact weights exist only at y = 0 or y = pi/2")
        return _binomial(count, Fraction(self.y == 0.0) if exact else math.cos(self.y) ** 2)


@dataclass(frozen=True)
class MixedFockSource:
    """Fock state |K> degraded photon-by-photon: each survives with probability eta."""

    nominal: int
    eta: float

    def __post_init__(self):
        _integer(self.nominal, "nominal photon number")
        if self.nominal < 0:
            raise RangeError("nominal photon number must be non-negative")
        if not (0 <= self.eta <= 1):
            raise RangeError(f"eta must lie in [0, 1], got {self.eta}")

    def weights(self):
        """Probability of k surviving photons, k = 0..K; sums to 1."""
        return _binomial(self.nominal, self.eta)

    def mean_photons(self):
        return self.eta * self.nominal

    def second_factorial_moment(self):
        """Normally ordered <n(n-1)> = K(K-1) eta^2."""
        return self.nominal * (self.nominal - 1) * self.eta**2


@dataclass(frozen=True)
class Detector:
    """Photon-counting detector with a quantum efficiency.

    Efficiency drives binomial thinning (apply_detector_loss); efficiency 1
    is the ideal detector and acts as the identity.
    """

    efficiency: float = 1.0

    def __post_init__(self):
        if not (0.0 < self.efficiency <= 1.0):
            raise RangeError(f"efficiency must lie in (0, 1], got {self.efficiency}")


def decohere_distribution(
    pair: FockPair,
    angle: DistinguishabilityAngle,
    bs: BeamSplitter,
    mode: NumericMode = FLOAT,
) -> DeltaDistribution:
    """Output statistics with partially distinguishable inputs.

    The first beam (K photons) is decomposed over the orthogonal
    polarization.  Rotating both beams by one polarization rotation changes
    nothing the detectors see, so rotating the second beam by -y instead
    would give the same statistics: the weights depend on y only through
    cos^2 y.
    """
    exact = mode.is_exact
    rotated, fixed = pair.mode_a, pair.mode_b
    r = bs.value(exact)
    out = np.zeros(pair.total + 1, dtype=object if exact else float)
    for n, w in enumerate(angle.weights(rotated, exact)):
        if w == 0:
            continue
        # the orthogonal photons split binomially over the ports: each exits
        # the first port with probability 1-r (fixed by the single-photon
        # expansion), and the 1-r split is the r split reversed
        counts = _counts(n, fixed, bs, mode)
        out += w * np.convolve(counts, _binomial(rotated - n, r)[::-1])
    return DeltaDistribution(pair.total, out)


def classical_reference(pair: FockPair, bs: BeamSplitter) -> DeltaDistribution:
    """Fully distinguishable limit: two independent binomial splittings.

    Each of the K first-mode photons exits the first port with probability
    1-r, each of the L second-mode photons with probability r; the output
    count is their convolution.  Computed directly from binomials, with no
    interference machinery, as an independent classical reference.
    """
    r = bs.reflectivity  # the 1-r split is the r split reversed, with no 1-(1-r)
    out = np.convolve(_binomial(pair.mode_a, r)[::-1], _binomial(pair.mode_b, r))
    return DeltaDistribution(pair.total, out)


def mixed_distribution(
    src_a: MixedFockSource,
    src_b: MixedFockSource,
    bs: BeamSplitter,
    mode: NumericMode = FLOAT,
) -> JointCountDistribution:
    """Output counts for two independently degraded Fock sources.

    Totals vary between terms, so the result lives on joint counts; the
    Delta_out marginal no longer has a strict parity comb.  The entries are
    every (p, q) whose total some pair of input counts reaches.
    """
    sources = (src_a, src_b)
    size = src_a.nominal + src_b.nominal
    grid = np.zeros((size + 1, size + 1), dtype=object if mode.is_exact else float)
    # the common survival probability m; exact mode leaves it in the sources
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
    # which totals p + q some pair of input counts reaches, up to p + q = 2 * size
    reached = np.pad(np.convolve(*(np.array(src.weights()) != 0 for src in sources)), (0, size))
    counts = np.arange(size + 1)
    ps, qs = np.nonzero(reached[np.add.outer(counts, counts)])
    return JointCountDistribution.from_arrays(ps, qs, grid[ps, qs])


def apply_detector_loss(
    joint: JointCountDistribution, det: Detector
) -> JointCountDistribution:
    """Independent binomial thinning of each port's count.

    The entries are every (p, q) at or below a count the input supports.
    Exact efficiency and entries keep exact arithmetic.
    """
    eff = det.efficiency
    if eff == 1.0:
        return joint
    # only an exact joint holds an object array
    exact = joint.probs.dtype == object and isinstance(eff, (int, Fraction))
    size = int(max(joint.ps.max(), joint.qs.max()))
    grid = np.zeros((size + 1, size + 1), dtype=object if exact else float)
    grid[joint.ps, joint.qs] = joint.probs
    thin = _thinning(size, eff if exact else float(eff), grid.dtype)
    below = np.logical_or.accumulate(np.logical_or.accumulate(grid[::-1, ::-1] != 0), axis=1)
    ps, qs = np.nonzero(below[::-1, ::-1])
    return JointCountDistribution.from_arrays(ps, qs, (thin @ grid @ thin.T)[ps, qs])


def purity(src: MixedFockSource):
    """Tr rho^2 of the degraded source: sum of squared weights."""
    return _purity_of(src.nominal, src.eta)


def _purity_of(nominal: int, eta):
    return sum(w * w for w in _binomial(nominal, eta))


def _bisect(increasing, target: float) -> float:
    """Where an increasing function of eta crosses target on [1/2, 1], to 1e-12."""
    lo, hi = 0.5, 1.0
    while hi - lo > 0.5e-12:
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if increasing(mid) < target else (lo, mid)
    return 0.5 * (lo + hi)


def eta_for_purity(nominal: int, target: float) -> float:
    """Survival probability giving the requested purity of one source."""
    return eta_for_joint_purity(nominal, 0, target)


def eta_for_joint_purity(nominal_a: int, nominal_b: int, target: float) -> float:
    """Common survival probability giving a joint (product) input purity, by bisection.

    Purity is monotone increasing on eta in [1/2, 1]; targets below the
    eta = 1/2 floor (or above 1) have no solution.
    """
    nominal_a = _integer(nominal_a, "nominal photon number")
    nominal_b = _integer(nominal_b, "nominal photon number")
    if not (0.0 < target <= 1.0):
        raise NoSolution(f"purity target {target} outside (0, 1]")
    if target == 1.0:
        return 1.0
    if nominal_a == 0 and nominal_b == 0:
        raise NoSolution("vacuum sources have purity 1 for every eta")

    def joint(eta):  # a vacuum source's purity is exactly 1
        return math.prod(_purity_of(n, eta) for n in (nominal_a, nominal_b) if n)

    if target < joint(0.5):
        raise NoSolution(
            f"purity {target} below the achievable floor {joint(0.5):.6f} "
            f"for K={nominal_a}, L={nominal_b}"
        )
    return _bisect(joint, target)
