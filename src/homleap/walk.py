"""Line-graph walk machinery: hopping generator, unitary evolution, Wigner rotations.

The generator is the symmetric tridiagonal matrix of nearest neighbour
hoppings on the Delta lattice (`build_hamiltonian` returns its couplings).
Evolution through its full eigendecomposition (`evolve`, complex amplitude
arrays) is the brute-force oracle the other routes are checked against; its
unitarity and equally spaced spectrum double as built-in tests.

The same transition probabilities are the squared Wigner small-d column
of spin S/2 at rotation angle beta = 2*theta, r = sin^2(theta); that
calibration is fixed by the single-photon case and verified in the tests.
Leap and walk share one Hamiltonian, so that column is one eigenvector of
a tridiagonal matrix, and inverse iteration at the known eigenvalue
Delta/2 gives the float kernel of every lossless distribution above the
closed-form seam.
"""
from __future__ import annotations

import math
from functools import lru_cache

import numpy as np
from numpy.linalg import LinAlgError
from scipy.linalg import eigh_tridiagonal
from scipy.linalg.lapack import dstein

from .errors import DomainError, RangeError
from .states import BeamSplitter, DeltaDistribution, FockPair, _integer


def build_hamiltonian(total: int) -> np.ndarray:
    """Couplings of the walk generator on the Delta lattice of S photons.

    Entry i, sqrt((S+d)(S-d+2))/2 at d = -S+2i+2, couples d-2 to d on both
    off-diagonals of a symmetric tridiagonal matrix with zero diagonal; it
    is symmetric in the two site labels, so the array is a palindrome.  The
    global sign of the two-mode hopping Hamiltonian (phase pi gives an
    overall minus) is dropped: it is unobservable in every exported
    probability.
    """
    total = _integer(total, "photon total")
    if total < 0:
        raise RangeError("photon total must be non-negative")
    d = np.arange(-total + 2, total + 1, 2)
    return 0.5 * np.sqrt((total + d) * (total - d + 2))


# the oracles visit one S at a time; an entry at S = 4000 holds 128 MB
@lru_cache(maxsize=4)
def _eigensystem(total: int):
    # read-only after insertion; shared across threads
    if total == 0:
        return np.zeros(1), np.ones((1, 1))
    vals, vecs = eigh_tridiagonal(np.zeros(total + 1), build_hamiltonian(total))
    vals.setflags(write=False)
    vecs.setflags(write=False)
    return vals, vecs


def evolve(pair: FockPair, theta: float) -> np.ndarray:
    """Complex walker amplitudes exp(-i*theta*H)|Delta> over the lattice."""
    vals, vecs = _eigensystem(pair.total)
    start = vecs[(pair.delta + pair.total) // 2, :]
    return vecs @ (np.exp(-1j * theta * vals) * start)


def evolved_distribution(pair: FockPair, bs: BeamSplitter) -> DeltaDistribution:
    """Output statistics by direct unitary evolution (the ground-truth route)."""
    return DeltaDistribution(pair.total, np.abs(evolve(pair, bs.theta)) ** 2)


def _check_spin_indices(two_s: int, *two_ms: int):
    if two_s < 0:
        raise DomainError("spin must be non-negative")
    for m2 in two_ms:
        if abs(m2) > two_s or (two_s - m2) % 2 != 0:
            raise DomainError(
                f"projection {m2}/2 invalid for spin {two_s}/2 (doubled ints)"
            )


def _log_factorial(n: int) -> float:
    return math.lgamma(n + 1)


def _edge_seed(two_s: int, two_n: int, c: float, s: float, top: bool):
    """Analytically known edge element d^s_{+/-s, n}(beta) as (sign, ln|d|)."""
    a = (two_s + two_n) // 2  # s + n
    b = (two_s - two_n) // 2  # s - n
    ec, es = (a, b) if top else (b, a)
    sign = -1.0 if (top and b % 2) else 1.0
    if c < 0.0 and ec % 2:
        sign = -sign
    if s < 0.0 and es % 2:
        sign = -sign
    log_mag = 0.5 * (
        _log_factorial(two_s) - _log_factorial(a) - _log_factorial(b)
    )
    if ec:
        log_mag += ec * math.log(abs(c)) if c != 0.0 else -math.inf
    if es:
        log_mag += es * math.log(abs(s)) if s != 0.0 else -math.inf
    return sign, log_mag


#: entries at least this large orient a column: their absolute error (about
#: eps * S) cannot flip their sign, and the decaying tail from the larger
#: edge reaches them (it reached 0.04 in each of 3000 sampled columns)
_SIGN_FLOOR = 1e-6


def wigner_d_column(two_s: int, two_m2: int, beta: float) -> np.ndarray:
    """All elements d^s_{m1, m2}(beta) for m1 = -s..s, ascending (doubled).

    The column is the eigenvector with eigenvalue m2 of cos(beta) J_z +
    sin(beta) J_x, a tridiagonal matrix with spectrum -s..s (gap 1) and half
    the walk's couplings (Feng et al., PRE 92, 043307, 2015).  It is one
    LAPACK inverse iteration (`dstein`) at the known eigenvalue
    m2 = Delta/2, with no eigenvalue search: O(S) time and memory,
    absolute error about eps * S.

    The sign is the analytic one of the larger edge element, carried to the
    first entry of magnitude _SIGN_FLOOR: in the decaying tail the recurrence
    (m2 - m cos beta) d_m = sin beta (c_m d_{m+1} + c_{m-1} d_{m-1}) is led
    by its left side, so each step inward multiplies the sign by
    sign((m2 - m cos beta) / sin beta).
    """
    _check_spin_indices(two_s, two_m2)
    if not math.isfinite(beta):
        raise DomainError(f"rotation angle {beta!r} is not finite")
    if two_s == 0:
        return np.ones(1)
    two_m = np.arange(-two_s, two_s + 1, 2, dtype=float)
    cb, sb = math.cos(beta), math.sin(beta)
    # J_x couplings between m and m+1: sqrt((s-m)(s+m+1))/2
    couplings = 0.25 * np.sqrt((two_s - two_m[:-1]) * (two_s + two_m[:-1] + 2))
    size = two_s + 1
    # dstein takes the block splitting an eigenvalue search would report;
    # one unreduced block iterates on the whole matrix, also where
    # sin(beta) makes the couplings vanish
    vecs, info = dstein(
        0.5 * cb * two_m,
        sb * couplings,
        np.array([0.5 * two_m2]),
        np.ones(size, dtype=np.intc),
        np.full(size, size, dtype=np.intc),
    )
    if info != 0:
        raise LinAlgError(f"dstein returned info={info} at S={two_s}, beta={beta!r}")
    column = vecs[:, 0]
    c, s = math.cos(beta / 2.0), math.sin(beta / 2.0)
    bottom = _edge_seed(two_s, two_m2, c, s, top=False)
    top = _edge_seed(two_s, two_m2, c, s, top=True)
    step = 1 if bottom[1] >= top[1] else -1
    sign = (bottom if step == 1 else top)[0]
    tail = column[::step]
    first = int(np.argmax(np.abs(tail) >= _SIGN_FLOOR))
    flips = np.count_nonzero((two_m2 - two_m[::step][:first] * cb < 0) != (sb < 0))
    if (tail[first] < 0) != ((sign < 0) != bool(flips % 2)):
        column = -column
    return column


def wigner_d(two_s: int, two_m1: int, two_m2: int, beta: float) -> float:
    """Wigner small-d element d^s_{m1,m2}(beta) with doubled integer indices.

    An entry of the cached `wigner_d_column`.  Its absolute error is about
    eps * S; it has no relative accuracy and no reliable sign where
    |d| is below about 1e-45, where the column holds inverse-iteration
    noise instead of the true deep-tail value.  Squared into a
    probability, that noise is far below the absolute error.
    """
    _check_spin_indices(two_s, two_m1, two_m2)
    return float(_wigner_column_cached(two_s, two_m2, beta)[(two_m1 + two_s) // 2])


@lru_cache(maxsize=4096)
def _wigner_column_cached(two_s: int, two_m2: int, beta: float):
    col = wigner_d_column(two_s, two_m2, beta)
    col.setflags(write=False)
    return col


def rotation_probabilities(total: int, delta: int, beta: float) -> np.ndarray:
    """Squared cached `wigner_d_column(total, delta, beta)`: 2s = S, 2m2 = Delta.

    At beta = 2*theta of a beam splitter these are the statistics of
    `evolved_distribution`; this is the large-S float path of the
    closed-form module.
    """
    col = _wigner_column_cached(total, delta, beta)
    return col * col
