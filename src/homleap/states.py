"""Core domain types: two-mode Fock inputs, beam splitters, count statistics.

The walker coordinate throughout is the population difference between the
two output ports, Delta_out = p - q.  With S photons in total it lives on
the step-2 lattice {-S, -S+2, ..., S}, so every distribution here is stored
densely over that lattice (zeros included): parity violations then show up
as literal nonzero entries instead of missing keys.

Both value types validate their probabilities once, on construction, in
`_checked`: producers hand over their arrays or lists as they are, a float
array is flushed and checked as one array.  A `DeltaDistribution` stores a
tuple of Python numbers (`probs`).  A `JointCountDistribution` stores three
1-D arrays (p, q and probability), which the channels hand from one stage to
the next; its read-only mapping (`entries`) is built on first access.
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from types import MappingProxyType
from typing import Dict, Mapping, Tuple, Union

import numpy as np

from .errors import LatticeError, ModeError, ParityMismatch, RangeError

Number = Union[int, float, Fraction]

#: float probabilities below this are flushed to exact zero (denormal noise
#: far below any physical tolerance used here)
DENORMAL_FLOOR = 1e-300

#: normalization tolerance for float-mode distributions; oracle
#: agreement targets 1e-9, so state must be cleaner than the comparison
NORMALIZATION_TOL = 1e-10


def _integer(value, what: str) -> int:
    """value as a Python int; RangeError unless it is an integer (numpy ints pass)."""
    try:
        return operator.index(value)
    except TypeError:
        raise RangeError(f"{what} must be an integer, got {value!r}") from None


def delta_lattice(total: int) -> list:
    """Reachable population differences {-S, -S+2, ..., S}; length S+1."""
    if total < 0:
        raise RangeError(f"photon total must be non-negative, got {total}")
    return list(range(-total, total + 1, 2))


@dataclass(frozen=True)
class FockPair:
    """Two-mode Fock input |K>|L> parametrized by S = K+L and Delta = K-L."""

    total: int
    delta: int

    def __post_init__(self):
        _integer(self.total, "photon total")
        _integer(self.delta, "delta")
        if self.total < 0:
            raise RangeError(f"photon total must be non-negative, got {self.total}")
        if abs(self.delta) > self.total:
            raise RangeError(
                f"|delta| = {abs(self.delta)} exceeds photon total {self.total}"
            )
        if (self.total - self.delta) % 2 != 0:
            raise ParityMismatch(
                f"total {self.total} and delta {self.delta} differ in parity"
            )

    @classmethod
    def from_modes(cls, mode_a: int, mode_b: int) -> "FockPair":
        """Build from the two mode occupations K and L."""
        if mode_a < 0 or mode_b < 0:
            raise RangeError("mode occupations must be non-negative")
        return cls(mode_a + mode_b, mode_a - mode_b)

    @property
    def mode_a(self) -> int:
        """Occupation K = (S+Delta)/2 of the first input mode."""
        return (self.total + self.delta) // 2

    @property
    def mode_b(self) -> int:
        """Occupation L = (S-Delta)/2 of the second input mode."""
        return (self.total - self.delta) // 2

    def lattice(self) -> list:
        return delta_lattice(self.total)


@dataclass(frozen=True)
class BeamSplitter:
    """Two-mode beam splitter with single-photon reflectivity r.

    The relative phase between reflected and transmitted fields is fixed to
    pi.  Transmissivity is always derived as 1-r, and the mixing angle is
    theta = arcsin(sqrt(r)).  An optional exact rational form of r enables
    exact-rational evaluation downstream.
    """

    reflectivity: float
    rational_form: Fraction | None = None

    def __post_init__(self):
        r = self.reflectivity
        if not (0.0 <= r <= 1.0):
            raise RangeError(f"reflectivity must lie in [0, 1], got {r}")
        if self.rational_form is not None:
            frac = Fraction(self.rational_form)
            object.__setattr__(self, "rational_form", frac)
            if not (0 <= frac <= 1):
                raise RangeError(f"rational reflectivity out of [0, 1]: {frac}")
            if float(frac) != r:
                raise RangeError(
                    f"rational form {frac} does not equal reflectivity {r!r}"
                )

    @classmethod
    def exact(cls, value) -> "BeamSplitter":
        """Beam splitter carrying an exact rational reflectivity.

        Accepts anything Fraction() accepts, e.g. Fraction(1, 2), "9/10",
        or a decimal string such as "0.2".
        """
        frac = Fraction(value)
        if not (0 <= frac <= 1):
            raise RangeError(f"reflectivity must lie in [0, 1], got {value!r}")
        return cls(float(frac), frac)

    @property
    def theta(self) -> float:
        """Mixing angle in radians, r = sin^2(theta); atan2 stays accurate as r -> 1."""
        r = self.reflectivity
        return math.atan2(math.sqrt(r), math.sqrt(1.0 - r))

    def value(self, exact: bool):
        """Reflectivity as Fraction (exact=True) or float."""
        if not exact:
            return self.reflectivity
        if self.rational_form is None:
            raise ModeError(
                "exact-rational evaluation needs a beam splitter built with "
                "a rational reflectivity (BeamSplitter.exact)"
            )
        return self.rational_form


@dataclass(frozen=True)
class NumericMode:
    """Numeric regime: exact rational arithmetic or floating point."""

    kind: str

    def __post_init__(self):
        if self.kind not in ("rational", "float"):
            raise ModeError(f"unknown numeric mode {self.kind!r}")

    @property
    def is_exact(self) -> bool:
        return self.kind == "rational"


FLOAT = NumericMode("float")
RATIONAL = NumericMode("rational")


def _checked(values, what: str) -> np.ndarray:
    """The entries of a probability vector, validated, as a new 1-D array.

    Entries that are all int or Fraction are exact: none is flushed, they
    must sum to exactly 1, and they are kept as they are in an object array.
    Anything else is checked as one float64 array: entries below
    DENORMAL_FLOOR become 0.0, and the rest must be finite and non-negative
    with |sum - 1| <= NORMALIZATION_TOL.
    """
    if all(isinstance(v, (int, Fraction)) for v in values):
        if any(v < 0 for v in values):
            raise RangeError(f"{what} contains negative probabilities")
        if sum(values) != 1:
            raise RangeError(f"{what} does not sum to 1 exactly (got {sum(values)})")
        return np.array(values, dtype=object)
    values = np.asarray(values, dtype=float)
    values = np.where(np.abs(values) < DENORMAL_FLOOR, 0.0, values)
    total = float(values.sum())
    if not math.isfinite(total) or values.min() < 0:
        raise RangeError(f"{what} contains negative or non-finite probabilities")
    if abs(total - 1.0) > NORMALIZATION_TOL:
        raise RangeError(f"{what} sums to {total!r}, outside tolerance {NORMALIZATION_TOL}")
    return values


@dataclass(frozen=True)
class DeltaDistribution:
    """Probability vector over the population-difference lattice of S."""

    total: int
    probs: Tuple[Number, ...]

    def __post_init__(self):
        if self.total < 0:
            raise RangeError("photon total must be non-negative")
        if len(self.probs) != self.total + 1:
            raise LatticeError(
                f"expected {self.total + 1} lattice entries, got {len(self.probs)}"
            )
        object.__setattr__(self, "probs", tuple(_checked(self.probs, "distribution").tolist()))

    def lattice(self) -> list:
        return delta_lattice(self.total)

    def prob(self, delta_out: int):
        """Probability of the outcome Delta_out; zero off the lattice."""
        if abs(delta_out) > self.total or (self.total - delta_out) % 2 != 0:
            return 0
        return self.probs[(delta_out + self.total) // 2]

    def items(self):
        for i, p in enumerate(self.probs):
            yield -self.total + 2 * i, p

    def to_floats(self):
        return [float(p) for p in self.probs]


_COUNT_KEYS = "count keys must be (p, q) pairs of non-negative 64-bit integers"


@dataclass(frozen=True, init=False, eq=False)
class JointCountDistribution:
    """Probability over output count pairs (p, q), held as three 1-D arrays.

    Needed once losses make the total photon number vary; for a lossless
    fixed-S process every supported pair satisfies p + q = S.  Entry i is
    (ps[i], qs[i]) -> probs[i]: int64 counts, and float64 probabilities or,
    in an exact joint, an object array of ints and Fractions.  Built from a
    {(p, q): probability} map or `from_arrays`, both validated in
    `__post_init__`; equal when the entries are, in any order; not hashable.
    """

    ps: np.ndarray
    qs: np.ndarray
    probs: np.ndarray

    def __init__(self, entries: Mapping[Tuple[int, int], Number]):
        try:  # strict zip: keys of unequal length raise ValueError, scalars TypeError
            ps, qs = np.array(list(zip(*entries, strict=True)))
        except (TypeError, ValueError):  # also keys that are not pairs
            raise RangeError(_COUNT_KEYS) from None
        self.__post_init__(ps, qs, list(entries.values()))

    @classmethod
    def from_arrays(cls, ps, qs, probs) -> "JointCountDistribution":
        """The joint of entries (ps[i], qs[i]) -> probs[i], in that order."""
        joint = cls.__new__(cls)
        joint.__post_init__(ps, qs, probs)
        return joint

    def __reduce__(self):
        # rebuilt and validated again from the arrays, not from a cached `entries`
        return self.from_arrays, (self.ps, self.qs, self.probs)

    def __post_init__(self, ps, qs, probs):
        probs = _checked(probs, "joint count distribution")
        ps, qs = np.asarray(ps), np.asarray(qs)
        one_per_entry = ps.shape == qs.shape == probs.shape == (probs.size,)
        if {ps.dtype.kind, qs.dtype.kind} - set("iu") or not one_per_entry:
            raise RangeError(_COUNT_KEYS)
        # int64 copies: uint64 counts of 2**63 and above wrap negative and are rejected
        ps, qs = ps.astype(np.int64), qs.astype(np.int64)
        if min(ps.min(), qs.min()) < 0:
            raise RangeError(_COUNT_KEYS)
        for name, array in (("ps", ps), ("qs", qs), ("probs", probs)):
            array.flags.writeable = False
            object.__setattr__(self, name, array)

    @cached_property
    def entries(self) -> Mapping[Tuple[int, int], Number]:
        """{(p, q): probability} in stored order, as Python numbers; read-only."""
        pairs = zip(self.ps.tolist(), self.qs.tolist())
        return MappingProxyType(dict(zip(pairs, self.probs.tolist())))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.entries == other.entries

    def probability(self, p: int, q: int):
        return self.entries.get((p, q), 0)


def delta_marginal(joint: JointCountDistribution) -> Dict[int, Number]:
    """Marginal over Delta_out = p - q, keyed in increasing order.

    Each Delta_out sums its entries one after another in increasing p (the
    row-major order of the (p, q) grid), whatever order they were given in.
    """
    order = np.argsort(joint.ps, kind="stable")
    keys, bins = np.unique((joint.ps - joint.qs)[order], return_inverse=True)
    sums = np.zeros(keys.size, dtype=joint.probs.dtype)
    np.add.at(sums, bins, joint.probs[order])
    return dict(zip(keys.tolist(), sums.tolist()))
