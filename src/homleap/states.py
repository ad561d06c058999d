"""Core domain types: two-mode Fock inputs, beam splitters, count statistics.

The walker coordinate throughout is the population difference between the
two output ports, Delta_out = p - q.  With S photons in total it lives on
the step-2 lattice {-S, -S+2, ..., S}, so every distribution here is stored
densely over that lattice (zeros included): parity violations then show up
as literal nonzero entries instead of missing keys.

Both value types validate their probabilities once, on construction, in
`_checked`: producers hand over their arrays or lists as they are, a float
array is flushed and checked as one array, and the stored values are tuples
of Python numbers (`probs`) or a read-only mapping (`entries`).
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
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
    def transmissivity(self) -> float:
        return 1.0 - self.reflectivity

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


def _checked(values, what: str) -> tuple:
    """The entries of a probability vector, validated, as a tuple.

    Entries that are all int or Fraction are exact: none is flushed and they
    must sum to exactly 1.  Anything else is checked as one float64 array:
    entries below DENORMAL_FLOOR become 0.0, and the rest must be finite and
    non-negative with |sum - 1| <= NORMALIZATION_TOL.
    """
    if all(isinstance(v, (int, Fraction)) for v in values):
        if any(v < 0 for v in values):
            raise RangeError(f"{what} contains negative probabilities")
        if sum(values) != 1:
            raise RangeError(f"{what} does not sum to 1 exactly (got {sum(values)})")
        return tuple(values)
    values = np.asarray(values, dtype=float)
    values = np.where(np.abs(values) < DENORMAL_FLOOR, 0.0, values)
    total = float(values.sum())
    if not math.isfinite(total) or values.min() < 0:
        raise RangeError(f"{what} contains negative or non-finite probabilities")
    if abs(total - 1.0) > NORMALIZATION_TOL:
        raise RangeError(f"{what} sums to {total!r}, outside tolerance {NORMALIZATION_TOL}")
    return tuple(values.tolist())


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
        object.__setattr__(self, "probs", _checked(self.probs, "distribution"))

    @classmethod
    def from_mapping(cls, total: int, mapping: Mapping[int, Number]) -> "DeltaDistribution":
        """Embed a Delta_out -> probability map onto the dense S-lattice.

        Off-lattice keys may only carry zero mass.
        """
        probs = [0] * (total + 1)
        for delta_out, prob in mapping.items():
            if abs(delta_out) > total or (total - delta_out) % 2 != 0:
                if prob != 0:
                    raise LatticeError(
                        f"nonzero mass {prob!r} at off-lattice position {delta_out}"
                    )
                continue
            probs[(delta_out + total) // 2] = prob
        return cls(total, probs)

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

    def as_dict(self) -> Dict[int, Number]:
        return dict(self.items())

    def to_floats(self):
        return [float(p) for p in self.probs]


@dataclass(frozen=True)
class JointCountDistribution:
    """Probability map over output count pairs (p, q).

    Needed once losses make the total photon number vary; for a lossless
    fixed-S process every supported pair satisfies p + q = S.
    """

    entries: Mapping[Tuple[int, int], Number]

    def __post_init__(self):
        probs = _checked(list(self.entries.values()), "joint count distribution")
        # p and q columns as one integer array (faster to build than rows),
        # stored as Python ints, so no two keys merge and no mass is lost
        keys = list(self.entries)
        try:  # strict zip: keys of unequal length raise ValueError, scalars TypeError
            pairs = np.array(list(zip(*keys, strict=True)))
            integer = pairs.dtype.kind in "iu" and pairs.shape == (2, len(keys))
        except (TypeError, ValueError):
            integer = False
        if not integer or pairs.min() < 0:
            raise RangeError("count keys must be (p, q) pairs of non-negative 64-bit integers")
        ps, qs = pairs.tolist()
        entries = dict(zip(zip(ps, qs), probs))
        object.__setattr__(self, "entries", MappingProxyType(entries))

    def probability(self, p: int, q: int):
        return self.entries.get((p, q), 0)

    def items(self):
        return sorted(self.entries.items())


def delta_marginal(joint: JointCountDistribution) -> Dict[int, Number]:
    """Marginal over Delta_out = p - q, accumulated in deterministic order."""
    out: Dict[int, Number] = {}
    for (p, q), prob in joint.items():
        key = p - q
        out[key] = out.get(key, 0) + prob
    return dict(sorted(out.items()))
