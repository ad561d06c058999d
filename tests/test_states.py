"""Domain-type validation, lattices and marginals."""
import math
from fractions import Fraction

import numpy as np
import pytest

import homleap as hl


class TestFockPair:
    def test_canonical_hom_pair(self):
        pair = hl.FockPair(2, 0)
        assert pair.mode_a == 1 and pair.mode_b == 1

    def test_fig2b_pair(self):
        pair = hl.FockPair(50, -30)
        assert pair.mode_a == 10 and pair.mode_b == 40

    def test_parity_mismatch(self):
        with pytest.raises(hl.ParityMismatch):
            hl.FockPair(3, 0)

    def test_delta_out_of_range(self):
        with pytest.raises(hl.RangeError):
            hl.FockPair(2, 4)

    def test_negative_total(self):
        with pytest.raises(hl.RangeError):
            hl.FockPair(-1, 1)

    @pytest.mark.parametrize(
        "modes, total, delta",
        [((1, 1), 2, 0), ((0, 50), 50, -50), ((5, 5), 10, 0), ((7, 3), 10, 4)],
    )
    def test_from_modes(self, modes, total, delta):
        pair = hl.FockPair.from_modes(*modes)
        assert (pair.total, pair.delta) == (total, delta)

    @pytest.mark.parametrize("total, delta", [(2.5, 0.5), (4.0, 0), (4, 2.0), ("4", 0), (None, 0)])
    def test_non_integer_photon_numbers_rejected(self, total, delta):
        with pytest.raises(hl.RangeError):
            hl.FockPair(total, delta)

    def test_non_integer_modes_rejected(self):
        with pytest.raises(hl.RangeError):
            hl.FockPair.from_modes(1.5, 1.5)

    def test_numpy_integers_pass(self):
        pair = hl.FockPair(np.int64(6), np.int32(-2))
        assert pair == hl.FockPair(6, -2) and hash(pair) == hash(hl.FockPair(6, -2))

    @pytest.mark.parametrize("total", range(0, 13))
    def test_round_trip(self, total):
        for delta in range(-total, total + 1, 2):
            pair = hl.FockPair(total, delta)
            again = hl.FockPair.from_modes(pair.mode_a, pair.mode_b)
            assert again == pair


class TestLattice:
    @pytest.mark.parametrize(
        "total, expected",
        [(0, [0]), (2, [-2, 0, 2]), (5, [-5, -3, -1, 1, 3, 5])],
    )
    def test_examples(self, total, expected):
        assert hl.delta_lattice(total) == expected

    @pytest.mark.parametrize("total", range(0, 40))
    def test_length_and_step(self, total):
        lattice = hl.delta_lattice(total)
        assert len(lattice) == total + 1
        assert all(b - a == 2 for a, b in zip(lattice, lattice[1:]))

    def test_negative_rejected(self):
        with pytest.raises(hl.RangeError):
            hl.delta_lattice(-2)


class TestBeamSplitter:
    def test_theta_and_transmissivity(self):
        bs = hl.BeamSplitter(0.5)
        assert bs.transmissivity == 0.5
        assert math.isclose(math.sin(bs.theta) ** 2, 0.5)

    def test_exact_constructor(self):
        bs = hl.BeamSplitter.exact("9/10")
        assert bs.rational_form == Fraction(9, 10)
        assert bs.reflectivity == float(Fraction(9, 10))

    def test_decimal_string_is_exact(self):
        assert hl.BeamSplitter.exact("0.2").rational_form == Fraction(1, 5)

    def test_out_of_range(self):
        with pytest.raises(hl.RangeError):
            hl.BeamSplitter(1.5)

    def test_mismatched_rational_form(self):
        with pytest.raises(hl.RangeError):
            hl.BeamSplitter(0.5, Fraction(1, 3))

    def test_exact_beyond_float_range(self):
        with pytest.raises(hl.RangeError):
            hl.BeamSplitter.exact("1e400")

    def test_float_value_without_rational_form(self):
        with pytest.raises(hl.ModeError):
            hl.BeamSplitter(0.5).value(exact=True)


class TestNumericMode:
    def test_kinds(self):
        assert hl.RATIONAL.is_exact and not hl.FLOAT.is_exact

    def test_unknown_kind(self):
        with pytest.raises(hl.ModeError):
            hl.NumericMode("decimal")

    def test_rational_requires_rational_beam_splitter(self):
        with pytest.raises(hl.ModeError):
            hl.distribution(hl.FockPair(2, 0), hl.BeamSplitter(0.5), hl.RATIONAL)


class TestDeltaDistribution:
    def test_validates_length(self):
        with pytest.raises(hl.LatticeError):
            hl.DeltaDistribution(2, (0.5, 0.5))

    def test_validates_normalization(self):
        with pytest.raises(hl.RangeError):
            hl.DeltaDistribution(2, (0.5, 0.0, 0.6))

    def test_validates_nonnegativity(self):
        with pytest.raises(hl.RangeError):
            hl.DeltaDistribution(2, (1.5, 0.0, -0.5))

    def test_exact_rational_must_sum_to_one(self):
        with pytest.raises(hl.RangeError):
            hl.DeltaDistribution(2, (Fraction(1, 2), Fraction(0), Fraction(1, 3)))

    def test_denormal_flush(self):
        dist = hl.DeltaDistribution(2, (0.5, 1e-320, 0.5))
        assert dist.probs[1] == 0.0

    def test_prob_off_lattice_is_zero(self):
        dist = hl.DeltaDistribution(2, (0.5, 0.0, 0.5))
        assert dist.prob(1) == 0
        assert dist.prob(4) == 0

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("kind", [tuple, list, np.array])
    def test_non_finite_entries_rejected(self, bad, kind):
        with pytest.raises(hl.RangeError):
            hl.DeltaDistribution(1, kind((bad, bad)))
        with pytest.raises(hl.RangeError):
            hl.DeltaDistribution(2, kind((bad, 0.5, 0.5)))

    @pytest.mark.parametrize("kind", [tuple, list, np.array])
    def test_input_container_does_not_change_probs(self, kind):
        values = (0.25, 0.0, 0.5, 0.25, 1e-320)
        dist = hl.DeltaDistribution(4, kind(values))
        assert dist.probs == (0.25, 0.0, 0.5, 0.25, 0.0)
        assert all(type(p) is float for p in dist.probs)
        assert hash(dist) == hash(hl.DeltaDistribution(4, values))

    def test_exact_object_array_stays_exact(self):
        probs = np.array([Fraction(1, 3), Fraction(0), Fraction(2, 3)], dtype=object)
        dist = hl.DeltaDistribution(2, probs)
        assert dist.probs == (Fraction(1, 3), Fraction(0), Fraction(2, 3))
        assert all(type(p) is Fraction for p in dist.probs)
        with pytest.raises(hl.RangeError):
            hl.DeltaDistribution(1, np.array([Fraction(1, 3), Fraction(1, 3)], dtype=object))

    @pytest.mark.parametrize("denormal", [1e-320, -1e-320])
    def test_denormal_in_array_flushed(self, denormal):
        probs = np.array([0.5, denormal, 0.5])
        dist = hl.DeltaDistribution(2, probs)
        assert dist.probs == (0.5, 0.0, 0.5)
        assert probs[1] == denormal  # the caller's array is left alone


class TestJointAndMarginal:
    def test_point_marginal(self):
        joint = hl.JointCountDistribution({(1, 1): 1.0})
        assert hl.delta_marginal(joint) == {0: 1.0}

    def test_bunching_marginal(self):
        joint = hl.JointCountDistribution({(2, 0): 0.5, (0, 2): 0.5})
        assert hl.delta_marginal(joint) == {-2: 0.5, 2: 0.5}

    def test_lossy_marginal(self):
        joint = hl.JointCountDistribution({(1, 0): 0.3, (0, 0): 0.7})
        assert hl.delta_marginal(joint) == {0: 0.7, 1: 0.3}

    def test_negative_counts_rejected(self):
        with pytest.raises(hl.RangeError):
            hl.JointCountDistribution({(-1, 0): 1.0})

    def test_normalization_enforced(self):
        with pytest.raises(hl.RangeError):
            hl.JointCountDistribution({(1, 0): 0.8})

    @pytest.mark.parametrize(
        "entries",
        [
            {(1.5, 0): 0.5, (1, 0): 0.5},  # int() would merge the keys and drop half the mass
            {(1.0, 0): 1.0},
            {(Fraction(1), 0): 1.0},
            {(1, 0, 0): 1.0},
            {1: 1.0},
            {(1, 0): 0.5, (2,): 0.5},
            {(1, 0, 0): 0.5, (2, 0): 0.5},
        ],
        ids=["merging_float", "integral_float", "fraction", "triple", "scalar", "ragged", "unequal"],
    )
    def test_count_keys_must_be_integer_pairs(self, entries):
        with pytest.raises(hl.RangeError):
            hl.JointCountDistribution(entries)

    def test_numpy_integer_keys_stored_as_python_ints(self):
        joint = hl.JointCountDistribution({(np.int64(1), np.uint8(0)): 0.5, (0, 1): 0.5})
        assert dict(joint.entries) == {(1, 0): 0.5, (0, 1): 0.5}
        assert all(type(n) is int for key in joint.entries for n in key)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_entries_rejected(self, bad):
        with pytest.raises(hl.RangeError):
            hl.JointCountDistribution({(1, 0): bad})
        with pytest.raises(hl.RangeError):
            hl.JointCountDistribution({(1, 0): bad, (0, 1): 0.5, (0, 0): 0.5})

    def test_values_validated_as_one_array(self):
        joint = hl.JointCountDistribution({(1, 0): np.float64(0.5), (0, 1): 0.5, (0, 0): 1e-320})
        assert dict(joint.entries) == {(1, 0): 0.5, (0, 1): 0.5, (0, 0): 0.0}
        assert all(type(p) is float for p in joint.entries.values())

    def test_exact_values_stay_exact(self):
        joint = hl.JointCountDistribution({(1, 0): Fraction(1, 3), (0, 1): Fraction(2, 3)})
        assert all(type(p) is Fraction for p in joint.entries.values())
        with pytest.raises(hl.RangeError):
            hl.JointCountDistribution({(1, 0): Fraction(1, 3), (0, 1): Fraction(1, 3)})

    @pytest.mark.parametrize("total,delta", [(4, 2), (7, -3), (10, 0)])
    def test_lossless_support_satisfies_p_plus_q(self, total, delta):
        pair = hl.FockPair(total, delta)
        joint = hl.amplitude_expansion(pair.mode_a, pair.mode_b, hl.BeamSplitter(0.3))
        assert all(p + q == total for (p, q) in joint.entries)

    def test_marginal_embeds_into_distribution(self):
        joint = hl.amplitude_expansion(3, 1, hl.BeamSplitter(0.42))
        marginal = hl.delta_marginal(joint)
        dist = hl.DeltaDistribution(4, [marginal.get(d, 0) for d in hl.delta_lattice(4)])
        assert math.isclose(sum(dist.to_floats()), 1.0, abs_tol=1e-12)


def test_public_names_resolve_once():
    assert len(hl.__all__) == len(set(hl.__all__))
    for name in hl.__all__:
        assert getattr(hl, name) is not None, name
