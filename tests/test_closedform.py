"""Closed-form distribution against pinned values and the evolution oracle."""
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import homleap as hl

HALF = hl.BeamSplitter.exact(Fraction(1, 2))


class TestPinnedValues:
    def test_hom_coincidence_vanishes(self):
        pair = hl.FockPair(2, 0)
        assert hl.prob_delta_out(pair, HALF, 0, hl.RATIONAL) == 0
        assert hl.prob_delta_out(pair, hl.BeamSplitter(0.5), 0) == 0.0

    def test_hom_bunching_distribution(self):
        dist = hl.distribution(hl.FockPair(2, 0), HALF, hl.RATIONAL)
        assert dict(dist.items()) == {-2: Fraction(1, 2), 0: 0, 2: Fraction(1, 2)}

    @pytest.mark.parametrize("total,delta", [(2, 0), (5, 3), (10, -4), (7, 7)])
    def test_r_zero_is_identity(self, total, delta):
        pair = hl.FockPair(total, delta)
        assert hl.prob_delta_out(pair, hl.BeamSplitter.exact(0), delta, hl.RATIONAL) == 1
        dist = hl.distribution(pair, hl.BeamSplitter(0.0))
        assert dist.prob(delta) == 1.0

    @pytest.mark.parametrize("total,delta", [(2, 0), (5, 3), (10, -4), (7, 7)])
    def test_r_one_is_mirror(self, total, delta):
        pair = hl.FockPair(total, delta)
        dist = hl.distribution(pair, hl.BeamSplitter.exact(1), hl.RATIONAL)
        assert dist.prob(-delta) == 1

    def test_pair_3_1_fifth_reflectivity(self):
        # frozen from the tridiagonal-exponential oracle; exact rationals
        dist = hl.distribution(hl.FockPair(3, 1), hl.BeamSplitter.exact("1/5"), hl.RATIONAL)
        assert dict(dist.items()) == {
            -3: Fraction(12, 125),
            -1: Fraction(49, 125),
            1: Fraction(16, 125),
            3: Fraction(48, 125),
        }

    def test_prob_delta_out_single_value(self):
        value = hl.prob_delta_out(
            hl.FockPair(3, 1), hl.BeamSplitter.exact("1/5"), -1, hl.RATIONAL
        )
        assert value == Fraction(49, 125)

    def test_off_lattice_rejected(self):
        pair = hl.FockPair(3, 1)
        with pytest.raises(hl.LatticeError):
            hl.prob_delta_out(pair, HALF, 0)
        with pytest.raises(hl.LatticeError):
            hl.prob_delta_out(pair, HALF, 5)


class TestAmplitudeExpansion:
    @pytest.mark.parametrize("r", [0.0, 0.17, 0.5, 0.83, 1.0])
    def test_single_photon_reflectivity(self, r):
        joint = hl.amplitude_expansion(1, 0, hl.BeamSplitter(r))
        assert math.isclose(joint.probability(1, 0), 1 - r, abs_tol=1e-15)
        assert math.isclose(joint.probability(0, 1), r, abs_tol=1e-15)

    def test_hom_bunching_joint(self):
        joint = hl.amplitude_expansion(1, 1, HALF, hl.RATIONAL)
        assert joint.probability(2, 0) == Fraction(1, 2)
        assert joint.probability(0, 2) == Fraction(1, 2)
        assert joint.probability(1, 1) == 0

    def test_k2_l1_joint_table(self):
        # frozen from the S=3 matrix-exponential oracle
        joint = hl.amplitude_expansion(2, 1, hl.BeamSplitter.exact("0.3"), hl.RATIONAL)
        assert joint.probability(0, 3) == Fraction(189, 1000)
        assert joint.probability(1, 2) == Fraction(363, 1000)
        assert joint.probability(2, 1) == Fraction(7, 1000)
        assert joint.probability(3, 0) == Fraction(441, 1000)

    @pytest.mark.parametrize("total", [0, 1, 4, 9, 14])
    def test_endpoint_binomial(self, total):
        # vacuum against |S>: each photon splits independently with a = r
        r = Fraction(3, 10)
        joint = hl.amplitude_expansion(0, total, hl.BeamSplitter.exact(r), hl.RATIONAL)
        for p in range(total + 1):
            expected = math.comb(total, p) * r**p * (1 - r) ** (total - p)
            assert joint.probability(p, total - p) == expected

    def test_occupations_are_checked(self):
        bs = hl.BeamSplitter(0.3)
        with pytest.raises(hl.RangeError):
            hl.amplitude_expansion(1.5, 0.5, bs)
        with pytest.raises(hl.LatticeError):
            hl.amplitude_expansion(-1, 2, bs)

    @pytest.mark.parametrize("cap_k, cap_l", [(2, 1), (9, 8)], ids=["sum", "kernel"])
    @pytest.mark.parametrize("mode", [hl.FLOAT, hl.RATIONAL], ids=["float", "exact"])
    def test_numpy_occupations(self, cap_k, cap_l, mode):
        bs = hl.BeamSplitter.exact("3/10")
        got = hl.amplitude_expansion(np.int64(cap_k), np.int32(cap_l), bs, mode)
        assert got == hl.amplitude_expansion(cap_k, cap_l, bs, mode)

    def test_exact_equals_closed_form(self):
        for total in range(0, 11):
            for r in (Fraction(1, 10), Fraction(1, 2), Fraction(9, 10)):
                bs = hl.BeamSplitter.exact(r)
                for delta in range(-total, total + 1, 2):
                    pair = hl.FockPair(total, delta)
                    closed = hl.distribution(pair, bs, hl.RATIONAL)
                    marginal = hl.delta_marginal(
                        hl.amplitude_expansion(pair.mode_a, pair.mode_b, bs, hl.RATIONAL)
                    )
                    for delta_out in pair.lattice():
                        assert closed.prob(delta_out) == marginal.get(delta_out, 0)


class TestInvariants:
    @pytest.mark.parametrize("r", [0.0, 0.1, 0.2, 0.5, 0.9, 1.0])
    @pytest.mark.parametrize("total", [0, 1, 2, 7, 16, 25, 31, 45, 60])
    def test_normalization(self, total, r):
        bs = hl.BeamSplitter(r)
        for delta in range(-total, total + 1, 2):
            dist = hl.distribution(hl.FockPair(total, delta), bs)
            assert abs(math.fsum(dist.to_floats()) - 1.0) < 1e-10

    @pytest.mark.parametrize("total,delta", [(6, 2), (9, -3), (13, 7), (40, -12)])
    @pytest.mark.parametrize("r", [0.2, 0.5, 0.77])
    def test_mirror_symmetry(self, total, delta, r):
        bs = hl.BeamSplitter(r)
        direct = hl.distribution(hl.FockPair(total, delta), bs)
        mirrored = hl.distribution(hl.FockPair(total, -delta), bs)
        for delta_out in direct.lattice():
            assert math.isclose(
                direct.prob(delta_out), mirrored.prob(-delta_out), abs_tol=1e-12
            )

    def test_mirror_symmetry_exact(self):
        bs = hl.BeamSplitter.exact("1/5")
        direct = hl.distribution(hl.FockPair(8, 4), bs, hl.RATIONAL)
        mirrored = hl.distribution(hl.FockPair(8, -4), bs, hl.RATIONAL)
        for delta_out in direct.lattice():
            assert direct.prob(delta_out) == mirrored.prob(-delta_out)

    @pytest.mark.parametrize("total", [33, 50])
    def test_large_s_float_path_matches_oracle(self, total):
        # above the direct-evaluation limit the float path rides the Wigner
        # recurrence; it must stay glued to the eigendecomposition route
        bs = hl.BeamSplitter(0.37)
        for delta in (0, -total // 2, total):
            if (total - delta) % 2:
                delta += 1
            pair = hl.FockPair(total, delta)
            stable = hl.distribution(pair, bs).to_floats()
            evolved = hl.evolved_distribution(pair, bs).to_floats()
            assert max(abs(a - b) for a, b in zip(stable, evolved)) < 1e-12

    def test_direct_float_path_matches_exact(self):
        # S <= 30 keeps the literal alternating sum; compare to rationals
        worst = 0.0
        for total in (18, 27, 30):
            for r in (Fraction(1, 10), Fraction(9, 10)):
                bs = hl.BeamSplitter.exact(r)
                for delta in (0, total if total % 2 == 0 else total - 1):
                    pair = hl.FockPair(total, delta if (total - delta) % 2 == 0 else delta - 1)
                    exact = hl.distribution(pair, bs, hl.RATIONAL)
                    approx = hl.distribution(pair, hl.BeamSplitter(float(r)))
                    for delta_out in pair.lattice():
                        worst = max(worst, abs(float(exact.prob(delta_out)) - approx.prob(delta_out)))
        assert worst < 1e-11


def exact_gap(pair, r):
    """Largest |float - exact rational| over the lattice at the float r."""
    exact = hl.distribution(pair, hl.BeamSplitter.exact(Fraction(r)), hl.RATIONAL)
    approx = hl.distribution(pair, hl.BeamSplitter(r))
    return max(abs(float(e) - a) for e, a in zip(exact.probs, approx.probs))


class TestFloatKernel:
    # (S, Delta, r): extreme reflectivities and columns concentrated at an edge
    DEFECT_ROWS = [
        (30, 0, 1e-22),
        (30, -30, 1 - 1e-6),
        (10, 4, 1e-104),
        (80, -80, 0.01),
        (200, -200, 0.1),
        (200, 200, 0.9),
        (500, 500, 0.5),
        (1000, -1000, 0.05),
    ]

    @pytest.mark.parametrize("total,delta,r", DEFECT_ROWS)
    def test_defect_rows(self, total, delta, r):
        pair = hl.FockPair(total, delta)
        if total <= 200:
            assert exact_gap(pair, r) < 1e-13
        else:
            got = hl.distribution(pair, hl.BeamSplitter(r)).probs
            evolved = hl.evolved_distribution(pair, hl.BeamSplitter(r)).probs
            assert max(abs(a - b) for a, b in zip(got, evolved)) < 1e-13

    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(
        st.integers(0, 120),
        st.floats(0, 1),
        st.sampled_from(["toward 0", "middle", "toward 1"]),
        st.floats(0, 1),
    )
    @example(120, 0.5, "toward 0", 1.0)
    @example(120, 0.25, "toward 1", 1.0)
    def test_matches_exact_drawn(self, total, where, side, depth):
        # r log-uniform down to 1e-100, 1 - r log-uniform down to 1e-15
        r = {
            "toward 0": 10.0 ** (-100 * depth),
            "middle": depth,
            "toward 1": 1.0 - 10.0 ** (-15 * depth),
        }[side]
        pair = hl.FockPair(total, -total + 2 * round(where * total))
        assert exact_gap(pair, r) < 1e-13

    @pytest.mark.parametrize("side", [0, 1])
    @pytest.mark.parametrize("r", [1e-300, 0.3, 1 - 2**-52])
    def test_seam_sides_match_exact(self, side, r):
        # the last S of the alternating sum and the first of the eigenvector
        total = hl.closedform.DIRECT_FLOAT_LIMIT + side
        for delta in range(-total, total + 1, 2):
            assert exact_gap(hl.FockPair(total, delta), r) < 1e-13

    def test_point_query_is_the_distribution_entry(self):
        for total in (5, 40):
            pair, bs = hl.FockPair(total, total - 4), hl.BeamSplitter(0.123)
            dist = hl.distribution(pair, bs)
            for delta_out in pair.lattice():
                assert hl.prob_delta_out(pair, bs, delta_out) == dist.prob(delta_out)
