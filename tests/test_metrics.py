"""Moment laws, visibility, parity and transfer diagnostics."""
import math
from fractions import Fraction

import numpy as np
import pytest

import homleap as hl


def on_lattice(total, mapping):
    """The distribution on the lattice of total photons holding a {Delta_out: probability} map."""
    return hl.DeltaDistribution(total, [mapping.get(d, 0) for d in hl.delta_lattice(total)])


class TestMoments:
    def test_point_mass(self):
        dist = on_lattice(6, {4: 1.0})
        assert hl.mean_delta(dist) == 4
        assert hl.variance_delta(dist) == 0

    def test_bunched_pair(self):
        dist = on_lattice(2, {-2: 0.5, 2: 0.5})
        assert hl.mean_delta(dist) == 0
        assert hl.variance_delta(dist) == 4

    def test_single_photon_hand_enumeration(self):
        # outcomes +1 with 1-r and -1 with r
        for r in (0.0, 0.3, 0.5, 0.8, 1.0):
            dist = hl.distribution(hl.FockPair(1, 1), hl.BeamSplitter(r))
            assert math.isclose(hl.mean_delta(dist), 1 - 2 * r, abs_tol=1e-14)
            assert math.isclose(hl.variance_delta(dist), 4 * r * (1 - r), abs_tol=1e-14)
            assert math.isclose(hl.predicted_mean(1, 1, r), 1 - 2 * r, abs_tol=0)
            assert math.isclose(hl.predicted_variance(1, 1, r), 4 * r * (1 - r), abs_tol=0)

    def test_two_photon_hand_enumeration(self):
        assert hl.predicted_variance(2, 0, 0.5) == 4.0
        dist = hl.distribution(hl.FockPair(2, 0), hl.BeamSplitter(0.5))
        assert math.isclose(hl.variance_delta(dist), 4.0, abs_tol=1e-14)

    def test_balanced_splitter_centers_any_input(self):
        for delta in (-30, 0, 17):
            assert hl.predicted_mean(50, delta, 0.5) == 0.0
        assert hl.predicted_mean(50, -30, 1.0) == 30.0  # mapped to the far end

    def test_fig2b_moments_match_laws(self):
        pair = hl.FockPair(50, -30)
        bs = hl.BeamSplitter(0.2)
        dist = hl.distribution(pair, bs)
        assert abs(hl.mean_delta(dist) - hl.predicted_mean(50, -30, 0.2)) < 1e-9
        assert abs(hl.variance_delta(dist) - hl.predicted_variance(50, -30, 0.2)) < 1e-9

    def test_exact_moments_with_fractions(self):
        r = Fraction(1, 5)
        dist = hl.distribution(hl.FockPair(6, 2), hl.BeamSplitter.exact(r), hl.RATIONAL)
        assert hl.mean_delta(dist) == hl.predicted_mean(6, 2, r)
        assert hl.variance_delta(dist) == hl.predicted_variance(6, 2, r)

    @pytest.mark.parametrize(
        "total, delta, mean, variance", [(30, -10, -6.0, 275.2), (50, -30, -18.0, 544.0)]
    )
    def test_float_moments_are_correctly_rounded(self, total, delta, mean, variance):
        # fixed vectors, the exact distribution at r = 1/5 rounded entry by entry:
        # fsum gives these bytes on every Python, where the built-in float sum
        # gives -5.999999999999998 and 544.0000000000002 before 3.12
        bs = hl.BeamSplitter.exact("1/5")
        exact = hl.distribution(hl.FockPair(total, delta), bs, hl.RATIONAL)
        rounded = hl.DeltaDistribution(total, [float(p) for p in exact.probs])
        for dist in (rounded, dict(rounded.items())):
            assert hl.mean_delta(dist) == mean
            assert hl.variance_delta(dist) == variance

    def test_variance_maximal_at_half(self):
        values = [hl.predicted_variance(12, 4, r) for r in np.linspace(0, 1, 21)]
        assert max(values) == values[10]

    def test_variance_maximal_at_delta_zero(self):
        values = [hl.predicted_variance(12, d, 0.3) for d in range(-12, 13, 2)]
        assert max(values) == values[6]

    def test_endpoints_freeze(self):
        for r in (0, 1):
            assert hl.predicted_variance(9, 3, r) == 0

    @pytest.mark.parametrize("r", [5.0, -1, 1.5, math.nan, -math.inf, Fraction(11, 10)])
    def test_laws_reject_reflectivity_outside_unit_interval(self, r):
        with pytest.raises(hl.RangeError):
            hl.predicted_mean(2, 0, r)
        with pytest.raises(hl.RangeError):
            hl.predicted_variance(2, 0, r)


class TestVisibility:
    def test_equal_fives_at_half(self):
        report = hl.visibility_fock(5, 5, Fraction(1, 2))
        assert report.value == Fraction(5, 9)
        assert report.nonclassical

    def test_equal_fock_formula(self):
        for n in range(1, 30):
            report = hl.visibility_fock(n, n, Fraction(1, 2))
            assert report.value == Fraction(1, 1) / (2 - Fraction(1, n))
            assert report.nonclassical

    def test_two_single_photons_reach_unity(self):
        report = hl.visibility_fock(1, 1, 0.5)
        assert report.value == 1.0
        assert report.nonclassical

    def test_frozen_region_boundary_point(self):
        # frozen: exact value is 1440/4997, well below the 1/2 threshold
        report = hl.visibility_fock(10, 2, Fraction(9, 25))
        assert report.value == Fraction(1440, 4997)
        assert not report.nonclassical
        assert math.isclose(
            hl.visibility_fock(10, 2, 0.36).value, 0.28817290374224536, abs_tol=1e-13
        )

    def test_degenerate_cases(self):
        with pytest.raises(hl.DegenerateError):
            hl.visibility_fock(0, 0, 0.5)
        with pytest.raises(hl.DegenerateError):
            hl.visibility_fock(1, 0, 0.5)

    def test_vacuum_against_two_photons_is_classical(self):
        report = hl.visibility_fock(2, 0, 0.5)
        assert report.value == 0
        assert not report.nonclassical

    def test_swap_and_reflectivity_symmetry(self):
        a = hl.visibility_fock(7, 3, 0.3).value
        assert hl.visibility_fock(3, 7, 0.3).value == a
        assert math.isclose(hl.visibility_fock(7, 3, 0.7).value, a, abs_tol=1e-15)

    def test_moment_reduction(self):
        n, m, r = 6, 4, 0.4
        general = hl.visibility_from_moments(n * m, n * (n - 1), m * (m - 1), r)
        fock = hl.visibility_fock(n, m, r)
        assert general.value == fock.value

    def test_scale_invariance_exact(self):
        base = hl.visibility_from_moments(Fraction(15), Fraction(20), Fraction(6), Fraction(2, 5))
        for c in (Fraction(1, 4), Fraction(7, 11), Fraction(100)):
            scaled = hl.visibility_from_moments(15 * c, 20 * c, 6 * c, Fraction(2, 5))
            assert scaled.value == base.value

    def test_zero_cross_correlation(self):
        report = hl.visibility_from_moments(0, 6, 2, 0.3)
        assert report.value == 0

    def test_report_consistency_enforced(self):
        with pytest.raises(hl.RangeError):
            hl.VisibilityReport(0.7, False)

    @pytest.mark.parametrize("r", [0.5, Fraction(1, 2)])
    def test_exactly_one_half_is_classical(self, r):
        # at r = 1/2, <:na^2:> + <:nb^2:> = 2 <:na nb:> gives V = 1/2 exactly
        report = hl.visibility_from_moments(1, 1, 1, r)
        assert report.value == Fraction(1, 2) and type(report.value) is type(r)
        assert not report.nonclassical
        with pytest.raises(hl.RangeError):
            hl.VisibilityReport(report.value, True)

    @pytest.mark.parametrize(
        "r,g_bb,above",
        [
            (0.5, 1 - 2.0**-50, math.nextafter(0.5, 1.0)),
            (Fraction(1, 2), 1 - Fraction(1, 10**30), Fraction(2 * 10**30, 4 * 10**30 - 1)),
        ],
    )
    def test_just_above_one_half_is_nonclassical(self, r, g_bb, above):
        report = hl.visibility_from_moments(1, 1, g_bb, r)
        assert report.value == above and report.nonclassical
        with pytest.raises(hl.RangeError):
            hl.VisibilityReport(above, False)

    @pytest.mark.parametrize("r", [1.5, -0.25, math.nan, math.inf, Fraction(-1, 3)])
    def test_reflectivity_outside_unit_interval_rejected(self, r):
        with pytest.raises(hl.RangeError):
            hl.visibility_fock(2, 2, r)
        with pytest.raises(hl.RangeError):
            hl.visibility_from_moments(1, 1, 1, r)
        with pytest.raises(hl.RangeError):
            hl.nonclassical_mask(3, 3, r)

    def test_mask_nesting_and_diagonal_prefix(self):
        masks = {r: hl.nonclassical_mask(50, 50, r) for r in (0.36, 0.39, 0.43, 0.45, 0.5)}
        order = [0.36, 0.39, 0.43, 0.45, 0.5]  # increasing r(1-r)
        for small, large in zip(order, order[1:]):
            assert all(masks[large][cell] for cell in masks[small] if masks[small][cell])
        for r, mask in masks.items():
            diagonal = [mask[(n, n)] for n in range(1, 51)]
            # once the diagonal turns classical it stays classical
            if False in diagonal:
                first = diagonal.index(False)
                assert not any(diagonal[first:])
        assert all(masks[0.5][(n, n)] for n in range(1, 51))


class TestParityAndDistance:
    def test_lossless_distribution_is_clean(self):
        dist = hl.distribution(hl.FockPair(8, 2), hl.BeamSplitter(0.3))
        assert hl.parity_violation(dist) == 0

    def test_point_mass_is_clean(self):
        assert hl.parity_violation(on_lattice(4, {2: 1.0})) == 0

    def test_thinning_breaks_the_comb(self):
        joint = hl.amplitude_expansion(1, 1, hl.BeamSplitter(0.5))
        lossy = hl.apply_detector_loss(joint, hl.Detector(efficiency=0.8))
        violation = hl.parity_violation(hl.delta_marginal(lossy), 2)
        assert violation > 0.1

    def test_plain_marginal_needs_total(self):
        with pytest.raises(hl.RangeError):
            hl.parity_violation({0: 1.0})

    def test_tv_identical(self):
        dist = hl.distribution(hl.FockPair(6, 0), hl.BeamSplitter(0.4))
        assert hl.tv_distance(dist, dist) == 0

    def test_tv_disjoint_point_masses(self):
        a = on_lattice(2, {2: 1.0})
        b = on_lattice(2, {-2: 1.0})
        assert hl.tv_distance(a, b) == 1

    def test_transfer_fidelity_at_full_reflection(self):
        for total, delta in ((5, 3), (12, -8), (3, 3)):
            dist = hl.distribution(hl.FockPair(total, delta), hl.BeamSplitter.exact(1), hl.RATIONAL)
            assert hl.transfer_fidelity(dist, delta) == 1
            assert hl.parity_violation(dist) == 0

    def test_classical_reference_tv(self):
        pair = hl.FockPair.from_modes(25, 25)
        bs = hl.BeamSplitter(0.5)
        hot = hl.decohere_distribution(pair, hl.DistinguishabilityAngle(math.pi / 2), bs)
        assert hl.tv_distance(hot, hl.classical_reference(pair, bs)) < 1e-12
