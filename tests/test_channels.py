"""Distinguishability, mixed sources, detector loss and the purity solver."""
import math
import random
from fractions import Fraction
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import homleap as hl
from fourmode import four_mode_delta_marginal


def max_abs_gap(got, exact):
    """Largest |float - exact| over the union of two count maps."""
    keys = set(got.entries) | set(exact.entries)
    return max(abs(got.probability(*key) - float(exact.probability(*key))) for key in keys)


def literal_thinning(joint, eff):
    """Binomial thinning summed term by term over every kept count pair."""
    out = {}
    for (p, q), prob in joint.entries.items():
        for i in range(p + 1):
            for j in range(q + 1):
                thin = comb(p, i) * eff**i * (1 - eff) ** (p - i)
                thin *= comb(q, j) * eff**j * (1 - eff) ** (q - j)
                out[(i, j)] = out.get((i, j), 0) + prob * thin
    return out


class TestDecoherence:
    @pytest.mark.parametrize("total", range(0, 21))
    @pytest.mark.parametrize("r", ["1/10", "1/2"])
    def test_y_zero_equals_pure_exactly(self, total, r):
        bs = hl.BeamSplitter.exact(r)
        for n_b in range(total + 1):
            pair = hl.FockPair.from_modes(total - n_b, n_b)
            cold = hl.decohere_distribution(
                pair, hl.DistinguishabilityAngle(0.0), bs, hl.RATIONAL
            )
            pure = hl.distribution(pair, bs, hl.RATIONAL)
            assert cold.probs == pure.probs

    @pytest.mark.parametrize("total,n_b,r", [(6, 3, 0.5), (50, 25, 0.5), (12, 4, 0.3)])
    def test_y_half_pi_equals_classical_reference(self, total, n_b, r):
        bs = hl.BeamSplitter(r)
        pair = hl.FockPair.from_modes(total - n_b, n_b)
        hot = hl.decohere_distribution(pair, hl.DistinguishabilityAngle(math.pi / 2), bs)
        assert hl.tv_distance(hot, hl.classical_reference(pair, bs)) < 1e-12

    @pytest.mark.parametrize(
        "total,n_b,y,r,beam",
        [
            (2, 1, 0.4, 0.5, "a"),
            (4, 2, 1.1, 0.25, "a"),
            (5, 1, 1.0, 0.7, "b"),
            (6, 3, math.pi / 6, 0.5, "a"),
            (6, 2, 0.4, 0.3, "a"),
            (6, 5, 0.9, 0.62, "b"),
            (7, 0, 0.7, 0.45, "a"),
            (7, 7, 1.2, 0.15, "b"),
            (5, 2, 0.0, 0.3, "a"),
            (5, 3, math.pi / 2, 0.8, "b"),
        ],
    )
    def test_matches_four_mode_evolution(self, total, n_b, y, r, beam):
        # the reference rotates the named beam; the package always decomposes
        # the first, and only the relative polarization matters
        theta = math.asin(math.sqrt(r))
        reference = four_mode_delta_marginal(total, n_b, y, theta, beam)
        pair = hl.FockPair.from_modes(total - n_b, n_b)
        got = hl.decohere_distribution(pair, hl.DistinguishabilityAngle(y), hl.BeamSplitter(r))
        worst = max(abs(reference.get(d, 0.0) - got.prob(d)) for d in range(-total, total + 1))
        assert worst < 1e-14

    @pytest.mark.parametrize("total,n_b", [(1, 0), (6, 3), (9, 2), (12, 12)])
    @pytest.mark.parametrize("r", ["1/10", "1/2", "7/10"])
    @pytest.mark.parametrize("beam", ["a", "b"])
    def test_float_endpoints_match_exact(self, total, n_b, r, beam):
        # y = 0 is the pure process; y = pi/2 two independent binomial splittings.
        # beam names the input holding total - n_b photons, so the decomposed
        # first beam is the larger one for "a" and the smaller one for "b"
        exact_bs = hl.BeamSplitter.exact(r)
        modes = (total - n_b, n_b) if beam == "a" else (n_b, total - n_b)
        pair = hl.FockPair.from_modes(*modes)
        r, cap_k, cap_l = Fraction(r), pair.mode_a, pair.mode_b
        classical = [Fraction(0)] * (total + 1)
        for i in range(cap_k + 1):
            for j in range(cap_l + 1):
                classical[i + j] += (
                    comb(cap_k, i) * (1 - r) ** i * r ** (cap_k - i)
                    * comb(cap_l, j) * r**j * (1 - r) ** (cap_l - j)
                )
        pure = hl.distribution(pair, exact_bs, hl.RATIONAL).probs
        for y, exact in ((0.0, pure), (math.pi / 2, classical)):
            got = hl.decohere_distribution(pair, hl.DistinguishabilityAngle(y), exact_bs)
            assert max(abs(g - float(e)) for g, e in zip(got.probs, exact)) < 1e-14

    def test_swapping_the_beams_mirrors_the_output(self):
        # P_{K,L}(Delta) = P_{L,K}(-Delta): the swapped run decomposes the other
        # beam, so this checks the single path above the S = 12 seam
        rng = random.Random(20261018)
        worst = 0.0
        for _ in range(40):
            cap_k, cap_l = rng.randint(0, 40), rng.randint(0, 40)
            if cap_k + cap_l <= 12:
                cap_l += 13
            angle = hl.DistinguishabilityAngle(rng.uniform(0.0, math.pi / 2))
            bs = hl.BeamSplitter(rng.uniform(0.01, 0.99))
            got = hl.decohere_distribution(hl.FockPair.from_modes(cap_k, cap_l), angle, bs)
            swapped = hl.decohere_distribution(hl.FockPair.from_modes(cap_l, cap_k), angle, bs)
            worst = max(worst, max(abs(g - s) for g, s in zip(got.probs, swapped.probs[::-1])))
        assert worst < 1e-14

    def test_intermediate_angle_moves_peaks_inward(self):
        # the double peak drifts toward the center as y grows
        pair = hl.FockPair.from_modes(25, 25)
        bs = hl.BeamSplitter(0.5)
        peaks = []
        for y in (math.pi / 24, math.pi / 6, math.pi / 3, math.pi / 2):
            dist = hl.decohere_distribution(pair, hl.DistinguishabilityAngle(y), bs)
            probs = dist.to_floats()
            peaks.append(abs(dist.lattice()[probs.index(max(probs))]))
        assert peaks[0] == 50
        assert peaks == sorted(peaks, reverse=True)
        assert peaks[-1] == 0

    def test_angle_bounds(self):
        with pytest.raises(hl.RangeError):
            hl.DistinguishabilityAngle(-0.1)
        with pytest.raises(hl.RangeError):
            hl.DistinguishabilityAngle(2.0)

    def test_angle_endpoint_snap(self):
        # hand-rounded pi/2 means exactly pi/2
        assert hl.DistinguishabilityAngle(1.5708).y == math.pi / 2
        assert hl.DistinguishabilityAngle(-1e-9).y == 0.0

    @pytest.mark.parametrize(
        "y", [Fraction("1e400"), -Fraction("1e400"), math.nan, math.inf, 1.5709 + 1e-4, -1e-4]
    )
    def test_angle_checked_before_conversion(self, y):
        # a huge Fraction is out of range, not a float overflow
        with pytest.raises(hl.RangeError):
            hl.DistinguishabilityAngle(y)

    def test_rational_angle_snaps_like_its_float(self):
        assert hl.DistinguishabilityAngle(Fraction(15708, 10000)).y == math.pi / 2
        assert hl.DistinguishabilityAngle(Fraction(-1, 10**9)).y == 0.0
        assert hl.DistinguishabilityAngle(Fraction(3, 10)).y == 0.3

    def test_normalization_preserved(self):
        for y in (0.2, 0.7, 1.3):
            dist = hl.decohere_distribution(
                hl.FockPair.from_modes(6, 4), hl.DistinguishabilityAngle(y), hl.BeamSplitter(0.4)
            )
            assert abs(math.fsum(dist.to_floats()) - 1.0) < 1e-12


MIXED_CASES = [
    # K, L, eta_a, eta_b, r
    (3, 3, "4/5", "4/5", "1/2"),  # equal eta: one lossless expansion
    (6, 4, "9/10", "1/3", "2/5"),  # unequal, second source lower
    (2, 5, "1/4", "7/8", "1/10"),  # unequal, first source lower
    (6, 6, "2/3", "3/4", "9/10"),
    (0, 5, "1/3", "3/4", "1/2"),  # a vacuum source's eta is ignored
    (4, 0, "5/6", "0", "3/10"),
    (5, 6, "0", "2/3", "7/10"),  # one source lost entirely
    (3, 2, "0", "0", "1/2"),  # everything lost
    (6, 6, "1", "1", "1/2"),  # lossless
    (4, 3, "1", "3/5", "1/5"),
    (0, 0, "1/2", "1/2", "1/2"),  # two vacua
]


class TestMixedSources:
    @pytest.mark.parametrize("cap_k,cap_l,eta_a,eta_b,r", MIXED_CASES)
    def test_float_algebra_matches_exact_double_sum(self, cap_k, cap_l, eta_a, eta_b, r):
        src_a = hl.MixedFockSource(cap_k, Fraction(eta_a))
        src_b = hl.MixedFockSource(cap_l, Fraction(eta_b))
        bs = hl.BeamSplitter.exact(r)
        exact = hl.mixed_distribution(src_a, src_b, bs, hl.RATIONAL)
        got = hl.mixed_distribution(src_a, src_b, bs)
        assert set(got.entries) == set(exact.entries)
        assert max_abs_gap(got, exact) < 1e-14

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(
        st.integers(0, 6),
        st.integers(0, 6),
        st.fractions(0, 1, max_denominator=30),
        st.fractions(0, 1, max_denominator=30),
        st.fractions(0, 1, max_denominator=30),
    )
    def test_float_algebra_matches_exact_double_sum_drawn(self, cap_k, cap_l, eta_a, eta_b, r):
        src_a, src_b = hl.MixedFockSource(cap_k, eta_a), hl.MixedFockSource(cap_l, eta_b)
        bs = hl.BeamSplitter.exact(r)
        exact = hl.mixed_distribution(src_a, src_b, bs, hl.RATIONAL)
        assert max_abs_gap(hl.mixed_distribution(src_a, src_b, bs), exact) < 1e-14

    def test_pure_limit(self):
        bs = hl.BeamSplitter(0.37)
        joint = hl.mixed_distribution(
            hl.MixedFockSource(3, 1.0), hl.MixedFockSource(2, 1.0), bs
        )
        direct = hl.amplitude_expansion(3, 2, bs)
        for key, prob in direct.entries.items():
            assert math.isclose(joint.probability(*key), prob, abs_tol=1e-14)

    def test_hand_enumerated_table(self):
        # K=L=1, eta=1/2, r=1/2: four equally weighted input cases
        bs = hl.BeamSplitter.exact(Fraction(1, 2))
        joint = hl.mixed_distribution(
            hl.MixedFockSource(1, Fraction(1, 2)),
            hl.MixedFockSource(1, Fraction(1, 2)),
            bs,
            hl.RATIONAL,
        )
        expected = {
            (0, 0): Fraction(1, 4),
            (1, 0): Fraction(1, 4),
            (0, 1): Fraction(1, 4),
            (2, 0): Fraction(1, 8),
            (0, 2): Fraction(1, 8),
            (1, 1): 0,
        }
        for key, prob in expected.items():
            assert joint.probability(*key) == prob

    @pytest.mark.parametrize(
        "eta", [Fraction("1e400"), Fraction("-1e400"), 10**400], ids=["1e400", "-1e400", "int"]
    )
    def test_eta_beyond_float_range(self, eta):
        with pytest.raises(hl.RangeError):
            hl.MixedFockSource(3, eta)

    def test_weights_sum_to_one(self):
        for nominal, eta in ((5, 0.9), (10, 0.3), (0, 0.5)):
            src = hl.MixedFockSource(nominal, eta)
            assert math.isclose(math.fsum(src.weights()), 1.0, abs_tol=1e-14)

    @pytest.mark.parametrize(
        "weights,p",
        [
            (lambda: hl.MixedFockSource(1100, 0.5).weights(), 0.5),
            (lambda: hl.DistinguishabilityAngle(0.3).weights(1100), math.cos(0.3) ** 2),
        ],
        ids=["mixed_source", "distinguishability"],
    )
    def test_weights_above_float_comb_range(self, weights, p):
        # C(1100, k) does not fit a float; the weights must not need it
        mpmath = pytest.importorskip("mpmath")
        got = weights()
        with mpmath.workdps(40):
            n, p = 1100, mpmath.mpf(p)
            pmf = [
                mpmath.exp(
                    mpmath.loggamma(n + 1) - mpmath.loggamma(k + 1) - mpmath.loggamma(n - k + 1)
                    + k * mpmath.log(p) + (n - k) * mpmath.log(1 - p)
                )
                for k in range(n + 1)
            ]
            assert max(abs(w - float(ref)) for w, ref in zip(got, pmf)) < 1e-15
        assert abs(math.fsum(got) - 1.0) < 1e-15

    def test_eta_one_weights_concentrate_on_nominal(self):
        weights = hl.MixedFockSource(4, 1.0).weights()
        assert weights[-1] == 1.0 and sum(weights[:-1]) == 0

    def test_normalization_through_channel(self):
        joint = hl.mixed_distribution(
            hl.MixedFockSource(5, 0.8), hl.MixedFockSource(5, 0.8), hl.BeamSplitter(0.5)
        )
        assert abs(math.fsum(joint.entries.values()) - 1.0) < 1e-12

    def test_odd_mass_appears(self):
        joint = hl.mixed_distribution(
            hl.MixedFockSource(5, 0.8), hl.MixedFockSource(5, 0.8), hl.BeamSplitter(0.5)
        )
        marginal = hl.delta_marginal(joint)
        assert hl.parity_violation(marginal, 10) > 0


class TestDetectorLoss:
    def test_identity_detector(self):
        joint = hl.amplitude_expansion(2, 1, hl.BeamSplitter(0.3))
        assert hl.apply_detector_loss(joint, hl.Detector()) is joint

    def test_single_photon_thinning(self):
        joint = hl.JointCountDistribution({(1, 0): 1.0})
        lossy = hl.apply_detector_loss(joint, hl.Detector(efficiency=0.8))
        assert math.isclose(lossy.probability(1, 0), 0.8, abs_tol=1e-15)
        assert math.isclose(lossy.probability(0, 0), 0.2, abs_tol=1e-15)

    def test_two_photon_thinning(self):
        joint = hl.JointCountDistribution({(2, 0): 1.0})
        lossy = hl.apply_detector_loss(joint, hl.Detector(efficiency=0.9))
        assert math.isclose(lossy.probability(2, 0), 0.81, abs_tol=1e-15)
        assert math.isclose(lossy.probability(1, 0), 0.18, abs_tol=1e-15)
        assert math.isclose(lossy.probability(0, 0), 0.01, abs_tol=1e-15)

    def test_normalization_preserved(self):
        joint = hl.amplitude_expansion(5, 5, hl.BeamSplitter(0.5))
        lossy = hl.apply_detector_loss(joint, hl.Detector(efficiency=0.73))
        assert abs(math.fsum(lossy.entries.values()) - 1.0) < 1e-12

    @pytest.mark.parametrize(
        "start,table",
        [
            # hand-computed thinning at efficiency e
            ({(1, 0): 1}, lambda e: {(1, 0): e, (0, 0): 1 - e}),
            (
                {(2, 0): 1},
                lambda e: {(2, 0): e * e, (1, 0): 2 * e * (1 - e), (0, 0): (1 - e) ** 2},
            ),
            (
                {(1, 1): 1},
                lambda e: {
                    (1, 1): e * e,
                    (1, 0): e * (1 - e),
                    (0, 1): e * (1 - e),
                    (0, 0): (1 - e) ** 2,
                },
            ),
        ],
    )
    @pytest.mark.parametrize("eff_1,eff_2", [("9/10", "9/10"), ("4/5", "1/3"), ("1/2", "7/10")])
    def test_two_losses_compose_to_their_product(self, start, table, eff_1, eff_2):
        eff_1, eff_2 = Fraction(eff_1), Fraction(eff_2)
        expected = table(eff_1 * eff_2)
        # exact entries and efficiencies stay exact
        exact = hl.JointCountDistribution(start)
        for eff in (eff_1, eff_2):
            exact = hl.apply_detector_loss(exact, hl.Detector(efficiency=eff))
        assert dict(exact.entries) == expected
        joint = hl.JointCountDistribution({key: float(p) for key, p in start.items()})
        twice = joint
        for eff in (eff_1, eff_2):
            twice = hl.apply_detector_loss(twice, hl.Detector(efficiency=float(eff)))
        once = hl.apply_detector_loss(joint, hl.Detector(efficiency=float(eff_1 * eff_2)))
        for key, prob in expected.items():
            assert abs(twice.probability(*key) - float(prob)) < 1e-14
            assert abs(once.probability(*key) - float(prob)) < 1e-14

    @pytest.mark.parametrize("cap_k,cap_l,r", [(5, 5, "1/2"), (6, 2, "1/5"), (0, 7, "3/10")])
    @pytest.mark.parametrize("eff_1,eff_2", [("9/10", "4/5"), ("1/4", "2/3")])
    def test_composition_and_literal_sum_on_expansions(self, cap_k, cap_l, r, eff_1, eff_2):
        bs = hl.BeamSplitter.exact(r)
        exact_joint = hl.amplitude_expansion(cap_k, cap_l, bs, hl.RATIONAL)
        eff = Fraction(eff_1) * Fraction(eff_2)
        oracle = hl.JointCountDistribution(literal_thinning(exact_joint, eff))
        joint = hl.amplitude_expansion(cap_k, cap_l, bs)
        once = hl.apply_detector_loss(joint, hl.Detector(efficiency=float(eff)))
        twice = hl.apply_detector_loss(
            hl.apply_detector_loss(joint, hl.Detector(efficiency=float(Fraction(eff_1)))),
            hl.Detector(efficiency=float(Fraction(eff_2))),
        )
        assert max_abs_gap(once, oracle) < 1e-14
        assert max_abs_gap(twice, oracle) < 1e-14

    def test_efficiency_bounds(self):
        with pytest.raises(hl.RangeError):
            hl.Detector(efficiency=0.0)
        with pytest.raises(hl.RangeError):
            hl.Detector(efficiency=1.2)


class TestKernelArguments:
    def test_no_fock_pair_per_term(self, monkeypatch):
        bs = hl.BeamSplitter(0.4)
        pair = hl.FockPair.from_modes(20, 5)
        built = []
        check = hl.FockPair.__post_init__

        def counted(self):
            built.append((self.total, self.delta))
            check(self)

        monkeypatch.setattr(hl.FockPair, "__post_init__", counted)
        hl.decohere_distribution(pair, hl.DistinguishabilityAngle(0.7), bs)
        hl.mixed_distribution(hl.MixedFockSource(12, 0.8), hl.MixedFockSource(9, 0.6), bs)
        hl.amplitude_expansion(20, 5, bs)
        hl.amplitude_expansion(3, 2, hl.BeamSplitter.exact("2/5"), hl.RATIONAL)
        assert built == []
        hl.FockPair(2, 0)  # the patch does count constructions
        assert built == [(2, 0)]


class TestPurity:
    def test_pure_source(self):
        assert hl.purity(hl.MixedFockSource(7, 1.0)) == 1.0

    def test_half_eta_single_photon(self):
        assert hl.purity(hl.MixedFockSource(1, 0.5)) == 0.5

    @pytest.mark.parametrize("target,nominal", [(0.83, 5), (0.41, 5), (0.21, 10), (0.47, 25)])
    def test_solver_hits_target(self, target, nominal):
        eta = hl.eta_for_purity(nominal, target)
        assert abs(hl.purity(hl.MixedFockSource(nominal, eta)) - target) < 1e-10

    def test_frozen_eta_for_figS2(self):
        assert math.isclose(hl.eta_for_purity(5, 0.83), 0.980580854558, abs_tol=1e-9)

    def test_unreachable_target(self):
        # the K=5 floor is C(10,5)/4^5 ~ 0.2461: 0.21 has no solution
        with pytest.raises(hl.NoSolution):
            hl.eta_for_purity(5, 0.21)
        with pytest.raises(hl.NoSolution):
            hl.eta_for_purity(3, 1.2)

    @pytest.mark.parametrize("nominal", [2.5, 3.0, "3", None])
    def test_non_integer_photon_numbers_rejected(self, nominal):
        with pytest.raises(hl.RangeError):
            hl.MixedFockSource(nominal, 0.5)
        with pytest.raises(hl.RangeError):
            hl.eta_for_purity(nominal, 0.9)
        with pytest.raises(hl.RangeError):
            hl.eta_for_joint_purity(2, nominal, 0.9)

    def test_numpy_integer_photon_numbers(self):
        assert hl.MixedFockSource(np.int64(5), 0.5).weights() == hl.MixedFockSource(5, 0.5).weights()
        assert hl.eta_for_purity(np.int32(5), 0.83) == hl.eta_for_purity(5, 0.83)

    def test_joint_solver(self):
        for (a, b), target in [((5, 5), 0.21), ((3, 7), 0.41), ((0, 10), 0.83)]:
            eta = hl.eta_for_joint_purity(a, b, target)
            joint = hl.purity(hl.MixedFockSource(a, eta)) * hl.purity(
                hl.MixedFockSource(b, eta)
            )
            assert abs(joint - target) < 1e-10


class TestVisibilityLossInvariance:
    def test_mixed_sources_match_pure_visibility_exactly(self):
        # eta^2 cancels between numerator and denominator: exact with Fractions
        r = Fraction(2, 5)
        for nominal_a, nominal_b, eta in [(5, 5, Fraction(4, 5)), (10, 2, Fraction(1, 3))]:
            src_a = hl.MixedFockSource(nominal_a, eta)
            src_b = hl.MixedFockSource(nominal_b, eta)
            # mean photons eta K, normally ordered <n(n-1)> = K(K-1) eta^2
            mixed = hl.visibility_from_moments(
                src_a.eta * src_a.nominal * src_b.eta * src_b.nominal,
                src_a.nominal * (src_a.nominal - 1) * src_a.eta**2,
                src_b.nominal * (src_b.nominal - 1) * src_b.eta**2,
                r,
            )
            pure = hl.visibility_fock(nominal_a, nominal_b, r)
            assert mixed.value == pure.value
            assert mixed.nonclassical == pure.nonclassical
