"""Acceptance criteria, one test per criterion, each printing a pass/fail line.

Run with `pytest -v tests/test_acceptance.py` (add -s to stream the lines).
Tolerances are pinned here and nowhere else.
"""
import csv
import math
import time
from contextlib import contextmanager
from fractions import Fraction

import numpy as np
import pytest

import homleap as hl
from homleap.cli import main as cli_main
from homleap.closedform import _closed_form
from homleap.walk import _eigensystem

from fourmode import four_mode_delta_marginal


@contextmanager
def criterion(name):
    try:
        yield
    except Exception:
        print(f"ACCEPTANCE {name}: FAIL")
        raise
    print(f"ACCEPTANCE {name}: PASS")


def lattice_probs(dist):
    return np.asarray(dist.to_floats())


def test_01_three_way_oracle_equivalence():
    with criterion("1 three-way oracle equivalence"):
        start = time.perf_counter()
        float_rs = (0.1, 0.2, 0.5, 0.9)
        exact_rs = (Fraction(1, 10), Fraction(1, 5), Fraction(1, 2), Fraction(9, 10))
        worst_float = 0.0
        for total in range(0, 31):
            for r in float_rs:
                bs = hl.BeamSplitter(r)
                for delta in range(-total, total + 1, 2):
                    pair = hl.FockPair(total, delta)
                    closed = lattice_probs(hl.distribution(pair, bs))
                    evolved = lattice_probs(hl.evolved_distribution(pair, bs))
                    marginal = hl.delta_marginal(
                        hl.amplitude_expansion(pair.mode_a, pair.mode_b, bs)
                    )
                    expanded = np.array([marginal.get(d, 0.0) for d in pair.lattice()])
                    worst_float = max(
                        worst_float,
                        np.abs(closed - evolved).max(),
                        np.abs(closed - expanded).max(),
                        np.abs(evolved - expanded).max(),
                    )
        assert worst_float < 1e-9, f"float three-way deviation {worst_float}"
        for total in range(0, 31):
            for r in exact_rs:
                bs = hl.BeamSplitter.exact(r)
                for delta in range(-total, total + 1, 2):
                    pair = hl.FockPair(total, delta)
                    marginal = hl.delta_marginal(
                        hl.amplitude_expansion(pair.mode_a, pair.mode_b, bs, hl.RATIONAL)
                    )
                    # the single-sum referee: `distribution` reads the expansion's counts
                    for delta_out in pair.lattice():
                        closed = _closed_form(total, delta, delta_out, r)
                        assert closed == marginal.get(delta_out, 0)
        elapsed = time.perf_counter() - start
        print(f"  float dev {worst_float:.2e}, exact equality, {elapsed:.1f}s", end=" ")
        assert elapsed < 60.0, f"runtime target exceeded: {elapsed:.1f}s"


def test_02_exact_limits():
    with criterion("2 exact limits r=0 and r=1"):
        for total, delta in ((2, 0), (7, -3), (10, -10), (13, 5)):
            pair = hl.FockPair(total, delta)
            # rational mode: exact point masses
            identity = hl.distribution(pair, hl.BeamSplitter.exact(0), hl.RATIONAL)
            assert identity.prob(delta) == 1
            mirror = hl.distribution(pair, hl.BeamSplitter.exact(1), hl.RATIONAL)
            assert mirror.prob(-delta) == 1
            assert hl.transfer_fidelity(mirror, delta) == 1
            # float mode, including the short-circuit-free evolution route
            for dist in (
                hl.distribution(pair, hl.BeamSplitter(1.0)),
                hl.evolved_distribution(pair, hl.BeamSplitter(1.0)),
            ):
                assert abs(dist.prob(-delta) - 1.0) <= 1e-12
                assert abs(hl.transfer_fidelity(dist, delta) - 1.0) <= 1e-12
            evolved0 = hl.evolved_distribution(pair, hl.BeamSplitter(0.0))
            assert abs(evolved0.prob(delta) - 1.0) <= 1e-12


def test_03_hom_pair():
    with criterion("3 HOM pair bunching"):
        dist = hl.distribution(hl.FockPair(2, 0), hl.BeamSplitter.exact(Fraction(1, 2)), hl.RATIONAL)
        assert dist.prob(0) == 0
        assert dist.prob(2) == Fraction(1, 2)
        assert dist.prob(-2) == Fraction(1, 2)
        floats = hl.distribution(hl.FockPair(2, 0), hl.BeamSplitter(0.5))
        assert floats.prob(0) == 0.0
        assert floats.prob(2) == 0.5 and floats.prob(-2) == 0.5


def test_04_parity_comb():
    with criterion("4 parity comb"):
        # rational mode: off-parity mass is exactly zero
        for total, r in ((4, Fraction(1, 5)), (9, Fraction(1, 2)), (12, Fraction(9, 10))):
            bs = hl.BeamSplitter.exact(r)
            for delta in range(-total, total + 1, 2):
                pair = hl.FockPair(total, delta)
                marginal = hl.delta_marginal(
                    hl.amplitude_expansion(pair.mode_a, pair.mode_b, bs, hl.RATIONAL)
                )
                off_parity = sum(
                    prob for d, prob in marginal.items() if (total - d) % 2 != 0
                )
                assert off_parity == 0
                assert hl.parity_violation(marginal, total) == 0
        # float mode stays below 1e-12 for lossless runs
        worst = 0.0
        for total, r in ((10, 0.3), (25, 0.5), (40, 0.9)):
            lattice = hl.delta_lattice(total)
            for delta in (lattice[len(lattice) // 2], lattice[len(lattice) // 4]):
                pair = hl.FockPair(total, delta)
                joint = hl.amplitude_expansion(pair.mode_a, pair.mode_b, hl.BeamSplitter(r))
                marginal = hl.delta_marginal(joint)
                worst = max(worst, float(hl.parity_violation(marginal, total)))
                assert hl.parity_violation(hl.distribution(pair, hl.BeamSplitter(r))) == 0
        assert worst < 1e-12


def test_05_moment_laws():
    with criterion("5 moment laws"):
        r_grid = np.linspace(0.0, 1.0, 21)
        worst = 0.0
        for total in range(0, 61):
            lattice = np.arange(-total, total + 1, 2, dtype=float)
            vals, vecs = _eigensystem(total)
            for r in r_grid:
                theta = math.asin(math.sqrt(r))
                unitary = (vecs * np.exp(-1j * theta * vals)) @ vecs.T
                probs = np.abs(unitary) ** 2  # column j: start at lattice[j]
                means = lattice @ probs
                seconds = (lattice**2) @ probs
                variances = seconds - means**2
                for j, delta in enumerate(range(-total, total + 1, 2)):
                    worst = max(
                        worst,
                        abs(means[j] - hl.predicted_mean(total, delta, r)),
                        abs(variances[j] - hl.predicted_variance(total, delta, r)),
                    )
        assert worst < 1e-9, f"moment law deviation {worst}"
        # the public dispatch (closed form below S=30, rotation recurrence above)
        # obeys the same laws
        for total in (20, 31, 45, 60):
            for delta in range(-total, total + 1, max(2, total // 5 * 2)):
                pair = hl.FockPair(total, delta)
                for r in (0.1, 0.35, 0.5, 0.75, 0.9):
                    dist = hl.distribution(pair, hl.BeamSplitter(r))
                    assert abs(hl.mean_delta(dist) - hl.predicted_mean(total, delta, r)) < 1e-9
                    assert (
                        abs(hl.variance_delta(dist) - hl.predicted_variance(total, delta, r))
                        < 1e-9
                    )
        # hand enumerations at S=1 and S=2
        for r in (0.2, 0.5, 0.8):
            single = hl.distribution(hl.FockPair(1, 1), hl.BeamSplitter(r))
            assert abs(hl.mean_delta(single) - (1 - 2 * r)) < 1e-14
            assert abs(hl.variance_delta(single) - (1 - (1 - 2 * r) ** 2)) < 1e-14
        hom = hl.distribution(hl.FockPair(2, 0), hl.BeamSplitter(0.5))
        assert abs(hl.variance_delta(hom) - 4.0) < 1e-14
        # small-theta quadratic coefficient is ballistic: proportional to
        # (S^2-Delta^2)/2 + S with one global constant
        theta = 1e-4
        r_small = math.sin(theta) ** 2
        cases = [(10, 0), (20, -6), (50, -30), (60, 12)]
        constants = []
        for total, delta in cases:
            dist = hl.evolved_distribution(hl.FockPair(total, delta), hl.BeamSplitter(r_small))
            base = (total * total - delta * delta) / 2 + total
            constants.append(hl.variance_delta(dist) / (theta**2) / base)
        for c in constants[1:]:
            assert math.isclose(c, constants[0], rel_tol=1e-6)


def test_06_harmonic_spectrum():
    with criterion("6 harmonic spectrum"):
        worst = 0.0
        for total in range(0, 61):
            vals, _ = _eigensystem(total)
            expected = np.arange(-total, total + 1, 2, dtype=float)
            worst = max(worst, np.abs(np.sort(vals) - expected).max())
        assert worst < 1e-9, f"spectrum deviation {worst}"


def test_07_decoherence_endpoints_and_four_mode():
    with criterion("7 decoherence endpoints and four-mode oracle"):
        # y = 0 reproduces the pure distribution exactly (rational mode)
        for total, n_b, r in ((6, 3, "1/2"), (13, 4, "1/10"), (20, 20, "1/2")):
            bs = hl.BeamSplitter.exact(r)
            pair = hl.FockPair.from_modes(total - n_b, n_b)
            cold = hl.decohere_distribution(pair, hl.DistinguishabilityAngle(0.0), bs, hl.RATIONAL)
            assert cold.probs == hl.distribution(pair, bs, hl.RATIONAL).probs
        # y = pi/2 matches the classical binomial convolution (the fully
        # distinguishable panel of the fig3 command)
        pair = hl.FockPair.from_modes(25, 25)
        bs = hl.BeamSplitter(0.5)
        hot = hl.decohere_distribution(pair, hl.DistinguishabilityAngle(math.pi / 2), bs)
        assert hl.tv_distance(hot, hl.classical_reference(pair, bs)) < 1e-12
        # S <= 6: mixture-convolution equals the coherent four-mode evolution
        worst = 0.0
        for total in range(2, 7):
            for n_b in range(0, total + 1):
                for y in (0.3, math.pi / 6, 1.2):
                    for r in (0.3, 0.5, 0.8):
                        theta = math.asin(math.sqrt(r))
                        reference = four_mode_delta_marginal(total, n_b, y, theta)
                        pair = hl.FockPair.from_modes(total - n_b, n_b)
                        got = hl.decohere_distribution(
                            pair, hl.DistinguishabilityAngle(y), hl.BeamSplitter(r)
                        )
                        worst = max(
                            worst,
                            max(
                                abs(reference.get(d, 0.0) - got.prob(d))
                                for d in range(-total, total + 1)
                            ),
                        )
        assert worst < 1e-10, f"four-mode deviation {worst}"


def test_08_visibility():
    with criterion("8 visibility laws and regions"):
        for n in range(1, 26):
            report = hl.visibility_fock(n, n, Fraction(1, 2))
            assert report.value == 1 / (2 - Fraction(1, n))
            assert report.value > Fraction(1, 2)
            assert report.nonclassical
        base = hl.visibility_from_moments(Fraction(35), Fraction(30), Fraction(42), Fraction(3, 10))
        for scale in (Fraction(1, 4), Fraction(9, 100), Fraction(256)):
            scaled = hl.visibility_from_moments(
                35 * scale, 30 * scale, 42 * scale, Fraction(3, 10)
            )
            assert scaled.value == base.value
        rs = (0.36, 0.43, 0.39, 0.45, 0.5)
        masks = {r: hl.nonclassical_mask(50, 50, r) for r in rs}
        for r, mask in masks.items():
            # internal consistency with the formula's 1/2 crossing
            for (n, m), flag in mask.items():
                try:
                    expected = hl.visibility_fock(n, m, r).value > 0.5
                except hl.DegenerateError:
                    expected = False
                assert flag == expected
            # boundary monotonicity along the diagonal: a contiguous prefix
            diagonal = [mask[(n, n)] for n in range(1, 51)]
            if False in diagonal:
                assert not any(diagonal[diagonal.index(False):])
        # regions nest with increasing r(1-r)
        for small, large in ((0.36, 0.39), (0.39, 0.43), (0.43, 0.45), (0.45, 0.5)):
            assert all(masks[large][cell] for cell in masks[small] if masks[small][cell])


def test_09_mixed_and_lossy():
    with criterion("9 mixed/lossy normalization and purity solver"):
        for eta, eff, r in ((0.8, 0.9, 0.5), (0.95, 0.8, 0.2), (0.6, 0.73, 0.9)):
            joint = hl.mixed_distribution(
                hl.MixedFockSource(5, eta), hl.MixedFockSource(5, eta), hl.BeamSplitter(r)
            )
            assert abs(math.fsum(joint.entries.values()) - 1.0) < 1e-12
            lossy = hl.apply_detector_loss(joint, hl.Detector(efficiency=eff))
            assert abs(math.fsum(lossy.entries.values()) - 1.0) < 1e-12
        # purity solver against the sum-of-squared-weights formula; the 0.21
        # column is only reachable with the nominal-10 source (K=5 floors at
        # C(10,5)/4^5 ~ 0.246)
        for nominal, target in ((5, 0.83), (5, 0.41), (10, 0.21)):
            eta = hl.eta_for_purity(nominal, target)
            direct = math.fsum(
                w * w for w in hl.MixedFockSource(nominal, eta).weights()
            )
            assert abs(direct - target) < 1e-10
        with pytest.raises(hl.NoSolution):
            hl.eta_for_purity(5, 0.21)


def _figure_table(tmp_path, fig_id):
    outdir = tmp_path / fig_id
    assert cli_main(["figure", "--id", fig_id, "--outdir", str(outdir)]) == 0
    rows = list(csv.DictReader((outdir / f"{fig_id}.csv").open()))
    series = {}
    for row in rows:
        series.setdefault(row["r"], {})[int(row["delta_out"])] = float(row["probability"])
    return series


def test_10_figure_shapes(tmp_path, capsys):
    with criterion("10 figure reproduction shapes"):
        for total, fig_id in ((50, "fig2a"), (10, "figS1a")):
            series = _figure_table(tmp_path, fig_id)
            balanced = series["0.5"]
            # U-shaped double peak, symmetric about 0
            assert balanced[total] > balanced[0] and balanced[-total] > balanced[0]
            assert balanced[total] == max(balanced.values())
            assert all(
                math.isclose(balanced[d], balanced[-d], abs_tol=1e-12) for d in balanced
            )
        for total, fig_id in ((50, "fig2b"), (10, "figS1b")):
            series = _figure_table(tmp_path, fig_id)
            delta = -30 if total == 50 else -4
            # asymmetric for every r except 1/2
            for r_text in ("0.1", "0.2", "0.9"):
                table = series[r_text]
                asym = sum(abs(table[d] - table[-d]) for d in table) / 2
                assert asym > 0.05, f"{fig_id} r={r_text} unexpectedly symmetric"
            table = series["0.5"]
            assert all(math.isclose(table[d], table[-d], abs_tol=1e-12) for d in table)
            # the walker keeps its initial bias: mean follows Delta(1-2r)
            for r_text, r in (("0.1", 0.1), ("0.9", 0.9)):
                mean = sum(d * p for d, p in series[r_text].items())
                assert math.isclose(mean, delta * (1 - 2 * r), abs_tol=1e-9)
        for total, fig_id in ((50, "fig2c"), (10, "figS1c")):
            series = _figure_table(tmp_path, fig_id)
            # end-to-end transport: peak walks toward +S as r grows, without
            # distortion (binomial family)
            peaks = {
                r_text: max(table, key=table.get) for r_text, table in series.items()
            }
            assert peaks["0.1"] < peaks["0.2"] < peaks["0.5"] < peaks["0.9"]
            near_end = 2 * round(total * 0.9) - total
            assert peaks["0.9"] == near_end
            mass_near_end = sum(p for d, p in series["0.9"].items() if d >= near_end - 4)
            assert mass_near_end > 0.75
            cap = total
            for r_text, r in (("0.2", 0.2), ("0.9", 0.9)):
                for delta_out, prob in series[r_text].items():
                    p = (delta_out + cap) // 2
                    binom = math.comb(cap, p) * r**p * (1 - r) ** (cap - p)
                    assert math.isclose(prob, binom, abs_tol=1e-10)
