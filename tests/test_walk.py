"""Walk generator, unitary evolution and Wigner rotation checks."""
import math
import tracemalloc

import numpy as np
import pytest
from scipy.linalg import eigh_tridiagonal

import homleap as hl
from homleap import walk
from homleap.walk import wigner_d_column
from wignersum import wigner_sum


def _bisection_eigenvector(d, e, w, iblock, isplit):
    """The `dstein` call of `wigner_d_column` answered by an eigenvalue search.

    `eigh_tridiagonal(select="i")` bisects for the eigenvalue's index in
    the ascending spectrum -s..s and then takes its eigenvector: a referee
    for the kernel's iteration at the known eigenvalue.
    """
    index = int(round(w[0] + 0.5 * (len(d) - 1)))
    _, vecs = eigh_tridiagonal(d, e, select="i", select_range=(index, index))
    return vecs, 0


def _dense(total):
    """The walk generator as a dense matrix, from its couplings."""
    couplings = hl.build_hamiltonian(total)
    return np.diag(couplings, 1) + np.diag(couplings, -1)


class TestHopping:
    """The couplings of `build_hamiltonian`, read edge by edge."""

    @pytest.mark.parametrize(
        "total, delta, expected",
        [(2, 2, math.sqrt(2)), (50, 50, 0.5 * math.sqrt(200)), (1, 1, 1.0)],
    )
    def test_values(self, total, delta, expected):
        # the edge between delta and delta - 2
        assert math.isclose(hl.build_hamiltonian(total)[(delta + total) // 2 - 1], expected)

    @pytest.mark.parametrize("total", [0, 1, 2, 7, 50, 1000])
    def test_entries_are_the_rounded_formula(self, total):
        expected = [0.5 * math.sqrt((total + d) * (total - d + 2)) for d in range(-total + 2, total + 1, 2)]
        assert hl.build_hamiltonian(total).tolist() == expected

    def test_symmetric_in_site_labels(self):
        # sqrt((S+d)(S-d+2))/2 is unchanged by d -> -d+2, which reverses the edges
        for total in (0, 1, 6, 9, 12, 51):
            couplings = hl.build_hamiltonian(total)
            assert couplings.tolist() == couplings[::-1].tolist()


class TestHamiltonian:
    @pytest.mark.parametrize("total", [-1, 2.5, 2.0])
    def test_invalid_total_rejected(self, total):
        with pytest.raises(hl.RangeError):
            hl.build_hamiltonian(total)

    def test_s1(self):
        assert hl.build_hamiltonian(1).tolist() == [1.0]

    def test_s2(self):
        assert np.allclose(hl.build_hamiltonian(2), (math.sqrt(2), math.sqrt(2)))

    def test_s4(self):
        assert np.allclose(hl.build_hamiltonian(4), (2.0, math.sqrt(6), math.sqrt(6), 2.0))

    def test_zero_diagonal_and_tridiagonal_action(self):
        ham = _dense(6)
        assert np.all(np.diag(ham) == 0)
        # acting on a lattice basis state populates exactly the two neighbours
        state = np.zeros(7)
        state[3] = 1.0
        moved = ham @ state
        assert set(np.nonzero(moved)[0]) == {2, 4}

    @pytest.mark.parametrize("total", list(range(1, 61)))
    def test_harmonic_spectrum(self, total):
        vals = np.linalg.eigvalsh(_dense(total))
        expected = np.arange(-total, total + 1, 2, dtype=float)
        assert np.abs(np.sort(vals) - expected).max() < 1e-9


class TestEvolve:
    def test_theta_zero_recurrence(self):
        probs = np.abs(hl.evolve(hl.FockPair(8, 4), 0.0)) ** 2
        assert math.isclose(probs[(4 + 8) // 2], 1.0, abs_tol=1e-12)

    @pytest.mark.parametrize("total,delta", [(3, 1), (10, -4), (21, 5)])
    def test_half_pi_is_mirror(self, total, delta):
        probs = np.abs(hl.evolve(hl.FockPair(total, delta), math.pi / 2)) ** 2
        assert math.isclose(probs[(-delta + total) // 2], 1.0, abs_tol=1e-12)

    @pytest.mark.parametrize("total", [1, 2, 5, 12, 30, 60])
    def test_unitarity_over_theta_grid(self, total):
        pair = hl.FockPair(total, total % 2)
        worst = 0.0
        for theta in np.linspace(0.0, 2.0 * math.pi, 100, endpoint=False):
            probs = np.abs(hl.evolve(pair, float(theta))) ** 2
            worst = max(worst, abs(probs.sum() - 1.0))
        assert worst < 1e-12

    @pytest.mark.parametrize("total,delta", [(5, -1), (14, 6), (33, -7)])
    def test_periodicity(self, total, delta):
        pair = hl.FockPair(total, delta)
        for theta in (0.3, 1.1, 2.9):
            before = hl.evolve(pair, theta)
            after = hl.evolve(pair, theta + 2.0 * math.pi)
            assert np.abs(before - after).max() < 1e-9

    def test_frozen_s3_probabilities(self):
        # the values that pin the closed-form [DERIVED] examples
        probs = np.abs(hl.evolve(hl.FockPair(3, 1), math.asin(math.sqrt(0.2)))) ** 2
        expected = [12 / 125, 49 / 125, 16 / 125, 48 / 125]
        assert np.abs(probs - expected).max() < 1e-12


class TestWignerD:
    @pytest.mark.parametrize("beta", [0.1, 0.7, 1.9, 2.8])
    def test_spin_half(self, beta):
        assert math.isclose(hl.wigner_d(1, 1, 1, beta), math.cos(beta / 2), abs_tol=1e-14)
        assert math.isclose(hl.wigner_d(1, -1, 1, beta), math.sin(beta / 2), abs_tol=1e-14)

    @pytest.mark.parametrize("beta", [0.1, 0.7, 1.9, 2.8])
    def test_spin_one_center(self, beta):
        assert math.isclose(hl.wigner_d(2, 0, 0, beta), math.cos(beta), abs_tol=1e-13)

    def test_identity_rotation(self):
        for two_s in (1, 2, 5, 8):
            for two_m in range(-two_s, two_s + 1, 2):
                for two_n in range(-two_s, two_s + 1, 2):
                    expected = 1.0 if two_m == two_n else 0.0
                    assert hl.wigner_d(two_s, two_m, two_n, 0.0) == pytest.approx(
                        expected, abs=1e-14
                    )

    def test_index_validation(self):
        with pytest.raises(hl.DomainError):
            hl.wigner_d(2, 1, 0, 0.3)  # parity mismatch
        with pytest.raises(hl.DomainError):
            hl.wigner_d(2, 4, 0, 0.3)  # out of range
        for beta in (math.nan, math.inf, -math.inf):
            with pytest.raises(hl.DomainError):
                hl.wigner_d(2, 0, 0, beta)
            with pytest.raises(hl.DomainError):
                wigner_d_column(40, 0, beta)

    def test_lapack_failure_raises(self, monkeypatch):
        monkeypatch.setattr(walk, "dstein", lambda d, *rest: (np.zeros((len(d), 1)), 1))
        with pytest.raises(np.linalg.LinAlgError):
            wigner_d_column(40, 0, 0.3)

    @pytest.mark.parametrize("two_s", [13, 101, 1001, 4000])
    @pytest.mark.parametrize(
        "beta", [0.0, 1e-30, 1e-7, 0.3, math.pi / 2, 2.0, math.pi - 1e-7, math.pi, -0.7, 4.0]
    )
    def test_matches_eigenvalue_search(self, monkeypatch, two_s, beta):
        edges = (-two_s, -two_s + 2, two_s % 2, two_s - 2, two_s)
        cols = [wigner_d_column(two_s, two_m2, beta) for two_m2 in edges]
        monkeypatch.setattr(walk, "dstein", _bisection_eigenvector)
        for col, two_m2 in zip(cols, edges):
            ref = wigner_d_column(two_s, two_m2, beta)
            assert np.abs(col - ref).max() <= 1e-13
            big = np.abs(ref) >= 1e-6
            assert np.array_equal(np.sign(col[big]), np.sign(ref[big]))

    def test_column_is_linear_in_spin(self):
        # S = 1e5: O(S) memory, unit mass and the mean law <m> = m2 cos(beta) = 0
        two_s = 100000
        tracemalloc.start()
        try:
            col = wigner_d_column(two_s, 0, 1.0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 64 * 2**20
        probs = col * col
        assert abs(math.fsum(probs) - 1.0) <= 1e-12
        half_m = 0.5 * np.arange(-two_s, two_s + 1, 2)
        assert abs(math.fsum(half_m * probs)) <= 1e-6

    @pytest.mark.parametrize("two_s", [1, 2, 7, 16, 41, 80])
    def test_columns_are_orthonormal(self, two_s):
        beta = 1.234
        cols = np.column_stack(
            [wigner_d_column(two_s, n, beta) for n in range(-two_s, two_s + 1, 2)]
        )
        gram = cols.T @ cols
        assert np.abs(gram - np.eye(two_s + 1)).max() < 1e-11

    # the explicit sum is only a trustworthy referee while its own
    # cancellation stays mild; larger spins are covered by orthonormality
    # and the eigen-evolution consistency test below
    @pytest.mark.parametrize("two_s", [1, 3, 8, 20])
    def test_recurrence_matches_explicit_sum(self, two_s):
        beta = 0.9
        for two_n in range(-two_s, two_s + 1, 2):
            col = wigner_d_column(two_s, two_n, beta)
            for i, two_m in enumerate(range(-two_s, two_s + 1, 2)):
                assert math.isclose(
                    col[i], wigner_sum(two_s, two_m, two_n, beta), abs_tol=1e-11
                )

    @pytest.mark.parametrize("beta", [0.0, 1e-30, 1e-7, math.pi - 1e-7, math.pi, -0.7, 4.0])
    def test_explicit_sum_at_edge_angles(self, beta):
        # angles the recurrence once needed a small-angle branch for
        for two_s in (1, 4, 9, 16):
            for two_n in range(-two_s, two_s + 1, 2):
                col = wigner_d_column(two_s, two_n, beta)
                ref = [wigner_sum(two_s, m, two_n, beta) for m in range(-two_s, two_s + 1, 2)]
                assert np.abs(col - ref).max() < 1e-12

    @pytest.mark.parametrize("two_s,beta", [(4000, math.pi / 2), (4000, 0.3), (1001, 2.9)])
    def test_sign_symmetry_at_large_spin(self, two_s, beta):
        # d_{m1,m2} = (-1)^(m1-m2) d_{m2,m1}; at (4000, pi/2) both edges of
        # the m2 = s column underflow, so it is oriented from its tail
        for two_m2 in (two_s, -two_s, two_s - 2, two_s % 2):
            col = wigner_d_column(two_s, two_m2, beta)
            for i in range(0, two_s + 1, 97):
                two_m1 = -two_s + 2 * i
                other = wigner_d_column(two_s, two_m1, beta)[(two_m2 + two_s) // 2]
                sign = -1 if (two_m1 - two_m2) // 2 % 2 else 1
                assert abs(col[i] - sign * other) < 1e-12

    def test_top_column_is_a_positive_binomial_root(self):
        # d_{m, s}(beta) = sqrt(C(2s, s+m)) cos(beta/2)^(s+m) sin(beta/2)^(s-m)
        two_s, beta = 4000, math.pi / 2
        col = wigner_d_column(two_s, two_s, beta)
        k = np.arange(two_s + 1)
        log_ref = 0.5 * (
            math.lgamma(two_s + 1)
            - np.array([math.lgamma(i + 1) + math.lgamma(two_s - i + 1) for i in k])
        ) + two_s * math.log(math.cos(beta / 2))
        ref = np.exp(log_ref)
        assert np.all(col[ref > 1e-12] > 0)
        assert np.abs(col - ref).max() < 1e-11

    @pytest.mark.parametrize(
        "total", [1, 2, 3, 4, 5, 6, 10, 15, 25, 40]
    )
    @pytest.mark.parametrize("r", [0.1, 0.2, 0.5, 0.9])
    def test_consistency_with_evolution(self, total, r):
        # |amplitude|^2 equals the squared rotation element at alpha = 2 theta
        theta = math.asin(math.sqrt(r))
        for delta in {-total, 0 if total % 2 == 0 else 1, total}:
            pair = hl.FockPair(total, delta)
            probs = np.abs(hl.evolve(pair, theta)) ** 2
            for i, delta_out in enumerate(pair.lattice()):
                d = hl.wigner_d(total, delta_out, delta, 2.0 * theta)
                assert abs(probs[i] - d * d) < 1e-10


class TestEvolvedDistribution:
    def test_hom_pair(self):
        dist = hl.evolved_distribution(hl.FockPair(2, 0), hl.BeamSplitter(0.5))
        assert math.isclose(dist.prob(-2), 0.5, abs_tol=1e-14)
        assert abs(dist.prob(0)) < 1e-25
        assert math.isclose(dist.prob(2), 0.5, abs_tol=1e-14)

    def test_r_zero_point_mass(self):
        dist = hl.evolved_distribution(hl.FockPair(9, -5), hl.BeamSplitter(0.0))
        assert math.isclose(dist.prob(-5), 1.0, abs_tol=1e-14)

    def test_matches_figS1b_shape(self):
        # S=10, Delta=-4, r=0.2: self-consistency with the closed form
        pair = hl.FockPair(10, -4)
        bs = hl.BeamSplitter(0.2)
        evolved = hl.evolved_distribution(pair, bs).to_floats()
        closed = hl.distribution(pair, bs).to_floats()
        assert max(abs(a - b) for a, b in zip(evolved, closed)) < 1e-12
