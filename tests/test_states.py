"""Mixed states, operator matrices, norms, energies, truncation.

Closed-form anchors used below (hand computations):
    plane-wave orbital e_n = (2pi)^{-1/2} e^{inx}: |e_n|^2 = 1/(2pi)
    rank-one mu|e_n><e_n|: rho = mu/(2pi), K = mu n^2,
        E = -p mu n^2 + q mu^2/(4pi)
    weights (1,1) on e_0,e_1 with p=q=1: K = 1, E = -1 + 1/pi
"""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

import alber_lab as al
import alber_lab.states as states_mod
from alber_lab.spectral import TWO_PI, analyze_batch, diagonal_sums
from alber_lab.states import GramError, _energy, _factored_trace_norm, gram_deviation, gram_matrix

from conftest import named_first, random_state


def plane_wave_state(grid, n, weight):
    coeffs = np.zeros((1, grid.n_modes), dtype=complex)
    coeffs[0, grid.N + n] = 1.0
    return al.MixedState(grid, np.array([weight]), coeffs)


class TestMixedStateConstruction:
    def test_gram_violation_rejected(self, grid8):
        coeffs = np.zeros((2, grid8.n_modes), dtype=complex)
        coeffs[0, grid8.N] = 1.0
        coeffs[1, grid8.N] = 0.8  # not orthogonal to the first
        coeffs[1, grid8.N + 1] = 0.6
        with pytest.raises(GramError):
            al.MixedState(grid8, np.array([1.0, 1.0]), coeffs)

    def test_negative_weight_rejected(self, grid8):
        coeffs = np.zeros((1, grid8.n_modes), dtype=complex)
        coeffs[0, grid8.N] = 1.0
        with pytest.raises(ValueError):
            al.MixedState(grid8, np.array([-0.5]), coeffs)

    def test_weights_must_be_1d(self, grid8):
        # a (2, 1) array once passed, and simulate then failed inside matmul
        coeffs = np.zeros((2, grid8.n_modes), dtype=complex)
        coeffs[0, grid8.N] = coeffs[1, grid8.N + 1] = 1.0
        with pytest.raises(ValueError, match=r"^weights must be 1-d, got shape \(2, 1\)"):
            al.MixedState(grid8, np.array([[0.5], [0.5]]), coeffs)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_weight_rejected(self, grid8, value):
        coeffs = np.zeros((2, grid8.n_modes), dtype=complex)
        coeffs[0, grid8.N] = coeffs[1, grid8.N + 1] = 1.0
        with pytest.raises(ValueError, match="finite"):
            al.MixedState(grid8, np.array([0.5, value]), coeffs)
        with pytest.raises(ValueError, match="finite"):
            al.MixedState(grid8, np.array([0.5, value]), coeffs, gram_tol=math.inf)

    def test_nan_orbital_fails_finite_gram_tol(self, grid8):
        coeffs = np.zeros((1, grid8.n_modes), dtype=complex)
        coeffs[0, grid8.N] = math.nan
        with pytest.raises(GramError):
            al.MixedState(grid8, np.array([1.0]), coeffs)
        with pytest.raises(GramError):
            al.MixedState(grid8, np.array([1.0]), coeffs, gram_tol=1.0)

    def test_infinite_gram_tol_skips_the_deviation(self, grid8, monkeypatch):
        # gram_tol = inf accepts every Gram matrix, so the deviation is never formed
        def refuse(state):
            raise AssertionError("gram_deviation called under gram_tol = inf")

        monkeypatch.setattr(states_mod, "gram_deviation", refuse)
        coeffs = np.zeros((2, grid8.n_modes), dtype=complex)
        coeffs[0, grid8.N] = coeffs[1, grid8.N] = 1.0
        state = al.MixedState(grid8, np.array([1.0, 0.5]), coeffs, gram_tol=math.inf)
        assert state.rank == 2

    def test_nan_orbital_accepted_without_gram_check(self, grid8):
        # the integrator builds its states with gram_tol = inf, so a blown-up
        # run still reaches the divergence check instead of failing here
        coeffs = np.zeros((1, grid8.n_modes), dtype=complex)
        coeffs[0, grid8.N] = math.nan
        state = al.MixedState(grid8, np.array([1.0]), coeffs, gram_tol=math.inf)
        with pytest.raises(al.DivergenceError):
            al.evolve(state, al.EvolveConfig(1.0, 1.0, 1e-3, 2e-3))

    def test_shape_mismatch_rejected(self, grid8):
        with pytest.raises(ValueError):
            al.MixedState(grid8, np.array([1.0]), np.zeros((1, 5), dtype=complex))

    def test_reorthonormalized_repairs(self, grid8):
        gen = np.random.default_rng(0)
        raw = gen.standard_normal((3, grid8.n_modes)) + 1j * gen.standard_normal(
            (3, grid8.n_modes)
        )
        loose = al.MixedState(grid8, np.ones(3), raw, gram_tol=math.inf)
        fixed = al.reorthonormalized(loose)
        assert gram_deviation(fixed) <= 1e-10
        # observables agree with the raw operator
        raw_mat = al.to_matrix(loose)
        assert (
            np.abs(al.to_matrix(fixed).entries - raw_mat.entries).max()
            < 1e-10 * np.abs(raw_mat.entries).max()
        )

    def test_gram_matrix_identity(self, grid16):
        st = random_state(grid16, 4, seed=5)
        g = gram_matrix(st)
        assert np.abs(g - np.eye(4)).max() < 1e-10


class TestDensity:
    def test_single_plane_wave(self, grid8):
        st = plane_wave_state(grid8, 2, 0.7)
        samples = al.density_samples(st)
        assert np.allclose(samples, 0.7 / TWO_PI, atol=1e-13)

    def test_empty_state(self, grid8):
        samples = al.density_samples(al.MixedState.empty(grid8))
        assert np.all(samples == 0)

    def test_two_plane_waves(self, grid8):
        coeffs = np.zeros((2, grid8.n_modes), dtype=complex)
        coeffs[0, grid8.N] = 1.0
        coeffs[1, grid8.N + 1] = 1.0
        st = al.MixedState(grid8, np.array([1.0, 1.0]), coeffs)
        samples = al.density_samples(st)
        assert np.allclose(samples, 1.0 / math.pi, atol=1e-13)

    def test_density_real_nonnegative(self, grid16):
        st = random_state(grid16, 3, seed=9)
        samples = al.density_samples(st)
        assert np.abs(samples.imag).max() < 1e-13 if np.iscomplexobj(samples) else True
        assert samples.min() >= -1e-12 * np.abs(samples).max()

    def test_density_integral_is_mass(self, grid16):
        st = random_state(grid16, 3, seed=11)
        samples = al.density_samples(st)
        assert abs(al.lp_norm(samples, 1) - al.mass(st)) <= 1e-10 * al.mass(st)

    def test_density_matches_matrix_diagonals(self, grid8):
        # physical-space route vs diagonal summation of the matrix
        from alber_lab.dynamics import diagonal_sums

        st = random_state(grid8, 2, seed=3)
        rho_hat = analyze_batch(grid8, al.density_samples(st))
        d = diagonal_sums(al.to_matrix(st).entries)
        nm = grid8.n_modes
        rho_hat_matrix = d[nm - 1 - grid8.N : nm + grid8.N] / math.sqrt(TWO_PI)
        assert np.abs(rho_hat - rho_hat_matrix).max() < 1e-12


class TestOperatorMatrix:
    def test_rank_one_single_entry(self, grid8):
        st = plane_wave_state(grid8, 1, 0.3)
        u = al.to_matrix(st)
        expected = np.zeros((grid8.n_modes, grid8.n_modes), dtype=complex)
        expected[grid8.N + 1, grid8.N + 1] = 0.3
        assert np.abs(u.entries - expected).max() < 1e-14

    def test_background_diagonal(self, grid8):
        bg = al.BackgroundSymbol(np.array([TWO_PI]))
        u = al.background_to_matrix(bg, grid8)
        assert abs(u.entries[grid8.N, grid8.N] - TWO_PI) < 1e-14
        off = u.entries.copy()
        off[grid8.N, grid8.N] = 0.0
        assert np.abs(off).max() == 0.0

    def test_background_truncation_error(self):
        bg = al.BackgroundSymbol(0.1 * np.ones(11))  # support J = 5
        with pytest.raises(al.TruncationError):
            al.background_to_matrix(bg, al.SpectralGrid(4))

    def test_hermitian_flag_validated(self, grid8):
        m = np.zeros((grid8.n_modes, grid8.n_modes), dtype=complex)
        m[0, 1] = 1.0  # not hermitian
        with pytest.raises(ValueError):
            al.OperatorMatrix(grid8, m, hermitian=True)

    def test_background_state_matches_matrix(self, grid8):
        bg = al.BackgroundSymbol(np.array([0.2, 1.0, 0.5]))
        st = al.background_to_state(bg, grid8)
        direct = al.background_to_matrix(bg, grid8)
        assert np.abs(al.to_matrix(st).entries - direct.entries).max() < 1e-13


class TestSchattenNorms:
    def test_embedded_diag(self, grid8):
        m = np.zeros((grid8.n_modes, grid8.n_modes), dtype=complex)
        m[0, 0] = 1.0
        m[1, 1] = 2.0
        u = al.OperatorMatrix(grid8, m)
        assert abs(al.schatten_norm(u, 1) - 3.0) < 1e-13
        assert abs(al.schatten_norm(u, 2) - math.sqrt(5.0)) < 1e-13
        assert abs(al.schatten_norm(u, math.inf) - 2.0) < 1e-13

    def test_mixed_state_norms_from_weights(self, grid16):
        st = random_state(grid16, 4, seed=21)
        u = al.to_matrix(st)
        assert abs(al.schatten_norm(u, 1) - st.weights.sum()) < 1e-10 * st.weights.sum()
        assert abs(al.schatten_norm(u, 2) - np.sqrt((st.weights**2).sum())) < 1e-10

    def test_zero_matrix(self, grid8):
        u = al.OperatorMatrix(grid8, np.zeros((grid8.n_modes, grid8.n_modes), dtype=complex))
        for p in (1, 2, math.inf):
            assert al.schatten_norm(u, p) == 0.0

    def test_ordering_chain(self, grid8, rng):
        m = rng.standard_normal((grid8.n_modes, grid8.n_modes)) + 1j * rng.standard_normal(
            (grid8.n_modes, grid8.n_modes)
        )
        u = al.OperatorMatrix(grid8, m)
        sinf = al.schatten_norm(u, math.inf)
        s2 = al.schatten_norm(u, 2)
        s1 = al.schatten_norm(u, 1)
        assert sinf <= s2 + 1e-12 and s2 <= s1 + 1e-12

    def test_unsupported_exponent(self, grid8):
        u = al.OperatorMatrix(grid8, np.zeros((grid8.n_modes, grid8.n_modes), dtype=complex))
        with pytest.raises(ValueError):
            al.schatten_norm(u, 3)


class TestSobolevSchatten:
    def test_rank_one_weighted(self, grid8):
        st = plane_wave_state(grid8, 3, 0.4)
        val = al.sobolev_schatten_norm(al.to_matrix(st), 1.0)
        assert abs(val - 0.4 * (1 + 9)) < 1e-12

    def test_s0_reduces_to_trace_norm(self, grid8, rng):
        m = rng.standard_normal((grid8.n_modes, grid8.n_modes)).astype(complex)
        u = al.OperatorMatrix(grid8, m)
        assert abs(al.sobolev_schatten_norm(u, 0.0) - al.schatten_norm(u, 1)) < 1e-12

    def test_matches_orbital_route(self, grid16):
        for seed in (1, 2, 3):
            st = random_state(grid16, 3, seed=seed)
            a = al.hs1_norm_nonneg(st, 1.0)
            b = al.sobolev_schatten_norm(al.to_matrix(st), 1.0)
            assert abs(a - b) <= 1e-8 * a

    def test_h1s1_split(self, grid16):
        st = random_state(grid16, 3, seed=8)
        h = al.hs1_norm_nonneg(st, 1.0)
        assert abs(h - (al.mass(st) + al.kinetic_energy(st))) <= 1e-10 * h

    def test_hs1_s0_is_mass(self, grid16):
        st = random_state(grid16, 2, seed=4)
        assert abs(al.hs1_norm_nonneg(st, 0.0) - al.mass(st)) < 1e-12

    @pytest.mark.parametrize("s", [-1.0, math.nan, math.inf, -math.inf])
    def test_bad_order_rejected(self, grid8, s):
        st = random_state(grid8, 2, seed=4)
        with pytest.raises(ValueError, match="^s must be"):
            al.sobolev_schatten_norm(al.to_matrix(st), s)
        with pytest.raises(ValueError, match="^s must be"):
            al.hs1_norm_nonneg(st, s)


class TestFactoredTraceNorm:
    """||F C F*||_S1 from the QR of F against the dense SVD of F C F*."""

    @settings(max_examples=80, deadline=None)
    @given(
        N=hst.integers(1, 8),
        wide=hst.booleans(),
        extra=hst.integers(0, 6),
        repeats=hst.integers(0, 3),
        zeros=hst.integers(0, 3),
        core_kind=hst.sampled_from(["diagonal", "hermitian", "anti-hermitian"]),
        seed=hst.integers(0, 2**32 - 1),
    )
    def test_matches_dense_svd(self, N, wide, extra, repeats, zeros, core_kind, seed):
        grid = al.SpectralGrid(N)
        n = grid.n_modes
        gen = np.random.default_rng(seed)
        k = n + 1 + extra if wide else max(1, n - extra)  # more columns than rows, or at most as many
        f = gen.standard_normal((n, k)) + 1j * gen.standard_normal((n, k))
        f = np.concatenate((f, f[:, :repeats]), axis=1)  # repeated columns: F is rank-deficient
        width = f.shape[1]
        b = gen.standard_normal((width, width)) + 1j * gen.standard_normal((width, width))
        core = {
            "diagonal": np.diag(gen.standard_normal(width)).astype(complex),
            "hermitian": b + b.conj().T,
            "anti-hermitian": b - b.conj().T,
        }[core_kind]
        core[:zeros, :] = 0.0  # zero weights
        core[:, :zeros] = 0.0
        expected = al.schatten_norm(al.OperatorMatrix(grid, f @ core @ f.conj().T), 1)
        assert _factored_trace_norm(f, core) == pytest.approx(expected, rel=1e-12)


class TestEnergies:
    def test_rank_one_closed_form(self, grid8):
        mu, n, p, q = 0.7, 2, 1.3, -0.8
        st = plane_wave_state(grid8, n, mu)
        assert abs(al.mass(st) - mu) < 1e-13
        assert abs(al.kinetic_energy(st) - mu * n * n) < 1e-13
        expected = -p * mu * n * n + q * mu * mu / (4 * math.pi)
        assert abs(al.energy(st, p, q) - expected) < 1e-12

    def test_two_mode_example(self, grid8):
        coeffs = np.zeros((2, grid8.n_modes), dtype=complex)
        coeffs[0, grid8.N] = 1.0
        coeffs[1, grid8.N + 1] = 1.0
        st = al.MixedState(grid8, np.array([1.0, 1.0]), coeffs)
        assert abs(al.kinetic_energy(st) - 1.0) < 1e-13
        assert abs(al.energy(st, 1.0, 1.0) - (-1.0 + 1.0 / math.pi)) < 1e-12

    def test_empty_state_zero(self, grid8):
        st = al.MixedState.empty(grid8)
        assert al.mass(st) == 0.0 and al.kinetic_energy(st) == 0.0
        assert al.energy(st, 1.0, 1.0) == 0.0

    def test_degenerate_coefficients_rejected(self, grid8):
        st = plane_wave_state(grid8, 0, 1.0)
        with pytest.raises(ValueError):
            al.energy(st, 0.0, 1.0)

    @pytest.mark.filterwarnings("error")
    def test_energy_of_overflowing_density_is_infinite(self, grid8):
        # ||rho||_2^2 overflows here: the energy is infinite, with no warning
        assert _energy(1.0, np.full(grid8.M, 1e200), 1.0, 1.0) == math.inf
        assert _energy(1.0, np.full(grid8.M, 1e200), 1.0, -1.0) == -math.inf

    def test_one_state_energy_is_the_lp_norm_formula(self, rng):
        # one state's square is lp_norm's pow, which rounds unlike the product
        # x * x in about 1 case of 1000: the stacked form must not leak into it
        for _ in range(10000):
            rho = rng.exponential(size=int(rng.integers(4, 40)))
            kin, p, q = rng.exponential(), float(rng.choice([1.0, -0.7])), float(rng.choice([1.5, -1.0]))
            assert _energy(kin, rho, p, q) == -p * kin + 0.5 * q * al.lp_norm(rho, 2) ** 2

    def test_stacked_energy_matches_one_state(self, rng):
        rho = rng.exponential(size=(3, 5, 24))
        kin = rng.exponential(size=(3, 5))
        stacked = _energy(kin, rho, 1.0, -2.0)
        assert stacked.shape == (3, 5)
        for idx in np.ndindex(3, 5):
            assert stacked[idx] == pytest.approx(_energy(kin[idx], rho[idx], 1.0, -2.0), rel=1e-15)


class TestGalerkinTruncate:
    def test_full_cut_is_identity(self, grid8, rng):
        m = rng.standard_normal((grid8.n_modes, grid8.n_modes)).astype(complex)
        u = al.OperatorMatrix(grid8, m)
        assert np.array_equal(al.galerkin_truncate(u, grid8.N).entries, m)

    def test_mode_outside_cut_killed(self, grid8):
        st = plane_wave_state(grid8, 5, 1.0)
        u = al.galerkin_truncate(al.to_matrix(st), 4)
        assert np.abs(u.entries).max() == 0.0

    def test_norm_monotone_in_cut(self, grid16):
        st = random_state(grid16, 3, seed=14)
        u = al.to_matrix(st)
        norms = [al.sobolev_schatten_norm(al.galerkin_truncate(u, np), 1.0) for np in range(17)]
        full = al.sobolev_schatten_norm(u, 1.0)
        assert all(a <= b + 1e-10 for a, b in zip(norms, norms[1:]))
        assert norms[-1] <= full + 1e-10

    def test_invalid_cut(self, grid8):
        u = al.OperatorMatrix(grid8, np.zeros((grid8.n_modes, grid8.n_modes), dtype=complex))
        for cut in (grid8.N + 1, -1, 2.5, True):  # a fraction or a bool is no cutoff
            with pytest.raises(ValueError, match=named_first("n_prime")):
                al.galerkin_truncate(u, cut)


class TestEigendecompose:
    def test_explicit_diag(self, grid8):
        m = np.zeros((grid8.n_modes, grid8.n_modes), dtype=complex)
        m[grid8.N, grid8.N] = 3.0
        m[grid8.N + 1, grid8.N + 1] = 1.0
        st = al.eigendecompose(al.OperatorMatrix(grid8, m, hermitian=True))
        assert np.allclose(st.weights, [3.0, 1.0])
        # orbitals are coordinate plane waves up to phase
        assert abs(abs(st.orbitals[0, grid8.N]) - 1.0) < 1e-12
        assert abs(abs(st.orbitals[1, grid8.N + 1]) - 1.0) < 1e-12

    def test_round_trip_weights(self, grid16):
        st = random_state(grid16, 4, seed=33)
        back = al.eigendecompose(al.to_matrix(st))
        assert np.abs(np.sort(back.weights) - np.sort(st.weights)).max() < 1e-10

    def test_negative_eigenvalue_rejected(self, grid8):
        m = np.zeros((grid8.n_modes, grid8.n_modes), dtype=complex)
        m[0, 0] = -0.1
        m[1, 1] = 1.0
        with pytest.raises(al.NotNonNegativeError):
            al.eigendecompose(al.OperatorMatrix(grid8, m, hermitian=True))

    def test_non_hermitian_rejected(self, grid8):
        m = np.zeros((grid8.n_modes, grid8.n_modes), dtype=complex)
        m[0, 1] = 1.0
        with pytest.raises(ValueError):
            al.eigendecompose(al.OperatorMatrix(grid8, m))

    def test_one_hermitian_rule(self, grid8):
        # OperatorMatrix(hermitian=True) and eigendecompose hold a matrix to
        # the same rule, max|U - U*| <= 1e-12 ||U||_F, with the same message
        m = np.eye(grid8.n_modes, dtype=complex)
        scale = np.linalg.norm(m)
        messages = []
        for make in (
            lambda: al.OperatorMatrix(grid8, m, hermitian=True),
            lambda: al.eigendecompose(al.OperatorMatrix(grid8, m)),
        ):
            m[0, 1] = 1e-13 * scale
            make()
            m[0, 1] = 1e-11 * scale
            with pytest.raises(ValueError, match=r"^not Hermitian: max\|U - U\*\| = ") as info:
                make()
            messages.append(str(info.value))
        assert messages[0] == messages[1] == f"not Hermitian: max|U - U*| = {1e-11 * scale:.3e}"

    def test_nan_entry_fails_the_hermitian_rule(self, grid8):
        # a NaN entry makes the deviation NaN, which fails the rule before LAPACK sees the matrix
        m = np.eye(grid8.n_modes, dtype=complex)
        m[2, 2] = math.nan
        with pytest.raises(ValueError, match=r"^not Hermitian: max\|U - U\*\| = nan$"):
            al.OperatorMatrix(grid8, m, hermitian=True)
        with pytest.raises(ValueError, match=r"^not Hermitian: "):
            al.eigendecompose(al.OperatorMatrix(grid8, m))

    def test_zero_matrix_gives_empty(self, grid8):
        u = al.OperatorMatrix(grid8, np.zeros((grid8.n_modes, grid8.n_modes), dtype=complex))
        st = al.eigendecompose(u)
        assert st.rank == 0

    @pytest.mark.parametrize("drop_tol", [-1.0, -1e-12, math.nan, math.inf])
    def test_bad_drop_tol_rejected(self, grid8, drop_tol):
        u = al.OperatorMatrix(grid8, np.eye(grid8.n_modes, dtype=complex), hermitian=True)
        with pytest.raises(ValueError, match="drop_tol"):
            al.eigendecompose(u, drop_tol=drop_tol)


class TestRandomSmoothState:
    @pytest.mark.parametrize(
        "kwargs, name",
        [
            ({"rank": -1}, "rank"),
            ({"rank": 18}, "rank"),  # 17 modes at N = 8
            ({"band": 9}, "band"),
            ({"band": -1}, "band"),
            ({"decay": math.nan}, "decay"),
            ({"decay": math.inf}, "decay"),
            ({"total_mass": -0.5}, "total_mass"),
            ({"total_mass": math.nan}, "total_mass"),
            ({"total_mass": math.inf}, "total_mass"),
        ],
    )
    def test_bad_input_named(self, grid8, kwargs, name):
        args = {"rank": 2, "band": 3, "decay": 2.5, "total_mass": 1.0, **kwargs}
        with pytest.raises(ValueError, match=f"^{name} "):
            al.random_smooth_state(grid8, rng=np.random.default_rng(0), **args)

    @pytest.mark.parametrize("decay, band", [(-1e300, 3), (-600.0, 8), (-1e300, 1)])
    def test_overflowing_falloff_named(self, grid8, decay, band):
        # finite, but (1 + n^2)^(-decay/2) overflows on the band
        with pytest.raises(ValueError, match="^decay "):
            al.random_smooth_state(grid8, 2, band, decay, np.random.default_rng(0))

    def test_extreme_decay_inside_a_zero_band_accepted(self, grid8):
        # the falloff only matters on |n| <= band; at band 0 it is 1
        st = al.random_smooth_state(grid8, 1, 0, -1e300, np.random.default_rng(0))
        assert abs(abs(st.orbitals[0, grid8.N]) - 1.0) < 1e-14

    @pytest.mark.parametrize("rank, mass", [(0, 1.0), (17, 1.0), (3, 0.0)])
    def test_edges_accepted(self, grid8, rank, mass):
        st = al.random_smooth_state(grid8, rank, 8, 2.5, np.random.default_rng(0), total_mass=mass)
        assert st.rank == rank
        assert abs(float(st.weights.sum()) - (mass if rank else 0.0)) < 1e-12


class TestYbar:
    def test_defocusing_rank_one(self):
        mu, n, p, q = 0.9, 2, 1.0, -2.0
        val = al.ybar_bound(mu, mu * n * n, mu / math.sqrt(TWO_PI), p, q, focusing=False)
        expected = mu + mu * n * n + abs(q) * mu * mu / (4 * math.pi * abs(p))
        assert abs(val - expected) < 1e-12

    def test_focusing_empty(self):
        assert al.ybar_bound(0.0, 0.0, 0.0, 1.0, 1.0, focusing=True) == 0.0

    def test_focusing_unit_example(self):
        val = al.ybar_bound(1.0, 1.0, math.sqrt(1.0 / TWO_PI), 1.0, 1.0, focusing=True)
        expected = 1.0 + 0.25 * (1.0 + math.sqrt(5.0 + 1.0 / math.pi)) ** 2
        assert abs(val - expected) < 1e-12

    def test_degenerate_rejected(self):
        with pytest.raises(ValueError):
            al.ybar_bound(1.0, 1.0, 0.1, 0.0, 1.0, focusing=True)
        with pytest.raises(ValueError):
            al.ybar_bound(-1.0, 1.0, 0.1, 1.0, 1.0, focusing=True)


class TestBackgroundSymbol:
    def test_basic_norms(self):
        bg = al.BackgroundSymbol(np.array([0.1, 2.0, 0.3]))
        assert bg.J == 1
        assert abs(bg.l1_norm() - 2.4) < 1e-14
        assert abs(bg.h1s1_norm() - (2 * 0.1 + 2.0 + 2 * 0.3)) < 1e-14
        assert bg.gamma_hat(0) == 2.0
        assert bg.gamma_hat(1) == 0.3 and bg.gamma_hat(-1) == 0.1
        assert bg.gamma_hat(5) == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            al.BackgroundSymbol(np.array([1.0, -0.1, 1.0]))
        with pytest.raises(ValueError):
            al.BackgroundSymbol(np.array([1.0, 2.0]))  # even length has no center

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, value):
        with pytest.raises(ValueError, match="finite"):
            al.BackgroundSymbol(np.array([0.1, value, 0.1]))


class TestSerialization:
    def test_state_round_trip(self, grid16):
        st = random_state(grid16, 3, seed=17)
        blob = json.dumps(al.state_to_dict(st))
        back = al.state_from_dict(json.loads(blob))
        assert back.grid.N == grid16.N and back.grid.M == grid16.M
        assert np.abs(back.weights - st.weights).max() < 1e-15
        assert np.abs(back.orbitals - st.orbitals).max() < 1e-15

    @settings(max_examples=40, deadline=None)
    @given(n=hst.integers(1, 8), rank=hst.integers(0, 3), seed=hst.integers(0, 2**32 - 1))
    def test_state_round_trip_bit_for_bit(self, n, rank, seed):
        st = state_of_rank(n, rank, seed)
        back = al.state_from_dict(json.loads(json.dumps(al.state_to_dict(st))))
        assert back.grid == st.grid
        assert back.weights.tobytes() == st.weights.tobytes()
        assert back.orbitals.tobytes() == st.orbitals.tobytes()

    def test_wrong_schema_rejected(self, grid8):
        st = plane_wave_state(grid8, 0, 1.0)
        d = al.state_to_dict(st)
        d["schema"] = "alber-lab/other-v9"
        with pytest.raises(ValueError):
            al.state_from_dict(d)

    @pytest.mark.parametrize(
        "change",
        [
            lambda d: [d],
            lambda d: {**d, "grid": None},
            lambda d: {**d, "grid": {"N": [1], "M": 6}},
            lambda d: {**d, "grid": {"N": math.inf, "M": 6}},
            lambda d: {**d, "weights": {"a": 1}},
            lambda d: {key: value for key, value in d.items() if key != "weights"},
            lambda d: {**d, "orbitals": [[0.0, 1.0]]},
            lambda d: {**d, "grid": {"N": 1.9, "M": 6}},
            lambda d: {**d, "grid": {"N": 1, "M": 6.5}},
            lambda d: {**d, "grid": {"N": True, "M": 6}},
        ],
        ids=["list", "null grid", "list N", "infinite N", "dict weights", "no weights", "short orbitals",
             "fractional N", "fractional M", "bool N"],
    )
    def test_not_a_state_document_rejected(self, change):
        # each of these once escaped as an AttributeError, TypeError, KeyError or OverflowError
        d = al.state_to_dict(plane_wave_state(al.SpectralGrid(1), 0, 1.0))
        with pytest.raises(ValueError, match="^state "):
            al.state_from_dict(change(d))

    def test_integral_float_grid_accepted(self):
        # the CLI schema's int rule: an integral float is an int, as JSON may write it
        d = al.state_to_dict(plane_wave_state(al.SpectralGrid(1), 0, 1.0))
        assert al.state_from_dict({**d, "grid": {"N": 1.0, "M": 6.0}}).grid == al.SpectralGrid(1, 6)

    def test_huge_grid_rejected(self):
        # a hand-made document with M = 0 leaves M to SpectralGrid, which refuses a grid numpy cannot index
        d = al.state_to_dict(plane_wave_state(al.SpectralGrid(1), 0, 1.0))
        with pytest.raises(ValueError, match="^state document is malformed: ValueError: N="):
            al.state_from_dict({**d, "grid": {"N": 1e300, "M": 0}})

    def test_nested_weights_rejected(self):
        grid = al.SpectralGrid(1)
        d = al.state_to_dict(al.MixedState(grid, np.array([0.5, 0.5]), np.eye(2, grid.n_modes)))
        with pytest.raises(ValueError, match="^weights must be 1-d"):
            al.state_from_dict({**d, "weights": [[0.5], [0.5]]})


def state_of_rank(n: int, rank: int, seed: int) -> al.MixedState:
    grid = al.SpectralGrid(n)
    return random_state(grid, rank, seed) if rank else al.MixedState.empty(grid)


class TestOneHomeFormulas:
    """density_samples, the orbital traces and the energy against the matrix route."""

    @settings(max_examples=40, deadline=None)
    @given(n=hst.integers(1, 8), rank=hst.integers(0, 3), seed=hst.integers(0, 2**32 - 1))
    def test_density_samples_match_diagonal_sums(self, n, rank, seed):
        st = state_of_rank(n, rank, seed)
        # diagonal sums are sqrt(2 pi) rho_hat(k), k = -2N..2N
        d = diagonal_sums(al.to_matrix(st).entries)
        k = np.arange(-2 * n, 2 * n + 1)
        expected = (np.exp(1j * np.outer(st.grid.points(), k)) @ d).real / TWO_PI
        got = al.density_samples(st)
        assert got.shape == (st.grid.M,)
        assert np.abs(got - expected).max() <= 1e-13 * max(1.0, float(st.weights.sum()))

    def test_density_samples_rank_zero(self, grid8):
        got = al.density_samples(al.MixedState.empty(grid8))
        assert got.shape == (grid8.M,) and np.all(got == 0.0)

    @settings(max_examples=40, deadline=None)
    @given(
        n=hst.integers(1, 8),
        rank=hst.integers(0, 3),
        seed=hst.integers(0, 2**32 - 1),
        s=hst.floats(0.0, 3.0),
    )
    def test_orbital_traces_match_matrix_diagonal(self, n, rank, seed, s):
        st = state_of_rank(n, rank, seed)
        diag = np.diag(al.to_matrix(st).entries).real
        n2 = st.grid.modes().astype(float) ** 2
        tol = 1e-12 * max(1.0, float(np.abs(diag).sum()) * (1.0 + n2.max()) ** max(s, 1.0))
        assert abs(al.mass(st) - diag.sum()) <= tol
        assert abs(al.kinetic_energy(st) - n2 @ diag) <= tol
        assert abs(al.hs1_norm_nonneg(st, s) - (1.0 + n2) ** s @ diag) <= tol

    @settings(max_examples=30, deadline=None)
    @given(
        n=hst.integers(1, 8),
        rank=hst.integers(0, 3),
        seed=hst.integers(0, 2**32 - 1),
        p=hst.sampled_from([-1.0, 0.5, 2.0]),
        q=hst.sampled_from([-1.0, 1.0, 3.0]),
    )
    def test_energy_one_formula(self, n, rank, seed, p, q):
        st = state_of_rank(n, rank, seed)
        value = al.energy(st, p, q)
        cfg = al.EvolveConfig(p, q, 0.1, 0.1)
        assert al.monitor(st, cfg).energy == value  # the same formula, bit for bit
        # Parseval on the density coefficients: ||rho||^2 = sum_k |d(k)|^2 / (2 pi)
        d = diagonal_sums(al.to_matrix(st).entries)
        direct = -p * al.kinetic_energy(st) + 0.5 * q * float(np.sum(np.abs(d) ** 2)) / TWO_PI
        assert abs(value - direct) <= 1e-12 * max(1.0, abs(p) * al.kinetic_energy(st) + abs(q))
