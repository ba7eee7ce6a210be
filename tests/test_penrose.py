"""Volterra kernel, dispersion function, margin scan, and constants.

The rank-one background Gamma_hat(0) = 2*pi with p = q = 1 admits closed
forms used as anchors throughout:
    Phi_1(tau)   = -4*pi*i*sin(tau)
    Phi~_1(lam)  = -4*pi*i/(lam^2+1)
    F_1(lam)     = (lam^2-1)/(lam^2+1), zeros at lam = +-1
"""

import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

import alber_lab as al
import alber_lab.penrose as penrose_mod

UNSTABLE = "remark-5-2-unstable"


@pytest.fixture(scope="module")
def rank_one():
    bg, p, q = al.background_preset(UNSTABLE)
    return bg, p, q


def seed_matrix(grid, entries_at):
    m = np.zeros((grid.n_modes, grid.n_modes), dtype=complex)
    for (i, j), v in entries_at.items():
        m[grid.N + i, grid.N + j] = v
    return al.OperatorMatrix(grid, m)


class TestVolterraKernel:
    def test_rank_one_closed_form(self, rank_one):
        bg, p, _ = rank_one
        tau = np.linspace(0.0, 12.0, 97)
        vals = al.volterra_kernel(bg, p, 1, tau)
        assert np.abs(vals - (-4j * math.pi * np.sin(tau))).max() < 1e-12

    def test_zero_background(self):
        bg = al.BackgroundSymbol(np.array([0.0]))
        assert al.volterra_kernel(bg, 1.0, 2, 1.5) == 0.0

    def test_l1_sup_bound(self):
        bg = al.BackgroundSymbol(np.array([0.3, 1.1, 0.2, 0.9, 0.1]))
        cap = 2.0 * bg.l1_norm()
        tau = np.linspace(0.0, 50.0, 4001)
        for k in (1, -2, 3):
            assert np.abs(al.volterra_kernel(bg, 0.7, k, tau)).max() <= cap + 1e-12

    def test_zero_mode_rejected(self, rank_one):
        bg, p, _ = rank_one
        with pytest.raises(ValueError):
            al.volterra_kernel(bg, p, 0, 1.0)


class TestLaplaceSymbol:
    def test_rank_one_closed_form(self, rank_one):
        bg, p, _ = rank_one
        for lam in (2.0 + 0.0j, 0.5 + 3.0j, 1.0 - 2.0j):
            expected = -4j * math.pi / (lam * lam + 1.0)
            assert abs(al.laplace_symbol(bg, p, 1, lam) - expected) < 1e-12

    def test_zero_background(self):
        bg = al.BackgroundSymbol(np.array([0.0]))
        assert al.laplace_symbol(bg, 1.0, 1, 1.0 + 1.0j) == 0.0

    def test_half_plane_guard(self, rank_one):
        bg, p, _ = rank_one
        with pytest.raises(ValueError):
            al.laplace_symbol(bg, p, 1, -0.1 + 1.0j)
        with pytest.raises(ValueError):
            al.laplace_symbol(bg, p, 1, 0.0 + 1.0j)

    def test_decay_bound(self):
        bg = al.BackgroundSymbol(np.array([0.4, 0.8, 0.4]))
        cap = 2.0 * bg.l1_norm()
        for sigma in (0.5, 1.0, 4.0):
            for s in (-3.0, 0.0, 2.0):
                val = al.laplace_symbol(bg, 1.2, 2, sigma + 1j * s)
                assert abs(val) <= cap / sigma + 1e-12

    def test_quadrature_cross_check(self, rank_one):
        # direct Laplace integral of the kernel, truncated at T = 40/Re(lam)
        bg, p, _ = rank_one
        for lam in (2.0 + 0.0j, 0.5 + 1.0j):
            T = 40.0 / lam.real
            tau = np.linspace(0.0, T, int(round(T / 5e-5)) + 1)
            integrand = np.exp(-lam * tau) * al.volterra_kernel(bg, p, 1, tau)
            quad = np.trapezoid(integrand, tau)
            assert abs(quad - al.laplace_symbol(bg, p, 1, lam)) < 1e-8


class TestDispersion:
    def test_rank_one_rational_form(self, rank_one):
        bg, p, q = rank_one
        for lam in (2.0 + 0.0j, 0.3 + 2.0j):
            expected = (lam * lam - 1.0) / (lam * lam + 1.0)
            assert abs(al.dispersion(bg, p, q, 1, lam) - expected) < 1e-12

    def test_zero_at_one(self, rank_one):
        bg, p, q = rank_one
        assert abs(al.dispersion(bg, p, q, 1, 1.0 + 0.0j)) < 1e-12

    def test_zero_background_is_one(self):
        bg = al.BackgroundSymbol(np.array([0.0]))
        assert al.dispersion(bg, 1.0, 1.0, 3, 0.7 + 0.2j) == 1.0

    def test_limit_at_infinity(self, rank_one):
        bg, p, q = rank_one
        assert abs(al.dispersion(bg, p, q, 1, 200.0 + 0.0j) - 1.0) < 1e-3


class TestPenroseMargin:
    def test_unstable_anchor(self, rank_one):
        bg, p, q = rank_one
        report = al.penrose_margin(bg, p, q, 1)
        assert report.margin <= 1e-6
        assert report.zeros, "the k=1 mode must be flagged unstable"
        assert min(abs(z - 1.0) for z in report.zeros) <= 1e-6

    def test_zero_background_margin_one(self):
        bg = al.BackgroundSymbol(np.array([0.0]))
        for k in (1, 2, 5):
            report = al.penrose_margin(bg, 1.0, 1.0, k)
            assert report.margin == 1.0
            assert not report.zeros

    def test_broad_defocusing_stable(self):
        n = np.arange(-8, 9, dtype=float)
        bg = al.BackgroundSymbol(0.05 * (1.0 + n * n) ** (-2.0))
        report = al.penrose_margin(bg, 1.0, -1.0, 1)
        assert report.margin > 0.0
        assert not report.zeros

    def test_stable_preset(self):
        bg, p, q = al.background_preset("stable-broad")
        for k in (1, 2):
            report = al.penrose_margin(bg, p, q, k)
            assert report.margin > 0.01
            assert not report.zeros

    def test_mode_sign_symmetry(self):
        bg, p, q = al.background_preset("stable-broad")
        for k in (1, 3):
            a = al.penrose_margin(bg, p, q, k).margin
            b = al.penrose_margin(bg, p, q, -k).margin
            assert abs(a - b) <= 1e-6 * max(a, b)

    def test_eta_line_diagnostics(self, rank_one):
        bg, p, q = rank_one
        report = al.penrose_margin(bg, p, q, 1)
        assert len(report.eta_line_margins) == 3
        etas = [e for e, _ in report.eta_line_margins]
        assert etas == sorted(etas)

    def test_report_serializable(self, rank_one):
        import json

        bg, p, q = rank_one
        blob = json.dumps(al.penrose_margin(bg, p, q, 1).to_dict())
        assert "margin" in blob

    @pytest.mark.parametrize("name", ["p", "q"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, rank_one, name, bad):
        bg, p, q = rank_one
        args = {"p": p, "q": q, name: bad}
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            al.penrose_margin(bg, k=1, **args)


# Margins of the parent grid + Nelder-Mead + Newton search, frozen:
# the presets for k = 1..8, and the random family below for seeds 0, 1.
PARENT_PRESET_MARGINS = {
    "remark-5-2-unstable": [
        0.0, 0.0007071062508572347, 0.0008819163197632703, 0.0009354134697441774,
        0.0009591653838646583, 0.0009718243709792184, 0.0009793782692387024, 0.0009842500153813207,
    ],
    "stable-broad": [
        0.04327304743745107, 0.03312967736722614, 0.03157527183458475, 0.0314879718438745,
        0.03144996129267704, 0.031429786746820405, 0.03141776496062659, 0.03141001634673284,
    ],
}
PARENT_RANDOM_MARGINS = {
    (0, 4): [0.023071267382937244, 0.018113557488047664, 0.01800376979590032, 0.017977817845056875,
             0.017973313808591563, 0.01799852174496065, 0.018014044866029512, 0.0180244401635826],
    (0, 5): [0.02021467823219089, 0.018147774532159634, 0.017249744816797953, 0.01716677618552424,
             0.017112818713857687, 0.017064985517778453, 0.017055189262588987, 0.01704902414803605],
    (0, 6): [0.023147663425352707, 0.018727098710442154, 0.01851469875208296, 0.018510100911645806,
             0.018516205590098533, 0.018528141360056302, 0.018536176144805707, 0.018545286263781255],
    (1, 4): [0.05660960356543931, 0.0246507119902178, 0.02358009702595078, 0.02345044397085579,
             0.05220934303046511, 0.05184492891542619, 0.05194621558086452, 0.05201623088986704],
    (1, 5): [0.06252106620511315, 0.02423516035482081, 0.02323549618712939, 0.02295268148806062,
             0.022800638097580685, 0.022750435251520155, 0.02273339749355355, 0.022722253350904165],
    (1, 6): [0.023461479679088883, 0.020292680485207017, 0.020159433531140823, 0.020035578253225224,
             0.020038467264821752, 0.02005898486134197, 0.020056782409294895, 0.020067037797747423],
}
RANDOM_SLOTS = ((4, 1.0), (5, -1.0), (6, 1.0))


def random_family(seed):
    """Symbols proportional to <n>^-4 * U(0.5, 1.5) on |n| <= J, mass 0.5."""
    gen = np.random.default_rng(seed)
    for J, q in RANDOM_SLOTS:
        n = np.arange(-J, J + 1, dtype=float)
        s = (1.0 + n * n) ** -2.0 * gen.uniform(0.5, 1.5, n.size)
        yield J, q, al.BackgroundSymbol(0.5 * s / s.sum())


def written_out_terms(bg, p, k):
    """Coefficients Gh(j+k) - Gh(j) and frequencies p*k*(2j+k) over every j
    that can touch the support, zero coefficients included."""
    sym = list(bg.symbol)

    def g(n):
        return sym[n + bg.J] if abs(n) <= bg.J else 0.0

    j = range(-bg.J - abs(k), bg.J + abs(k) + 1)
    return np.array([g(i + k) - g(i) for i in j]), np.array([p * k * (2.0 * i + k) for i in j])


def written_out_f(c, omega, q, lam):
    lam = np.asarray(lam, dtype=complex)
    total = np.zeros_like(lam)
    for cj, wj in zip(c, omega):  # one term at a time keeps long lines small
        total += cj / (lam - 1j * wj)
    return 1.0 - 1j * q / (2.0 * math.pi) * total


def winding_count(c, omega, q, delta):
    """Zeros of F_k in Re(lambda) > delta by the argument principle.

    The contour is the line Re(lambda) = delta, closed at infinity where
    F_k -> 1.  Walking it upwards leaves the half-plane on the right, so
    the zero count is minus the winding of F_k.  Samples are refined until
    F_k turns by at most 0.3 rad between neighbours.
    """
    scale = 1.0 + np.abs(omega).max()
    s = np.unique(np.concatenate(
        [scale * np.tan(np.linspace(-1.57, 1.57, 2001))]
        + [w + delta * np.sinh(np.linspace(-20.0, 20.0, 401)) for w in omega]
    ))
    for _ in range(80):
        f = written_out_f(c, omega, q, delta + 1j * s)
        turn = np.angle(f[1:] / f[:-1])
        coarse = np.abs(turn) > 0.3
        if not coarse.any():
            break
        s = np.unique(np.concatenate([s, 0.5 * (s[1:] + s[:-1])[coarse]]))
    assert not coarse.any(), "contour not resolved"
    winding = turn.sum() / (2.0 * math.pi)
    assert abs(winding - round(winding)) < 0.05
    return -round(winding)


def line_grid_minimum(c, omega, q, eta):
    """min |F_k| on Re(lambda) = eta, capped at its limit 1 at infinity.

    Samples: a 0.01 grid over the resonances plus, around each pole, a
    sinh-spaced set reaching down to eta / 100; then 2001 points between
    the neighbours of each of the 64 smallest sampled local minima.
    """
    span = np.abs(omega).max() + 10.0
    s = np.unique(np.concatenate(
        [np.arange(-span, span, 0.01)] + [w + eta * np.sinh(np.linspace(-12.0, 12.0, 481)) for w in omega]
    ))
    a = np.abs(written_out_f(c, omega, q, eta + 1j * s))
    local = np.flatnonzero((a[1:-1] <= a[:-2]) & (a[1:-1] <= a[2:])) + 1
    local = local[np.argsort(a[local])[:64]]  # a flat |F_k| has a local minimum per sample
    fine = np.linspace(s[local - 1], s[local + 1], 2001).ravel()
    a_fine = np.abs(written_out_f(c, omega, q, eta + 1j * fine))
    return float(np.concatenate([[1.0], a, a_fine]).min())


symbols = hst.integers(0, 6).flatmap(
    lambda J: hst.lists(hst.floats(0.0, 1.0), min_size=2 * J + 1, max_size=2 * J + 1)
)


class TestExactPenrose:
    @settings(max_examples=50, deadline=None)
    @given(
        symbol=symbols,
        log_scale=hst.floats(-4.0, 1.0),
        k=hst.integers(1, 8),
        q=hst.sampled_from([1.0, -1.0]),
        p=hst.sampled_from([0.5, 1.0, 2.0]),
    )
    def test_against_independent_oracles(self, symbol, log_scale, k, q, p):
        # weak coupling (small symbols) puts the line minimum beside a pole
        bg = al.BackgroundSymbol(np.array(symbol) * 10.0**log_scale)
        scan = al.PenroseScan()
        eta_min = float(np.min(scan.eta_grid))
        report = al.penrose_margin(bg, p, q, k, scan)
        for z in report.zeros:
            assert z.real > 0.0
            assert abs(al.dispersion(bg, p, q, k, z)) <= 1e-8
        c, omega = written_out_terms(bg, p, k)
        if not c.any():
            assert report.margin == 1.0 and not report.zeros
            return
        delta = 1e-6
        assert sum(z.real > delta for z in report.zeros) == winding_count(c, omega, q, delta)
        at_argmin = abs(al.dispersion(bg, p, q, k, report.argmin_lambda))
        assert math.isclose(report.margin, min(1.0, at_argmin), rel_tol=1e-12, abs_tol=1e-15)
        if not report.zeros:
            assert report.argmin_lambda.real == eta_min
            assert report.margin <= line_grid_minimum(c, omega, q, eta_min) * (1.0 + 1e-9)

    def test_weak_coupling_minimum_beside_pole(self):
        # the zeros sit within 3e-4 of the poles i*omega = +-18i, and the line
        # minimum lies beside a pole, where no zero-seeded bracket reaches
        bg, p, q, k = al.BackgroundSymbol(np.array([0.0015586265119682452])), 2.0, 1.0, 3
        report = al.penrose_margin(bg, p, q, k)
        c, omega = written_out_terms(bg, p, k)
        grid_min = line_grid_minimum(c, omega, q, 1e-3)
        assert not report.zeros and grid_min < 0.9
        assert grid_min * (1.0 - 1e-6) <= report.margin <= grid_min * (1.0 + 1e-9)

    @pytest.mark.parametrize("name", sorted(PARENT_PRESET_MARGINS))
    def test_presets_match_parent(self, name):
        bg, p, q = al.background_preset(name)
        for k, old in enumerate(PARENT_PRESET_MARGINS[name], start=1):
            report = al.penrose_margin(bg, p, q, k)
            assert math.isclose(report.margin, old, rel_tol=1e-9, abs_tol=1e-15)
            if name == UNSTABLE and k == 1:
                assert len(report.zeros) == 1 and abs(report.zeros[0] - 1.0) <= 1e-9
            else:
                assert not report.zeros

    def test_random_family_never_above_parent(self):
        below = 0
        for seed in (0, 1):
            for J, q, bg in random_family(seed):
                for k, old in enumerate(PARENT_RANDOM_MARGINS[(seed, J)], start=1):
                    report = al.penrose_margin(bg, 1.0, q, k)
                    assert not report.zeros
                    assert report.margin <= old * (1.0 + 1e-9)
                    below += report.margin < old * (1.0 - 1e-6)
        assert below > 0  # the grid search overstated some of these margins

    def test_scan_has_only_eta_grid(self):
        assert list(al.PenroseScan.__dataclass_fields__) == ["eta_grid"]

    @pytest.mark.parametrize("grid", [[], [0.0, 1.0], [-1.0], [math.nan, 1.0], [[1.0]]])
    def test_scan_rejects_bad_eta_grid(self, grid):
        with pytest.raises(ValueError):
            al.PenroseScan(np.array(grid))

    def test_eta_lines_are_line_minima(self, rank_one):
        bg, p, q = rank_one
        report = al.penrose_margin(bg, p, q, 2)
        c, omega = written_out_terms(bg, p, 2)
        for eta, line in report.eta_line_margins:
            grid_min = line_grid_minimum(c, omega, q, eta)
            assert grid_min * (1.0 - 1e-4) <= line <= grid_min * (1.0 + 1e-9)
        assert report.margin == report.eta_line_margins[0][1]


def test_import_loads_no_scipy():
    code = "import sys, alber_lab; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    src = os.path.dirname(os.path.dirname(al.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env)
    assert out.stdout.strip() == "[]"


class TestFreeDensity:
    def test_initial_time_is_diagonal_sum(self, grid8):
        u0 = seed_matrix(grid8, {(1, 0): 0.5, (3, 2): 0.25, (2, 2): 1.0})
        val = al.free_density(u0, 1.0, 1, np.array([0.0]))[0]
        assert abs(val - 0.75) < 1e-14

    def test_diagonal_matrix_vanishes(self, grid8):
        u0 = seed_matrix(grid8, {(0, 0): 1.0, (1, 1): 2.0})
        t = np.linspace(0, 5, 11)
        assert np.abs(al.free_density(u0, 1.0, 2, t)).max() == 0.0

    def test_single_entry_phase(self, grid8):
        u0 = seed_matrix(grid8, {(1, 0): 1.0})
        t = np.linspace(0.0, 3.0, 7)
        vals = al.free_density(u0, 1.0, 1, t)
        assert np.abs(vals - np.exp(1j * t)).max() < 1e-13

    def test_brute_force_oracle(self, grid8, rng):
        nm = grid8.n_modes
        u = rng.standard_normal((nm, nm)) + 1j * rng.standard_normal((nm, nm))
        u0 = al.OperatorMatrix(grid8, u)
        modes = grid8.modes()
        t = np.array([0.0, 0.37, 1.9])
        p = 1.7
        for k in (1, -1, 3, -4):
            brute = np.zeros(t.size, dtype=complex)
            for j in modes:
                if abs(j + k) <= grid8.N:
                    brute += u[grid8.N + j + k, grid8.N + j] * np.exp(
                        1j * p * k * (2 * j + k) * t
                    )
            vals = al.free_density(u0, p, k, t)
            assert np.abs(vals - brute).max() < 1e-12

    def test_amplitude_bound(self, grid8, rng):
        nm = grid8.n_modes
        u = rng.standard_normal((nm, nm)) + 1j * rng.standard_normal((nm, nm))
        u0 = al.OperatorMatrix(grid8, u)
        k = 2
        cap = np.abs(np.diagonal(u, offset=-k)).sum()
        t = np.linspace(0, 20, 501)
        assert np.abs(al.free_density(u0, 0.9, k, t)).max() <= cap + 1e-12


class TestVolterraSolve:
    def test_zero_background_reproduces_free(self, grid8, rng):
        nm = grid8.n_modes
        u = rng.standard_normal((nm, nm)) + 1j * rng.standard_normal((nm, nm))
        u0 = al.OperatorMatrix(grid8, u)
        bg = al.BackgroundSymbol(np.array([0.0]))
        t = np.linspace(0.0, 2.0, 401)
        got = al.volterra_solve(bg, u0, 1.0, 1.0, 1, t)
        assert np.abs(got - al.free_density(u0, 1.0, 1, t)).max() < 1e-12

    def test_zero_coupling_reproduces_free(self, grid8, rng):
        nm = grid8.n_modes
        u = rng.standard_normal((nm, nm)).astype(complex)
        u0 = al.OperatorMatrix(grid8, u)
        bg = al.BackgroundSymbol(np.array([0.2, 1.0, 0.2]))
        t = np.linspace(0.0, 2.0, 401)
        got = al.volterra_solve(bg, u0, 1.0, 0.0, 1, t)
        assert np.abs(got - al.free_density(u0, 1.0, 1, t)).max() < 1e-12

    def test_cross_check_with_linearized(self, rank_one):
        bg, p, q = rank_one
        grid = al.SpectralGrid(6)
        m = np.zeros((13, 13), dtype=complex)
        m[grid.N + 1, grid.N] = 1.0
        m[grid.N, grid.N + 1] = 1.0
        u0 = al.OperatorMatrix(grid, m, hermitian=True)
        dt, T = 2e-4, 5.0
        cfg = al.EvolveConfig(p, q, dt, T, record_every=100)
        traj = al.linearized_evolve(u0, bg, cfg)
        fine = np.arange(int(round(T / dt)) + 1) * dt
        vol = al.volterra_solve(bg, u0, p, q, 1, fine)
        k = list(traj.k_modes).index(1)
        rel = np.abs(vol[::100] - traj.density_modes[:, k]).max() / np.abs(vol).max()
        assert rel <= 1e-6

    @settings(max_examples=12, deadline=None)
    @given(
        J=hst.integers(0, 2),
        k=hst.sampled_from([-2, -1, 1, 2, 3]),
        seed=hst.integers(0, 2**32 - 1),
        p=hst.sampled_from([-1.0, 0.5, 1.0]),
        q=hst.sampled_from([-3.0, -1.0, 1.0, 2.0]),
    )
    def test_matches_quadratic_product_trapezoid(self, J, k, seed, p, q):
        # the recurrence is the O(n^2) product trapezoid, reordered exactly
        gen = np.random.default_rng(seed)
        grid = al.SpectralGrid(J + 4)
        bg = al.BackgroundSymbol(gen.uniform(0.0, 2.0, 2 * J + 1))
        nm = grid.n_modes
        u0 = al.OperatorMatrix(grid, gen.standard_normal((nm, nm)) + 1j * gen.standard_normal((nm, nm)))
        j = np.arange(-J - abs(k), J + abs(k) + 1)
        dt = 0.05 / (abs(p * k) * np.abs(2 * j + k).max())
        t = np.arange(2000) * dt
        got = al.volterra_solve(bg, u0, p, q, k, t)
        phi = al.volterra_kernel(bg, p, k, t)
        rho_free = al.free_density(u0, p, k, t)
        coef = 1j * q / (2.0 * math.pi)
        want = np.empty(t.size, dtype=complex)
        want[0] = rho_free[0]
        for i in range(1, t.size):
            acc = 0.5 * phi[i] * want[0] + np.dot(phi[1:i][::-1], want[1:i])
            want[i] = (rho_free[i] + coef * dt * acc) / (1.0 - coef * 0.5 * dt * phi[0])
        assert np.abs(got - want).max() <= 1e-10 * np.abs(want).max()

    def test_nonuniform_grid_rejected(self, grid8, rank_one):
        bg, p, q = rank_one
        u0 = seed_matrix(grid8, {(1, 0): 1.0})
        with pytest.raises(ValueError):
            al.volterra_solve(bg, u0, p, q, 1, np.array([0.0, 0.1, 0.3]))

    @pytest.mark.parametrize("name", ["p", "q"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, grid8, rank_one, name, bad):
        bg, p, q = rank_one
        args = {"p": p, "q": q, name: bad}
        u0 = seed_matrix(grid8, {(1, 0): 1.0})
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            al.volterra_solve(bg, u0, k=1, t_grid=np.linspace(0.0, 1.0, 101), **args)

    @pytest.mark.parametrize("where", [(0, 0), (1, 0)])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_datum_rejected(self, rank_one, monkeypatch, where, bad):
        def no_work(*args, **kwargs):
            raise AssertionError("volterra_solve started work on a non-finite input")

        monkeypatch.setattr(penrose_mod, "free_density", no_work)
        grid = al.SpectralGrid(4)
        u0 = seed_matrix(grid, {(1, 0): 1.0, where: bad})
        bg, p, q = rank_one
        with pytest.raises(ValueError, match="^u0 must be finite"):
            al.volterra_solve(bg, u0, p, q, 1, np.linspace(0.0, 1.0, 101))

    def test_coarse_grid_warns(self, grid8):
        bg = al.BackgroundSymbol(np.array([0.2, 1.0, 0.2]))
        u0 = seed_matrix(grid8, {(1, 0): 1.0})
        with pytest.warns(RuntimeWarning):
            al.volterra_solve(bg, u0, 4.0, 1.0, 2, np.linspace(0.0, 2.0, 11))

    def test_weighted_density_diagnostic_bounded(self):
        # discrete form of the propagator estimate: for a scanned-stable
        # background the eta-weighted density energy is controlled by
        # ||U0||_{H1S1}^2/(kappa^2 eta) times a bounded prefactor
        bg, p, q = al.background_preset("stable-broad")
        grid = al.SpectralGrid(8)
        kappa = min(al.penrose_margin(bg, p, q, k).margin for k in (1, 2, 3, 4))
        eta, T, dt = 1.0, 8.0, 1e-3
        cfg = al.EvolveConfig(p, q, dt, T, record_every=10)
        ratios = []
        for seed in range(5):
            gen = np.random.default_rng(seed)
            u0 = al.random_hermitian_perturbation(grid, 2, gen)
            traj = al.linearized_evolve(u0, bg, cfg)
            t = traj.times
            k = np.asarray(traj.k_modes)
            w = np.exp(-2.0 * eta * t)
            lhs = 0.0
            for i, kk in enumerate(k):
                if kk == 0:
                    continue
                lhs += (1.0 + kk * kk) * np.trapezoid(
                    w * np.abs(traj.density_modes[:, i]) ** 2, t
                )
            denom = al.sobolev_schatten_norm(u0, 1.0) ** 2 / (kappa**2 * eta)
            ratios.append(lhs / denom)
        assert all(np.isfinite(r) for r in ratios)
        assert max(ratios) < 50.0  # boundedness at desk scale, not a sharp value


STABLE_CONSTANTS_INPUT = {
    "gamma_h1s1": 0.5,
    "gamma_l1": 0.3,
    "kappa": 0.05,
    "q": -1.0,
    "eta": 0.7,
    "epsilon": 1e-3,
    "c_bilinear": 0.2,
}


class TestPropagatorConstants:
    def test_unit_example(self):
        # A = B = 1: h1s1 = 1, l1 = 2*pi, kappa = 1, |q| = 1, C = 1
        consts = al.propagator_constants(1.0, 2 * math.pi, 1.0, 1.0, 1.0, 1e-2, 1.0)
        assert abs(consts.c_star - 9.0) < 1e-12
        assert abs(consts.c_gamma_eta - 3.0) < 1e-12  # 1 + 1*(1+1/1)/1

    def test_large_kappa_limit(self):
        a = 0.7
        consts = al.propagator_constants(a, 1.0, 1e12, 1.0, 1.0, 1e-2, 1.0)
        assert abs(consts.c_star - 3.0 * (1.0 + a)) < 1e-9

    def test_epsilon_power_law(self):
        c1 = al.propagator_constants(0.5, 0.3, 0.1, -1.0, 1.0, 1e-2, 0.2)
        c2 = al.propagator_constants(0.5, 0.3, 0.1, -1.0, 1.0, 2e-2, 0.2)
        assert abs(c2.t_star / c1.t_star - 2.0 ** (-0.2)) < 1e-12

    def test_all_positive_when_stable(self):
        c = al.propagator_constants(0.5, 0.3, 0.05, -1.0, 0.7, 1e-3, 0.2)
        for name in ("c_gamma_eta", "c_star", "c_gamma", "t_star"):
            assert getattr(c, name) > 0.0

    def test_unstable_rejected(self):
        with pytest.raises(al.UnstableBackgroundError):
            al.propagator_constants(0.5, 0.3, 0.0, 1.0, 1.0, 1e-2, 0.2)

    @pytest.mark.parametrize("name", list(STABLE_CONSTANTS_INPUT))
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, name, bad):
        args = {**STABLE_CONSTANTS_INPUT, name: bad}
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            al.propagator_constants(**args)

    @pytest.mark.parametrize("name", ["eta", "epsilon", "c_bilinear"])
    @pytest.mark.parametrize("bad", [0.0, -1.0])
    def test_non_positive_rejected(self, name, bad):
        args = {**STABLE_CONSTANTS_INPUT, name: bad}
        with pytest.raises(ValueError, match=f"^{name} must be positive"):
            al.propagator_constants(**args)

    def test_serializable(self):
        import json

        c = al.propagator_constants(0.5, 0.3, 0.05, -1.0, 0.7, 1e-3, 0.2)
        assert "t_star" in json.dumps(c.to_dict())
