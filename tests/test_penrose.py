"""Volterra kernel, dispersion function, Penrose margin, and constants.

The rank-one background Gamma_hat(0) = 2*pi with p = q = 1 admits closed
forms used as anchors throughout:
    Phi_1(tau)   = -4*pi*i*sin(tau)
    Phi~_1(lam)  = -4*pi*i/(lam^2+1)
    F_1(lam)     = (lam^2-1)/(lam^2+1), zeros at lam = +-1
"""

import json
import math
import os
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

import alber_lab as al
import alber_lab.penrose as penrose_mod
from alber_lab import cli

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

    def test_eta_ladder_doubles(self):
        # stable-broad has zeros on the imaginary axis, so its margin grows
        # linearly with the line it is taken on
        bg, p, q = al.background_preset("stable-broad")
        report = al.penrose_margin(bg, p, q, 1, 2e-3)
        assert [e for e, _ in report.eta_line_margins] == [2e-3, 4e-3, 8e-3]
        lines = [m for _, m in al.penrose_margin(bg, p, q, 1).eta_line_margins]
        assert [round(m, 4) for m in lines] == [0.0433, 0.0861, 0.1686]
        assert report.margin == lines[1]

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
        eta_min = 1e-3
        report = al.penrose_margin(bg, p, q, k)
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

    @pytest.mark.parametrize("eta_min", [0.0, -1.0, math.nan, math.inf, -math.inf, 1e308])  # 4e308 overflows
    def test_rejects_bad_eta_min(self, rank_one, eta_min):
        with pytest.raises(ValueError, match="^eta_min"):
            al.penrose_margin(*rank_one, 1, eta_min)

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


def golden_penrose_margin(bg, p, q, k, eta_min=1e-3):
    """penrose_margin as it was with an 80-step golden-section search on
    every bracket of the line minimum, frozen: the reference for the Newton
    search.  Also returns Im(lambda) of the minimum on each of the three lines."""
    c, omega = penrose_mod._kernel_terms(bg, p, k)
    eta = eta_min * np.array([1.0, 2.0, 4.0])
    if c.size == 0:
        return al.PenroseReport(k, 1.0, complex(eta[0]), [], [(float(e), 1.0) for e in eta]), np.zeros(3)
    coef = 1j * q / (2.0 * math.pi)

    def f_value(lam):
        return 1.0 - coef * np.sum(c / (np.asarray(lam, dtype=complex)[..., None] - 1j * omega), axis=-1)

    z = np.linalg.eigvals(np.diag(1j * omega) + coef * np.outer(c, np.ones(c.size)))
    with np.errstate(all="ignore"):
        for _ in range(penrose_mod.NEWTON_POLISH):
            newton = z - f_value(z) / (coef * np.sum(c / (z[:, None] - 1j * omega) ** 2, axis=-1))
            z = np.where(np.abs(f_value(newton)) < np.abs(f_value(z)), newton, z)
        residual = np.abs(f_value(z))
    growing = (residual <= penrose_mod.ZERO_RESIDUAL) & (z.real > penrose_mod.BOUNDARY_RE)
    zeros = sorted((complex(w) for w in z[growing]), key=lambda w: (-w.real, abs(w.imag)))

    residue, lines = -coef * c, eta[:, None]
    centre = residue / (2.0 * lines)
    shifted = f_value(lines + 1j * omega) - centre
    with np.errstate(all="ignore"):
        nearest = centre - np.abs(centre) * shifted / np.abs(shifted)
        beside = np.nan_to_num((residue / nearest).imag, posinf=0.0, neginf=0.0)
    seeds = np.concatenate([np.broadcast_to(z.imag, beside.shape), omega + beside], axis=1)
    half = 0.5 * np.abs(seeds[..., None] - omega).min(axis=-1)
    lo, hi = seeds - half, seeds + half
    g = (math.sqrt(5.0) - 1.0) / 2.0
    x1, x2 = hi - g * (hi - lo), lo + g * (hi - lo)
    f1, f2 = np.abs(f_value(lines + 1j * x1)), np.abs(f_value(lines + 1j * x2))
    for _ in range(80):
        left = f1 < f2
        lo, hi = np.where(left, lo, x1), np.where(left, x2, hi)
        x = np.where(left, hi - g * (hi - lo), lo + g * (hi - lo))
        fx = np.abs(f_value(lines + 1j * x))
        x1, f1, x2, f2 = (
            np.where(left, x, x2), np.where(left, fx, f2), np.where(left, x1, x), np.where(left, f1, fx)
        )
    s, line = np.where(f1 <= f2, x1, x2), np.minimum(f1, f2)
    best = np.argmin(line, axis=1)
    s, line = s[np.arange(3), best], np.minimum(line[np.arange(3), best], 1.0)
    eta_lines = [(float(e), float(m)) for e, m in zip(eta, line)]
    if zeros:
        i = int(np.argmin(np.where(growing, residual, np.inf)))
        return al.PenroseReport(k, float(residual[i]), complex(z[i]), zeros, eta_lines), s
    return al.PenroseReport(k, float(line[0]), complex(eta[0], s[0]), zeros, eta_lines), s


def rounding_of_f(bg, p, q, k, lam):
    """A bound on the rounding error of |F_k(lam)| summed term by term:
    eps * (1 + sum_j |(q/2pi) c_j / (lam - i*omega_j)|).  Near a zero of a
    strong symbol the terms cancel, and |F_k| is known to no better."""
    c, omega = penrose_mod._kernel_terms(bg, p, k)
    return np.finfo(float).eps * (1.0 + np.abs(q / (2.0 * math.pi) * c / (lam - 1j * omega)).sum())


class TestNewtonLineMinimum:
    @settings(max_examples=80, deadline=None)
    @given(
        symbol=hst.integers(0, 8).flatmap(
            lambda J: hst.lists(hst.floats(0.0, 1.0), min_size=2 * J + 1, max_size=2 * J + 1)
        ),
        log_scale=hst.floats(-4.0, 2.0),
        k=hst.integers(1, 8),
        p=hst.sampled_from([-2.0, -1.0, -0.5, 0.5, 1.0, 2.0]),
        q=hst.sampled_from([1.0, -1.0]),
        eta_min=hst.sampled_from([1e-3, 0.1]),
    )
    def test_matches_golden_section(self, symbol, log_scale, k, p, q, eta_min):
        bg = al.BackgroundSymbol(np.array(symbol) * 10.0**log_scale)
        report = al.penrose_margin(bg, p, q, k, eta_min)
        frozen, s = golden_penrose_margin(bg, p, q, k, eta_min)
        assert report.zeros == frozen.zeros
        assert len(report.eta_line_margins) == 3
        for (eta, line), (eta_frozen, line_frozen), s_line in zip(report.eta_line_margins, frozen.eta_line_margins, s):
            assert eta == eta_frozen
            if abs(line - line_frozen) > 1e-12 * line_frozen + 2.0 * rounding_of_f(bg, p, q, k, eta + 1j * s_line):
                # golden section assumes one minimum per bracket; where a strong
                # symbol puts two in one, it may stop in the higher one
                c, omega = written_out_terms(bg, p, k)
                grid_min = line_grid_minimum(c, omega, q, eta)
                assert line < line_frozen
                assert grid_min * (1.0 - 1e-4) <= line <= grid_min * (1.0 + 1e-9)
        if frozen.zeros:
            assert report.margin == frozen.margin and report.argmin_lambda == frozen.argmin_lambda
        else:
            assert report.margin == report.eta_line_margins[0][1]

    def test_seed_below_both_ends_is_refined(self):
        # the bracket seeded at a zero near the axis has |F_k| rising at both
        # ends, so phi' changes sign twice inside it; its seed lies below both
        bg = al.BackgroundSymbol(np.array([0.5984520494650267, 34.8355665046528, 12.62383569425889]))
        p, q, k = -2.0, -1.0, 3
        report = al.penrose_margin(bg, p, q, k)
        frozen, _ = golden_penrose_margin(bg, p, q, k)
        assert not report.zeros and report.margin < 1e-4
        assert math.isclose(report.margin, frozen.margin, rel_tol=1e-12)

    def test_random_family_takes_few_evaluations(self, monkeypatch):
        # J = 4, 5, 6 as in the stability benchmark: 3 evaluations polish the
        # zeros, 1 seeds the brackets, 1 reads their ends and seeds, and the
        # rest are Newton steps (the golden search took 80 per line minimum)
        calls = [0]
        evaluate = penrose_mod._dispersion_derivatives

        def counted(*args):
            calls[0] += 1
            return evaluate(*args)

        monkeypatch.setattr(penrose_mod, "_dispersion_derivatives", counted)
        most = 0
        for seed in range(10):
            for J, q, bg in random_family(seed):
                for k in range(1, 9):
                    for eta_min in (1e-3, 0.1):
                        calls[0] = 0
                        al.penrose_margin(bg, 1.0, q, k, eta_min)
                        most = max(most, calls[0])
        assert 5 < most <= 12

    @pytest.mark.parametrize("scale", [1e-150, 1e-8, 1.0, 1e150])
    def test_extreme_amplitudes_warn_nothing(self, scale):
        backgrounds = [al.background_preset(name) for name in ("stable-broad", UNSTABLE)]
        backgrounds += [(bg, 1.0, q) for _, q, bg in random_family(0)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for bg, p, q in backgrounds:
                scaled = al.BackgroundSymbol(bg.symbol * scale)
                for k in range(1, 9):
                    for eta_min in (1e-3, 0.1):
                        report = al.penrose_margin(scaled, p, q, k, eta_min)
                        assert math.isfinite(report.margin) and 0.0 <= report.margin <= 1.0
                        assert all(0.0 <= line <= 1.0 for _, line in report.eta_line_margins)


class TestUnresolvedZeros:
    """A growing zero that the polish cannot resolve is an error, not a stable verdict."""

    def scaled_unstable(self, scale):
        bg, p, q = al.background_preset(UNSTABLE)
        return al.BackgroundSymbol(bg.symbol * scale), p, q

    def test_strong_coupling_raises(self):
        # at 1e15 the eigenvalue lands at 4.47e7 + 4.7e3i and two Newton steps leave |F_1| = 2.3e-4
        bg, p, q = self.scaled_unstable(1e15)
        with pytest.raises(ValueError, match=r"^background: at k=1 .* residual \|F_k\| = 2\.\d+e-04 > ZERO_RESIDUAL"):
            al.penrose_margin(bg, p, q, 1)

    def test_resolvable_zero_still_reported(self):
        # at 1e14 the zero sqrt(2) * 1e7 is resolved, as before
        bg, p, q = self.scaled_unstable(1e14)
        report = al.penrose_margin(bg, p, q, 1)
        assert len(report.zeros) == 1
        assert abs(report.zeros[0].real / (math.sqrt(2.0) * 1e7) - 1.0) < 1e-6
        assert report.margin <= penrose_mod.ZERO_RESIDUAL


def loop_derivatives(c, omega, coef, lam):
    """F_k, F_k' and F_k'' over one mode's own pole terms (the evaluator as it was)."""
    gap = np.asarray(lam, dtype=complex)[..., None] - 1j * omega
    term2 = c / gap**2
    return 1.0 - coef * (c / gap).sum(axis=-1), coef * term2.sum(axis=-1), -2.0 * coef * (term2 / gap).sum(axis=-1)


def loop_line_minimum(derivatives, residue, omega, zeros, eta):
    """The per-mode safeguarded Newton line minimum as it was, frozen."""
    eta = eta[:, None]
    centre = residue / (2.0 * eta)
    with np.errstate(all="ignore"):
        shifted = derivatives(eta + 1j * omega)[0] - centre
        nearest = centre - np.abs(centre) * shifted / np.abs(shifted)
        beside = np.nan_to_num((residue / nearest).imag, posinf=0.0, neginf=0.0)
        seeds = np.concatenate([np.broadcast_to(zeros.imag, beside.shape), omega + beside], axis=1)
        half = 0.5 * np.abs(seeds[..., None] - omega).min(axis=-1)
        points = (seeds[..., None] + half[..., None] * np.array([-1.0, 0.0, 1.0])).reshape(-1, 3)
        row = np.repeat(eta, seeds.shape[1])
        f, df, d2f = derivatives(row[:, None] + 1j * points)
        value = np.abs(f)
        s = points[np.arange(len(points)), value.argmin(axis=1)]
        line = value.min(axis=1)
        falling = (df / f).imag
        dip = (falling[:, 0] > 0.0) & (falling[:, 2] < 0.0) | (value[:, 1] < np.minimum(value[:, 0], value[:, 2]))
        active = np.flatnonzero(dip)
        row, (lo, t, hi) = row[active], points[active].T
        f, df, d2f = f[active, 1], df[active, 1], d2f[active, 1]
        floor = 4.0 * np.finfo(float).eps * (np.abs(t) + half.ravel()[active])
        for _ in range(64):
            u, v = df / f, d2f / f
            lo, hi = np.where(u.imag > 0.0, t, lo), np.where(u.imag < 0.0, t, hi)
            step = u.imag / (np.abs(u) ** 2 - v.real)
            take = (lo <= t + step) & (t + step <= hi)
            done = take & ((step * u.imag <= 1e-14) | (np.abs(step) <= floor)) | (hi - lo <= floor)
            if done.all():
                break
            t = np.where(take, t + step, 0.5 * (lo + hi))[~done]
            active, row, lo, hi, floor = active[~done], row[~done], lo[~done], hi[~done], floor[~done]
            f, df, d2f = derivatives(row + 1j * t)
            better = np.abs(f) < line[active]
            s[active] = np.where(better, t, s[active])
            line[active] = np.where(better, np.abs(f), line[active])
    s, line = s.reshape(seeds.shape), line.reshape(seeds.shape)
    best = np.argmin(line, axis=1)
    rows = np.arange(line.shape[0])
    return s[rows, best], line[rows, best]


def loop_penrose_margin(bg, p, q, k, eta_min=1e-3):
    """penrose_margin as it was before the scan, one mode at a time with its
    own eigen-step, polish and Newton line search, frozen: the scan's oracle."""
    c, omega = penrose_mod._kernel_terms(bg, p, k)
    eta = eta_min * np.array([1.0, 2.0, 4.0])
    if c.size == 0:
        return al.PenroseReport(k, 1.0, complex(eta[0]), [], [(float(e), 1.0) for e in eta])
    coef = 1j * q / (2.0 * math.pi)

    def derivatives(lam):
        return loop_derivatives(c, omega, coef, lam)

    z = np.linalg.eigvals(np.diag(1j * omega) + coef * np.outer(c, np.ones(c.size)))
    with np.errstate(all="ignore"):
        f, df, _ = derivatives(z)
        for _ in range(penrose_mod.NEWTON_POLISH):
            newton = z - f / df
            f_new, df_new, _ = derivatives(newton)
            better = np.abs(f_new) < np.abs(f)
            z, f, df = np.where(better, newton, z), np.where(better, f_new, f), np.where(better, df_new, df)
        residual = np.abs(f)
        rounding = np.finfo(float).eps * (1.0 + np.abs(coef * c / (z[:, None] - 1j * omega)).sum(axis=-1))
        reach = z.real - 2.0 * np.abs(f / df)
    unresolved = (residual > np.maximum(penrose_mod.ZERO_RESIDUAL, rounding)) & (reach > penrose_mod.BOUNDARY_RE)
    if unresolved.any():
        raise ValueError(f"background: at k={k} F_k has an unresolved growing zero")
    growing = (residual <= penrose_mod.ZERO_RESIDUAL) & (z.real > penrose_mod.BOUNDARY_RE)
    zeros = sorted((complex(w) for w in z[growing]), key=lambda w: (-w.real, abs(w.imag)))
    s, line = loop_line_minimum(derivatives, -coef * c, omega, z, eta)
    line = np.minimum(line, 1.0)
    eta_lines = [(float(e), float(m)) for e, m in zip(eta, line)]
    if zeros:
        i = int(np.argmin(np.where(growing, residual, np.inf)))
        return al.PenroseReport(k, float(residual[i]), complex(z[i]), zeros, eta_lines)
    return al.PenroseReport(k, float(line[0]), complex(eta[0], s[0]), zeros, eta_lines)


def close(a, b, rel=1e-12):
    return abs(a - b) <= rel * max(abs(a), abs(b))


nonzero_modes = hst.integers(1, 10).flatmap(lambda k: hst.sampled_from([k, -k]))


class TestScan:
    """penrose_margins: the modes of a background in one batched pass."""

    @settings(max_examples=60, deadline=None)
    @given(
        symbol=symbols,
        log_scale=hst.floats(-4.0, 1.0),
        ks=hst.lists(nonzero_modes, min_size=1, max_size=10),
        p=hst.sampled_from([-2.0, -1.0, -0.5, 0.5, 1.0, 2.0]),
        q=hst.sampled_from([1.0, -1.0]),
        eta_min=hst.sampled_from([1e-3, 0.1]),
    )
    def test_matches_the_per_mode_loop(self, symbol, log_scale, ks, p, q, eta_min):
        bg = al.BackgroundSymbol(np.array(symbol) * 10.0**log_scale)
        try:
            reports = al.penrose_margins(bg, p, q, ks, eta_min)
        except ValueError as exc:
            with pytest.raises(ValueError) as want:
                for k in ks:
                    loop_penrose_margin(bg, p, q, k, eta_min)
            assert str(exc).split(" F_k")[0] == str(want.value).split(" F_k")[0]  # the same first k
            return
        for k, report in zip(ks, reports):
            frozen = loop_penrose_margin(bg, p, q, k, eta_min)
            assert report.k == k
            assert len(report.zeros) == len(frozen.zeros)
            assert all(close(a, b) for a, b in zip(report.zeros, frozen.zeros))
            for (eta, line), (eta_frozen, line_frozen) in zip(report.eta_line_margins, frozen.eta_line_margins):
                assert eta == eta_frozen and close(line, line_frozen)
            if not frozen.zeros:
                assert close(report.margin, frozen.margin)
            if not close(report.argmin_lambda, frozen.argmin_lambda):
                # only where two brackets tie: F_k is as small at both points
                at = [abs(al.dispersion(bg, p, q, k, lam)) for lam in (report.argmin_lambda, frozen.argmin_lambda)]
                assert close(*at)

    def test_bits_of_the_per_mode_loop(self):
        # the padded rows sum a mode's own terms in numpy's order, so below
        # J = 16 every report is the per-mode code's, bit for bit
        backgrounds = [al.background_preset(name) for name in ("stable-broad", UNSTABLE)]
        backgrounds += [(bg, 1.0, q) for seed in (0, 1) for _, q, bg in random_family(seed)]
        symbol = np.random.default_rng(5).uniform(0.0, 1.0, 31) * 1e-3  # J = 15, rows of 63 terms
        backgrounds.append((al.BackgroundSymbol(symbol), -1.0, 1.0))
        for bg, p, q in backgrounds:
            ks = [*range(1, 9), -3, 17]
            got = [r.to_dict() for r in al.penrose_margins(bg, p, q, ks)]
            assert got == [loop_penrose_margin(bg, p, q, k).to_dict() for k in ks]

    def test_padding_seeds_no_bracket(self, monkeypatch):
        # the brackets read at their ends and seeds are the per-mode code's:
        # per line, one at each eigenvalue and one beside each pole of the
        # mode's own terms, none for a padding slot
        shapes = []
        evaluate = penrose_mod._dispersion_derivatives
        monkeypatch.setattr(penrose_mod, "_dispersion_derivatives",
                            lambda c, omega, coef, lam: shapes.append(np.shape(lam)) or evaluate(c, omega, coef, lam))
        bg = al.BackgroundSymbol(np.array([0.01, 0.05, 0.2, 0.05, 0.01]))  # J = 2: rows of 11 slots
        al.penrose_margins(bg, 1.0, -1.0, (1, 2, 3))
        sizes = [penrose_mod._kernel_terms(bg, 1.0, k)[0].size for k in (1, 2, 3)]
        assert sizes == [6, 6, 8]
        assert (3 * 2 * sum(sizes), 3) in shapes

    def test_reports_are_the_modes_alone(self, monkeypatch):
        # a mode's report is the same whatever modes share its pass, also
        # when the modes of one call take two passes or one each
        passes = []
        scan = penrose_mod._scan
        monkeypatch.setattr(penrose_mod, "_scan", lambda ks, *args: passes.append(list(ks)) or scan(ks, *args))
        symbol = np.random.default_rng(3).uniform(0.0, 1.0, 13) * 0.1  # J = 6
        bg = al.BackgroundSymbol(symbol)
        ks = [1, -2, 3, 12, 5, -7, 8, 9, 4, 11, 6, 10]
        alone = [al.penrose_margin(bg, 1.0, -1.0, k).to_dict() for k in ks]
        passes.clear()
        assert [r.to_dict() for r in al.penrose_margins(bg, 1.0, -1.0, ks)] == alone
        assert [len(ks) for ks in passes] == [9, 3]  # SCAN_ENTRIES holds 9 modes of J = 6
        assert [r.to_dict() for r in al.penrose_margins(bg, 1.0, -1.0, ks[::-1])] == alone[::-1]
        monkeypatch.setattr(penrose_mod, "SCAN_ENTRIES", 1)
        assert [r.to_dict() for r in al.penrose_margins(bg, 1.0, -1.0, ks)] == alone

    def test_one_pass_for_the_benchmark_scans(self, monkeypatch):
        passes = []
        scan = penrose_mod._scan
        monkeypatch.setattr(penrose_mod, "_scan", lambda ks, *args: passes.append(list(ks)) or scan(ks, *args))
        for J in range(7):
            al.penrose_margins(al.BackgroundSymbol(np.full(2 * J + 1, 0.01)), 1.0, 1.0, range(1, 9))
        assert passes == [list(range(1, 9))] * 7

    def test_random_family_takes_few_evaluations(self, monkeypatch):
        # J = 4, 5, 6 as in the stability benchmark, k = 1..8 in one scan:
        # 3 evaluations polish the zeros (the first also seeds the brackets
        # beside the poles), 1 reads the bracket ends and seeds, and the rest
        # are Newton steps of all brackets together (57 to 80 one mode at a time)
        calls = [0]
        evaluate = penrose_mod._dispersion_derivatives

        def counted(*args):
            calls[0] += 1
            return evaluate(*args)

        monkeypatch.setattr(penrose_mod, "_dispersion_derivatives", counted)
        most = 0
        for seed in range(10):
            for J, q, bg in random_family(seed):
                for eta_min in (1e-3, 0.1):
                    calls[0] = 0
                    al.penrose_margins(bg, 1.0, q, range(1, 9), eta_min)
                    most = max(most, calls[0])
        assert 5 < most <= 14

    def test_first_unresolved_mode_in_order(self):
        # scaled by 1e15, k = 1 and 2 leave a growing zero unresolved and k = 3, 4 resolve theirs
        bg, p, q = al.background_preset(UNSTABLE)
        bg = al.BackgroundSymbol(bg.symbol * 1e15)
        for ks, named in (((1, 2, 3), 1), ((4, 3, 2, 1), 2), ((3, 4), None)):
            if named is None:
                assert all(r.zeros for r in al.penrose_margins(bg, p, q, ks))
            else:
                with pytest.raises(ValueError, match=f"^background: at k={named} "):
                    al.penrose_margins(bg, p, q, ks)

    def test_empty_and_zero_modes(self, rank_one):
        assert al.penrose_margins(*rank_one, ()) == []
        with pytest.raises(ValueError, match="k = 0"):
            al.penrose_margins(*rank_one, (1, 0))
        zero = al.penrose_margins(al.BackgroundSymbol(np.array([0.0])), 1.0, 1.0, (1, 2))
        assert [r.margin for r in zero] == [1.0, 1.0]

    @pytest.mark.parametrize("command", ["penrose", "perturb"])
    def test_cli_makes_one_scan(self, tmp_path, monkeypatch, command):
        calls = []
        scan = cli.penrose_margins
        monkeypatch.setattr(al.cli, "penrose_margins", lambda *args: calls.append(list(args[3])) or scan(*args))
        section = {"background": "stable-broad", "k_max": 5, "c_bilinear": 0.18}
        if command == "perturb":
            section.update(epsilon=1e-3, T=0.02, dt=1e-2)
        cfg = {"output_dir": str(tmp_path / "run"), "grid": {"N": 4}, command: section}
        if command == "penrose":
            del cfg["grid"]
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert cli.main([command, "--config", str(path)]) == 0
        assert calls == [[1, 2, 3, 4, 5]]


class TestFrequencyOverflow:
    """Kernel frequencies p*k*(2j+k) past the float range are an input error."""

    @pytest.mark.filterwarnings("error")
    def test_api_raises_without_warning(self, grid8):
        bg, _, q = al.background_preset("stable-broad")
        u0 = al.random_hermitian_perturbation(grid8, 2, np.random.default_rng(1))
        entry_points = [
            lambda p, k: al.penrose_margin(bg, p, q, k),
            lambda p, k: al.penrose_margins(bg, p, q, (1, k)),
            lambda p, k: al.volterra_solve(bg, u0, p, q, k, np.arange(3) * 1e-3),
            lambda p, k: al.dispersion(bg, p, q, k, 1.0),
            lambda p, k: al.volterra_kernel(bg, p, k, 0.5),
        ]
        for run in entry_points:
            for p, k in ((1e306, 8), (1e307, 2), (-1e307, 3)):
                with pytest.raises(ValueError, match=rf"^p = {re.escape(f'{p:g}')} .* of mode k = {k} "):
                    run(p, k)
        assert al.penrose_margin(bg, 1e300, q, 8).k == 8  # finite frequencies are taken


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

    @settings(max_examples=80, deadline=None)
    @given(
        n=hst.integers(1, 16),
        p=hst.sampled_from([0.5, -0.5, 1.0, 1.7]),
        seed=hst.integers(0, 2**32 - 1),
        data=hst.data(),
    )
    def test_matches_term_by_term_sum(self, n, p, seed, data):
        # the oracle's phases p*k*(2j+k)*t are formed in long double: in double
        # their rounding alone is up to eps*|p*k*(2j+k)*t|, about 1e-12 at N = 16, t = 20
        grid = al.SpectralGrid(n)
        k = data.draw(hst.integers(1, 2 * n)) * data.draw(hst.sampled_from([1, -1]))
        times = hst.floats(0.0, 20.0)
        arrays = hst.lists(times, min_size=1, max_size=6).map(np.array)
        t = data.draw(times | arrays | arrays.map(lambda v: v[:, None]))  # scalar, 1-d and 2-d t
        gen = np.random.default_rng(seed)
        u = gen.standard_normal((grid.n_modes,) * 2) + 1j * gen.standard_normal((grid.n_modes,) * 2)
        t_long = np.asarray(t, dtype=np.longdouble)
        brute = np.zeros(np.shape(t), dtype=np.clongdouble)
        total = 0.0
        for j in grid.modes():
            if abs(j + k) <= grid.N:
                entry = u[grid.N + j + k, grid.N + j]
                brute += entry * np.exp(1j * (np.longdouble(p) * int(k * (2 * j + k)) * t_long))
                total += abs(entry)
        got = al.free_density(al.OperatorMatrix(grid, u), p, k, t)
        if np.ndim(t) == 0:
            assert type(got) is complex
        else:
            assert got.shape == np.shape(t) and got.dtype == complex
        assert np.abs(got - brute.astype(complex)).max(initial=0.0) <= 1e-12 * total


def per_step_volterra(bg, u0, p, q, k, t):
    """volterra_solve's recurrence in its per-step form, the reference for
    the blocked scan: one Python iteration per time point, S_j <- P_j (S_j + rho_i)."""
    c, omega = penrose_mod._kernel_terms(bg, p, k)
    rho_free = np.asarray(al.free_density(u0, p, k, t), dtype=complex)
    if c.size == 0:
        return rho_free
    dt = t[1] - t[0]
    phase = np.exp(1j * omega * dt)
    coef = 1j * q / (2.0 * math.pi)
    denom = 1.0 - coef * 0.5 * dt * c.sum()
    rho = np.empty_like(rho_free)
    rho[0] = rho_free[0]
    history = 0.5 * rho[0] * phase
    for i in range(1, t.size):
        rho[i] = (rho_free[i] + coef * dt * (c @ history)) / denom
        history = phase * (history + rho[i])
    return rho


def criterion_4_datum():
    grid = al.SpectralGrid(6)
    m = np.zeros((grid.n_modes, grid.n_modes), dtype=complex)
    m[grid.N + 1, grid.N] = m[grid.N, grid.N + 1] = 1.0
    return al.OperatorMatrix(grid, m, hermitian=True)


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

    # block lengths 1, 1, 3, 3, 4, 4: one block, two, a full last block
    # and a short one; 10 001 and 50 001 points at dt = 2e-4 run to T = 2
    # (the benchmark's oracle) and T = 10 (criterion 4)
    @pytest.mark.parametrize("n", [2, 3, 11, 15, 16, 17, 10_001, 50_001])
    @pytest.mark.parametrize("k", [-1, 1, 2])
    @pytest.mark.parametrize("name", ["stable-broad", UNSTABLE])
    def test_blocked_scan_matches_per_step(self, name, k, n):
        bg, p, q = al.background_preset(name)
        u0 = criterion_4_datum() if k != 2 else al.random_hermitian_perturbation(
            al.SpectralGrid(6), 2, np.random.default_rng(5)
        )
        t = np.arange(n) * 2e-4
        want = per_step_volterra(bg, u0, p, q, k, t)
        got = al.volterra_solve(bg, u0, p, q, k, t)
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= 1e-11 * np.abs(want).max()

    @settings(max_examples=25, deadline=None)
    @given(
        J=hst.integers(0, 3),
        k=hst.sampled_from([-3, -2, -1, 1, 2, 3]),
        n=hst.integers(2, 3000),
        seed=hst.integers(0, 2**32 - 1),
        p_sign=hst.sampled_from([-1.0, 1.0]),
        q_sign=hst.sampled_from([-1.0, 1.0]),
    )
    def test_blocked_scan_matches_per_step_random(self, J, k, n, seed, p_sign, q_sign):
        gen = np.random.default_rng(seed)
        grid = al.SpectralGrid(J + 4)
        bg = al.BackgroundSymbol(gen.uniform(0.0, 2.0, 2 * J + 1))
        nm = grid.n_modes
        u0 = al.OperatorMatrix(grid, gen.standard_normal((nm, nm)) + 1j * gen.standard_normal((nm, nm)))
        p, q = p_sign * gen.uniform(0.5, 1.5), q_sign * gen.uniform(0.5, 3.0)
        j = np.arange(-J - abs(k), J + abs(k) + 1)
        dt = 0.05 / (abs(p * k) * np.abs(2 * j + k).max())
        t = np.arange(n) * dt
        want = per_step_volterra(bg, u0, p, q, k, t)
        got = al.volterra_solve(bg, u0, p, q, k, t)
        assert np.abs(got - want).max() <= 1e-11 * np.abs(want).max()

    def test_python_lines_grow_like_sqrt_n(self):
        # a loop per time point would run ~30 000 lines at n = 10 001; the
        # scan runs three per block of ~sqrt(n) steps (100 blocks at
        # n = 10 001, 10 at n = 101) after a set-up of a few dozen
        bg, p, q = al.background_preset("stable-broad")
        u0 = criterion_4_datum()

        def lines_run(n):
            count = 0

            def tracer(frame, event, arg):
                nonlocal count
                if frame.f_code is not penrose_mod.volterra_solve.__code__:
                    return None
                count += event == "line"
                return tracer

            sys.settrace(tracer)
            try:
                al.volterra_solve(bg, u0, p, q, 1, np.arange(n) * 2e-4)
            finally:
                sys.settrace(None)
            return count

        small, large = lines_run(101), lines_run(10_001)
        assert large - small <= 3 * (100 - 10) + 10

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

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_grid_rejected(self, rank_one, monkeypatch, bad):
        # np.allclose(inf, inf) is true, so [0, inf] looks uniform to the grid check
        def no_work(*args, **kwargs):
            raise AssertionError("volterra_solve started work on a non-finite input")

        monkeypatch.setattr(penrose_mod, "free_density", no_work)
        bg, p, q = rank_one
        u0 = seed_matrix(al.SpectralGrid(4), {(1, 0): 1.0})
        with pytest.raises(ValueError, match="^t_grid must be finite, got a non-finite entry"):
            al.volterra_solve(bg, u0, p, q, 1, [0.0, bad])

    def test_overflow_warns_nothing(self, rank_one):
        # at q * 200 the unstable mode grows like exp(200 t): the march
        # overflows, and the growth shows as inf/nan entries, not as warnings
        bg, p, q = rank_one
        t = np.arange(20_001) * 2e-3
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rho = al.volterra_solve(bg, criterion_4_datum(), p, 200.0 * q, 1, t)
        assert np.isfinite(rho[:100]).all() and not np.isfinite(rho[-1])

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

    @pytest.mark.parametrize("q", [1e150, 1e200, np.float64(1e200)], ids=["1e150", "1e200", "numpy-1e200"])
    def test_overflowing_constants_rejected(self, q):
        # at 1e150 a float c_star**2 passes the float range, at 1e200 c_star itself
        args = {**STABLE_CONSTANTS_INPUT, "q": q}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"^constants are not finite: .* q=1e\+(150|200),"):
                al.propagator_constants(**args)

    def test_serializable(self):
        import json

        c = al.propagator_constants(0.5, 0.3, 0.05, -1.0, 0.7, 1e-3, 0.2)
        assert "t_star" in json.dumps(c.to_dict())
