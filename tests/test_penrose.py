"""Volterra kernel, dispersion function, Penrose margin, and constants.

The rank-one background Gamma_hat(0) = 2*pi with p = q = 1 admits closed
forms used as anchors throughout:
    Phi_1(tau)   = -4*pi*i*sin(tau)
    Phi~_1(lam)  = -4*pi*i/(lam^2+1)
    F_1(lam)     = (lam^2-1)/(lam^2+1), zeros at lam = +-1
"""

import csv
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

import alber_lab as al
import alber_lab.dynamics as dyn
import alber_lab.penrose as penrose_mod
from alber_lab import cli
from alber_lab.dynamics import _trusted

from conftest import named_first, readme_example, run_cli

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


NON_INTS = hst.one_of(hst.floats(), hst.sampled_from([True, False, np.True_, np.False_]))
NON_FINITE = hst.sampled_from([math.nan, math.inf, -math.inf])


class TestArgumentRules:
    """The mode k is a nonzero int (k=1.5 once raised an IndexError or a
    TypeError, and True ran as 1), and times, lambda and the constants are
    finite (a NaN once gave NaN, and got past the Re(lambda) > 0 test with
    a warning)."""

    @settings(max_examples=30, deadline=None)
    @given(k=NON_INTS, route=hst.sampled_from(["kernel", "laplace", "dispersion", "margins", "free", "volterra"]))
    def test_mode_must_be_an_int(self, rank_one, k, route):
        bg, p, q = rank_one
        u0 = seed_matrix(al.SpectralGrid(4), {(1, 0): 0.5})
        t = np.linspace(0.0, 1.0, 11)
        call = {
            "kernel": lambda: al.volterra_kernel(bg, p, k, t),
            "laplace": lambda: al.laplace_symbol(bg, p, k, 1.0 + 1.0j),
            "dispersion": lambda: al.dispersion(bg, p, q, k, 1.0 + 1.0j),
            "margins": lambda: al.penrose_margins(bg, p, q, [1, k]),
            "free": lambda: al.free_density(u0, p, k, t),
            "volterra": lambda: al.volterra_solve(bg, u0, p, q, k, t),
        }[route]
        with pytest.raises(ValueError, match="^k must be an int, got"):
            call()

    @settings(max_examples=30, deadline=None)
    @given(bad=NON_FINITE, at=hst.integers(0, 4), scalar=hst.booleans())
    def test_times_must_be_finite(self, rank_one, bad, at, scalar):
        bg, p, _ = rank_one
        u0 = seed_matrix(al.SpectralGrid(4), {(1, 0): 0.5})
        t = bad if scalar else np.insert(np.linspace(0.0, 1.0, 4), at, bad)
        with pytest.raises(ValueError, match=named_first("t")):
            al.free_density(u0, p, 1, t)
        with pytest.raises(ValueError, match=named_first("tau")):
            al.volterra_kernel(bg, p, 1, t)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_constants_must_be_finite(self, rank_one, bad):
        # free_density's p and dispersion's q; volterra_kernel refuses a non-finite p already
        bg, p, q = rank_one
        with pytest.raises(ValueError, match=named_first("p")):
            al.free_density(seed_matrix(al.SpectralGrid(4), {(1, 0): 0.5}), bad, 1, np.linspace(0.0, 1.0, 4))
        with pytest.raises(ValueError, match=named_first("q")):
            al.dispersion(bg, p, bad, 1, 1.0 + 1.0j)

    @settings(max_examples=30, deadline=None)
    @given(
        lam=hst.one_of(hst.builds(complex, NON_FINITE, hst.floats()), hst.builds(complex, hst.floats(), NON_FINITE)),
        scalar=hst.booleans(),
    )
    def test_lambda_must_be_finite(self, rank_one, lam, scalar):
        bg, p, q = rank_one
        lam = lam if scalar else np.array([1.0 + 1.0j, lam])
        with pytest.raises(ValueError, match=named_first("lam")):
            al.laplace_symbol(bg, p, 1, lam)
        with pytest.raises(ValueError, match=named_first("lam")):
            al.dispersion(bg, p, q, 1, lam)


    @settings(max_examples=30, deadline=None)
    @given(k_max=hst.one_of(NON_INTS, hst.integers(-3, 0)), route=hst.sampled_from(["report", "perturb"]))
    def test_k_max_must_be_a_positive_int(self, k_max, route):
        # k_max = 2.5 once raised a TypeError from range, and True ran as 1
        bg, p, q = al.background_preset("stable-broad")
        call = {
            "report": lambda: al.margin_report(bg, p, q, k_max=k_max, c_bilinear=0.18),
            "perturb": lambda: al.perturbation_run(bg, p, q, al.SpectralGrid(4), 1e-3, T=0.02, dt=0.01, k_max=k_max),
        }[route]
        with pytest.raises(ValueError, match=r"^k_max must be an int >= 1, got"):
            call()

    @settings(max_examples=30, deadline=None)
    @given(
        band=hst.one_of(NON_INTS, hst.integers(-3, -1), hst.integers(5, 9)),
        route=hst.sampled_from(["band", "seed_band"]),
    )
    def test_band_must_be_an_int_on_the_grid(self, band, route):
        # band 1.5 once drew on band 1, and band -1 failed as a "degenerate random draw"
        bg, p, q = al.background_preset("stable-broad")
        grid = al.SpectralGrid(4)
        call = {
            "band": lambda: al.random_hermitian_perturbation(grid, band, np.random.default_rng(0)),
            "seed_band": lambda: al.perturbation_run(bg, p, q, grid, 1e-3, T=0.02, dt=0.01, kappa=0.03, seed_band=band),
        }[route]
        with pytest.raises(ValueError, match=f"^{route}[ =]"):
            call()

    @settings(max_examples=20, deadline=None)
    @given(bad=NON_FINITE, name=hst.sampled_from(["T", "dt"]))
    def test_run_times_must_be_finite(self, bad, name):
        # T = inf once raised "dt must be > 0 with a finite number of steps"
        bg, p, q = al.background_preset("stable-broad")
        times = {"T": 0.02, "dt": 0.01, name: bad}
        with pytest.raises(ValueError, match=named_first(name)):
            al.perturbation_run(bg, p, q, al.SpectralGrid(4), 1e-3, kappa=0.03, c_bilinear=0.18, **times)


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
        report = al.penrose_margins(bg, p, q, (1,))[0]
        assert report.margin <= 1e-6
        assert report.zeros, "the k=1 mode must be flagged unstable"
        assert min(abs(z - 1.0) for z in report.zeros) <= 1e-6

    def test_zero_background_margin_one(self):
        bg = al.BackgroundSymbol(np.array([0.0]))
        for k in (1, 2, 5):
            report = al.penrose_margins(bg, 1.0, 1.0, (k,))[0]
            assert report.margin == 1.0
            assert not report.zeros

    def test_broad_defocusing_stable(self):
        n = np.arange(-8, 9, dtype=float)
        bg = al.BackgroundSymbol(0.05 * (1.0 + n * n) ** (-2.0))
        report = al.penrose_margins(bg, 1.0, -1.0, (1,))[0]
        assert report.margin > 0.0
        assert not report.zeros

    def test_stable_preset(self):
        bg, p, q = al.background_preset("stable-broad")
        for k in (1, 2):
            report = al.penrose_margins(bg, p, q, (k,))[0]
            assert report.margin > 0.01
            assert not report.zeros

    def test_mode_sign_symmetry(self):
        bg, p, q = al.background_preset("stable-broad")
        for k in (1, 3):
            a = al.penrose_margins(bg, p, q, (k,))[0].margin
            b = al.penrose_margins(bg, p, q, (-k,))[0].margin
            assert abs(a - b) <= 1e-6 * max(a, b)

    def test_report_keys(self, rank_one):
        bg, p, q = rank_one
        for k in (1, 2):  # a growing zero at k = 1, none at k = 2
            report = al.penrose_margins(bg, p, q, (k,))[0]
            assert list(report.to_dict()) == ["k", "margin", "argmin_lambda", "zeros"]

    def test_margin_doubles_with_eta_min(self):
        # stable-broad has zeros on the imaginary axis, so its margin grows
        # linearly with the line it is taken on; the line minima at 1e-3,
        # 2e-3 and 4e-3, frozen since the line is read as (pole, offset)
        # (the scan that once took three lines gave 0.04327304743745109,
        # 0.08608208371803072 and 0.1686399194376325, 3.3e-16 relative away)
        bg, p, q = al.background_preset("stable-broad")
        margins = [al.penrose_margins(bg, p, q, (1,), eta_min)[0].margin for eta_min in (1e-3, 2e-3, 4e-3)]
        assert margins == [0.04327304743745108, 0.08608208371803074, 0.16863991943763246]

    def test_report_serializable(self, rank_one):
        import json

        bg, p, q = rank_one
        blob = json.dumps(al.penrose_margins(bg, p, q, (1,))[0].to_dict())
        assert "margin" in blob

    @pytest.mark.parametrize("name", ["p", "q"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, rank_one, name, bad):
        bg, p, q = rank_one
        args = {"p": p, "q": q, name: bad}
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            al.penrose_margins(bg, ks=(1,), **args)


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
        report = al.penrose_margins(bg, p, q, (k,))[0]
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
        report = al.penrose_margins(bg, p, q, (k,))[0]
        c, omega = written_out_terms(bg, p, k)
        grid_min = line_grid_minimum(c, omega, q, 1e-3)
        assert not report.zeros and grid_min < 0.9
        assert grid_min * (1.0 - 1e-6) <= report.margin <= grid_min * (1.0 + 1e-9)

    @pytest.mark.parametrize("name", sorted(PARENT_PRESET_MARGINS))
    def test_presets_match_parent(self, name):
        bg, p, q = al.background_preset(name)
        for k, old in enumerate(PARENT_PRESET_MARGINS[name], start=1):
            report = al.penrose_margins(bg, p, q, (k,))[0]
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
                    report = al.penrose_margins(bg, 1.0, q, (k,))[0]
                    assert not report.zeros
                    assert report.margin <= old * (1.0 + 1e-9)
                    below += report.margin < old * (1.0 - 1e-6)
        assert below > 0  # the grid search overstated some of these margins

    @pytest.mark.parametrize("eta_min", [0.0, -1.0, math.nan, math.inf, -math.inf, 1e308])  # 4e308 overflows
    def test_rejects_bad_eta_min(self, rank_one, eta_min):
        with pytest.raises(ValueError, match="^eta_min"):
            al.penrose_margins(*rank_one, (1,), eta_min)

    def test_eta_lines_are_line_minima(self, rank_one):
        bg, p, q = rank_one
        c, omega = written_out_terms(bg, p, 2)
        for eta in (1e-3, 2e-3, 4e-3):
            report = al.penrose_margins(bg, p, q, (2,), eta)[0]
            grid_min = line_grid_minimum(c, omega, q, eta)
            assert not report.zeros and report.argmin_lambda.real == eta
            assert grid_min * (1.0 - 1e-4) <= report.margin <= grid_min * (1.0 + 1e-9)

    @settings(max_examples=200, deadline=None)
    @given(
        symbol=symbols,
        log_scale=hst.floats(-4.0, 2.0),
        k=hst.integers(1, 8).flatmap(lambda k: hst.sampled_from([k, -k])),
        p=hst.sampled_from([-2.0, -1.0, -0.5, 0.5, 1.0, 2.0]),
        q=hst.sampled_from([1.0, -1.0]),
        re=hst.floats(1e-6, 10.0).flatmap(lambda x: hst.sampled_from([x, -x])),
        im=hst.floats(-100.0, 100.0),
    )
    def test_dispersion_reflects_across_the_imaginary_axis(self, symbol, log_scale, k, p, q, re, im):
        # F_k(-conj(lambda)) = conj(F_k(lambda)) for a real symbol: the zeros
        # pair across the imaginary axis, so a mode without a growing zero has
        # them all on it, and a line Re(lambda) = eta_min reads every margin
        bg = al.BackgroundSymbol(np.array(symbol) * 10.0**log_scale)
        c, omega = written_out_terms(bg, p, k)
        lam = complex(re, im)
        assert written_out_f(c, omega, q, -lam.conjugate()) == np.conj(written_out_f(c, omega, q, lam))


def test_import_loads_no_scipy():
    code = "import sys, alber_lab; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    src = os.path.dirname(os.path.dirname(al.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env)
    assert out.stdout.strip() == "[]"


def golden_penrose_margin(bg, p, q, k, eta_min=1e-3):
    """penrose_margin as it was with an 80-step golden-section search on
    every bracket of the line minimum, frozen: the reference for the Newton
    search.  Also returns Im(lambda) of the minimum on the line Re(lambda) = eta_min.
    The zeros are taken as the scan takes them, in lambda/|p|, and scaled back."""
    c, omega = penrose_mod._kernel_terms(bg, p, k)
    eta = np.array([eta_min])  # the search runs over an axis of lines; it takes one
    if c.size == 0:
        return al.PenroseReport(k, 1.0, complex(eta_min), []), 0.0
    coef = 1j * q / (2.0 * math.pi)

    def f_value(lam, coef=coef, omega=omega):
        return 1.0 - coef * np.sum(c / (np.asarray(lam, dtype=complex)[..., None] - 1j * omega), axis=-1)

    scale, unit = abs(p), penrose_mod._kernel_terms(bg, math.copysign(1.0, p), k)[1]
    coef_unit = coef / scale
    z = np.linalg.eigvals(np.diag(1j * unit) + coef_unit * np.outer(c, np.ones(c.size)))
    with np.errstate(all="ignore"):
        for _ in range(penrose_mod.NEWTON_POLISH):
            slope = coef_unit * np.sum(c / (z[:, None] - 1j * unit) ** 2, axis=-1)
            newton = z - f_value(z, coef_unit, unit) / slope
            z = np.where(np.abs(f_value(newton, coef_unit, unit)) < np.abs(f_value(z, coef_unit, unit)), newton, z)
        residual = np.abs(f_value(z, coef_unit, unit))
        edge = np.maximum(penrose_mod.BOUNDARY_RE / scale, np.finfo(float).eps * np.abs(z))
    growing = (residual <= penrose_mod.ZERO_RESIDUAL) & (z.real > edge)
    z = scale * z
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
    s, line = s[0, best[0]], min(line[0, best[0]], 1.0)
    if zeros:
        i = int(np.argmin(np.where(growing, residual, np.inf)))
        return al.PenroseReport(k, float(residual[i]), complex(z[i]), zeros), s
    return al.PenroseReport(k, float(line), complex(eta_min, s), zeros), s


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
        eta_min=hst.sampled_from([1e-3, 2e-3, 4e-3, 0.1]),
    )
    def test_matches_golden_section(self, symbol, log_scale, k, p, q, eta_min):
        bg = al.BackgroundSymbol(np.array(symbol) * 10.0**log_scale)
        report = al.penrose_margins(bg, p, q, (k,), eta_min)[0]
        frozen, s = golden_penrose_margin(bg, p, q, k, eta_min)
        assert report.zeros == frozen.zeros
        if frozen.zeros:
            assert report.margin == frozen.margin and report.argmin_lambda == frozen.argmin_lambda
            return
        assert report.argmin_lambda.real == eta_min
        line, line_frozen = report.margin, frozen.margin
        if abs(line - line_frozen) > 1e-12 * line_frozen + 2.0 * rounding_of_f(bg, p, q, k, eta_min + 1j * s):
            # golden section assumes one minimum per bracket; where a strong
            # symbol puts two in one, it may stop in the higher one
            c, omega = written_out_terms(bg, p, k)
            grid_min = line_grid_minimum(c, omega, q, eta_min)
            assert line < line_frozen
            assert grid_min * (1.0 - 1e-4) <= line <= grid_min * (1.0 + 1e-9)

    def test_seed_below_both_ends_is_refined(self):
        # the bracket seeded at a zero near the axis has |F_k| rising at both
        # ends, so phi' changes sign twice inside it; its seed lies below both
        bg = al.BackgroundSymbol(np.array([0.5984520494650267, 34.8355665046528, 12.62383569425889]))
        p, q, k = -2.0, -1.0, 3
        report = al.penrose_margins(bg, p, q, (k,))[0]
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
                        al.penrose_margins(bg, 1.0, q, (k,), eta_min)[0]
                        most = max(most, calls[0])
        assert 5 < most <= 12

    @pytest.mark.parametrize("scale", [1e-150, 1e-8, 1.0, 1e150])
    def test_extreme_amplitudes_warn_nothing(self, scale):
        # at 1e150 the pole terms of |F_k| cancel far below their rounding
        # (stable-broad's k = 1 line minimum was once read as 0.273 where
        # |F_1| is 1 to 400 digits), so most of those margins are refused
        backgrounds = [al.background_preset(name) for name in ("stable-broad", UNSTABLE)]
        backgrounds += [(bg, 1.0, q) for _, q, bg in random_family(0)]
        refused = 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for bg, p, q in backgrounds:
                scaled = al.BackgroundSymbol(bg.symbol * scale)
                for k in range(1, 9):
                    for eta_min in (1e-3, 0.1):
                        try:
                            report = al.penrose_margins(scaled, p, q, (k,), eta_min)[0]
                        except ValueError as exc:
                            assert str(exc).startswith(f"eta_min = {eta_min:g} is below what double precision")
                            refused += 1
                            continue
                        assert math.isfinite(report.margin) and 0.0 <= report.margin <= 1.0
        assert (refused > 0) == (scale == 1e150)


class TestUnresolvedZeros:
    """A growing zero that the polish cannot resolve is an error, not a stable verdict."""

    def scaled_unstable(self, scale):
        bg, p, q = al.background_preset(UNSTABLE)
        return al.BackgroundSymbol(bg.symbol * scale), p, q

    def test_strong_coupling_raises(self):
        # at 1e15 the eigenvalue lands at 4.47e7 + 4.7e3i and two Newton steps leave |F_1| = 2.3e-4
        bg, p, q = self.scaled_unstable(1e15)
        with pytest.raises(ValueError, match=r"^background: at k=1 .* residual \|F_k\| = 2\.\d+e-04 > ZERO_RESIDUAL"):
            al.penrose_margins(bg, p, q, (1,))[0]

    def test_resolvable_zero_still_reported(self):
        # at 1e14 the zero sqrt(2) * 1e7 is resolved, as before
        bg, p, q = self.scaled_unstable(1e14)
        report = al.penrose_margins(bg, p, q, (1,))[0]
        assert len(report.zeros) == 1
        assert abs(report.zeros[0].real / (math.sqrt(2.0) * 1e7) - 1.0) < 1e-6
        assert report.margin <= penrose_mod.ZERO_RESIDUAL


def loop_derivatives(c, offset, coef, lam):
    """F_k, F_k' and F_k'' over one mode's own pole terms at i*m + lam, with
    offset = i(m - omega) (the evaluator as it was)."""
    gap = np.asarray(lam, dtype=complex)[..., None] + offset
    term2 = c / gap**2
    return 1.0 - coef * (c / gap).sum(axis=-1), coef * term2.sum(axis=-1), -2.0 * coef * (term2 / gap).sum(axis=-1)


def loop_line_minimum(c, coef, omega, zeros, eta):
    """The per-mode safeguarded Newton line minimum as it was, frozen, with
    the integer poles omega of lambda/|p|: each bracket is read from an
    integer m, the nearest to its zero or its own pole, as offsets from m,
    and runs in offset/unit, unit the power of 2 just above eta + its
    half-width.  Returns m, the offset and the minimum."""
    residue, eta = -coef * c, eta[:, None]
    centre = residue / (2.0 * eta)
    with np.errstate(all="ignore"):
        shifted = loop_derivatives(c, 1j * (omega[:, None] - omega), coef, eta)[0] - centre
        nearest = centre - np.abs(centre) * shifted / np.abs(shifted)
        beside = np.nan_to_num((residue / nearest).imag, posinf=0.0, neginf=0.0)
        near = np.broadcast_to(np.rint(zeros.imag), beside.shape)
        m = np.concatenate([near, np.broadcast_to(omega, beside.shape)], axis=1)
        seeds = np.concatenate([np.broadcast_to(zeros.imag, beside.shape) - near, beside], axis=1)
        offset = 1j * (m[..., None] - omega)
        half = 0.5 * np.abs(seeds[..., None] + offset.imag).min(axis=-1)
        unit = np.ldexp(1.0, np.frexp(eta + half)[1]).ravel()
        points = (seeds[..., None] + half[..., None] * np.array([-1.0, 0.0, 1.0])).reshape(-1, 3) / unit[:, None]
        offset = offset.reshape(-1, omega.size) / unit[:, None]
        row = np.repeat(eta, seeds.shape[1]) / unit
        c_unit = c / unit[:, None]
        f, df, d2f = loop_derivatives(c_unit[:, None], offset[:, None], coef, row[:, None] + 1j * points)
        value = np.abs(f)
        s = points[np.arange(len(points)), value.argmin(axis=1)]
        line = value.min(axis=1)
        falling = (df / f).imag
        dip = (falling[:, 0] > 0.0) & (falling[:, 2] < 0.0) | (value[:, 1] < np.minimum(value[:, 0], value[:, 2]))
        active = np.flatnonzero(dip)
        row, (lo, t, hi) = row[active], points[active].T
        f, df, d2f = f[active, 1], df[active, 1], d2f[active, 1]
        floor = 4.0 * np.finfo(float).eps * (np.abs(t) + half.ravel()[active] / unit[active])
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
            f, df, d2f = loop_derivatives(c_unit[active], offset[active], coef, row + 1j * t)
            better = np.abs(f) < line[active]
            s[active] = np.where(better, t, s[active])
            line[active] = np.where(better, np.abs(f), line[active])
    s, line = (s * unit).reshape(seeds.shape), line.reshape(seeds.shape)
    best = np.argmin(line, axis=1)
    rows = np.arange(line.shape[0])
    return m[rows, best], s[rows, best], line[rows, best]


def loop_penrose_margin(bg, p, q, k, eta_min=1e-3):
    """penrose_margin as it was before the scan, one mode at a time with its
    own eigen-step, polish and Newton line search, frozen: the scan's oracle.
    Like the scan it runs in lambda/|p|, on the line Re = eta_min/|p|, and
    scales the zeros and the argmin back by |p|."""
    scale = abs(p)
    c, omega = penrose_mod._kernel_terms(bg, math.copysign(1.0, p), k)
    eta = np.array([eta_min / scale])  # loop_line_minimum runs over an axis of lines; it takes one
    if c.size == 0:
        return al.PenroseReport(k, 1.0, complex(eta_min), [])
    coef = 1j * q / (2.0 * math.pi) / scale

    def derivatives(offset, lam):
        return loop_derivatives(c, offset, coef, lam)

    z = np.linalg.eigvals(np.diag(1j * omega) + coef * np.outer(c, np.ones(c.size)))
    at_zero = -1j * omega
    with np.errstate(all="ignore"):
        f, df, _ = derivatives(at_zero, z)
        for _ in range(penrose_mod.NEWTON_POLISH):
            newton = z - f / df
            f_new, df_new, _ = derivatives(at_zero, newton)
            better = np.abs(f_new) < np.abs(f)
            z, f, df = np.where(better, newton, z), np.where(better, f_new, f), np.where(better, df_new, df)
        residual = np.abs(f)
        rounding = np.finfo(float).eps * (1.0 + np.abs(coef * c / (z[:, None] + at_zero)).sum(axis=-1))
        reach = z.real - 2.0 * np.abs(f / df)
        edge = np.maximum(penrose_mod.BOUNDARY_RE / scale, np.finfo(float).eps * np.abs(z))
    unresolved = (residual > np.maximum(penrose_mod.ZERO_RESIDUAL, rounding)) & (reach > edge)
    if unresolved.any():
        raise ValueError(f"background: at k={k} F_k has an unresolved growing zero")
    growing = (residual <= penrose_mod.ZERO_RESIDUAL) & (z.real > edge)
    zeros = sorted((complex(w) for w in scale * z[growing]), key=lambda w: (-w.real, abs(w.imag)))
    m, s, line = loop_line_minimum(c, coef, omega, z, eta)
    line = np.minimum(line, 1.0)
    if zeros:
        i = int(np.argmin(np.where(growing, residual, np.inf)))
        return al.PenroseReport(k, float(residual[i]), complex(scale * z[i]), zeros)
    bound = np.finfo(float).eps * (1.0 + np.abs(coef * c / (eta + 1j * (s + (m - omega)))).sum())
    if bound > penrose_mod.MARGIN_ROUNDING * line[0]:
        raise ValueError(f"eta_min = {eta_min:g} is below what double precision resolves: at k={k} F_k is rounding")
    return al.PenroseReport(k, float(line[0]), complex(eta_min, scale * (m[0] + s[0])), zeros)


def close(a, b, rel=1e-12):
    return abs(a - b) <= rel * max(abs(a), abs(b))


nonzero_modes = hst.integers(1, 10).flatmap(lambda k: hst.sampled_from([k, -k]))


class TestScan:
    """penrose_margins: the modes of a background in one batched pass."""

    def test_zero_symbol_passes_without_terms(self, monkeypatch):
        # only the zero symbol has modes without pole terms; at J = 15 (rows of
        # 63 slots) this budget holds one mode a pass, so no pass has any, and
        # each report is the one the scan gave before it took such modes:
        # margin 1 at eta_min, no zeros
        passes = []
        scan = penrose_mod._scan
        monkeypatch.setattr(penrose_mod, "_scan", lambda ks, *args: passes.append(list(ks)) or scan(ks, *args))
        monkeypatch.setattr(penrose_mod, "SCAN_ENTRIES", 6 * 63**2)
        bg = al.BackgroundSymbol(np.zeros(31))
        for p, q, eta_min in ((1.0, 1.0, 1e-3), (-1.0, -2.0, 0.25)):
            frozen = [{"k": k, "margin": 1.0, "argmin_lambda": [eta_min, 0.0], "zeros": []} for k in (1, 2, 3)]
            assert [r.to_dict() for r in al.penrose_margins(bg, p, q, (1, 2, 3), eta_min)] == frozen
        assert passes == [[1], [2], [3]] * 2

    @settings(max_examples=60, deadline=None)
    @given(
        symbol=symbols,
        log_scale=hst.floats(-4.0, 1.0),
        ks=hst.lists(nonzero_modes, min_size=1, max_size=10),
        p=hst.sampled_from([-2.0, -1.0, -0.5, 0.5, 1.0, 2.0]),
        q=hst.sampled_from([1.0, -1.0]),
        eta_min=hst.sampled_from([1e-3, 2e-3, 4e-3, 0.1]),
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
        # one at each eigenvalue and one beside each pole of the mode's own
        # terms, none for a padding slot
        shapes = []
        evaluate = penrose_mod._dispersion_derivatives
        monkeypatch.setattr(penrose_mod, "_dispersion_derivatives",
                            lambda c, omega, coef, lam: shapes.append(np.shape(lam)) or evaluate(c, omega, coef, lam))
        bg = al.BackgroundSymbol(np.array([0.01, 0.05, 0.2, 0.05, 0.01]))  # J = 2: rows of 11 slots
        al.penrose_margins(bg, 1.0, -1.0, (1, 2, 3))
        sizes = [penrose_mod._kernel_terms(bg, 1.0, k)[0].size for k in (1, 2, 3)]
        assert sizes == [6, 6, 8]
        assert (2 * sum(sizes), 3) in shapes

    def test_reports_are_the_modes_alone(self, monkeypatch):
        # a mode's report is the same whatever modes share its pass, also
        # when the modes of one call take two passes or one each
        passes = []
        scan = penrose_mod._scan
        monkeypatch.setattr(penrose_mod, "_scan", lambda ks, *args: passes.append(list(ks)) or scan(ks, *args))
        symbol = np.random.default_rng(3).uniform(0.0, 1.0, 13) * 0.1  # J = 6
        bg = al.BackgroundSymbol(symbol)
        ks = [1, -2, 3, 12, 5, -7, 8, 9, 4, 11, 6, 10]
        alone = [al.penrose_margins(bg, 1.0, -1.0, (k,))[0].to_dict() for k in ks]
        passes.clear()
        assert [r.to_dict() for r in al.penrose_margins(bg, 1.0, -1.0, ks)] == alone
        assert [len(ks) for ks in passes] == [12]
        passes.clear()
        monkeypatch.setattr(penrose_mod, "SCAN_ENTRIES", 9 * 6 * 27**2)  # 9 modes of J = 6 (rows of 27 slots)
        assert [r.to_dict() for r in al.penrose_margins(bg, 1.0, -1.0, ks)] == alone
        assert [len(ks) for ks in passes] == [9, 3]
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
        scan = penrose_mod.penrose_margins
        monkeypatch.setattr(penrose_mod, "penrose_margins", lambda *args: calls.append(list(args[3])) or scan(*args))
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
            lambda p, k: al.penrose_margins(bg, p, q, (k,))[0],
            lambda p, k: al.penrose_margins(bg, p, q, (1, k)),
            lambda p, k: al.volterra_solve(bg, u0, p, q, k, np.arange(3) * 1e-3),
            lambda p, k: al.dispersion(bg, p, q, k, 1.0),
            lambda p, k: al.volterra_kernel(bg, p, k, 0.5),
        ]
        for run in entry_points:
            for p, k in ((1e306, 8), (1e307, 2), (-1e307, 3)):
                with pytest.raises(ValueError, match=rf"^p = {re.escape(f'{p:g}')} .* of mode k = {k} "):
                    run(p, k)
        for run in entry_points[2:]:  # a p that is not finite is named before the frequencies are formed
            for p in (math.nan, math.inf):
                with pytest.raises(ValueError, match=rf"^p must be finite, got {p}$"):
                    run(p, 1)
        with pytest.raises(ValueError, match=r"^p must be finite, got nan$"):
            al.laplace_symbol(bg, math.nan, 1, 1.0)
        # finite frequencies, far too fast for a line held as one float, read as (pole, offset)
        assert al.penrose_margins(bg, 1e300, q, (8,))[0].margin == pytest.approx(LARGE_P_MARGINS[7], rel=1e-10)


# stable-broad's margins for k = 1..8 at p = +-1e300, where the line in
# lambda/|p| sits eta_min/|p| = 1e-303 from the poles; and the margins and
# Im(argmin) of the scan that held the line as one float, at p = 1e4 and -100
LARGE_P_MARGINS = [
    0.041814662475408486, 0.032689952541837965, 0.031384981312556015, 0.031384981312556015,
    0.031384981312556015, 0.031384981312556015, 0.031384981312556015, 0.031384981312556015,
]
PARENT_BELOW_1E4 = {
    "stable-broad@10000": [
        (0.04181480840862737, -10000.023915014468), (0.03268999637168689, 40000.03059041854),
        (0.03138500023636035, -90000.031862364), (0.03138499154238997, -160000.0318623684),
        (0.03138498776412404, -250000.03186237032), (0.03138498576013801, -360000.03186237137),
        (0.031384984566402735, -490000.03186237195), (0.03138498379714252, -640000.0318623723),
    ],
    "stable-broad@-100": [
        (0.04180006902046944, 99.97608077700134), (0.032685569698645375, 399.96940751228374),
        (0.03138308903821441, 899.9681366667622), (0.031383958399052954, 1599.968137107653),
        (0.03138433620264579, 2499.96813729925), (0.03138453658765, 3599.968137400871),
        (0.03138465595264902, -4899.968137461404), (0.03138473287301599, -6399.968137500412),
    ],
    "random-4@10000": [
        (0.020038738898273387, -9999.950096790863), (0.01837230891506597, -39999.94557029833),
        (0.018176273178809772, -89999.94498323604), (0.01811958802611825, 159999.944811129),
        (0.018069800860422383, 249999.94465906188), (0.018069803400129182, 359999.9446590658),
        (0.018069804964377045, 489999.9446590682), (0.018069806011782354, 639999.9446590698),
    ],
    "random-4@-100": [
        (0.02004934617742973, 100.04989001061521), (0.01837493123151331, 400.0544258189558),
        (0.01817726007028695, 900.0550152709787), (0.018121029926421475, -1600.0551866759972),
        (0.018070024059615976, 2500.0553405964665), (0.018069906421318085, 3600.0553407765387),
        (0.018069843759290317, 4900.055340872457), (0.0180698077467619, 6400.055340927582),
    ],
    "random-5@10000": [
        (0.01910233892692708, -10000.052349765303), (0.01781754813401752, -40000.056124496965),
        (0.01710113013745077, -90000.05847569281), (0.017069639104685043, 160000.05858356328),
        (0.017050159890065454, 250000.0586504871), (0.017031242261962537, -360000.05871562875),
        (0.017031241289426024, -490000.05871563044), (0.017031240677853905, -640000.0587156315),
    ],
    "random-5@-100": [
        (0.019090921183283562, 99.947634589926), (0.017814215903318883, 399.94387025584103),
        (0.017099635908011834, 899.9415217530569), (0.017068663980439602, -1599.941414763766),
        (0.017049531291822278, -2499.941348432019), (0.017030802143058327, -3599.9412836127535),
        (0.01703091434164296, -4899.941283806112), (0.01703098673718162, -6399.941283930854),
    ],
    "random-6@10000": [
        (0.021794529409881712, -9999.954117049858), (0.01915143273395422, -39999.947784629665),
        (0.018724527966869235, -89999.94659413362), (0.018631534713891045, -159999.94632756617),
        (0.01859262630301829, -249999.94621524273), (0.018585954957696552, -359999.9461959347),
        (0.018581165533831445, 489999.94618206937), (0.01858116645263979, 639999.9461820706),
    ],
    "random-6@-100": [
        (0.021806381643555785, 100.04587048422322), (0.019154709871973298, 400.0522109050617),
        (0.018725894543075154, 900.0534039183484), (0.01863223455765536, 1600.0536714262105),
        (0.01859302930143848, 2500.0537841746086), (0.01858620392485418, 3600.0538037050546),
        (0.018581329428739572, 4900.0538176933915), (0.018581275668767872, 6400.053817771215),
    ],
}


def scaled_line_grid_minimum(c, poles, coupling, eta):
    """min |F_k| on the line Re(lambda') = eta of lambda' = lambda/|p|, capped
    at its limit 1, with the integer poles sign(p)*k*(2j+k) and coupling q/|p|.

    A sample is an integer m and an offset d, lambda' = eta + i(m + d), so a
    term reads 1/(eta + i(d + (m - pole_j))) and a dip eta wide beside a
    pole is sampled at any p: offsets sinh-spaced down to eta / 100 and a
    0.01 grid from -1 to 1 around each pole, and a 0.05 grid over the
    resonances from m = 0; then 2001 points between the neighbours of each
    of the 16 smallest sampled local minima.
    """
    def f(m, d):
        total = np.zeros(d.shape, dtype=complex)
        for cj, nj in zip(c, poles):
            total += cj / (eta + 1j * (d + (m - nj)))
        return np.abs(1.0 - 1j * coupling / (2.0 * math.pi) * total)

    span = np.abs(poles).max() + 10.0
    near = np.unique(np.concatenate([np.arange(-1.0, 1.0, 0.01), eta * np.sinh(np.linspace(-12.0, 12.0, 481))]))
    least, dips = 1.0, []
    for m, d in [(0.0, np.arange(-span, span, 0.05))] + [(m, near) for m in np.unique(poles)]:
        a = f(m, d)
        least = min(least, a.min())
        local = np.flatnonzero((a[1:-1] <= a[:-2]) & (a[1:-1] <= a[2:])) + 1
        dips += [(a[i], m, d[i - 1], d[i + 1]) for i in local[np.argsort(a[local])[:16]]]
    for _, m, lo, hi in sorted(dips, key=lambda dip: dip[0])[:16]:
        least = min(least, f(m, np.linspace(lo, hi, 2001)).min())
    return float(least)


class TestResolution:
    """The scan runs in lambda/|p| and holds the line as (pole, offset), so
    no p is refused for its size; only a margin below what double precision
    resolves at its argmin is."""

    P_SCAN = np.concatenate([np.logspace(6, 12, 49), 10.0 ** np.arange(20, 301, 20)])

    @pytest.mark.parametrize("seed", [None, 0, 1])
    def test_every_accepted_p_reads_the_large_p_margin(self, seed):
        # kappa settles by p = 1e6 and reads the same up to 1e300 (the line
        # held as one float once drifted 2e-6 at p = 1e10 and 5.7 % at 1e12)
        if seed is None:
            bg, _, q = al.background_preset("stable-broad")
            cases = [(bg, q)]
        else:
            cases = [(bg, q) for _, q, bg in random_family(seed)]
        for bg, q in cases:
            for sign in (1.0, -1.0):
                ref = min(r.margin for r in al.penrose_margins(bg, sign * 1e6, q, range(1, 9)))
                for p in sign * self.P_SCAN:
                    kappa = min(r.margin for r in al.penrose_margins(bg, p, q, range(1, 9)))
                    assert abs(kappa / ref - 1.0) <= 1e-6, (p, kappa, ref)

    def test_refusal_follows_the_rounding_not_p(self):
        bg, _, q = al.background_preset("stable-broad")
        # the margins grow about linearly with eta_min down to 1e-14, where
        # they read 1.0010 to 1.0018 times 1e-11 those at 1e-3, at any p
        for p in (1.0, -1e290):
            wide = [r.margin for r in al.penrose_margins(bg, p, q, range(1, 9))]
            narrow = [r.margin for r in al.penrose_margins(bg, p, q, range(1, 9), 1e-14)]
            assert all(abs(a / (1e-11 * b) - 1.0) <= 5e-3 for a, b in zip(narrow, wide)), narrow
        # at 1e-17 the line minimum is within 512 times its rounding bound
        for p in (1.0, 1e290):
            with pytest.raises(ValueError, match="^eta_min = 1e-17 is below what double precision resolves: at k=1 "):
                al.penrose_margins(bg, p, q, range(1, 9), 1e-17)
        # lambda/|p| is undefined at p = 0, and q/|p| overflows at 5e-324
        for p in (0.0, 5e-324, -5e-324):
            with pytest.raises(ValueError, match="^p "):
                al.penrose_margins(bg, p, q, range(1, 9))
        # the zero symbol has no poles, so any p whose scaled line is a normal float is taken
        assert al.penrose_margins(al.BackgroundSymbol(np.zeros(3)), 1e300, q, (1, 2))[0].margin == 1.0

    @pytest.mark.parametrize("p", [1e9, -1e9, 1e12, -1e50, 1e100, -1e200, 1e300, -1e300])
    def test_stable_broad_reads_one_kappa(self, p):
        bg, _, q = al.background_preset("stable-broad")
        reports = al.penrose_margins(bg, p, q, range(1, 9))
        assert f"{min(r.margin for r in reports):.10f}" == "0.0313849813"
        if abs(p) == 1e300:
            assert [r.margin for r in reports] == pytest.approx(LARGE_P_MARGINS, rel=1e-12)

    @settings(max_examples=25, deadline=None)
    @given(
        seed=hst.integers(0, 2**16),
        slot=hst.integers(0, 2),
        log_p=hst.floats(9.0, 300.0),
        sign=hst.sampled_from([1.0, -1.0]),
    )
    def test_random_family_reads_its_large_p_kappa(self, seed, slot, log_p, sign):
        # the benchmark's random family (J = 4, 5, 6): kappa is its p = +-1e300 value to 1e-10
        _, q, bg = list(random_family(seed))[slot]
        limit = min(r.margin for r in al.penrose_margins(bg, sign * 1e300, q, range(1, 9)))
        kappa = min(r.margin for r in al.penrose_margins(bg, sign * 10.0**log_p, q, range(1, 9)))
        assert abs(kappa - limit) <= 1e-10

    @pytest.mark.parametrize("p", [1e6, 1e12, 1e100, -1e300])
    def test_never_above_a_scaled_grid(self, p):
        for J, q, bg in random_family(0):
            for report in al.penrose_margins(bg, p, q, range(1, 9)):
                k = report.k
                c, n = written_out_terms(bg, 1.0, k)
                keep = c != 0.0
                grid = scaled_line_grid_minimum(c[keep], math.copysign(1.0, p) * n[keep], q / abs(p), 1e-3 / abs(p))
                assert not report.zeros
                assert report.margin <= grid * (1.0 + 1e-9), (J, k, report.margin, grid)

    def test_parent_margins_below_1e4(self):
        # the scan that held the line as one float, frozen at p = 1e4 and -100
        # (k = 1..8): margins within 1e-12, argmins within 1e-9 or mirrored
        # (stable-broad is even, so its minima at +-s tie)
        bg, _, q = al.background_preset("stable-broad")
        cases = [("stable-broad", bg, q)] + [(f"random-{J}", b, qq) for J, qq, b in random_family(0)]
        for name, b, qq in cases:
            for p in (1e4, -100.0):
                reports = al.penrose_margins(b, p, qq, range(1, 9))
                for r, (margin, im) in zip(reports, PARENT_BELOW_1E4[f"{name}@{p:g}"]):
                    assert close(r.margin, margin)
                    assert abs(abs(r.argmin_lambda.imag) - abs(im)) <= 1e-9 * abs(im)
                    assert r.argmin_lambda.imag == pytest.approx(im, rel=1e-9) or name == "stable-broad"


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

    @pytest.mark.parametrize("t_grid", [[0.0, 1e-13, 5e-13, 6e-13], [0.0, 1e-300, 3e-300]])
    def test_nonuniform_tiny_steps_rejected(self, grid8, rank_one, t_grid):
        # steps far below any absolute tolerance are held to their own scale
        bg, p, q = rank_one
        u0 = seed_matrix(grid8, {(1, 0): 1.0})
        with pytest.raises(ValueError, match="^t_grid must be uniformly spaced"):
            al.volterra_solve(bg, u0, p, q, 1, np.array(t_grid))

    @pytest.mark.parametrize("dt", [1e-13, 1e-3, 0.1, 1.0 / 3.0, 7.0])
    @pytest.mark.parametrize("n", [2, 3, 1001, 50_001])
    @pytest.mark.parametrize("layout", ["arange", "linspace"])
    def test_uniform_grids_accepted(self, grid8, rank_one, dt, n, layout):
        # the times' rounding, up to an ulp of the last time, is no reason to refuse a grid
        bg, p, q = rank_one
        u0 = seed_matrix(grid8, {(1, 0): 1.0})
        t = np.arange(n) * dt if layout == "arange" else np.linspace(0.0, (n - 1) * dt, n)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # the coarse steps undersample the kernel
            rho = al.volterra_solve(bg, u0, p, q, 1, t)
        assert rho.shape == (n,)

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
        kappa = min(al.penrose_margins(bg, p, q, (k,))[0].margin for k in (1, 2, 3, 4))
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


def section_args(cfg: dict, section: str) -> dict:
    """The keys of a config section that its API function takes by name: all but background."""
    return {key: value for key, value in cfg[section].items() if key != "background"}


class TestMarginReport:
    def test_equals_the_penrose_files(self, tmp_path):
        cfg = readme_example("penrose", tmp_path / "run")
        written = json.loads((run_cli(tmp_path, "penrose", cfg) / "constants.json").read_text())
        bg, p, q = al.background_preset(cfg["penrose"]["background"])
        report = al.margin_report(bg, p, q, **section_args(cfg, "penrose"))
        assert report.stable and written["stable_in_scan"] is True
        assert written["kappa_scanned"] == report.kappa == min(r.margin for r in report.reports)
        assert written["per_mode"] == json.loads(json.dumps([r.to_dict() for r in report.reports]))
        assert written["constants"] == report.constants.to_dict()

    def test_bilinear_constant_default(self):
        bg, p, q = al.background_preset("stable-broad")
        assert al.margin_report(bg, p, q, 2, c_bilinear=2).constants.c_bilinear == 2.0
        ens = al.EnsembleConfig(40, al.SpectralGrid(16), seed=5)
        expected = al.run_checks(ens, 1.0, ("bilinear",))[0].empirical_constant
        assert al.margin_report(bg, p, q, 2, seed=5).constants.c_bilinear == expected

    def test_unstable_background_takes_no_constants(self, monkeypatch, rank_one):
        def no_estimate(*args, **kwargs):
            raise AssertionError("the bilinear constant was estimated for an unstable background")

        monkeypatch.setattr(penrose_mod, "run_checks", no_estimate)
        report = al.margin_report(*rank_one, 2)
        assert not report.stable and report.constants is None
        assert report.kappa == min(r.margin for r in al.penrose_margins(*rank_one, (1, 2)))

    @pytest.mark.parametrize("background", [UNSTABLE, "stable-broad"])
    @pytest.mark.parametrize(
        "name, bad", [("k_max", 0), ("eta_min", 0.0), ("eta", -5.0), ("epsilon", 0.0), ("c_bilinear", -3.0)]
    )
    def test_bad_input_named_first(self, background, name, bad):
        bg, p, q = al.background_preset(background)
        with pytest.raises(ValueError, match=named_first(name)):
            al.margin_report(bg, p, q, **{name: bad})


class TestPerturbationRun:
    def test_rows_equal_the_deviation_file(self, tmp_path):
        cfg = readme_example("perturb", tmp_path / "run")
        out = run_cli(tmp_path, "perturb", cfg)
        bg, p, q = al.background_preset(cfg["perturb"]["background"])
        grid = al.SpectralGrid(cfg["grid"]["N"])
        run = al.perturbation_run(bg, p, q, grid, seed=cfg["seed"], **section_args(cfg, "perturb"))
        with open(out / "deviation.csv", newline="") as fh:
            written = list(csv.reader(fh))[1:]
        assert run.diverged_at is None and run.fit_rate is not None
        assert [[cli._fmt(c) for c in (*row, run.fit_rate)] for row in run.rows] == written
        summary = json.loads((out / "summary.json").read_text())
        assert (summary["horizon"], summary["fit_rate"]) == (run.horizon, run.fit_rate)
        assert summary["constants"] == run.constants.to_dict()

    def test_stops_at_the_first_untrusted_record(self):
        # at q = 1e8 the linearized flow overflows; the rows end before the time it did
        bg, _, _ = al.background_preset("stable-broad")
        run = al.perturbation_run(
            bg, 1.0, 1e8, al.SpectralGrid(6), 1e-3, T=0.5, dt=1e-2, kappa=0.1, c_bilinear=0.18, seed=3
        )
        assert run.diverged_at is not None and 1 <= len(run.rows) < 51
        assert run.rows[-1][0] < run.diverged_at
        assert all(_trusted(dev, lin) for _, dev, lin, _ in run.rows)

    @pytest.mark.parametrize(
        "background, n, seed_band, kappa, seed, box",
        [
            ("stable-broad", 12, 2, None, 4, 6),  # J = 2: the README config, half the modes
            ("stable-broad", 32, 2, None, 4, 6),
            ("stable-broad", 6, 2, None, 4, 6),  # the box is the grid
            ("remark-5-2-unstable", 6, 1, 0.1, 4, 2),  # J = 0
            ("remark-5-2-unstable", 1, 1, 0.1, 1, 1),  # J + 2b = 2 is cut to the grid
            ("remark-5-2-unstable", 6, 0, 0.1, 4, 1),  # J + 2b = 0, and SpectralGrid needs N >= 1
        ],
    )
    def test_linearized_flow_runs_on_its_mode_box(self, monkeypatch, background, n, seed_band, kappa, seed, box):
        # (seeds 4 and 1 draw perturbations that keep the datum of remark-5-2-unstable a state)
        bg, p, q = al.background_preset(background)
        blocks = penrose_mod._linearized_blocks
        grids = []

        def spy(u0, *args, **kwargs):
            grids.append(u0.grid)
            return blocks(u0, *args, **kwargs)

        monkeypatch.setattr(penrose_mod, "_linearized_blocks", spy)
        run = al.perturbation_run(bg, p, q, al.SpectralGrid(n), 1e-4, T=0.05, dt=1e-2, kappa=kappa,
                                  seed_band=seed_band, c_bilinear=0.18, seed=seed)
        assert [g.N for g in grids] == [box]
        assert run.diverged_at is None and len(run.rows) == 6

    @pytest.mark.parametrize("n, seed_band, record_every", [(12, 2, 1), (33, 1, 2), (6, 2, 1)])
    def test_rows_do_not_depend_on_the_block_length(self, monkeypatch, n, seed_band, record_every):
        # the stacked QR, SVD and eigvalsh take each record's matrix as if alone, so a run read in
        # blocks of the default length, or of one record, has the bits of a run read in one block
        bg, p, q = al.background_preset("stable-broad")
        blocks = penrose_mod._linearized_blocks
        lengths = []

        def spy(*args, **kwargs):
            lengths.append([])
            for block in blocks(*args, **kwargs):
                lengths[-1].append(block[0].size)
                yield block

        monkeypatch.setattr(penrose_mod, "_linearized_blocks", spy)

        def rows(entries):
            monkeypatch.setattr(dyn, "BLOCK_ENTRIES", entries)
            return al.perturbation_run(bg, p, q, al.SpectralGrid(n), 1e-3, T=0.3, dt=1e-3, kappa=0.03,
                                       seed_band=seed_band, record_every=record_every, c_bilinear=0.18,
                                       seed=n).rows

        default = dyn.BLOCK_ENTRIES
        one = rows(2**40)
        assert rows(default) == one and rows(1) == one
        assert [len(blocks) for blocks in lengths] == [1, -(-len(one) // lengths[1][0]), len(one)]
        assert len(lengths[1]) > 1

    def test_peak_memory_does_not_grow_with_the_grid(self):
        # a block's arrays, the factors F on the grid and the box's diagonals and matrices, hold at
        # most BLOCK_ENTRIES complex entries, and a stacked QR, eigvalsh or Hermitian check copies a
        # block at a time; the grid's dense matrices (the datum and U0) are not held through the
        # blocks.  So at N = 64 the run keeps within 2.5 x 16 BLOCK_ENTRIES bytes and about its peak
        # at N = 12 (when the blocks were sized by the linearized stack alone, 13 MiB, 2.2x that peak)
        bg, p, q = al.background_preset("stable-broad")
        args = dict(epsilon=1e-3, dt=1e-3, seed_band=2, fit_window=[0.5, 2.0], c_bilinear=0.18, seed=7)
        al.perturbation_run(bg, p, q, al.SpectralGrid(12), **args)  # imports and caches are not the run's

        def peak(n):
            tracemalloc.start()
            try:
                al.perturbation_run(bg, p, q, al.SpectralGrid(n), **args)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        small, large = peak(12), peak(64)
        assert large <= 2.5 * 16 * dyn.BLOCK_ENTRIES
        assert large <= 1.5 * small

    def test_zero_step_refused_before_the_scan(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("a zero step must be refused before the Penrose scan and the ensemble")

        monkeypatch.setattr(penrose_mod, "penrose_margins", forbidden)
        monkeypatch.setattr(penrose_mod, "run_checks", forbidden)
        bg, p, q = al.background_preset("stable-broad")
        with pytest.raises(ValueError, match="^dt must be positive, got 0.0"):
            al.perturbation_run(bg, p, q, al.SpectralGrid(6), 1e-3, T=0.2, dt=0.0)

    @pytest.mark.parametrize("name, bad", [("eta", {"eta": 0.0}), ("eta", {"eta": math.nan}),
                                           ("c_bilinear", {"c_bilinear": -0.18})])
    def test_window_inputs_refused_before_the_scan(self, monkeypatch, name, bad):
        # without kappa the scan is margin_report's, which takes eta and c_bilinear first, as penrose does
        def forbidden(*args, **kwargs):
            raise AssertionError("a bad window input must be refused before the Penrose scan")

        monkeypatch.setattr(penrose_mod, "penrose_margins", forbidden)
        bg, p, q = al.background_preset("stable-broad")
        with pytest.raises(ValueError, match=named_first(name)):
            al.perturbation_run(bg, p, q, al.SpectralGrid(6), 1e-3, T=0.2, dt=0.01, **bad)

    @pytest.mark.parametrize("epsilon", [1e-3, 0.0])
    def test_default_kappa_is_margin_reports(self, epsilon):
        # kappa and the constants are margin_report's at the constants' epsilon (1 for epsilon = 0)
        bg, p, q = al.background_preset("stable-broad")
        run = al.perturbation_run(bg, p, q, al.SpectralGrid(6), epsilon, T=0.05, dt=0.01, k_max=4, eta=0.7,
                                  c_bilinear=0.18, seed=3)
        report = al.margin_report(bg, p, q, 4, 1e-3, 0.7, epsilon or 1.0, 0.18, 3)
        assert run.constants == report.constants and run.constants.kappa == report.kappa

    def test_linearized_trace_norms_need_hermitian_stacks(self):
        gen = np.random.default_rng(0)
        a = gen.standard_normal((3, 5, 5)) + 1j * gen.standard_normal((3, 5, 5))
        herm = a + a.swapaxes(-1, -2).conj()
        expected = [np.linalg.svd(m, compute_uv=False).sum() for m in herm]
        assert np.allclose(penrose_mod._hermitian_trace_norm(herm), expected, rtol=1e-13, atol=0.0)
        with pytest.raises(ValueError, match="^not Hermitian: max"):
            penrose_mod._hermitian_trace_norm(a)

    @pytest.mark.parametrize(
        "name, bad",
        [
            ("epsilon", {"epsilon": -1.0}),
            ("epsilon", {"epsilon": math.nan}),
            ("epsilon", {"epsilon": 5.0}),  # the datum leaves the nonnegative cone
            ("T", {"T": 0.0}),
            ("T", {"epsilon": 0.0, "T": None}),  # no intrinsic horizon
            ("fit_window", {"fit_window": [0.2, 0.1]}),
            ("grid", {"grid": al.SpectralGrid(1)}),
            ("eta_min", {"eta_min": 0.0}),
            ("seed_band", {"seed_band": 7}),
            ("k_max", {"k_max": 0}),
            ("kappa", {"kappa": -1.0}),
            ("dt", {"dt": 0.0}),
            ("record_every", {"record_every": 0}),
            ("dt", {"dt": 5e-324}),  # T / dt overflows: no finite number of steps
        ],
    )
    def test_bad_input_named_first(self, name, bad):
        bg, p, q = al.background_preset("stable-broad")
        args = {"grid": al.SpectralGrid(6), "epsilon": 1e-3, "T": 0.2, "dt": 0.01, "kappa": 0.03,
                "c_bilinear": 0.18, "seed_band": 2, "seed": 7}
        if name == "k_max":
            del args["kappa"]
        with pytest.raises(ValueError, match=named_first(name)):
            al.perturbation_run(bg, p, q, **{**args, **bad})
