"""Acceptance gate: nine pinned criteria, one pass/fail line each.

Run `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Every criterion prints its measured numbers and then asserts
the pinned tolerances, so a regression fails loudly with the values
that broke it.
"""

import math
import time

import numpy as np
import pytest

import alber_lab as al
from alber_lab.inequalities import EnsembleConfig, check_apriori, run_checks

UNSTABLE = "remark-5-2-unstable"
STABLE = "stable-broad"


def report(num: int, desc: str, ok: bool) -> None:
    print(f"\n[{'PASS' if ok else 'FAIL'}] criterion {num}: {desc}")


def rel_drift(values) -> float:
    v = np.asarray(values, dtype=float)
    return float(np.abs(v - v[0]).max() / abs(v[0]))


def frobenius(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.sqrt(np.sum(np.abs(a - b) ** 2)))


@pytest.fixture(scope="module")
def conservation_run():
    grid = al.SpectralGrid(64)
    state = al.random_smooth_state(
        grid, rank=4, band=12, decay=3.0, rng=np.random.default_rng(2024), total_mass=1.0
    )
    cfg = al.EvolveConfig(p=1.0, q=1.0, dt=1e-3, T=10.0, record_every=100)
    t0 = time.perf_counter()
    _, records = al.evolve(state, cfg)
    elapsed = time.perf_counter() - t0
    return state, records, elapsed


def test_criterion_1_conservation(conservation_run):
    state, records, elapsed = conservation_run
    mass_drift = rel_drift([r.mass for r in records])
    s2_drift = rel_drift([r.s2_norm for r in records])
    energy_drift = max(abs(r.energy - records[0].energy) for r in records)
    gram_worst = max(r.gram_dev for r in records)
    ok = (
        mass_drift <= 1e-10
        and s2_drift <= 1e-10
        and energy_drift <= 1e-6
        and gram_worst <= 1e-10
        and elapsed <= 60.0
    )
    report(
        1,
        f"conservation: mass {mass_drift:.2e}, S2 {s2_drift:.2e}, "
        f"energy {energy_drift:.2e}, gram {gram_worst:.2e}, {elapsed:.1f}s",
        ok,
    )
    assert mass_drift <= 1e-10
    assert s2_drift <= 1e-10
    assert energy_drift <= 1e-6
    assert gram_worst <= 1e-10
    assert elapsed <= 60.0


def test_criterion_2_apriori_bound(conservation_run):
    state, focusing_records, _ = conservation_run
    rho = al.density_samples(state)
    rho_l2 = al.lp_norm(rho, 2)
    m0, k0 = al.mass(state), al.kinetic_energy(state)
    outcomes = {}
    for q in (1.0, -1.0):
        ybar = al.ybar_bound(m0, k0, rho_l2, 1.0, q, q > 0)
        if q > 0:
            records = focusing_records
        else:
            _, records = al.evolve(
                state, al.EvolveConfig(p=1.0, q=-1.0, dt=1e-3, T=10.0, record_every=100)
            )
        outcomes[q] = check_apriori(records, ybar)
    ok = all(r.violations == 0 for r in outcomes.values())
    worst = max(r.worst_ratio for r in outcomes.values())
    report(2, f"a-priori bound both signs: 0 violations, worst ratio {worst:.4f}", ok)
    for r in outcomes.values():
        assert r.violations == 0


def test_criterion_3_unstable_growth_anchor():
    bg, p, q = al.background_preset(UNSTABLE)
    grid = al.SpectralGrid(12)
    u0 = al.random_hermitian_perturbation(grid, 2, np.random.default_rng(7))
    traj = al.linearized_evolve(u0, bg, al.EvolveConfig(p, q, 2e-4, 15.0, record_every=50))
    k_idx = list(traj.k_modes).index(1)
    t = np.asarray(traj.times)
    y = np.abs(traj.density_modes[:, k_idx])
    sel = (t >= 5.0) & (t <= 15.0)
    rate = float(np.polyfit(t[sel], np.log(y[sel]), 1)[0])
    zeros = al.penrose_margins(bg, p, q, (1,))[0].zeros
    zero_err = min(abs(z - 1.0) for z in zeros) if zeros else math.inf
    ok = abs(rate - 1.0) <= 0.05 and zero_err <= 1e-6
    report(3, f"unstable anchor: fit rate {rate:.6f}, zero offset {zero_err:.2e}", ok)
    assert abs(rate - 1.0) <= 0.05
    assert zero_err <= 1e-6


def test_criterion_4_oracle_equivalence():
    dt, horizon, stride = 2e-4, 10.0, 100
    fine = np.arange(int(round(horizon / dt)) + 1) * dt
    vol_errors = {}
    for name in (STABLE, UNSTABLE):
        bg, p, q = al.background_preset(name)
        grid = al.SpectralGrid(6)
        m = np.zeros((grid.n_modes, grid.n_modes), dtype=complex)
        m[grid.N + 1, grid.N] = m[grid.N, grid.N + 1] = 1.0
        u0 = al.OperatorMatrix(grid, m, hermitian=True)
        traj = al.linearized_evolve(
            u0, bg, al.EvolveConfig(p, q, dt, horizon, record_every=stride)
        )
        vol = al.volterra_solve(bg, u0, p, q, 1, fine)
        k_idx = list(traj.k_modes).index(1)
        err = np.abs(vol[::stride] - traj.density_modes[:, k_idx]).max()
        vol_errors[name] = float(err / np.abs(vol).max())

    grid16 = al.SpectralGrid(16)
    st = al.random_smooth_state(
        grid16, rank=2, band=5, decay=2.5, rng=np.random.default_rng(21), total_mass=1.0
    )
    run_cfg = al.EvolveConfig(1.0, 1.0, 1e-3, 0.05, record_every=10**9)
    ref, _ = al.evolve(st, run_cfg)
    pic = al.picard_solve(al.to_matrix(st), 1.0, 1.0, 0.05)
    picard_err = frobenius(pic.entries, al.to_matrix(ref).entries)

    ok = all(e <= 1e-6 for e in vol_errors.values()) and picard_err <= 1e-6
    report(
        4,
        f"oracle equivalence: volterra stable {vol_errors[STABLE]:.2e}, "
        f"unstable {vol_errors[UNSTABLE]:.2e}, picard {picard_err:.2e}",
        ok,
    )
    for err in vol_errors.values():
        assert err <= 1e-6
    assert picard_err <= 1e-6


def test_criterion_5_integrator_order():
    grid = al.SpectralGrid(16)
    st = al.random_smooth_state(
        grid, rank=3, band=6, decay=2.5, rng=np.random.default_rng(11), total_mass=1.0
    )
    ref, _ = al.evolve(st, al.EvolveConfig(1.0, 1.0, 6.25e-5, 1.0, record_every=10**9))
    ref_mat = al.to_matrix(ref).entries
    errors = []
    for dt in (4e-3, 2e-3, 1e-3):
        fin, _ = al.evolve(st, al.EvolveConfig(1.0, 1.0, dt, 1.0, record_every=10**9))
        errors.append(frobenius(al.to_matrix(fin).entries, ref_mat))
    ratios = [errors[0] / errors[1], errors[1] / errors[2]]
    ok = all(3.5 <= r <= 4.5 for r in ratios)
    report(5, f"integrator order: error ratios {ratios[0]:.3f}, {ratios[1]:.3f}", ok)
    for r in ratios:
        assert 3.5 <= r <= 4.5


def test_criterion_6_galerkin_convergence():
    grid = al.SpectralGrid(128)
    st = al.random_smooth_state(
        grid, rank=4, band=128, decay=1.8, rng=np.random.default_rng(5), total_mass=1.0
    )
    full = al.to_matrix(st)
    errors, norms = [], []
    for n_prime in (8, 16, 32, 64):
        trunc = al.galerkin_truncate(full, n_prime)
        diff = al.OperatorMatrix(grid, full.entries - trunc.entries, hermitian=True)
        errors.append(al.sobolev_schatten_norm(diff, 1.0))
        norms.append(al.sobolev_schatten_norm(trunc, 1.0))
    decreasing = all(errors[i] > errors[i + 1] for i in range(3))
    nondecreasing = all(norms[i] <= norms[i + 1] * (1.0 + 1e-12) for i in range(3))
    ok = decreasing and nondecreasing
    report(
        6,
        "galerkin: errors " + " > ".join(f"{e:.4f}" for e in errors) + f", norms monotone {nondecreasing}",
        ok,
    )
    assert decreasing
    assert nondecreasing


def test_criterion_7_inequality_lab():
    t0 = time.perf_counter()
    grid = al.SpectralGrid(32)
    big = EnsembleConfig(200, grid, seed=2024)
    small = EnsembleConfig(50, grid, seed=2024)
    explicit = run_checks(big, 1.0, ("bessel", "gn", "hoffmann_ostenhof"), apriori=(1.0, 1.0, 0.5, 2e-3))
    explicit += run_checks(big, 1.0, (), apriori=(1.0, -1.0, 0.5, 2e-3))
    violations = sum(r.violations for r in explicit)

    names = ("trace", "conjugation", "bilinear", "fourier_summation")
    small_res = run_checks(small, names=names)
    big_res = run_checks(big, names=names)
    drifts = {
        n: abs(b.empirical_constant - s.empirical_constant) / s.empirical_constant
        for n, s, b in zip(names, small_res, big_res)
    }
    elapsed = time.perf_counter() - t0
    ok = violations == 0 and all(d <= 0.20 for d in drifts.values()) and elapsed <= 300.0
    drift_txt = ", ".join(f"{n} {d:.1%}" for n, d in drifts.items())
    report(
        7,
        f"inequality lab: {violations} violations, constant drift {drift_txt}, {elapsed:.0f}s",
        ok,
    )
    assert violations == 0
    for d in drifts.values():
        assert d <= 0.20
    assert elapsed <= 300.0


def test_criterion_8_stable_window():
    bg, p, q = al.background_preset(STABLE)
    kappa = min(al.penrose_margins(bg, p, q, (k,))[0].margin for k in range(1, 7))
    assert kappa > 0.0
    c_bil = run_checks(EnsembleConfig(40, al.SpectralGrid(16), seed=2024), 1.0, ("bilinear",))[0].empirical_constant
    grid = al.SpectralGrid(12)
    gamma_mat = al.background_to_matrix(bg, grid)
    u0 = al.random_hermitian_perturbation(grid, 2, np.random.default_rng(7))

    dev_at_horizon = {}
    bounded = True
    worst_fraction = 0.0
    for eps in (1e-2, 1e-3):
        consts = al.propagator_constants(
            bg.h1s1_norm(), bg.l1_norm(), kappa, q, 1.0, eps, c_bil
        )
        datum = al.eigendecompose(
            al.OperatorMatrix(grid, gamma_mat.entries + eps * u0.entries, hermitian=True)
        )
        dt = 1e-3
        steps = int(round(consts.t_star / dt))
        run_cfg = al.EvolveConfig(p, q, dt, steps * dt, record_every=10)
        state, dev = datum, 0.0
        for i in range(1, steps + 1):
            state = al.strang_step(state, run_cfg)
            if i % 10 == 0 or i == steps:
                diff = al.to_matrix(state).entries - gamma_mat.entries
                dev = al.sobolev_schatten_norm(
                    al.OperatorMatrix(grid, diff, hermitian=True), 1.0
                )
                t = i * dt
                bound = 2.0 * consts.c_star * (1.0 + t * t) * eps
                worst_fraction = max(worst_fraction, dev / bound)
                bounded = bounded and dev <= bound
        dev_at_horizon[eps] = dev
    ratio = dev_at_horizon[1e-2] / dev_at_horizon[1e-3]
    scale = 10.0**0.6  # epsilon^{3/5} across one decade
    in_band = scale / 3.0 <= ratio <= 3.0 * scale
    ok = bounded and in_band
    report(
        8,
        f"stable window: kappa {kappa:.4f}, worst dev/bound {worst_fraction:.3f}, "
        f"horizon-deviation ratio {ratio:.2f} vs {scale:.2f}",
        ok,
    )
    assert bounded
    assert in_band


def test_criterion_9_homogeneous_steadiness():
    drifts = {}
    for name in (UNSTABLE, STABLE):
        bg, p, q = al.background_preset(name)
        state = al.background_to_state(bg, al.SpectralGrid(8))
        _, records = al.evolve(state, al.EvolveConfig(p, q, 1e-3, 10.0, record_every=1000))
        drifts[name] = rel_drift([r.s2_norm for r in records])
    ok = all(d <= 1e-10 for d in drifts.values())
    report(
        9,
        "homogeneous steadiness: S2 drift "
        + ", ".join(f"{n} {d:.2e}" for n, d in drifts.items()),
        ok,
    )
    for d in drifts.values():
        assert d <= 1e-10
