"""Split-step integrator, Picard oracle, and linearized matrix evolution.

Sign conventions under test: i d/dt psi = p Lap psi + q rho psi gives the
free phase e^{+i p n^2 dt} on psihat(n) and the potential phase
e^{-i q rho(x) dt} pointwise.
"""

import json
import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as hst

import alber_lab as al
import alber_lab.dynamics as dyn
from alber_lab.dynamics import DivergenceError, diagonal_sums
from alber_lab.spectral import TWO_PI, analyze_batch, synthesize_batch, toeplitz

from conftest import random_state


def plane_wave_state(grid, n, weight):
    coeffs = np.zeros((1, grid.n_modes), dtype=complex)
    coeffs[0, grid.N + n] = 1.0
    return al.MixedState(grid, np.array([weight]), coeffs)


class TestEvolveConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            al.EvolveConfig(p=0.0, q=1.0, dt=1e-3, T=1.0)
        with pytest.raises(ValueError):
            al.EvolveConfig(p=1.0, q=1.0, dt=0.0, T=1.0)
        with pytest.raises(ValueError):
            al.EvolveConfig(p=1.0, q=1.0, dt=0.5, T=0.1)
        with pytest.raises(ValueError):
            al.EvolveConfig(p=1.0, q=1.0, dt=1e-3, T=1.0, record_every=0)

    @pytest.mark.parametrize("field", ["p", "q", "dt", "T"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite(self, field, value):
        kwargs = dict(p=1.0, q=1.0, dt=1e-3, T=1.0)
        kwargs[field] = value
        with pytest.raises(ValueError, match="finite"):
            al.EvolveConfig(**kwargs)

    @pytest.mark.parametrize("dt, T", [(0.3, 1.0), (1e-3, 0.5005), (0.4, 1.0), (1e-2, 0.1 + 1e-9)])
    def test_rejects_fractional_horizon(self, dt, T):
        with pytest.raises(ValueError, match="whole number of steps"):
            al.EvolveConfig(p=1.0, q=1.0, dt=dt, T=T)

    @pytest.mark.parametrize(
        "dt, T, steps", [(1e-3, 5.0, 5000), (6.25e-5, 0.5, 8000), (1e-2, 0.1, 10), (0.3, 0.9, 3), (1e-3, 1e-3, 1)]
    )
    def test_accepts_whole_horizon(self, dt, T, steps):
        assert al.EvolveConfig(p=1.0, q=1.0, dt=dt, T=T).steps == steps

    def test_step_count_bounded(self):
        # T/dt is checked before it is rounded: 1e300 steps would run until killed
        assert al.EvolveConfig(p=1.0, q=1.0, dt=1.0, T=float(dyn.MAX_STEPS)).steps == dyn.MAX_STEPS
        with pytest.raises(ValueError, match="^dt=.*MAX_STEPS"):
            al.EvolveConfig(p=1.0, q=1.0, dt=1.0, T=float(dyn.MAX_STEPS + 1))
        with pytest.raises(ValueError, match="^dt=.*MAX_STEPS"):
            al.EvolveConfig(p=1.0, q=1.0, dt=1e-300, T=1.0)

    def test_overflowing_step_count_rejected(self):
        # T/dt overflows to inf, which int(round(.)) cannot convert
        with pytest.raises(ValueError, match="^dt=.*MAX_STEPS"):
            al.EvolveConfig(p=1.0, q=1.0, dt=1e-310, T=1e10)

    def test_heaviest_run_in_use_fits(self):
        assert al.EvolveConfig(p=1.0, q=1.0, dt=2e-4, T=15.0).steps == 75_000 < dyn.MAX_STEPS


class TestFreeStep:
    def test_zero_dt_identity(self, grid8):
        st = random_state(grid8, 2, seed=1)
        out = al.free_step(st, 1.0, 0.0)
        assert np.array_equal(out.orbitals, st.orbitals)

    def test_plane_wave_half_period(self, grid8):
        st = plane_wave_state(grid8, 1, 1.0)
        out = al.free_step(st, 1.0, math.pi)
        # e^{i*1*pi} = -1 on the n=1 coefficient
        assert abs(out.orbitals[0, grid8.N + 1] + 1.0) < 1e-12
        assert np.abs(np.abs(out.orbitals) - np.abs(st.orbitals)).max() < 1e-13

    def test_h1s1_isometry(self, grid16):
        st = random_state(grid16, 3, seed=2)
        before = al.hs1_norm_nonneg(st, 1.0)
        after = al.hs1_norm_nonneg(al.free_step(st, 0.7, 0.31), 1.0)
        assert abs(after - before) <= 1e-12 * before


class TestPotentialStep:
    def test_zero_dt_identity(self, grid8):
        st = random_state(grid8, 2, seed=3)
        out = al.potential_step(st, 1.0, 0.0)
        assert np.abs(out.orbitals - st.orbitals).max() < 1e-15

    def test_plane_wave_global_phase(self, grid8):
        mu, q, dt = 0.8, 1.5, 0.2
        st = plane_wave_state(grid8, 0, mu)
        out = al.potential_step(st, q, dt)
        expected = np.exp(-1j * q * mu * dt / TWO_PI)
        assert abs(out.orbitals[0, grid8.N] - expected) < 1e-12

    def test_density_invariant(self, grid16):
        # band 3 at N = 16 keeps every relevant multiplier order in-band, so
        # the discarded tail sits far below the 1e-12 target
        st = random_state(grid16, 3, seed=4, band=3)
        before = al.density_samples(st)
        after = al.density_samples(al.potential_step(st, 2.0, 0.01))
        assert np.abs(after - before).max() <= 1e-12 * np.abs(before).max()

    def test_mass_and_gram_invariant(self, grid16):
        from alber_lab.states import gram_deviation

        st = random_state(grid16, 3, seed=5, band=6)
        out = al.potential_step(st, -1.0, 0.1)
        assert abs(al.mass(out) - al.mass(st)) <= 1e-12 * al.mass(st)
        assert gram_deviation(out) < 1e-11

    def test_empty_state_passthrough(self, grid8):
        st = al.MixedState.empty(grid8)
        assert al.potential_step(st, 1.0, 0.1).rank == 0


class TestEvolve:
    def test_zero_state_stays_zero(self, grid8):
        fin, recs = al.evolve(
            al.MixedState.empty(grid8), al.EvolveConfig(1.0, 1.0, 1e-2, 0.1)
        )
        assert fin.rank == 0
        assert all(r.mass == 0.0 and r.energy == 0.0 for r in recs)

    def test_record_times(self, grid8):
        st = plane_wave_state(grid8, 0, 1.0)
        _, recs = al.evolve(st, al.EvolveConfig(1.0, 1.0, 1e-2, 0.1, record_every=4))
        times = [r.t for r in recs]
        assert times[0] == 0.0
        assert abs(times[-1] - 0.1) < 1e-12
        assert abs(times[1] - 0.04) < 1e-12

    def test_homogeneous_steady_state(self, grid8):
        bg = al.BackgroundSymbol(np.array([0.4, 1.0, 0.4]))
        st = al.background_to_state(bg, grid8)
        ref = al.to_matrix(st).entries
        fin, _ = al.evolve(st, al.EvolveConfig(1.0, 1.0, 1e-2, 2.0, record_every=100))
        drift = np.sqrt((np.abs(al.to_matrix(fin).entries - ref) ** 2).sum())
        assert drift <= 1e-10

    def test_conservation_short_run(self, grid16):
        st = random_state(grid16, 3, seed=6, band=6)
        _, recs = al.evolve(st, al.EvolveConfig(1.0, 1.0, 1e-3, 0.5, record_every=100))
        m = [r.mass for r in recs]
        s2 = [r.s2_norm for r in recs]
        assert max(abs(v - m[0]) for v in m) <= 1e-12 * m[0]
        assert max(abs(v - s2[0]) for v in s2) <= 1e-12 * s2[0]
        assert max(r.gram_dev for r in recs) <= 1e-11

    def test_second_order_in_dt(self, grid8):
        st = random_state(grid8, 2, seed=7, band=3)
        ref, _ = al.evolve(st, al.EvolveConfig(1.0, 1.0, 1.25e-4, 0.4, record_every=10**9))
        ref_m = al.to_matrix(ref).entries
        errs = []
        for dt in (4e-3, 2e-3):
            fin, _ = al.evolve(st, al.EvolveConfig(1.0, 1.0, dt, 0.4, record_every=10**9))
            errs.append(np.sqrt((np.abs(al.to_matrix(fin).entries - ref_m) ** 2).sum()))
        assert 3.4 < errs[0] / errs[1] < 4.6

    def test_divergence_reports_last_good(self, grid8, monkeypatch):
        import alber_lab.dynamics as dyn

        st = plane_wave_state(grid8, 0, 1.0)
        original = dyn.monitor
        calls = {"n": 0}

        def poisoned(state, cfg, t=0.0):
            rec = original(state, cfg, t)
            calls["n"] += 1
            if calls["n"] >= 3:
                rec = dyn.TrajectoryRecord(
                    rec.t, math.inf, rec.s2_norm, rec.energy, rec.kinetic,
                    rec.gram_dev, rec.h1s1, rec.density_spectrum,
                )
            return rec

        monkeypatch.setattr(dyn, "monitor", poisoned)
        with pytest.raises(DivergenceError) as info:
            dyn.evolve(st, al.EvolveConfig(1.0, 1.0, 1e-2, 0.1, record_every=1))
        assert len(info.value.records) == 2  # records before the poisoned one


def reference_evolve(state, cfg):
    """evolve spelled out with the reference composition strang_step."""
    records = [al.monitor(state, cfg, 0.0)]
    for i in range(1, cfg.steps + 1):
        state = al.strang_step(state, cfg)
        if i % cfg.record_every == 0 or i == cfg.steps:
            records.append(al.monitor(state, cfg, i * cfg.dt))
    return state, records


RECORD_FIELDS = ("mass", "s2_norm", "energy", "kinetic", "gram_dev", "h1s1")


def assert_same_run(run, reference, tol=1e-12):
    (final, records), (ref_final, ref_records) = run, reference
    assert final.orbitals.shape == ref_final.orbitals.shape
    assert np.abs(final.orbitals - ref_final.orbitals).max(initial=0.0) <= tol
    assert [r.t for r in records] == [r.t for r in ref_records]
    for rec, ref in zip(records, ref_records):
        for name in RECORD_FIELDS:
            a, b = getattr(rec, name), getattr(ref, name)
            assert abs(a - b) <= tol * max(1.0, abs(b)), (rec.t, name, a, b)
        assert np.abs(rec.density_spectrum - ref.density_spectrum).max() <= tol


class TestFusedKernel:
    """evolve runs a fused raw-array loop; strang_step is its reference."""

    @pytest.mark.parametrize(
        "rank, q, steps, record_every",
        [(3, 1.0, 40, 10), (3, 1.0, 25, 7), (2, -1.5, 30, 4), (1, 2.0, 1, 1), (4, -0.5, 12, 100)],
    )
    def test_matches_reference_composition(self, grid16, rank, q, steps, record_every):
        st = random_state(grid16, rank, seed=20 + rank, band=6)
        cfg = al.EvolveConfig(0.8, q, 1e-2, steps * 1e-2, record_every=record_every)
        assert_same_run(al.evolve(st, cfg), reference_evolve(st, cfg))

    def test_rank_zero_matches_reference(self, grid8):
        cfg = al.EvolveConfig(1.0, -1.0, 1e-2, 0.13, record_every=5)
        run = al.evolve(al.MixedState.empty(grid8), cfg)
        assert_same_run(run, reference_evolve(al.MixedState.empty(grid8), cfg))
        assert run[0].rank == 0 and len(run[1]) == 4

    @settings(max_examples=30, deadline=None)
    @given(
        n=hst.integers(1, 10),
        rank=hst.integers(0, 3),
        steps=hst.integers(1, 30),
        record_every=hst.integers(1, 12),
        q=hst.sampled_from([-2.0, -0.5, 0.7, 1.5]),
        seed=hst.integers(0, 2**16),
    )
    def test_property_matches_reference(self, n, rank, steps, record_every, q, seed):
        grid = al.SpectralGrid(n)
        rank = min(rank, grid.n_modes)
        if rank:
            st = al.random_smooth_state(grid, rank, n, 2.5, np.random.default_rng(seed))
        else:
            st = al.MixedState.empty(grid)
        cfg = al.EvolveConfig(1.0, q, 5e-3, steps * 5e-3, record_every=record_every)
        assert_same_run(al.evolve(st, cfg), reference_evolve(st, cfg))

    def test_iter_evolve_records_match_evolve(self, grid8):
        st = random_state(grid8, 2, seed=30, band=3)
        cfg = al.EvolveConfig(1.0, 1.0, 1e-2, 0.2, record_every=3)
        pairs = list(al.iter_evolve(st, cfg))
        final, records = al.evolve(st, cfg)
        assert [t for t, _ in pairs] == [r.t for r in records]
        assert pairs[0][1] is st
        assert np.array_equal(pairs[-1][1].orbitals, final.orbitals)

    def test_yielded_states_are_never_overwritten(self, grid8):
        st = random_state(grid8, 3, seed=31, band=4)
        initial = st.orbitals.copy()
        cfg = al.EvolveConfig(1.0, -1.0, 1e-2, 0.2, record_every=2)
        held, snapshots, records = [], [], []
        for t, state in al.iter_evolve(st, cfg):
            held.append((t, state))
            snapshots.append(state.orbitals.copy())
            records.append(al.monitor(state, cfg, t))
        assert np.array_equal(st.orbitals, initial)
        for (t, state), snap, rec in zip(held, snapshots, records):
            assert np.array_equal(state.orbitals, snap)
            again = al.monitor(state, cfg, t)
            assert all(getattr(again, f) == getattr(rec, f) for f in RECORD_FIELDS)
            assert np.array_equal(again.density_spectrum, rec.density_spectrum)
        for (_, a), (_, b) in zip(held, held[1:]):
            assert not np.shares_memory(a.orbitals, b.orbitals)

    def test_mixed_states_built_at_records_only(self, grid8, monkeypatch):
        calls = {"n": 0}
        original = al.MixedState.__post_init__

        def counting(state):
            calls["n"] += 1
            original(state)

        st = random_state(grid8, 2, seed=32, band=3)
        monkeypatch.setattr(al.MixedState, "__post_init__", counting)
        _, records = al.evolve(st, al.EvolveConfig(1.0, 1.0, 1e-2, 0.6, record_every=20))
        assert len(records) == 4
        assert calls["n"] == len(records) - 1  # the initial state is the caller's

    def test_independent_of_the_composition_steps(self, grid8, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("evolve must not go through the reference composition")

        st = random_state(grid8, 2, seed=33, band=3)
        cfg = al.EvolveConfig(1.0, 1.0, 1e-2, 0.05)
        expected = reference_evolve(st, cfg)
        for name in ("strang_step", "free_step", "potential_step"):
            monkeypatch.setattr(dyn, name, forbidden)
        assert_same_run(dyn.evolve(st, cfg), expected)


class TestBatchKernel:
    """One loop and one formula: every batch row of _split_step is the run
    iter_evolve gives that state alone, and _record_scalars on one state is
    bit for bit the single-state routes monitor was written with."""

    @settings(max_examples=30, deadline=None)
    @given(
        batch=hst.integers(1, 4),
        rank=hst.integers(1, 4),
        n=hst.integers(2, 12),
        p=hst.sampled_from([1.0, -0.7]),
        q=hst.sampled_from([1.5, -1.0]),
        steps=hst.integers(1, 20),
        record_every=hst.integers(1, 8),
        seed=hst.integers(0, 2**16),
    )
    def test_batch_rows_are_single_runs(self, batch, rank, n, p, q, steps, record_every, seed):
        grid = al.SpectralGrid(n)
        rng = np.random.default_rng(seed)
        states = [al.random_smooth_state(grid, rank, n, 2.5, rng, total_mass=rng.uniform(0.5, 10.0)) for _ in range(batch)]
        cfg = al.EvolveConfig(p, q, 5e-3, steps * 5e-3, record_every=record_every)
        mu = np.stack([st.weights for st in states])
        rows = list(dyn._split_step(grid, mu, np.stack([st.orbitals for st in states]), cfg))
        for j, st in enumerate(states):
            single = list(al.iter_evolve(st, cfg))
            assert [t for t, _ in rows] == [t for t, _ in single]
            for (_, orbitals), (_, state) in zip(rows, single):
                assert np.array_equal(orbitals[j], state.orbitals)

    @settings(max_examples=40, deadline=None)
    @given(
        rank=hst.integers(0, 4),
        n=hst.integers(1, 12),
        p=hst.sampled_from([1.0, -0.7]),
        q=hst.sampled_from([1.5, -1.0]),
        steps=hst.integers(0, 6),
        seed=hst.integers(0, 2**16),
    )
    def test_record_scalars_are_the_single_state_routes(self, rank, n, p, q, steps, seed):
        grid = al.SpectralGrid(n)
        rank = min(rank, grid.n_modes)
        st = al.random_smooth_state(grid, rank, n, 2.5, np.random.default_rng(seed)) if rank else al.MixedState.empty(grid)
        cfg = al.EvolveConfig(p, q, 1e-2, max(steps, 1) * 1e-2)
        if steps:  # an evolved state's orbitals are not laid out like a drawn one's
            st = list(al.iter_evolve(st, cfg))[-1][1]
        mu = st.weights
        g = st.orbitals.conj() @ st.orbitals.T
        rho = (np.abs(synthesize_batch(grid, st.orbitals)) ** 2).T @ mu
        kin = float(np.dot(mu, np.sum(grid.modes().astype(float) ** 2 * np.abs(st.orbitals) ** 2, axis=1)))
        mass = float(np.real(np.dot(mu, np.diag(g).real)))
        expected = (
            mass,
            math.sqrt(float(np.einsum("k,l,kl->", mu, mu, np.abs(g) ** 2).real)),
            -p * kin + 0.5 * q * al.lp_norm(rho, 2) ** 2,
            kin,
            float(np.abs(g - np.eye(rank)).max(initial=0.0)),
            mass + kin,
        )
        *scalars, got_rho = dyn._record_scalars(grid, mu, st.orbitals, p, q)
        assert tuple(map(float, scalars)) == expected
        assert np.array_equal(got_rho, rho)
        rec = al.monitor(st, cfg, 0.0)
        assert tuple(getattr(rec, name) for name in RECORD_FIELDS) == expected
        assert np.array_equal(rec.density_spectrum, np.abs(analyze_batch(grid, rho)))

    def test_stacked_scalars_match_single_states(self, grid16):
        states = [random_state(grid16, 3, seed=40 + j, band=8) for j in range(5)]
        mu = np.stack([st.weights for st in states])
        stacked = dyn._record_scalars(grid16, mu, np.stack([st.orbitals for st in states]), 1.0, -1.0)
        for j, st in enumerate(states):
            single = dyn._record_scalars(grid16, st.weights, st.orbitals, 1.0, -1.0)
            for a, b in zip(stacked, single):
                assert np.allclose(a[j], b, rtol=1e-14, atol=1e-15)

    def test_evolve_runs_the_one_loop(self, grid8, monkeypatch):
        shapes = []
        original = dyn._split_step

        def counting(grid, mu, orbitals, cfg):
            shapes.append(orbitals.shape)
            return original(grid, mu, orbitals, cfg)

        monkeypatch.setattr(dyn, "_split_step", counting)
        al.evolve(random_state(grid8, 2, seed=34, band=3), al.EvolveConfig(1.0, 1.0, 1e-2, 0.05))
        assert shapes == [(2, grid8.n_modes)]

    def test_trusted_is_the_divergence_rule(self):
        limit = dyn.DIVERGENCE_LIMIT
        values = np.array([[1.0, -limit, limit * 1.01, 2.0, math.nan, 1.0],
                           [0.0, 3.0, 1.0, -math.inf, 1.0, -limit * 1.01]])
        assert dyn._trusted(*values).tolist() == [True, True, False, False, False, False]
        assert dyn._trusted(1.0, limit) and not dyn._trusted(1.0, math.inf)

    def test_every_flow_reads_the_one_limit(self, grid8, monkeypatch, tmp_path):
        import alber_lab.cli as cli

        bg, p, q = al.background_preset("stable-broad")
        u0 = al.random_hermitian_perturbation(grid8, 2, np.random.default_rng(3))
        lin_cfg = al.EvolveConfig(p, q, 1e-2, 0.05)
        assert not al.linearized_evolve(u0, bg, lin_cfg).growth_flag
        perturb = {"output_dir": str(tmp_path / "run"), "seed": 1, "grid": {"N": 4},
                   "perturb": {"background": "stable-broad", "epsilon": 1e-3, "kappa": 0.03,
                               "c_bilinear": 2.0, "T": 0.02, "dt": 0.01}}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(perturb))

        monkeypatch.setattr(dyn, "DIVERGENCE_LIMIT", 1e-9)
        with pytest.raises(DivergenceError):
            al.evolve(random_state(grid8, 2, seed=3, band=3), al.EvolveConfig(1.0, 1.0, 1e-2, 0.05))
        assert al.linearized_evolve(u0, bg, lin_cfg).growth_flag
        with pytest.raises(DivergenceError):
            al.run_checks(al.EnsembleConfig(2, grid8), 1.0, (), apriori=(1.0, 1.0, 0.05, 1e-2))
        assert cli.main(["perturb", "--config", str(path)]) == 3


def allocating_split_step(grid, mu, orbitals, cfg):
    """_split_step as it was before its workspace, frozen: the same substeps,
    each allocating its result.  The bit-identity reference."""
    modes = grid.modes()
    band = modes % grid.M
    n2 = modes.astype(float) ** 2
    half = np.exp(1j * cfg.p * n2 * (0.5 * cfg.dt))
    full = np.zeros(grid.M, dtype=complex)
    full[band] = np.exp(1j * cfg.p * n2 * cfg.dt)
    kick = -1j * cfg.q * cfg.dt * grid.M**2 / TWO_PI
    weights = mu[..., None, :]
    steps = cfg.steps

    yield 0.0, orbitals
    buf = np.zeros(orbitals.shape[:-1] + (grid.M,), dtype=complex)
    buf[..., band] = orbitals * half
    for i in range(1, steps + 1):
        psi = np.fft.ifft(buf, axis=-1)
        psi *= np.exp(kick * (weights @ np.abs(psi) ** 2))
        buf = np.fft.fft(psi, axis=-1)
        if i % cfg.record_every == 0 or i == steps:
            yield i * cfg.dt, buf[..., band] * half
        buf *= full


def random_stack(grid, batch, rank, rng):
    """weights (batch, rank) and orbitals (batch, rank, 2N+1) of random states."""
    if rank == 0:
        return np.zeros((batch, 0)), np.zeros((batch, 0, grid.n_modes), dtype=complex)
    states = [
        al.random_smooth_state(grid, rank, grid.N, 2.5, rng, total_mass=rng.uniform(0.5, 10.0))
        for _ in range(batch)
    ]
    return np.stack([st.weights for st in states]), np.stack([st.orbitals for st in states])


def assert_same_records(run, reference):
    """Two record streams, compared in lockstep as they are yielded."""
    for (t, orbitals), (ref_t, ref_orbitals) in zip(run, reference, strict=True):
        assert t == ref_t
        assert np.array_equal(orbitals, ref_orbitals)


class TestWorkspace:
    """_split_step writes every substep into arrays allocated once per run:
    its records are the bits of the allocating loop, and no run sees
    another's workspace or the caller's arrays."""

    @settings(max_examples=40, deadline=None)
    @given(
        batch=hst.integers(1, 4),
        stacked=hst.booleans(),
        rank=hst.integers(0, 4),
        n=hst.integers(1, 16),
        p=hst.sampled_from([1.0, -0.7]),
        q=hst.sampled_from([1.5, -1.0]),
        steps=hst.integers(1, 30),
        record_every=hst.integers(1, 40),
        seed=hst.integers(0, 2**16),
    )
    def test_records_are_the_allocating_loops_bits(self, batch, stacked, rank, n, p, q, steps, record_every, seed):
        grid = al.SpectralGrid(n)
        mu, orbitals = random_stack(grid, batch, min(rank, grid.n_modes), np.random.default_rng(seed))
        if not stacked:  # one state, no leading axis
            mu, orbitals = mu[0], orbitals[0]
        cfg = al.EvolveConfig(p, q, 5e-3, steps * 5e-3, record_every=record_every)
        assert_same_records(dyn._split_step(grid, mu, orbitals, cfg), allocating_split_step(grid, mu, orbitals, cfg))

    @pytest.mark.parametrize("stacked", [False, True])
    def test_benchmark_size_is_the_allocating_loops_bits(self, stacked):
        # the simulate benchmark's size: N=64, rank 4, 300 steps of dt=1e-3, records every 100
        grid = al.SpectralGrid(64)
        mu, orbitals = random_stack(grid, 3, 4, np.random.default_rng(64))
        if not stacked:
            mu, orbitals = mu[0], orbitals[0]
        cfg = al.EvolveConfig(1.0, 1.0, 1e-3, 0.3, record_every=100)
        assert cfg.steps == 300
        assert_same_records(dyn._split_step(grid, mu, orbitals, cfg), allocating_split_step(grid, mu, orbitals, cfg))

    def test_alternating_runs_are_the_runs_alone(self, grid16):
        # equal shapes, so a workspace kept between runs (by shape or otherwise) would mix them
        a, b = random_state(grid16, 3, seed=50, band=6), random_state(grid16, 3, seed=51, band=8)
        cfg = al.EvolveConfig(1.0, -1.0, 1e-2, 0.3, record_every=4)
        alone = [[(t, st.orbitals) for t, st in al.iter_evolve(x, cfg)] for x in (a, b)]
        alternating = ([], [])
        for rec_a, rec_b in zip(al.iter_evolve(a, cfg), al.iter_evolve(b, cfg), strict=True):
            for held, (t, st) in zip(alternating, (rec_a, rec_b)):
                held.append((t, st.orbitals))
        for run, ref in zip(alternating, alone):
            assert_same_records(run, ref)

    def test_batched_records_share_no_memory(self, grid8):
        mu, orbitals = random_stack(grid8, 3, 2, np.random.default_rng(52))
        cfg = al.EvolveConfig(1.0, 1.0, 1e-2, 0.1, record_every=1)
        held = [orb for _, orb in dyn._split_step(grid8, mu, orbitals, cfg)]
        assert len(held) == cfg.steps + 1
        for i, a in enumerate(held):
            for b in held[i + 1 :]:
                assert not np.shares_memory(a, b)

    def test_caller_arrays_are_unchanged(self, grid8):
        mu, orbitals = random_stack(grid8, 2, 3, np.random.default_rng(53))
        mu_before, orbitals_before = mu.copy(), orbitals.copy()
        cfg = al.EvolveConfig(1.0, -1.0, 1e-2, 0.1, record_every=3)
        for _ in dyn._split_step(grid8, mu, orbitals, cfg):
            pass
        assert np.array_equal(mu, mu_before) and np.array_equal(orbitals, orbitals_before)


class TestTimeReversal:
    """Strang splitting is symmetric: the step with (-p, -q) undoes the step
    with (p, q), so T forward and T back returns the datum to rounding.  The
    cutoff breaks this by what it discards, so the run must stay resolved:
    band <= N/4, and mass 20 only at N = 32 (at N = 16 the focusing run
    pushes enough past the cutoff to miss by up to 3e-7 relative)."""

    @settings(max_examples=12, deadline=None)
    @given(
        n_mass=hst.sampled_from([(16, 1.0), (32, 1.0), (32, 20.0)]),
        q=hst.sampled_from([1.0, -1.0]),
        seed=hst.integers(0, 2**16),
        data=hst.data(),
    )
    def test_reversed_run_returns_the_datum(self, n_mass, q, seed, data):
        n, mass = n_mass
        grid = al.SpectralGrid(n)
        band = data.draw(hst.integers(1, n // 4), label="band")
        st = al.random_smooth_state(grid, 3, band, 2.5, np.random.default_rng(seed), total_mass=mass)
        there, _ = al.evolve(st, al.EvolveConfig(1.0, q, 1e-3, 0.5, record_every=10**9))
        back, _ = al.evolve(there, al.EvolveConfig(-1.0, -q, 1e-3, 0.5, record_every=10**9))
        start = al.to_matrix(st).entries
        assert np.abs(al.to_matrix(back).entries - start).max() <= 1e-10 * np.abs(start).max()


class TestHomogeneousSteadiness:
    """A homogeneous state diag(G) is a steady state of the flow: its plane
    waves have the constant density sum_n G(n) / 2pi, so the potential
    substep is a constant phase and the free substep a phase per mode.
    Criterion 9 checks the two presets; here the symbol is random, with
    zeros, on any support J <= N, for both signs of p and q."""

    @settings(max_examples=40, deadline=None)
    @given(
        n=hst.integers(1, 16),
        p=hst.sampled_from([1.0, -0.7]),
        q=hst.sampled_from([1.5, -1.0]),
        steps=hst.integers(1, 40),
        record_every=hst.integers(1, 10),
        data=hst.data(),
    )
    def test_records_stay_the_background(self, n, p, q, steps, record_every, data):
        grid = al.SpectralGrid(n)
        j = data.draw(hst.integers(0, n), label="J")
        value = hst.one_of(hst.just(0.0), hst.floats(1e-3, 10.0))
        symbol = np.array(data.draw(hst.lists(value, min_size=2 * j + 1, max_size=2 * j + 1), label="symbol"))
        bg = al.BackgroundSymbol(symbol)
        support = np.arange(n - j, n + j + 1)  # modes -J..J in storage order
        expected = np.zeros((grid.n_modes, grid.n_modes), dtype=complex)
        expected[support, support] = symbol
        scale = float(np.sqrt(np.sum(symbol**2)))
        cfg = al.EvolveConfig(p, q, 1e-2, steps * 1e-2, record_every=record_every)
        records = list(al.iter_evolve(al.background_to_state(bg, grid), cfg))
        assert len(records) == -(-steps // record_every) + 1
        for _, state in records:
            assert np.abs(al.to_matrix(state).entries - expected).max() <= 1e-12 * scale
            rho = al.density_samples(state)
            assert np.abs(rho - symbol.sum() / TWO_PI).max() <= 1e-12 * scale


class TestMonitor:
    def test_zero_state_record(self, grid8):
        rec = al.monitor(al.MixedState.empty(grid8), al.EvolveConfig(1.0, 1.0, 1e-3, 1.0))
        assert rec.mass == 0.0 and rec.s2_norm == 0.0 and rec.energy == 0.0
        assert np.all(rec.density_spectrum == 0)

    def test_matches_direct_observables(self, grid16):
        st = random_state(grid16, 3, seed=8)
        cfg = al.EvolveConfig(1.0, -1.0, 1e-3, 1.0)
        rec = al.monitor(st, cfg)
        assert abs(rec.mass - al.mass(st)) < 1e-12
        assert abs(rec.kinetic - al.kinetic_energy(st)) < 1e-12
        assert abs(rec.energy - al.energy(st, 1.0, -1.0)) < 1e-10
        assert abs(rec.s2_norm - np.sqrt((st.weights**2).sum())) < 1e-10
        rho_hat = analyze_batch(grid16, al.density_samples(st))
        assert np.abs(rec.density_spectrum - np.abs(rho_hat)).max() < 1e-12


def product_weights_by_quadrature(theta):
    """a = int_0^1 x e^(i theta x) dx and b = int_0^1 (1 - x) e^(i theta x) dx
    by 40-point Gauss-Legendre quadrature, exact to rounding for |theta| <= 13."""
    x, w = np.polynomial.legendre.leggauss(40)
    x, w = 0.5 * (x + 1.0), 0.5 * w
    wave = w * np.exp(1j * np.multiply.outer(theta, x))
    return (wave * x).sum(axis=-1), (wave * (1.0 - x)).sum(axis=-1)


def picard_quadratic(gamma0, p, q, T, n_iter=8, n_quad=33):
    """The Picard scheme with its product-trapezoid history summed afresh at every node.

    The interval [t_(j-1), t_j] contributes S(t_i - t_j) h (a F_(j-1) + b F_j),
    with the weights a, b of the step phase theta = p (m^2 - n^2) h taken by
    Gauss-Legendre quadrature.  Each term applies the free flow
    S(t_i - t_j) as a product of two phase vectors exp(i p n^2 tau),
    recomputed for every pair of nodes: O(n_quad^2) flows per iterate.
    Returns the symmetrized last iterate, or raises NoContractionError
    under the same rule as picard_solve.
    """
    n2 = gamma0.grid.modes().astype(float) ** 2
    ts = np.linspace(0.0, T, n_quad)
    h = ts[1] - ts[0]
    before, after = product_weights_by_quadrature(p * h * (n2[:, None] - n2[None, :]))

    def flow(entries, dtau):
        u = np.exp(1j * p * n2 * dtau)
        return u[:, None] * entries * u.conj()[None, :]

    free = [flow(gamma0.entries, t) for t in ts]
    iterates = [m.copy() for m in free]
    scale = math.sqrt(float(np.sum(np.abs(gamma0.entries) ** 2))) or 1.0
    prev_dist = math.inf
    for _ in range(n_iter):
        forcings = []
        for m in iterates:
            v = dyn._potential_matrix(m)
            forcings.append(v @ m - m @ v)
        new = [free[0].copy()]
        for i in range(1, n_quad):
            acc = np.zeros_like(forcings[0])
            for j in range(1, i + 1):
                acc += flow(before * forcings[j - 1] + after * forcings[j], ts[i] - ts[j])
            new.append(free[i] + (-1j * q * h) * acc)
        dist = max(math.sqrt(float(np.sum(np.abs(a - b) ** 2))) for a, b in zip(new, iterates))
        iterates = new
        if dist >= prev_dist and dist > 1e-14 * scale:
            raise al.NoContractionError(f"{prev_dist:.3e} -> {dist:.3e}")
        prev_dist = dist
    final = iterates[-1]
    return 0.5 * (final + final.conj().T)


class TestPicard:
    def test_linear_case_exact(self, grid8):
        st = random_state(grid8, 2, seed=9, band=3)
        g0 = al.to_matrix(st)
        T = 0.4
        out = al.picard_solve(g0, p=1.3, q=0.0, T=T)
        n2 = grid8.modes().astype(float) ** 2
        phases = np.exp(1j * 1.3 * n2 * T)
        expected = phases[:, None] * g0.entries * phases.conj()[None, :]
        assert np.abs(out.entries - expected).max() < 1e-13

    def test_zero_horizon(self, grid8):
        st = random_state(grid8, 2, seed=10, band=3)
        g0 = al.to_matrix(st)
        out = al.picard_solve(g0, p=1.0, q=1.0, T=0.0)
        assert np.abs(out.entries - g0.entries).max() < 1e-15

    def test_agrees_with_evolve(self, grid8):
        st = random_state(grid8, 2, seed=11, band=3)
        T = 0.05
        pic = al.picard_solve(al.to_matrix(st), p=1.0, q=1.0, T=T, n_iter=12, n_quad=65)
        fin, _ = al.evolve(st, al.EvolveConfig(1.0, 1.0, 1e-5, T, record_every=10**9))
        dev = al.to_matrix(fin).entries - pic.entries
        assert np.sqrt((np.abs(dev) ** 2).sum()) <= 1e-6

    def test_no_contraction_error(self, grid8):
        gen = np.random.default_rng(12)
        heavy = al.random_smooth_state(grid8, 2, 3, 1.0, gen, total_mass=80.0)
        with pytest.raises(al.NoContractionError):
            al.picard_solve(al.to_matrix(heavy), p=1e-3, q=5.0, T=3.0, n_iter=10, n_quad=33)

    @settings(max_examples=40, deadline=None)
    @given(
        n=hst.integers(1, 8),
        rank=hst.integers(1, 3),
        seed=hst.integers(0, 2**32 - 1),
        p=hst.sampled_from([-2.0, -1.0, -0.5, 0.5, 1.0, 2.0]),
        q=hst.sampled_from([-3.0, -1.0, 1.0, 3.0]),
        T=hst.floats(0.0, 0.1, exclude_min=True),
        n_iter=hst.integers(1, 12),
        n_quad=hst.integers(2, 65),
    )
    # a horizon whose step phases square to subnormals
    @example(n=1, rank=1, seed=0, p=-1.0, q=-3.0, T=1.223580332795995e-154, n_iter=1, n_quad=3)
    def test_matches_quadratic_history_sum(self, n, rank, seed, p, q, T, n_iter, n_quad):
        # the running sum is the product-trapezoid history sum, reordered exactly
        grid = al.SpectralGrid(n)
        g0 = al.to_matrix(random_state(grid, min(rank, grid.n_modes), seed))
        try:
            want = picard_quadratic(g0, p, q, T, n_iter, n_quad)
        except al.NoContractionError:
            with pytest.raises(al.NoContractionError):
                al.picard_solve(g0, p, q, T, n_iter, n_quad)
            return
        got = al.picard_solve(g0, p, q, T, n_iter, n_quad)
        assert got.hermitian
        assert np.abs(got.entries - want).max() <= 1e-12 * np.abs(want).max()

    def test_product_weights(self):
        # the series and the closed form meet to rounding at the switch, and
        # both are the integrals; at theta = 0 the rule is the trapezoid
        eps = np.finfo(float).eps
        edge = np.array([-1.0, np.nextafter(-1.0, 0.0), np.nextafter(1.0, 0.0), 1.0])
        series = dyn._product_weights(np.array([np.nextafter(-1.0, 0.0), np.nextafter(1.0, 0.0)]),
                                      np.exp(1j * np.array([np.nextafter(-1.0, 0.0), np.nextafter(1.0, 0.0)])))
        closed = dyn._product_weights(np.array([-1.0, 1.0]), np.exp(1j * np.array([-1.0, 1.0])))
        for s, c in zip(series, closed):
            assert np.abs(s - c).max() <= 4.0 * eps * np.abs(c).max()
        theta = np.concatenate([edge, np.linspace(-13.0, 13.0, 261), [0.0, 1e-300, 1e-8, -1e-3]])
        got = dyn._product_weights(theta, np.exp(1j * theta))
        for g, want in zip(got, product_weights_by_quadrature(theta)):
            assert np.abs(g - want).max() <= 1e-14  # the quadrature's own nodes and weights carry about 2e-15
        assert got[0][-4] == 0.5 and got[1][-4] == 0.5

    def test_benchmark_family_within_bound(self):
        # the stability benchmark's Picard check: against split-step at dt = 1e-3
        # the Frobenius distance stays below 1e-6 (the plain trapezoid gave
        # 1.18e-6 at seed 1389)
        worst = {}
        for seed in [1389, *range(0, 400, 20)]:
            st = al.random_smooth_state(al.SpectralGrid(16), rank=2, band=5, decay=2.5,
                                        rng=np.random.default_rng(seed), total_mass=1.0)
            ref, _ = al.evolve(st, al.EvolveConfig(1.0, 1.0, 1e-3, 0.05, record_every=10**9))
            pic = al.picard_solve(al.to_matrix(st), 1.0, 1.0, 0.05)
            worst[seed] = math.sqrt(float(np.sum(np.abs(pic.entries - al.to_matrix(ref).entries) ** 2)))
        assert max(worst.values()) <= 1e-6, worst
        assert worst[1389] <= 5e-7

    @pytest.mark.parametrize("name", ["p", "q", "T"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, grid8, monkeypatch, name, bad):
        def no_work(entries):
            raise AssertionError("picard_solve started work on a non-finite input")

        monkeypatch.setattr(dyn, "_potential_matrix", no_work)
        args = {"p": 1.0, "q": 1.0, "T": 0.05, name: bad}
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            al.picard_solve(al.to_matrix(random_state(grid8, 2, seed=3)), **args)

    @pytest.mark.parametrize("where", [(0, 0), (1, 0)])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_datum_rejected(self, grid8, monkeypatch, where, bad):
        def no_work(entries):
            raise AssertionError("picard_solve started work on a non-finite input")

        monkeypatch.setattr(dyn, "_potential_matrix", no_work)
        m = al.to_matrix(random_state(grid8, 2, seed=3)).entries.copy()
        m[grid8.N + where[0], grid8.N + where[1]] = bad
        with pytest.raises(ValueError, match="^gamma0 must be finite"):
            al.picard_solve(al.OperatorMatrix(grid8, m), 1.0, 1.0, 0.05)

    def test_potentials_formed_in_one_call_per_iterate(self, grid8, monkeypatch):
        # every node's V_rho of one Picard iterate comes from one stacked call
        shapes = []

        def recording(entries):
            shapes.append(entries.shape)
            return potential(entries)

        potential = dyn._potential_matrix
        monkeypatch.setattr(dyn, "_potential_matrix", recording)
        al.picard_solve(al.to_matrix(random_state(grid8, 2, seed=3)), 1.0, 1.0, 0.05, n_iter=4, n_quad=9)
        assert shapes == [(9, grid8.n_modes, grid8.n_modes)] * 4


class TestDiagonalSums:
    def test_brute_force_oracle(self, grid8, rng):
        nm = grid8.n_modes
        u = rng.standard_normal((nm, nm)) + 1j * rng.standard_normal((nm, nm))
        d = diagonal_sums(u)
        modes = grid8.modes()
        for k in range(-(nm - 1), nm):
            brute = sum(
                u[i, j]
                for i in range(nm)
                for j in range(nm)
                if modes[i] - modes[j] == k
            )
            assert abs(d[k + nm - 1] - brute) < 1e-12

    @settings(max_examples=40, deadline=None)
    @given(n=hst.integers(1, 8), rank=hst.integers(0, 3), seed=hst.integers(0, 2**32 - 1))
    def test_potential_matrix_is_multiplication_by_rho(self, n, rank, seed):
        # rho has band 2N and psi band N, so with M >= 4N + 2 the product's
        # band-limited projection is exact and no alias lands on |n| <= N
        grid = al.SpectralGrid(n)
        st = random_state(grid, rank, seed) if rank else al.MixedState.empty(grid)
        gen = np.random.default_rng(seed)
        psi_hat = gen.standard_normal(grid.n_modes) + 1j * gen.standard_normal(grid.n_modes)
        got = dyn._potential_matrix(al.to_matrix(st).entries) @ psi_hat
        rho = al.density_samples(st)
        expected = analyze_batch(grid, rho * synthesize_batch(grid, psi_hat))
        scale = max(1.0, float(st.weights.sum())) * np.linalg.norm(psi_hat)
        assert np.abs(got - expected).max() <= 1e-13 * scale


def linearized_in_rotating_frame(u0, bg, cfg):
    """The integrating-factor midpoint scheme written out step by step.

    Works in the rotating frame W = Phi(-t) U with the free phases
    Phi(t)_mn = exp(i p (m^2 - n^2) t) recomputed at every stage, and
    rotates back to U at each record.  Returns the density modes
    k = -N..N and the matrix U at every record.
    """
    grid = u0.grid
    modes = grid.modes()
    n2 = modes.astype(float) ** 2
    gh = bg.gamma_hat(modes).astype(float)
    coupling = 1j * (cfg.q / TWO_PI) * (gh[:, None] - gh[None, :])
    nm = grid.n_modes

    def rotate(x, t):
        ph = np.exp(1j * cfg.p * n2 * t)
        return ph[:, None] * x * ph.conj()[None, :]

    def density(u):
        # d(k) = sum_j U_{j+k, j} for k = -N..N, read diagonal by diagonal
        return np.array([np.trace(u, offset=-k) for k in range(-grid.N, grid.N + 1)])

    def forcing(u):
        d = np.array([np.trace(u, offset=-k) for k in range(-(nm - 1), nm)])
        v = np.array([[d[m - n + nm - 1] for n in range(nm)] for m in range(nm)])
        return coupling * v

    def rhs(w, t):
        return rotate(forcing(rotate(w, t)), -t)

    w = u0.entries.astype(complex).copy()
    spectra, matrices = [density(w)], [w.copy()]
    for i in range(1, cfg.steps + 1):
        t = (i - 1) * cfg.dt
        k1 = rhs(w, t)
        w = w + cfg.dt * rhs(w + 0.5 * cfg.dt * k1, t + 0.5 * cfg.dt)
        if i % cfg.record_every == 0 or i == cfg.steps:
            u = rotate(w, i * cfg.dt)
            spectra.append(density(u))
            matrices.append(u)
    return np.array(spectra), matrices


def linearized_step_reference(u0, bg, cfg, matrix_every=0):
    """The lab-frame midpoint step applied one dt at a time on the full matrix.

    V = U + dt/2 C(U), then U <- H (H U + dt C(H V)) entrywise, with
    H = Phi(dt/2) and C(U)_mn = (iq/2pi)(Gh(m)-Gh(n)) d(m - n) formed
    through diagonal_sums and toeplitz at every step.  Records, recorded
    matrices and the growth flag follow the rules of linearized_evolve.
    """
    grid = u0.grid
    modes = grid.modes()
    n2 = modes.astype(float) ** 2
    gh = bg.gamma_hat(modes).astype(float)
    coupling = 1j * (cfg.q / TWO_PI) * (gh[:, None] - gh[None, :])
    half = np.exp(0.5j * cfg.p * cfg.dt * (n2[:, None] - n2[None, :]))
    half_band = slice(grid.N, 3 * grid.N + 1)
    steps = cfg.steps
    u = u0.entries.astype(complex)
    times, spectra = [], []
    matrices, matrix_times = [], []
    growth = False
    for i in range(steps + 1):
        if i:
            v = u + 0.5 * cfg.dt * coupling * toeplitz(diagonal_sums(u))
            u = half * (half * u + cfg.dt * coupling * toeplitz(diagonal_sums(half * v)))
        if i % cfg.record_every and i != steps:
            continue
        d = diagonal_sums(u)[half_band]
        if not np.isfinite(d).all() or np.abs(d).max() > dyn.DIVERGENCE_LIMIT:
            growth = True
        times.append(i * cfg.dt)
        spectra.append(d)
        if matrix_every and (i // cfg.record_every) % matrix_every == 0 or i in (0, steps):
            matrices.append(u)
            matrix_times.append(i * cfg.dt)
    return dyn.LinearizedTrajectory(
        times=np.asarray(times),
        k_modes=modes.copy(),
        density_modes=np.asarray(spectra),
        matrices=matrices,
        matrix_times=np.asarray(matrix_times),
        growth_flag=growth,
    )


def stride_case(data, kind):
    """(steps, record_every) with record_every 1, a divisor of steps, a
    non-divisor (a partial last stride) or more than steps."""
    if kind == "one":
        return data.draw(hst.integers(1, 40)), 1
    stride = data.draw(hst.integers(2, 12))
    if kind == "beyond":
        return data.draw(hst.integers(1, stride - 1)), stride
    steps = stride * data.draw(hst.integers(1, 5))
    if kind == "partial":
        steps += data.draw(hst.integers(1, stride - 1))
    return steps, stride


class TestLinearizedEvolve:
    @staticmethod
    def _seed_matrix(grid, entries_at):
        m = np.zeros((grid.n_modes, grid.n_modes), dtype=complex)
        for (i, j), v in entries_at.items():
            m[grid.N + i, grid.N + j] = v
            m[grid.N + j, grid.N + i] = np.conj(v)
        return al.OperatorMatrix(grid, m, hermitian=True)

    @pytest.mark.parametrize("power", [True, False])
    def test_overflow_flags_growth_without_warning(self, power):
        # at q = 1e8 the explicit midpoint step is unstable for dt = 1e-2 and the matrices overflow
        grid = al.SpectralGrid(6)
        bg, _, _ = al.background_preset("stable-broad")
        u0 = al.random_hermitian_perturbation(grid, 2, np.random.default_rng(3))
        u0 = al.OperatorMatrix(grid, 1e-3 * u0.entries, hermitian=True)
        cfg = al.EvolveConfig(1.0, 1e8, 1e-2, 0.5, record_every=5)
        with mock.patch.object(dyn, "_power_pays", lambda *args: power), warnings.catch_warnings():
            warnings.simplefilter("error")
            traj = al.linearized_evolve(u0, bg, cfg, matrix_every=1)
        assert traj.growth_flag
        assert not np.isfinite(traj.matrices[-1].entries).all()

    def test_zero_background_free_flow(self, grid8):
        u0 = self._seed_matrix(grid8, {(1, 0): 0.5, (2, 2): 1.0})
        bg = al.BackgroundSymbol(np.array([0.0]))
        cfg = al.EvolveConfig(1.0, 1.0, 1e-3, 0.5, record_every=100)
        traj = al.linearized_evolve(u0, bg, cfg, matrix_every=1)
        T = traj.matrix_times[-1]
        n2 = grid8.modes().astype(float) ** 2
        ph = np.exp(1j * 1.0 * n2 * T)
        expected = ph[:, None] * u0.entries * ph.conj()[None, :]
        assert np.abs(traj.matrices[-1].entries - expected).max() < 1e-10

    def test_diagonal_seed_stays_free(self, grid8):
        u0 = self._seed_matrix(grid8, {(0, 0): 1.0, (2, 2): 0.5})
        bg = al.BackgroundSymbol(np.array([0.3, 1.0, 0.3]))
        cfg = al.EvolveConfig(1.0, 1.0, 1e-3, 0.5, record_every=50)
        traj = al.linearized_evolve(u0, bg, cfg, matrix_every=1)
        # no off-diagonal source: all k != 0 density modes stay zero
        k = np.asarray(traj.k_modes)
        off = traj.density_modes[:, k != 0]
        assert np.abs(off).max() < 1e-12
        assert np.abs(traj.matrices[-1].entries - u0.entries).max() < 1e-12

    def test_trace_conserved(self, grid8):
        u0 = self._seed_matrix(grid8, {(1, 0): 0.5, (0, 0): 1.0, (3, 1): 0.2})
        bg = al.BackgroundSymbol(np.array([0.5, 2.0, 0.5]))
        cfg = al.EvolveConfig(1.0, -1.0, 1e-3, 1.0, record_every=100)
        traj = al.linearized_evolve(u0, bg, cfg)
        k = np.asarray(traj.k_modes)
        trace = traj.density_modes[:, k == 0][:, 0]
        assert np.abs(trace - trace[0]).max() <= 1e-10

    @settings(max_examples=25, deadline=None)
    @given(
        J=hst.integers(0, 2),
        extra=hst.integers(0, 2),
        seed=hst.integers(0, 2**32 - 1),
        p=hst.sampled_from([-1.0, 0.5, 1.0]),
        q=hst.sampled_from([-2.0, -1.0, 1.0]),
        steps=hst.integers(1, 40),
    )
    def test_trace_conserved_property(self, J, extra, seed, p, q, steps):
        # the diagonal has zero forcing, so tr U moves only by the rounding
        # of |exp(i p n^2 t)|^2 = 1 in the recorded matrix
        gen = np.random.default_rng(seed)
        grid = al.SpectralGrid(J + 1 + extra)
        bg = al.BackgroundSymbol(gen.uniform(0.0, 2.0, 2 * J + 1))
        u0 = al.random_hermitian_perturbation(grid, J + 1, gen)
        cfg = al.EvolveConfig(p, q, 1e-2, steps * 1e-2, record_every=max(1, steps // 4))
        traj = al.linearized_evolve(u0, bg, cfg, matrix_every=1)
        trace = traj.density_modes[:, grid.N]
        scale = float(np.abs(np.diag(u0.entries)).sum())
        assert np.abs(trace - trace[0]).max() <= 1e-14 * scale
        for m in traj.matrices:
            assert abs(np.trace(m.entries) - np.trace(u0.entries)) <= 1e-14 * scale

    def test_truncation_guard(self):
        grid = al.SpectralGrid(2)
        bg = al.BackgroundSymbol(0.1 * np.ones(9))  # support J = 4 > N
        u0 = al.OperatorMatrix(grid, np.zeros((5, 5), dtype=complex))
        with pytest.raises(al.TruncationError):
            al.linearized_evolve(u0, bg, al.EvolveConfig(1.0, 1.0, 1e-3, 0.1))

    def test_growth_flag_on_unstable_background(self):
        grid = al.SpectralGrid(3)
        bg, p, q = al.background_preset("remark-5-2-unstable")
        m = np.zeros((7, 7), dtype=complex)
        m[grid.N + 1, grid.N] = 1e-2
        m[grid.N, grid.N + 1] = 1e-2
        u0 = al.OperatorMatrix(grid, m, hermitian=True)
        cfg = al.EvolveConfig(p, q, 1e-3, 40.0, record_every=1000)
        traj = al.linearized_evolve(u0, bg, cfg)
        assert traj.growth_flag  # e^t amplification crosses the 1e12 guard
        assert np.isfinite(traj.density_modes[0]).all()

    @settings(max_examples=40, deadline=None)
    @given(
        J=hst.integers(0, 2),
        extra=hst.integers(0, 2),
        seed=hst.integers(0, 2**32 - 1),
        p=hst.sampled_from([-1.5, -1.0, 0.5, 1.0]),
        q=hst.sampled_from([-2.0, -0.5, 1.0, 3.0]),
        record_every=hst.integers(2, 6),
        whole=hst.integers(0, 4),
        rest=hst.integers(1, 5),
    )
    def test_matches_rotating_frame_scheme(self, J, extra, seed, p, q, record_every, whole, rest):
        # the lab-frame step is the same map as the rotating-frame midpoint step
        steps = whole * record_every + min(rest, record_every - 1)  # a partial last stride
        gen = np.random.default_rng(seed)
        grid = al.SpectralGrid(J + 1 + extra)
        bg = al.BackgroundSymbol(gen.uniform(0.0, 2.0, 2 * J + 1))
        u0 = al.random_hermitian_perturbation(grid, J + 1, gen)
        cfg = al.EvolveConfig(p, q, 0.05, steps * 0.05, record_every=record_every)
        traj = al.linearized_evolve(u0, bg, cfg, matrix_every=1)
        spectra, matrices = linearized_in_rotating_frame(u0, bg, cfg)
        assert traj.density_modes.shape == spectra.shape
        assert np.abs(traj.density_modes - spectra).max() <= 1e-10 * np.abs(spectra).max()
        assert len(traj.matrices) == len(matrices)
        scale = max(np.abs(m).max() for m in matrices)
        for got, want in zip(traj.matrices, matrices):
            assert np.abs(got.entries - want).max() <= 1e-10 * scale

    @settings(max_examples=60, deadline=None)
    @given(
        J=hst.integers(0, 2),
        extra=hst.integers(0, 3),
        seed=hst.integers(0, 2**32 - 1),
        p=hst.sampled_from([-1.0, 0.5, 1.0, 3.0]),
        q=hst.sampled_from([-2.0, -1.0, 1.0]),
        steps=hst.integers(1, 40),
        record_every=hst.integers(1, 7),
    )
    def test_diagonal_kept_bit_for_bit(self, J, extra, seed, p, q, steps, record_every):
        # the half-step phase is exactly 1 and the coupling exactly 0 on the diagonal
        gen = np.random.default_rng(seed)
        grid = al.SpectralGrid(J + 1 + extra)
        bg = al.BackgroundSymbol(gen.uniform(0.0, 2.0, 2 * J + 1))
        u0 = al.random_hermitian_perturbation(grid, J + 1 + extra, gen)
        cfg = al.EvolveConfig(p, q, 1e-2, steps * 1e-2, record_every=record_every)
        traj = al.linearized_evolve(u0, bg, cfg, matrix_every=1)
        for m in traj.matrices:
            assert np.array_equal(np.diag(m.entries), np.diag(u0.entries))
        assert (traj.density_modes[:, grid.N] == traj.density_modes[0, grid.N]).all()

    @settings(max_examples=60, deadline=None)
    @given(
        data=hst.data(),
        n=hst.integers(1, 8),
        background=hst.sampled_from(["random", "remark-5-2-unstable", "stable-broad"]),
        p_sign=hst.sampled_from([-1.0, 1.0]),
        q_sign=hst.sampled_from([-1.0, 1.0]),
        steps_kind=hst.sampled_from(["one", "divisor", "partial", "beyond"]),
        matrix_every=hst.sampled_from([0, 1, 3]),
        power=hst.sampled_from([True, False, None]),
        seed=hst.integers(0, 2**32 - 1),
    )
    def test_matches_step_reference(
        self, data, n, background, p_sign, q_sign, steps_kind, matrix_every, power, seed
    ):
        # one matrix power per stride and rank-one steps on the diagonal stack
        # (forced, or as _power_pays picks) are the same map as one step per dt
        gen = np.random.default_rng(seed)
        if background == "random":
            J = data.draw(hst.integers(0, n))
            bg = al.BackgroundSymbol(gen.uniform(0.0, 2.0, 2 * J + 1))
            p, q = data.draw(hst.sampled_from([0.5, 1.0, 1.5])), data.draw(hst.sampled_from([0.5, 1.0, 3.0]))
        else:
            bg, p, q = al.background_preset(background)
        grid = al.SpectralGrid(max(n, bg.J))
        u0 = al.random_hermitian_perturbation(grid, data.draw(hst.integers(0, grid.N)), gen)
        steps, record_every = stride_case(data, steps_kind)
        dt = data.draw(hst.sampled_from([1e-3, 1e-2, 0.05]))
        cfg = al.EvolveConfig(p_sign * p, q_sign * q, dt, steps * dt, record_every=record_every)
        pays = dyn._power_pays if power is None else (lambda *args: power)
        with mock.patch.object(dyn, "_power_pays", pays):
            got = al.linearized_evolve(u0, bg, cfg, matrix_every=matrix_every)
        want = linearized_step_reference(u0, bg, cfg, matrix_every=matrix_every)
        assert np.array_equal(got.times, want.times)
        assert np.array_equal(got.matrix_times, want.matrix_times)
        assert got.growth_flag == want.growth_flag
        assert np.array_equal(got.k_modes, want.k_modes)
        assert got.density_modes.shape == want.density_modes.shape
        for g, w in zip(got.density_modes, want.density_modes):
            assert np.abs(g - w).max() <= 1e-10 * np.abs(w).max()
        assert len(got.matrices) == len(want.matrices)
        for g, w in zip(got.matrices, want.matrices):
            assert np.abs(g.entries - w).max() <= 1e-10 * np.abs(w).max()

    def test_matches_step_reference_on_oracle_configs(self):
        # criterion 4's configs and the perturb path (stride 10, every matrix)
        for name, n, dt, T, record_every, matrix_every in [
            ("stable-broad", 6, 2e-4, 2.0, 100, 0),
            ("remark-5-2-unstable", 6, 2e-4, 2.0, 100, 0),
            ("stable-broad", 12, 1e-3, 0.5, 10, 1),
        ]:
            bg, p, q = al.background_preset(name)
            grid = al.SpectralGrid(n)
            u0 = al.random_hermitian_perturbation(grid, 2, np.random.default_rng(7))
            cfg = al.EvolveConfig(p, q, dt, T, record_every=record_every)
            got = al.linearized_evolve(u0, bg, cfg, matrix_every=matrix_every)
            want = linearized_step_reference(u0, bg, cfg, matrix_every=matrix_every)
            scale = np.abs(want.density_modes).max()
            assert np.abs(got.density_modes - want.density_modes).max() <= 1e-10 * scale
            for g, w in zip(got.matrices, want.matrices):
                assert np.abs(g.entries - w).max() <= 1e-10 * np.abs(w).max()
                assert np.array_equal(np.diag(g.entries), np.diag(u0.entries))

    def test_oracle_configs_on_both_paths(self):
        # criterion 4's config, with the matrix power and with rank-one steps
        bg, p, q = al.background_preset("remark-5-2-unstable")
        u0 = al.random_hermitian_perturbation(al.SpectralGrid(6), 2, np.random.default_rng(7))
        cfg = al.EvolveConfig(p, q, 2e-4, 2.0, record_every=100)
        want = linearized_step_reference(u0, bg, cfg)
        for power in (True, False):
            with mock.patch.object(dyn, "_power_pays", lambda *args: power):
                got = al.linearized_evolve(u0, bg, cfg)
            scale = np.abs(want.density_modes).max()
            assert np.abs(got.density_modes - want.density_modes).max() <= 1e-10 * scale

    @pytest.mark.parametrize(
        "n, band, dt, T, record_every, powers",
        [
            (6, 2, 2e-4, 2.0, 100, 1),  # criterion 4: small nm, long strides
            (3, 3, 1e-2, 1.0, 7, 1),  # M^7 pays for 14 strides, M^2 not for the last one
            (3, 3, 1e-2, 0.5, 7, 1),  # M^7 pays for 7 strides once the steps' call cost counts
            (3, 3, 1e-2, 0.07, 7, 0),  # M^7 does not pay for one stride
            (32, 32, 1e-3, 0.2, 100, 0),  # large nm: products with M^n cost more than the steps
            (12, 2, 1e-3, 2.213, 11, 1),  # the README perturb example: 201 strides of 11, not the last 2
            (16, 4, 1e-3, 2.0, 10, 1),
            (64, 64, 1e-3, 0.2, 5, 0),
            (64, 64, 1e-3, 0.2, 200, 0),
        ],
    )
    def test_power_only_where_it_pays(self, monkeypatch, n, band, dt, T, record_every, powers):
        calls = []
        power = np.linalg.matrix_power
        monkeypatch.setattr(np.linalg, "matrix_power", lambda a, k: calls.append(a.shape) or power(a, k))
        bg, p, q = al.background_preset("stable-broad")
        u0 = al.random_hermitian_perturbation(al.SpectralGrid(n), band, np.random.default_rng(2))
        traj = al.linearized_evolve(u0, bg, al.EvolveConfig(p, q, dt, T, record_every=record_every))
        assert len(calls) == powers
        # only the diagonals that are not zero at t=0 are advanced
        assert all(shape == (4 * band + 1, 2 * n + 1, 2 * n + 1) for shape in calls)
        assert np.isfinite(traj.density_modes).all()

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("power", [True, False])
    def test_zero_diagonals_stay_zero(self, power):
        # an unstable background whose step power overflows on k = +-1: a datum
        # that is zero there stays exactly zero, with no NaN and no growth flag
        bg, p, q = al.background_preset("remark-5-2-unstable")
        grid = al.SpectralGrid(3)
        u0 = al.OperatorMatrix(grid, np.diag(np.linspace(0.1, 0.7, 7)).astype(complex), hermitian=True)
        cfg = al.EvolveConfig(p, q, 0.05, 2000.0, record_every=10**9)
        with mock.patch.object(dyn, "_power_pays", lambda *args: power):
            traj = al.linearized_evolve(u0, bg, cfg, matrix_every=1)
        assert not traj.growth_flag
        assert (np.delete(traj.density_modes, grid.N, axis=1) == 0).all()
        for m in traj.matrices:
            assert np.array_equal(m.entries, u0.entries)

    def test_zero_datum(self):
        bg, p, q = al.background_preset("stable-broad")
        grid = al.SpectralGrid(4)
        u0 = al.OperatorMatrix(grid, np.zeros((grid.n_modes, grid.n_modes), dtype=complex))
        traj = al.linearized_evolve(u0, bg, al.EvolveConfig(p, q, 1e-2, 1.0, record_every=7), matrix_every=1)
        assert not traj.growth_flag
        assert (traj.density_modes == 0).all()
        assert all((m.entries == 0).all() for m in traj.matrices)

    def test_no_toeplitz_pair(self, monkeypatch):
        # neither the power nor the rank-one steps read diagonal sums or build a Toeplitz matrix
        def forbidden(*args, **kwargs):
            raise AssertionError("linearized_evolve stepped through the Toeplitz pair")

        monkeypatch.setattr(dyn, "diagonal_sums", forbidden)
        monkeypatch.setattr(dyn, "toeplitz", forbidden)
        bg, p, q = al.background_preset("stable-broad")
        u0 = al.random_hermitian_perturbation(al.SpectralGrid(4), 2, np.random.default_rng(1))
        cfg = al.EvolveConfig(p, q, 1e-2, 1.0, record_every=7)
        for power in (True, False):
            with mock.patch.object(dyn, "_power_pays", lambda *args: power):
                traj = al.linearized_evolve(u0, bg, cfg, matrix_every=1)
            assert len(traj.times) == 16

    @pytest.mark.parametrize("where", [(0, 0), (1, 0)])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, monkeypatch, where, bad):
        def no_work(*args, **kwargs):
            raise AssertionError("linearized_evolve started work on a non-finite input")

        monkeypatch.setattr(dyn, "diagonal_stack", no_work)
        grid = al.SpectralGrid(4)
        m = np.zeros((grid.n_modes, grid.n_modes), dtype=complex)
        m[grid.N + where[0], grid.N + where[1]] = bad
        bg, p, q = al.background_preset("stable-broad")
        with pytest.raises(ValueError, match="^u0 must be finite"):
            al.linearized_evolve(al.OperatorMatrix(grid, m), bg, al.EvolveConfig(p, q, 1e-2, 0.1))

    def test_negative_matrix_every_rejected(self):
        bg, p, q = al.background_preset("stable-broad")
        u0 = al.random_hermitian_perturbation(al.SpectralGrid(4), 2, np.random.default_rng(1))
        with pytest.raises(ValueError, match="^matrix_every must be >= 0"):
            al.linearized_evolve(u0, bg, al.EvolveConfig(p, q, 1e-2, 0.1), matrix_every=-1)
