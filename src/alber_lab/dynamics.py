"""Time integration: split-step orbital evolution, a short-time Picard
oracle at the operator level, and the linearized flow around homogeneous
backgrounds.

Sign conventions, fixed once here so they cannot drift between routines:
the orbital equation is i d/dt psi = p*Lap(psi) + q*rho*psi with
rho = sum_k mu_k |psi_k|^2.  On mode n, Lap -> -n^2, so the exact free
flow multiplies psihat(n) by exp(+i*p*n^2*t).  The potential flow leaves
|psi_k| (hence rho) pointwise invariant, so it is exactly the multiplier
exp(-i*q*rho(x)*dt).  At the operator level the same equation reads
i d/dt U = p*[Lap, U] + q*[V_rho, U], whose free part multiplies U_mn by
exp(+i*p*(m^2 - n^2)*t), consistent with the orbital phases.

The orbital integrator is Strang splitting, half free, full potential,
half free.  strang_step composes the three exact substeps on MixedStates
and is the reference composition.  iter_evolve runs the same scheme on
raw arrays: the free phases are tabulated once per run, and adjacent
half free steps merge into one full free phase, so between records a
step is one potential substep followed by one full free phase.  A
MixedState is built only at record points, where the open half step is
closed.  evolve and every other multi-step caller go through iter_evolve.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np

from .spectral import TWO_PI, SpectralGrid, analyze_batch, lp_norm, synthesize_batch
from .states import (
    BackgroundSymbol,
    MixedState,
    OperatorMatrix,
    TruncationError,
    gram_matrix,
    kinetic_energy,
)

DIVERGENCE_LIMIT = 1e12


class DivergenceError(RuntimeError):
    """An observable left the trust region during evolve()."""

    def __init__(self, t: float, records: list):
        super().__init__(f"evolution diverged at t={t:.6g}")
        self.t = t
        self.records = records


class NoContractionError(RuntimeError):
    """Picard iterates stopped contracting (horizon too long for the data)."""


@dataclass(frozen=True)
class EvolveConfig:
    p: float
    q: float
    dt: float
    T: float
    record_every: int = 1

    def __post_init__(self) -> None:
        for name in ("p", "q", "dt", "T"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.p * self.q == 0.0:
            raise ValueError("p and q must both be nonzero")
        if self.dt <= 0.0:
            raise ValueError(f"dt must be positive, got {self.dt}")
        if self.T < self.dt:
            raise ValueError(f"horizon T={self.T} shorter than one step dt={self.dt}")
        if abs(self.T / self.dt - self.steps) > 1e-9 * self.steps:
            raise ValueError(f"horizon T={self.T} is not a whole number of steps dt={self.dt}")
        if self.record_every < 1:
            raise ValueError("record_every must be >= 1")

    @property
    def steps(self) -> int:
        return int(round(self.T / self.dt))


@dataclass
class TrajectoryRecord:
    t: float
    mass: float
    s2_norm: float
    energy: float
    kinetic: float
    gram_dev: float
    h1s1: float
    density_spectrum: np.ndarray = field(repr=False)


# ---- elementary steps ----


def free_step(state: MixedState, p: float, dt: float) -> MixedState:
    """Exact free flow: psihat(n) -> exp(i*p*n^2*dt) * psihat(n)."""
    n2 = state.grid.modes().astype(float) ** 2
    phases = np.exp(1j * p * n2 * dt)
    return MixedState(
        state.grid, state.weights, state.orbitals * phases[None, :], gram_tol=math.inf
    )


def potential_step(state: MixedState, q: float, dt: float) -> MixedState:
    """Exact potential flow: psi(x) -> exp(-i*q*rho(x)*dt) * psi(x).

    rho is computed once and shared by all orbitals; it is invariant
    under the step because every |psi_k(x)| is.  Content pushed past the
    mode cutoff by the multiplier is discarded, so orthonormality can
    drift for under-resolved states; the drift is reported through the
    gram_dev monitor channel instead of being rejected here.
    """
    if state.rank == 0:
        return state
    psi = synthesize_batch(state.grid, state.orbitals)
    rho = (np.abs(psi) ** 2).T @ state.weights
    psi *= np.exp(-1j * q * dt * rho)[None, :]
    return MixedState(
        state.grid, state.weights, analyze_batch(state.grid, psi), gram_tol=math.inf
    )


def strang_step(state: MixedState, cfg: EvolveConfig) -> MixedState:
    """Second-order composition: half free, full potential, half free."""
    out = free_step(state, cfg.p, 0.5 * cfg.dt)
    out = potential_step(out, cfg.q, cfg.dt)
    return free_step(out, cfg.p, 0.5 * cfg.dt)


# ---- observables ----


def monitor(state: MixedState, cfg: EvolveConfig, t: float = 0.0) -> TrajectoryRecord:
    """Assemble the per-record observables; pure, no state mutation.

    Mass and the Hilbert-Schmidt norm are read off the orbital Gram
    matrix so integrator-induced orbital drift shows up instead of being
    hidden by the constant weights.
    """
    mu = state.weights
    if state.rank:
        g = gram_matrix(state)
        mass_v = float(np.real(np.dot(mu, np.diag(g).real)))
        s2 = math.sqrt(float(np.einsum("k,l,kl->", mu, mu, np.abs(g) ** 2).real))
        gram_dev = float(np.abs(g - np.eye(state.rank)).max())
    else:
        mass_v, s2, gram_dev = 0.0, 0.0, 0.0
    kin = kinetic_energy(state)
    psi = synthesize_batch(state.grid, state.orbitals)
    rho = (np.abs(psi) ** 2).T @ mu if state.rank else np.zeros(state.grid.M)
    rho_l2 = lp_norm(rho, 2)
    energy_v = -cfg.p * kin + 0.5 * cfg.q * rho_l2**2
    spectrum = np.abs(analyze_batch(state.grid, rho.astype(complex)))
    return TrajectoryRecord(
        t=t,
        mass=mass_v,
        s2_norm=s2,
        energy=energy_v,
        kinetic=kin,
        gram_dev=gram_dev,
        h1s1=mass_v + kin,
        density_spectrum=spectrum,
    )


def _check_record(rec: TrajectoryRecord, records: list) -> None:
    values = (rec.mass, rec.s2_norm, rec.energy, rec.kinetic, rec.h1s1)
    finite = all(math.isfinite(v) for v in values)
    if not finite or max(abs(v) for v in values) > DIVERGENCE_LIMIT:
        raise DivergenceError(rec.t, records)


def iter_evolve(state: MixedState, cfg: EvolveConfig) -> Iterator[tuple[float, MixedState]]:
    """Strang split-step run over [0, T], yielding (t, state) records.

    Yields the initial state at t = 0, then the state after every
    record_every steps and after the last step.  The working buffer holds
    the orbitals on the full FFT grid, half a free step ahead of the last
    potential substep; the full-step phase table is zero off the band, so
    multiplying by it also discards what the potential pushed past the
    cutoff.  The FFT normalizations cancel over a substep, except in the
    density, where they are folded into the potential constant.  Yielded
    states never share memory with the buffer.
    """
    grid, mu = state.grid, state.weights
    modes = grid.modes()
    band = modes % grid.M
    n2 = modes.astype(float) ** 2
    half = np.exp(1j * cfg.p * n2 * (0.5 * cfg.dt))
    full = np.zeros(grid.M, dtype=complex)
    full[band] = np.exp(1j * cfg.p * n2 * cfg.dt)
    kick = -1j * cfg.q * cfg.dt * grid.M**2 / TWO_PI
    steps = cfg.steps

    yield 0.0, state
    buf = np.zeros((state.rank, grid.M), dtype=complex)
    buf[:, band] = state.orbitals * half
    for i in range(1, steps + 1):
        psi = np.fft.ifft(buf, axis=-1)
        psi *= np.exp(kick * (mu @ np.abs(psi) ** 2))
        buf = np.fft.fft(psi, axis=-1)
        if i % cfg.record_every == 0 or i == steps:
            yield i * cfg.dt, MixedState(grid, mu, buf[:, band] * half, gram_tol=math.inf)
        buf *= full


def evolve(state: MixedState, cfg: EvolveConfig) -> tuple[MixedState, list[TrajectoryRecord]]:
    """Strang split-step run over [0, T]; records every record_every steps.

    Raises DivergenceError (carrying the records up to the last good
    time) if any recorded observable exceeds 1e12 or turns non-finite.
    """
    records: list[TrajectoryRecord] = []
    for t, state in iter_evolve(state, cfg):
        rec = monitor(state, cfg, t)
        _check_record(rec, records)
        records.append(rec)
    return state, records


# ---- operator-level helpers ----


def diagonal_sums(entries: np.ndarray) -> np.ndarray:
    """All diagonal sums d(k) = sum_j U_{j+k, j} for k = -(nm-1)..(nm-1).

    d(k) is (2*pi)**0.5 times the unitary Fourier coefficient of the
    position density of U.
    """
    nm = entries.shape[0]
    idx = np.arange(nm)
    offsets = (idx[:, None] - idx[None, :]).ravel() + (nm - 1)
    re = np.bincount(offsets, weights=entries.real.ravel(), minlength=2 * nm - 1)
    im = np.bincount(offsets, weights=entries.imag.ravel(), minlength=2 * nm - 1)
    return re + 1j * im


def _potential_matrix(entries: np.ndarray) -> np.ndarray:
    """V(rho_U) in the plane-wave basis: V_mn = (2*pi)**-1 * d(m - n)."""
    nm = entries.shape[0]
    d = diagonal_sums(entries)
    idx = np.arange(nm)
    return d[(idx[:, None] - idx[None, :]) + (nm - 1)] / TWO_PI


def picard_solve(
    gamma0: OperatorMatrix,
    p: float,
    q: float,
    T: float,
    n_iter: int = 8,
    n_quad: int = 33,
) -> OperatorMatrix:
    """Short-time mild-solution oracle at the operator level.

    Iterates gamma -> S(t) gamma0 - i*q * int_0^t S(t-s)[V_rho(s), gamma(s)] ds
    on an n_quad-point uniform grid with composite-trapezoid quadrature.
    Independent of the split-step integrator by construction.  Raises
    NoContractionError if the iterate distances stop decreasing.
    """
    if T < 0:
        raise ValueError("horizon must be >= 0")
    if n_quad < 2 or n_iter < 1:
        raise ValueError("need n_quad >= 2 and n_iter >= 1")
    if T == 0.0:
        return OperatorMatrix(gamma0.grid, gamma0.entries.copy(), hermitian=gamma0.hermitian)
    grid = gamma0.grid
    n2 = grid.modes().astype(float) ** 2
    ts = np.linspace(0.0, T, n_quad)
    h = ts[1] - ts[0]

    def flow(entries: np.ndarray, dtau: float) -> np.ndarray:
        u = np.exp(1j * p * n2 * dtau)
        return u[:, None] * entries * u.conj()[None, :]

    free = [flow(gamma0.entries, t) for t in ts]
    iterates = [m.copy() for m in free]
    scale = math.sqrt(float(np.sum(np.abs(gamma0.entries) ** 2))) or 1.0
    prev_dist = math.inf
    for _ in range(n_iter):
        forcings = []
        for m in iterates:
            v = _potential_matrix(m)
            forcings.append(v @ m - m @ v)
        new = [free[0].copy()]
        for i in range(1, n_quad):
            acc = 0.5 * flow(forcings[0], ts[i])
            for j in range(1, i):
                acc += flow(forcings[j], ts[i] - ts[j])
            acc += 0.5 * forcings[i]
            new.append(free[i] + (-1j * q * h) * acc)
        dist = max(
            math.sqrt(float(np.sum(np.abs(a - b) ** 2))) for a, b in zip(new, iterates)
        )
        iterates = new
        if dist >= prev_dist and dist > 1e-14 * scale:
            raise NoContractionError(
                f"Picard iterates stopped contracting ({prev_dist:.3e} -> {dist:.3e}); "
                "shorten the horizon"
            )
        prev_dist = dist
    final = iterates[-1]
    final = 0.5 * (final + final.conj().T)
    return OperatorMatrix(grid, final, hermitian=True)


# ---- linearized flow around a homogeneous background ----


@dataclass
class LinearizedTrajectory:
    times: np.ndarray
    k_modes: np.ndarray
    density_modes: np.ndarray  # (len(times), 2N+1), column k is rho_hat_U(k, t)
    matrices: list
    matrix_times: np.ndarray
    growth_flag: bool


def linearized_evolve(
    u0: OperatorMatrix,
    bg: BackgroundSymbol,
    cfg: EvolveConfig,
    matrix_every: int = 0,
) -> LinearizedTrajectory:
    """Integrate i d/dt U_mn = -p(m^2-n^2) U_mn - (q/2pi)(Gh(m)-Gh(n)) rho_hat_U(m-n).

    The free phases are removed exactly with the integrating factor
    W_mn = exp(-i p (m^2-n^2) t) U_mn and the remaining coupling is
    advanced with the explicit midpoint rule, so the step size is limited
    by the coupling strength, not by the stiff free rotation.  Diagonal
    entries have exactly zero forcing, hence tr U is conserved exactly.
    Unbounded growth is expected for spectrally unstable backgrounds and
    is flagged, not raised.
    """
    grid = u0.grid
    if grid.N < bg.J:
        raise TruncationError(f"grid cutoff N={grid.N} below background support J={bg.J}")
    nm = grid.n_modes
    modes = grid.modes()
    n2 = modes.astype(float) ** 2
    gh = bg.gamma_hat(modes).astype(float)
    gdiff = gh[:, None] - gh[None, :]
    coupling = 1j * (cfg.q / TWO_PI) * gdiff
    idx = np.arange(nm)
    lookup = (idx[:, None] - idx[None, :]) + (nm - 1)
    half_band = slice(nm - 1 - grid.N, nm + grid.N)  # k = -N..N inside d(k)

    def rhs(w: np.ndarray, u_phase: np.ndarray) -> np.ndarray:
        u = u_phase[:, None] * w * u_phase.conj()[None, :]
        d = diagonal_sums(u)
        forced = coupling * d[lookup]
        return u_phase.conj()[:, None] * forced * u_phase[None, :]

    steps = cfg.steps
    w = u0.entries.astype(complex).copy()
    times, spectra = [], []
    matrices, matrix_times = [], []
    growth = False

    def record(i: int) -> None:
        nonlocal growth
        t = i * cfg.dt
        u_phase = np.exp(1j * cfg.p * n2 * t)
        u = u_phase[:, None] * w * u_phase.conj()[None, :]
        d = diagonal_sums(u)[half_band]
        if not np.isfinite(d).all() or (np.abs(d).max() if d.size else 0.0) > DIVERGENCE_LIMIT:
            growth = True
        times.append(t)
        spectra.append(d)
        if matrix_every and (i // cfg.record_every) % matrix_every == 0 or i in (0, steps):
            matrices.append(OperatorMatrix(grid, u))
            matrix_times.append(t)

    record(0)
    for i in range(1, steps + 1):
        t = (i - 1) * cfg.dt
        u_t = np.exp(1j * cfg.p * n2 * t)
        u_half = np.exp(1j * cfg.p * n2 * (t + 0.5 * cfg.dt))
        k1 = rhs(w, u_t)
        k2 = rhs(w + 0.5 * cfg.dt * k1, u_half)
        w = w + cfg.dt * k2
        if i % cfg.record_every == 0 or i == steps:
            record(i)
    return LinearizedTrajectory(
        times=np.asarray(times),
        k_modes=modes.copy(),
        density_modes=np.asarray(spectra),
        matrices=matrices,
        matrix_times=np.asarray(matrix_times),
        growth_flag=growth,
    )
