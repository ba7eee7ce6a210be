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
and is the reference composition.  _split_step, the one multi-step loop,
runs the same scheme on raw arrays with a leading batch axis: weights
(..., r) and orbitals (..., r, 2N+1), every leading index one state of
rank r, all advanced by the same FFT and density calls.  The free phases
are tabulated once per run, and adjacent half free steps merge into one
full free phase, so between records a step is one potential substep
followed by one full free phase; the open half step is closed only at
record points.  The loop allocates its working arrays once per run and
writes every substep into them, so only record points allocate.  Its
transforms are the raw pocketfft pair bound in spectral (_fft, _ifft:
numpy >= 2.0), which skips np.fft's per-call argument handling (a
quarter to a third of a step at the lab's sizes) and keeps np.fft's
bits; they run in place, writing into their input.  At the lab's sizes
a step is mostly call overhead, so the loop binds its ufuncs, flat
views of its potential buffers and its factors (np.fft's 1 / M and 1,
and the potential constant, as 0-d arrays) once per run, passes every
output positionally and broadcasts in one call only.
evolve and the a-priori ensemble of inequalities (its samples in groups
of equal rank) read it through _observed, a block of records at a time
on a leading record axis; penrose.perturbation_run reads its raw records
beside the linearized flow's blocks.  _record_scalars is the one formula
for the record channels, over the same leading axes: _observed takes a
whole block's from one call.

_trusted (all values finite and within DIVERGENCE_LIMIT) is the one
divergence rule for every flow: _observed raises DivergenceError on it,
linearized_evolve sets growth_flag by it, and
penrose.perturbation_run stops once either of its two flows breaks it.

The linearized flow uses the integrating-factor midpoint rule.  In the
lab frame its step is one fixed linear map that never mixes the
diagonals m - n = k of U, so on diagonal k it is one small
diagonal-plus-rank-one matrix M_k, built from the half-step free phase
exp(i*p*(m^2 - n^2)*dt/2) (one exponential of the difference) and the
coupling.  The flow holds the diagonals that are not zero at t=0 as one
stack and advances them from record to record either by one batched
product with M^record_every, a matrix power taken once, or by
record_every rank-one steps, whichever costs less, counting multiplies
and a fixed cost per numpy call.  M_0 is exactly the identity, so the
diagonal of U, hence its trace, is kept bit for bit.  Only powers of the scheme's own step are taken, never an
eigenvalue or matrix exponential of the Penrose matrix: the growth rate
the flow yields is checked against that matrix's eigenvalue.  Its
records come a block at a time (_linearized_blocks), with no object per
record: per block one buffer of the live diagonals, one density sum, one
trust test and one gather of the recorded matrices straight from the
buffer.

The Picard oracle iterates the mild (Duhamel) formula on a uniform
grid.  Its free phases are one exponential of m^2 - n^2 per node, and
its history integral is a product trapezoid rule: the forcing is linear
between nodes and the free phase over an interval is integrated exactly,
with weights built once from the step phase.  The integral is carried
as one running sum, so an iterate costs O(n_quad) entrywise products;
the potentials V_rho of all nodes come from one stacked call.  The datum
must be Hermitian and is symmetrized once; the phases and weights are
conjugate-symmetric, so every iterate is Hermitian bit for bit and the
commutator [V_rho, gamma] is A - A* with A = V_rho gamma, one stacked
matrix product per iterate.  Like _split_step, a call allocates its
working arrays once and writes every iterate into them with out=.  The
iteration stops once an iterate moves by no more than the rounding
floor 1e-14 ||gamma0||_F, so n_iter is a cap.

Densities and the energy come from states and V_rho from the Toeplitz pair
in spectral; potential_step and _split_step keep rho inline as they reuse
the orbital samples.  Split-step, Picard and linearized flow each keep
their own free phases, so the three solvers the oracle tests compare stay
independent.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np

from .spectral import (
    TWO_PI,
    SpectralGrid,
    _check_finite,
    _check_int,
    _fft,
    _ifft,
    _stack_index,
    analyze_batch,
    diagonal_stack,
    diagonal_sums,
    synthesize_batch,
    toeplitz,
)
from .states import (
    BackgroundSymbol,
    MixedState,
    OperatorMatrix,
    TruncationError,
    _check_hermitian,
    _density,
    _energy,
    _orbital_sum,
    _weighted,
    reorthonormalized,
    to_matrix,
)

DIVERGENCE_LIMIT = 1e12
# largest step count EvolveConfig accepts; the heaviest run in use takes 75 000
MAX_STEPS = 10**8


class DivergenceError(RuntimeError):
    """An observable of a split-step run (evolve, the a-priori ensemble) left the trust region."""

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
        _check_finite(p=self.p, q=self.q, dt=self.dt, T=self.T)
        if self.p * self.q == 0.0:
            raise ValueError("p and q must both be nonzero")
        _check_finite(0, True, dt=self.dt)
        if self.T < self.dt:
            raise ValueError(f"T={self.T} is shorter than one step dt={self.dt}")
        if self.T / self.dt > MAX_STEPS:
            raise ValueError(
                f"dt={self.dt} makes T/dt = {self.T / self.dt:.3g} steps, above MAX_STEPS={MAX_STEPS}"
            )
        if abs(self.T / self.dt - self.steps) > 1e-9 * self.steps:
            raise ValueError(f"T={self.T} is not a whole number of steps dt={self.dt}")
        _check_int(1, record_every=self.record_every)

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
    gram_dev record channel instead of being rejected here.
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


def _record_scalars(grid: SpectralGrid, mu: np.ndarray, orbitals: np.ndarray, p: float, q: float) -> tuple:
    """The record channels of states along leading axes, and their densities.

    mu has shape (..., r) and orbitals (..., r, 2N+1) or more leading axes (records).
    Returns mass, s2_norm, energy, kinetic, gram_dev and h1s1 (each of shape (...))
    and the density samples rho (shape (..., M)).  Mass and the
    Hilbert-Schmidt norm are read off the orbital Gram matrix, so
    integrator-induced orbital drift shows up instead of being hidden by
    the constant weights.  A state in a stack may get other last bits
    than alone: the sums follow the stack's memory layout, and the square
    in the energy is a product there instead of a pow.
    """
    g = orbitals.conj() @ np.swapaxes(orbitals, -1, -2)
    mass_v = _weighted(mu, np.diagonal(g, axis1=-2, axis2=-1).real[..., None])[..., 0]
    s2 = np.sqrt(np.einsum("...k,...l,...kl->...", mu, mu, np.abs(g) ** 2))
    gram_dev = np.abs(g - np.eye(mu.shape[-1])).max(axis=(-2, -1), initial=0.0)
    kin = _orbital_sum(mu, orbitals, grid.modes().astype(float) ** 2)
    rho = _density(grid, mu, orbitals)
    return mass_v, s2, _energy(kin, rho, p, q), kin, gram_dev, mass_v + kin, rho


# the array entries a block of records holds, summed over every array of a record: _observed's orbital
# samples, linearized_evolve's diagonal stacks, and penrose.perturbation_run's factors, diagonals
# and matrices of both flows together
BLOCK_ENTRIES = 2**16


def _block_records(entries: int) -> int:
    """Records per block when a record holds `entries` array entries: BLOCK_ENTRIES' worth, at least one."""
    return max(1, BLOCK_ENTRIES // entries)


def _trusted(*values) -> np.ndarray:
    """Whether all values are finite and within DIVERGENCE_LIMIT, elementwise."""
    return np.all([np.abs(v) <= DIVERGENCE_LIMIT for v in values], axis=0)


def _split_step(
    grid: SpectralGrid, mu: np.ndarray, orbitals: np.ndarray, cfg: EvolveConfig
) -> Iterator[tuple[float, np.ndarray]]:
    """The Strang split-step loop on raw arrays, yielding (t, orbitals) records.

    mu has shape (..., r) and orbitals (..., r, 2N+1); each leading index
    is one state, and each state's records are the bits it gets alone.
    Yields the given orbitals at t = 0, then the orbitals after every
    record_every steps and after the last step.  The working buffer holds
    the orbitals on the full FFT grid, half a free step ahead of the last
    potential substep; the full-step phase table is zero off the band, so
    multiplying by it also discards what the potential pushed past the
    cutoff.  The FFT normalizations cancel over a substep, except in the
    density, where they are folded into the potential constant.  The
    transforms are spectral's _ifft and _fft with np.fft's factors (1 / M
    and 1), run in place on the buffer (input and output the same array,
    so pocketfft copies nothing in and makes no temporary), and every
    substep has the bits np.fft.ifft/fft give it.  The potential's
    argument i*kick*rho is one real product kick*rho, written into the
    imaginary part of a buffer whose real part stays +0.0: bit for bit
    the complex product (1j*kick)*rho, whose real part is +0.0 for either
    sign of q.  The buffer, the full-step table tiled to its shape, the
    squared moduli, rho and the potential argument and phase are
    allocated once per run and every substep writes into them, so only
    record points allocate; yielded arrays never share memory with this
    workspace.  The ufuncs, flat views of rho and of the argument's
    imaginary part, and the three factors (as 0-d float64 arrays, which
    numpy takes without converting a Python float) are bound once per
    run, and every output is passed positionally: the same operations,
    operands and workspace as with out=, at fewer interpreter steps per
    call.  With the tiled table and the flat views every elementwise call
    but one has same-shape or one-axis operands, numpy's trivially
    iterable path; the one broadcast left is the potential phase, one row
    per state applied to its r orbitals, for which numpy allocates an
    iteration buffer per call (at most 8192 entries).  It is kept because
    no alternative measured (a row loop, a stride-0 view, an (M,) phase,
    exp of a tiled argument) was faster.
    """
    modes = grid.modes()
    band = modes % grid.M
    n2 = modes.astype(float) ** 2
    half = np.exp(1j * cfg.p * n2 * (0.5 * cfg.dt))
    full = np.zeros(grid.M, dtype=complex)
    full[band] = np.exp(1j * cfg.p * n2 * cfg.dt)
    # np.fft.ifft's and np.fft.fft's factors and the potential constant, as 0-d arrays
    kick = np.array((-1j * cfg.q * cfg.dt * grid.M**2 / TWO_PI).imag)
    inverse, forward = np.array(1.0 / grid.M), np.array(1.0)
    weights = mu[..., None, :]  # rho of every state as one stacked product, shape (..., 1, M)
    steps, every, dt = cfg.steps, cfg.record_every, cfg.dt
    # the loop's callables as locals: one lookup per run, not one per call
    fft, ifft = _fft, _ifft
    absolute, square, matmul, multiply, exp = np.absolute, np.square, np.matmul, np.multiply, np.exp

    yield 0.0, orbitals
    buf = np.zeros(orbitals.shape[:-1] + (grid.M,), dtype=complex)
    buf[..., band] = orbitals * half
    full = np.broadcast_to(full, buf.shape).copy()  # one row per orbital: a same-shape product
    dens = np.empty(buf.shape)
    rho = np.empty(buf.shape[:-2] + (1, grid.M))
    arg = np.zeros(rho.shape, dtype=complex)  # i * kick * rho; its real part stays +0.0
    rho_flat, theta_flat = rho.reshape(-1), arg.reshape(-1).imag  # views of the contiguous buffers
    phase = np.empty_like(arg)
    for i in range(1, steps + 1):
        ifft(buf, inverse, buf)
        absolute(buf, dens)
        square(dens, dens)
        matmul(weights, dens, rho)
        multiply(rho_flat, kick, theta_flat)
        exp(arg, phase)
        multiply(buf, phase, buf)
        fft(buf, forward, buf)
        if i % every == 0 or i == steps:
            yield i * dt, buf[..., band] * half
        multiply(buf, full, buf)


def _observed(grid: SpectralGrid, mu: np.ndarray, orbitals: np.ndarray, cfg: EvolveConfig) -> Iterator[tuple]:
    """_split_step's records in blocks of at most BLOCK_ENTRIES // 4 samples (records x orbitals x M) or one record.

    Yields times, orbitals (records, ..., r, 2N+1), channels and rho of one _record_scalars call per block, and
    tests one _trusted over every state's mass, s2, energy, kinetic and h1s1: the records before the first it
    fails are yielded, then DivergenceError(t, []) raised.  A run past it warns nothing (errstate, left at a yield).
    """
    records = _split_step(grid, mu, orbitals, cfg)
    size = _block_records(4 * max(1, mu.size * grid.M))
    while True:
        with np.errstate(over="ignore", invalid="ignore"):
            if not (block := list(itertools.islice(records, size))):
                return
            times, stack = np.array([t for t, _ in block]), np.stack([orb for _, orb in block])
            *channels, rho = _record_scalars(grid, mu, stack, cfg.p, cfg.q)
            trusted = _trusted(*channels[:4], channels[5]).reshape(times.size, -1).all(axis=1)
        good = times.size if trusted.all() else int(trusted.argmin())
        yield times[:good], stack[:good], [c[:good] for c in channels], rho[:good]
        if good < times.size:
            raise DivergenceError(float(times[good]), [])


def evolve(state: MixedState, cfg: EvolveConfig) -> tuple[MixedState, list[TrajectoryRecord]]:
    """Strang split-step run over [0, T]; records every record_every steps, read by _observed.

    Raises DivergenceError (carrying the records up to the last good
    time) at the first record with an observable that is non-finite or
    above DIVERGENCE_LIMIT (_trusted).
    """
    records: list[TrajectoryRecord] = []
    try:
        for times, orbitals, channels, rho in _observed(state.grid, state.weights, state.orbitals, cfg):
            spectra = np.abs(analyze_batch(state.grid, rho))
            records += map(TrajectoryRecord, times.tolist(), *(c.tolist() for c in channels), spectra)
    except DivergenceError as exc:
        raise DivergenceError(exc.t, records) from None
    return MixedState(state.grid, state.weights, orbitals[-1], gram_tol=math.inf), records


@dataclass
class ConvergenceStudy:
    """The (dt or N, error_s2, ratio) rows of a refinement study in mode "dt" or "N"."""

    mode: str
    rows: list[tuple]


def _truncated(state: MixedState, n: int) -> MixedState:
    """state cut to the modes |k| <= n and re-orthonormalized."""
    sel = np.abs(state.grid.modes()) <= n
    cut = MixedState(SpectralGrid(n), state.weights, state.orbitals[:, sel], gram_tol=math.inf)
    return reorthonormalized(cut)


def convergence_study(
    state: MixedState, p: float, q: float, mode: str = "dt", T: float = 1.0, dts: list[float] | None = None,
    dt_ref: float | None = None, Ns: list[int] | None = None, dt: float = 1e-3,
) -> ConvergenceStudy:
    """Hilbert-Schmidt errors at T of refined evolve runs of state against a reference run.

    Mode "dt" runs each step of dts against the step dt_ref, at least as fine as
    all of them; a row's ratio is the previous row's error over its own.  Mode "N"
    runs state cut to each cutoff of Ns against state itself, at the step dt.
    """
    if mode not in ("dt", "N"):
        raise ValueError(f"mode must be 'dt' or 'N', got {mode!r}")

    def endpoints(step: float, key: str) -> EvolveConfig:
        # a run that records only its endpoints; an error about its step names the key of the step
        try:
            return EvolveConfig(p, q, step, T, record_every=10**9)
        except ValueError as exc:
            raise ValueError(f"{key}{str(exc)[2:]}" if str(exc).startswith("dt") else str(exc)) from exc

    grid = state.grid
    # (label, start state, EvolveConfig) per refinement, and the reference's EvolveConfig
    if mode == "dt":
        if not dts:
            raise ValueError("dts is missing or empty; mode 'dt' needs at least one step")
        if dt_ref is None:
            raise ValueError("dt_ref is required in mode 'dt'")
        runs = [(step, state, endpoints(step, f"dts[{i}]")) for i, step in enumerate(dts)]
        ref_cfg = endpoints(dt_ref, "dt_ref")
        if dt_ref > min(dts):
            raise ValueError(
                f"dt_ref={dt_ref:g} is coarser than the finest step min(dts)={min(dts):g}; "
                "the reference must be at least as fine as every step it judges"
            )
    else:
        if not Ns:
            raise ValueError("Ns is missing or empty; mode 'N' needs at least one cutoff")
        for i, n in enumerate(Ns):
            _check_int(**{f"Ns[{i}]": n})
        bad = [n for n in Ns if not 1 <= n <= grid.N]
        if bad:
            raise ValueError(f"Ns {bad} outside 1..{grid.N} (the grid N)")
        ref_cfg = endpoints(dt, "dt")
        runs = [(n, _truncated(state, n), ref_cfg) for n in Ns]
    ref, _ = evolve(state, ref_cfg)
    ref_mat = to_matrix(ref).entries
    rows = []
    for label, start, run_cfg in runs:
        final, _ = evolve(start, run_cfg)
        sel = np.abs(grid.modes()) <= start.grid.N
        embedded = np.zeros_like(ref_mat)  # the final matrix on the reference grid
        embedded[np.ix_(sel, sel)] = to_matrix(final).entries
        err = float(np.sqrt(np.sum(np.abs(embedded - ref_mat) ** 2)))
        ratio = rows[-1][1] / err if mode == "dt" and rows and err else math.nan
        rows.append((label, err, ratio))
    return ConvergenceStudy(mode, rows)


# ---- operator-level helpers ----


def _potential_matrix(entries: np.ndarray) -> np.ndarray:
    """V(rho_U) in the plane-wave basis, V_mn = (2*pi)**-1 * d(m - n), per matrix along leading axes.

    The 2nm - 1 sums are divided before the gather, which copies them, so
    the matrix is bit for bit the gathered sums divided entry by entry.
    """
    return toeplitz(diagonal_sums(entries) / TWO_PI)


# |theta| below which _product_weights sums the Taylor series, and its
# terms: there the remainder is below 1e-19, and above it the closed
# form's cancellation costs at most a few eps
SERIES_SWITCH = 1.0
SERIES_TERMS = 20


def _product_weights(theta: np.ndarray, phase: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """a = int_0^1 x e^(i theta x) dx and b = int_0^1 (1 - x) e^(i theta x) dx, given phase = e^(i theta).

    Closed forms a = (e^(i theta)(1 - i theta) - 1)/theta^2 and
    b = (1 + i theta - e^(i theta))/theta^2; where |theta| < SERIES_SWITCH
    they cancel, and the series a = sum (i theta)^n/(n! (n+2)),
    b = sum (i theta)^n/(n+2)! (Horner) is taken instead.
    """
    z = 1j * theta
    small = np.abs(theta) < SERIES_SWITCH
    # each branch sees only its own thetas, so neither overflows or divides
    # by zero where the other is taken: the series sums at 0 where the
    # closed form holds, and the closed form divides by 1 where a square
    # could be 0 or subnormal (T near 1e-154)
    zs = np.where(small, z, 0.0)
    a = b = np.zeros_like(z)
    for n in range(SERIES_TERMS - 1, -1, -1):
        a = a * zs + 1.0 / (math.factorial(n) * (n + 2))
        b = b * zs + 1.0 / math.factorial(n + 2)
    square = np.where(small, 1.0, theta * theta)
    a = np.where(small, a, (phase * (1.0 - z) - 1.0) / square)
    b = np.where(small, b, (1.0 + z - phase) / square)
    return a, b


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
    on an n_quad-point uniform grid t_i = i*h.  S(h) multiplies entry mn by
    exp(i*theta), theta = p*(m^2 - n^2)*h.  The quadrature is a product
    (Filon-type) trapezoid rule: the forcing F = [V_rho, gamma] is linear
    between nodes and the phase is integrated exactly, so the integral is
    one running sum I_i = S(h) I_(i-1) + h (a F_(i-1) + b F_i) from I_0 = 0,
    with the weights a(theta), b(theta) of _product_weights, and the new
    iterate is gamma_i = S(t_i) gamma0 - i*q*I_i.  At theta = 0 the weights
    are 1/2, the plain trapezoid.  The weights come from the scheme's own
    phases, so it stays independent of the split-step integrator.

    gamma0 must pass the Hermitian rule of OperatorMatrix(hermitian=True);
    it is symmetrized once, and since the phases and weights are
    conjugate-symmetric every iterate is then Hermitian bit for bit, so
    F = A - A* with A = V_rho gamma.  The working arrays are allocated
    once per call and written with out=: two iterate buffers that swap,
    the products and forcings, whose first n_quad - 1 rows then hold the
    node terms a F_(i-1) + b F_i (h is folded into the final factor).
    n_iter is a cap: the iteration stops at the first iterate whose
    largest Frobenius move over the nodes is at most 1e-14 ||gamma0||_F,
    the rounding floor of the contraction test.  Raises NoContractionError
    if the iterate distances stop decreasing above that floor.
    """
    _check_finite(p=p, q=q, gamma0=gamma0.entries)
    _check_finite(0, T=T)
    _check_int(1, n_iter=n_iter)
    _check_int(2, n_quad=n_quad)
    try:
        _check_hermitian(gamma0.entries)
    except ValueError as exc:
        raise ValueError(f"gamma0 is {exc}") from None
    if T == 0.0:
        return OperatorMatrix(gamma0.grid, gamma0.entries.copy(), hermitian=gamma0.hermitian)
    n2 = gamma0.grid.modes().astype(float) ** 2
    d2 = n2[:, None] - n2[None, :]
    ts = np.linspace(0.0, T, n_quad)
    h = ts[1] - ts[0]
    theta = p * h * d2
    step = np.exp(1j * theta)
    before, after = _product_weights(theta, step)
    entries = gamma0.entries
    free = np.exp(1j * p * ts[:, None, None] * d2) * (0.5 * (entries + entries.conj().T))
    kick = -1j * q * h
    floor = 1e-14 * (math.sqrt(float(np.sum(np.abs(entries) ** 2))) or 1.0)
    iterate, new = free.copy(), np.empty_like(free)
    prod, forcing = np.empty_like(free), np.empty_like(free)
    moves = prod.view(float).reshape(n_quad, -1)  # prod's real and imaginary parts, one row per node
    prev_dist = math.inf
    for _ in range(n_iter):
        np.matmul(_potential_matrix(iterate), iterate, out=prod)
        np.conjugate(prod.swapaxes(-1, -2), out=forcing)
        np.subtract(prod, forcing, out=forcing)
        np.multiply(after, forcing[1:], out=prod[1:])
        np.multiply(before, forcing[:-1], out=forcing[:-1])
        forcing[:-1] += prod[1:]
        # new[i] holds I_i / h until the kick and the free term make it gamma_i
        new[0] = 0.0
        for i in range(1, n_quad):
            np.multiply(step, new[i - 1], out=new[i])
            new[i] += forcing[i - 1]
        new *= kick
        new += free
        np.subtract(new, iterate, out=prod)
        dist = math.sqrt(float(np.einsum("ij,ij->i", moves, moves).max()))
        if dist >= prev_dist and dist > floor:
            raise NoContractionError(
                f"Picard iterates stopped contracting ({prev_dist:.3e} -> {dist:.3e}); "
                "shorten the horizon"
            )
        iterate, new = new, iterate
        if dist <= floor:
            break
        prev_dist = dist
    return OperatorMatrix(gamma0.grid, iterate[-1].copy(), hermitian=True)


# ---- linearized flow around a homogeneous background ----


@dataclass
class LinearizedTrajectory:
    times: np.ndarray
    k_modes: np.ndarray
    density_modes: np.ndarray  # (len(times), 2N+1), column k is rho_hat_U(k, t)
    matrices: list
    matrix_times: np.ndarray
    growth_flag: bool


# the fixed cost of one numpy call on the diagonal stack, in multiplies: a
# rank-one step's five calls take about 7 us on top of their arithmetic,
# about 7000 multiplies of 1 ns, and a batched matrix product about as much
CALL_COST = 7000

def _power_pays(n: int, uses: int, nm: int, live: int) -> bool:
    """Whether `uses` runs of n steps cost less as products with M^n.

    Counted over the live diagonals of length nm, each call charged
    CALL_COST on top of its multiplies: np.linalg.matrix_power(M, n) takes
    n.bit_length() - 1 squarings and popcount(n) - 1 further products, each
    one call of live nm^3 multiplies, one product with M^n is one call of
    live nm^2, and one rank-one step is a call cost and 3 live nm.  The
    power wins at small nm and long strides, where the steps' call cost
    dominates; at large nm it also holds nm times the memory of the steps.
    """
    products = n.bit_length() + bin(n).count("1") - 2
    power = products * (live * nm**3 + CALL_COST) + uses * (live * nm**2 + CALL_COST)
    return power <= uses * n * (3 * live * nm + CALL_COST)


def _linearized_blocks(
    u0: OperatorMatrix, bg: BackgroundSymbol, cfg: EvolveConfig, matrix_every: int = 0, _records: int = 0
) -> Iterator[tuple[np.ndarray, np.ndarray, bool, np.ndarray, np.ndarray]]:
    """The records of linearized_evolve, a block of them at a time.

    Per block: the record times, the density modes (one row of d(k),
    k = -N..N, per record), whether all of them are _trusted, and the
    times and stacked entries of the matrices recorded among them.  Each
    record's live diagonals are written into a block buffer whose last row
    stays zero, so a block is one sum of them, one _trusted and one gather
    of the recorded matrices straight from the buffer through _stack_index,
    every dead diagonal read from the zero row.  A block holds _records
    records, by default BLOCK_ENTRIES // ((2nm - 1) nm), and at most the
    run's.
    """
    grid = u0.grid
    if grid.N < bg.J:
        raise TruncationError(f"grid cutoff N={grid.N} below background support J={bg.J}")
    _check_int(matrix_every=matrix_every)
    if matrix_every < 0:
        raise ValueError(f"matrix_every must be >= 0, got {matrix_every}")
    _check_finite(u0=u0.entries)
    modes = grid.modes()
    nm = grid.n_modes
    n2 = modes.astype(float) ** 2
    gh = bg.gamma_hat(modes).astype(float)
    x = diagonal_stack(u0.entries)
    live = np.flatnonzero(x.any(axis=1))
    x = x[live]
    h = diagonal_stack(np.exp(0.5j * cfg.p * cfg.dt * (n2[:, None] - n2[None, :])))[live]
    dhc = cfg.dt * h * diagonal_stack(1j * (cfg.q / TWO_PI) * (gh[:, None] - gh[None, :]))[live]
    h2 = h * h
    # the padding (h == 0) stays zero in every row and column of M_k
    w = h + (0.5 * dhc.sum(axis=1))[:, None] * (h != 0)
    ends = np.array([*range(0, cfg.steps, cfg.record_every), cfg.steps])
    uses = Counter(np.diff(ends).tolist())  # record_every, and a partial last stride
    pays = [n for n, count in uses.items() if _power_pays(n, count, nm, live.size)]
    if pays:
        step = dhc[:, :, None] * w[:, None, :]
        step[:, np.arange(nm), np.arange(nm)] += h2

    def advance(x: np.ndarray, n: int) -> np.ndarray:
        if n in powers:
            return (powers[n] @ x[:, :, None])[:, :, 0]
        for _ in range(n):
            x = h2 * x + dhc * (w * x).sum(axis=1)[:, None]
        return x

    recorded = (ends == 0) | (ends == cfg.steps)
    if matrix_every:
        recorded |= ends // cfg.record_every % matrix_every == 0
    band = np.flatnonzero((live >= grid.N) & (live <= 3 * grid.N))  # the live k = -N..N of d(k), k = -2N..2N
    records = min(ends.size, _records or _block_records((2 * nm - 1) * nm))
    # entry (m, n) of a recorded matrix is column min(m, n) of the row of diagonal m - n
    diagonals = np.zeros((records, live.size + 1, nm), dtype=complex)
    row_of = np.full(2 * nm - 1, live.size)
    row_of[live] = np.arange(live.size)
    offsets, cols = _stack_index(nm)
    rows = row_of[offsets]
    prev = 0
    # growth is flagged, not raised, so overflow on the way is no error; the errstate
    # is left before every yield, so it never holds in the caller's code
    with np.errstate(over="ignore", invalid="ignore"):
        powers = {n: np.linalg.matrix_power(step, n) for n in pays}
    for start in range(0, ends.size, records):
        block = ends[start : start + records]
        with np.errstate(over="ignore", invalid="ignore"):
            for j, i in enumerate(block.tolist()):
                x = diagonals[j, :-1] = advance(x, i - prev)
                prev = i
            d = np.zeros((block.size, 2 * grid.N + 1), dtype=complex)
            d[:, live[band] - grid.N] = diagonals[: block.size, band].sum(axis=-1)
            trusted = bool(_trusted(d).all())
        kept = np.flatnonzero(recorded[start : start + block.size])
        yield block * cfg.dt, d, trusted, block[kept] * cfg.dt, diagonals[kept[:, None, None], rows, cols]


def linearized_evolve(
    u0: OperatorMatrix,
    bg: BackgroundSymbol,
    cfg: EvolveConfig,
    matrix_every: int = 0,
) -> LinearizedTrajectory:
    """Integrate i d/dt U_mn = -p(m^2-n^2) U_mn - (q/2pi)(Gh(m)-Gh(n)) rho_hat_U(m-n).

    The free phases Phi(t)_mn = exp(i p (m^2-n^2) t) are removed with an
    integrating factor and the coupling
    C(U)_mn = (iq/2pi)(Gh(m)-Gh(n)) rho_hat_U(m-n) is advanced with the
    explicit midpoint rule, so the step size is limited by the coupling
    strength, not by the stiff free rotation.  In the lab frame that step
    is one fixed map, with H = Phi(dt/2):
    V = U + dt/2 C(U), then U <- H (H U + dt C(H V)) entrywise.

    C reads diagonal k = m - n of U only through its sum d(k), so the
    step never mixes diagonals: on diagonal k, with h and c the entries
    of H and of the coupling there, it is the diagonal-plus-rank-one matrix
    M_k = diag(h^2) + dt (h c) (h + dt/2 (h . c) 1)^T.  A diagonal that is
    zero at t=0 stays zero; the others are advanced as one zero-padded
    stack (spectral.diagonal_stack), record to record.  Each stride of n
    steps is one batched product with M^n, taken once per stride length,
    where _power_pays counts that as cheaper than n rank-one steps
    x <- h^2 x + dt (h c) (w . x), and those steps otherwise.  The records
    come a block at a time (_linearized_blocks), and a matrix is rebuilt
    from the live diagonals only where one is recorded.  M_0 is
    exactly the identity (h = 1 and c = 0 there), so every diagonal entry
    of U, hence tr U, keeps its initial value bit for bit.  Unbounded
    growth is expected for spectrally unstable backgrounds and is
    flagged, not raised: growth_flag is set once a record of d(k) fails
    _trusted, and overflow on the way warns nothing.
    """
    times, spectra, trusted, matrix_times, matrices = zip(*_linearized_blocks(u0, bg, cfg, matrix_every))
    return LinearizedTrajectory(
        times=np.concatenate(times),
        k_modes=u0.grid.modes().copy(),
        density_modes=np.concatenate(spectra),
        matrices=[OperatorMatrix(u0.grid, m) for block in matrices for m in block],
        matrix_times=np.concatenate(matrix_times),
        growth_flag=not all(trusted),
    )
