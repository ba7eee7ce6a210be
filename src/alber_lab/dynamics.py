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
writes every substep into them with out=, so only record points
allocate.  Its transforms are the raw pocketfft pair bound in spectral
(_fft, _ifft: numpy >= 2.0), which skips np.fft's per-call argument
handling (a quarter to a third of a step at the lab's sizes) and keeps
np.fft's bits.  iter_evolve wraps it for one MixedState, and evolve and
every other multi-step caller go through iter_evolve, except the
a-priori ensemble of inequalities, which runs its samples through
_split_step in groups of equal rank.  _record_scalars is the one formula
for the record channels, over the same leading axes: monitor takes one
state's from it, the ensemble a whole group's.

_trusted (all values finite and within DIVERGENCE_LIMIT) is the one
divergence rule for every flow: evolve and the a-priori ensemble raise
DivergenceError on it, linearized_evolve sets growth_flag by it, and the
CLI's perturb stops on it when either of its two flows leaves the trust
region.

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
the flow yields is checked against that matrix's eigenvalue.

The Picard oracle iterates the mild (Duhamel) formula on a uniform
grid.  Its free phases are one exponential of m^2 - n^2 per node, and
its history integral is a product trapezoid rule: the forcing is linear
between nodes and the free phase over an interval is integrated exactly,
with weights built once from the step phase.  The integral is carried
as one running sum, so an iterate costs O(n_quad) matrix products; the
potentials V_rho of all nodes come from one stacked call.

Densities and the energy come from states and V_rho from the Toeplitz pair
in spectral; potential_step and _split_step keep rho inline as they reuse
psi.  Split-step, Picard and linearized flow each keep their own free
phases, so the three solvers the oracle tests compare stay independent.
"""

from __future__ import annotations

import math
from collections import Counter
from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np

from .spectral import (
    TWO_PI,
    SpectralGrid,
    _check_finite,
    _fft,
    _ifft,
    analyze_batch,
    diagonal_stack,
    diagonal_sums,
    from_diagonal_stack,
    synthesize_batch,
    toeplitz,
)
from .states import (
    BackgroundSymbol,
    MixedState,
    OperatorMatrix,
    TruncationError,
    _density,
    _energy,
    _orbital_sum,
    _weighted,
)

DIVERGENCE_LIMIT = 1e12
# largest step count EvolveConfig accepts; the heaviest run in use takes 75 000
MAX_STEPS = 10**8


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
        _check_finite(p=self.p, q=self.q, dt=self.dt, T=self.T)
        if self.p * self.q == 0.0:
            raise ValueError("p and q must both be nonzero")
        if self.dt <= 0.0:
            raise ValueError(f"dt must be positive, got {self.dt}")
        if self.T < self.dt:
            raise ValueError(f"T={self.T} is shorter than one step dt={self.dt}")
        if self.T / self.dt > MAX_STEPS:
            raise ValueError(
                f"dt={self.dt} makes T/dt = {self.T / self.dt:.3g} steps, above MAX_STEPS={MAX_STEPS}"
            )
        if abs(self.T / self.dt - self.steps) > 1e-9 * self.steps:
            raise ValueError(f"T={self.T} is not a whole number of steps dt={self.dt}")
        if self.record_every < 1:
            raise ValueError(f"record_every must be >= 1, got {self.record_every}")

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


def _record_scalars(grid: SpectralGrid, mu: np.ndarray, orbitals: np.ndarray, p: float, q: float) -> tuple:
    """The record channels of states along leading axes, and their densities.

    mu has shape (..., r) and orbitals (..., r, 2N+1).  Returns mass,
    s2_norm, energy, kinetic, gram_dev and h1s1 (each of shape (...)) and
    the density samples rho (shape (..., M)).  Mass and the
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


def monitor(state: MixedState, cfg: EvolveConfig, t: float = 0.0) -> TrajectoryRecord:
    """Assemble the per-record observables (_record_scalars); pure, no state mutation."""
    *scalars, rho = _record_scalars(state.grid, state.weights, state.orbitals, cfg.p, cfg.q)
    spectrum = np.abs(analyze_batch(state.grid, rho))
    return TrajectoryRecord(t, *map(float, scalars), density_spectrum=spectrum)


def _trusted(*values) -> np.ndarray:
    """Whether all values are finite and within DIVERGENCE_LIMIT, elementwise."""
    ok = True
    for v in values:  # builtin abs and one & per value, so on plain floats it stays sub-microsecond
        ok = ok & (abs(v) <= DIVERGENCE_LIMIT)
    return ok


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
    and 1), so every substep has the bits np.fft.ifft/fft give it.  The
    potential's argument i*kick*rho is one real product kick*rho,
    written into the imaginary part of a buffer whose real part stays
    +0.0: bit for bit the complex product (1j*kick)*rho, whose real part
    is +0.0 for either sign of q.  The buffer, the samples psi, their
    squared moduli, rho and the potential argument and phase are
    allocated once per run and every substep writes into them, so only
    record points allocate; yielded arrays never share memory with this
    workspace.
    """
    modes = grid.modes()
    band = modes % grid.M
    n2 = modes.astype(float) ** 2
    half = np.exp(1j * cfg.p * n2 * (0.5 * cfg.dt))
    full = np.zeros(grid.M, dtype=complex)
    full[band] = np.exp(1j * cfg.p * n2 * cfg.dt)
    kick = (-1j * cfg.q * cfg.dt * grid.M**2 / TWO_PI).imag
    inverse = 1.0 / grid.M  # np.fft.ifft's factor
    weights = mu[..., None, :]  # rho of every state as one stacked product, shape (..., 1, M)
    steps, every = cfg.steps, cfg.record_every

    yield 0.0, orbitals
    buf = np.zeros(orbitals.shape[:-1] + (grid.M,), dtype=complex)
    buf[..., band] = orbitals * half
    psi = np.empty_like(buf)
    dens = np.empty(buf.shape)
    rho = np.empty(buf.shape[:-2] + (1, grid.M))
    arg = np.zeros(rho.shape, dtype=complex)  # i * kick * rho; its real part stays +0.0
    phase = np.empty_like(arg)
    for i in range(1, steps + 1):
        _ifft(buf, inverse, out=psi)
        np.abs(psi, out=dens)
        np.square(dens, out=dens)
        np.matmul(weights, dens, out=rho)
        np.multiply(rho, kick, out=arg.imag)
        np.exp(arg, out=phase)
        psi *= phase
        _fft(psi, 1.0, out=buf)
        if i % every == 0 or i == steps:
            yield i * cfg.dt, buf[..., band] * half
        buf *= full


def iter_evolve(state: MixedState, cfg: EvolveConfig) -> Iterator[tuple[float, MixedState]]:
    """Strang split-step run over [0, T], yielding (t, state) records.

    Yields the initial state itself at t = 0, then the state after every
    record_every steps and after the last step (_split_step on one state).
    """
    records = _split_step(state.grid, state.weights, state.orbitals, cfg)
    next(records)
    yield 0.0, state
    for t, orbitals in records:
        yield t, MixedState(state.grid, state.weights, orbitals, gram_tol=math.inf)


def evolve(state: MixedState, cfg: EvolveConfig) -> tuple[MixedState, list[TrajectoryRecord]]:
    """Strang split-step run over [0, T]; records every record_every steps.

    Raises DivergenceError (carrying the records up to the last good
    time) at the first record with an observable that is non-finite or
    above DIVERGENCE_LIMIT (_trusted).
    """
    records: list[TrajectoryRecord] = []
    for t, state in iter_evolve(state, cfg):
        rec = monitor(state, cfg, t)
        if not _trusted(rec.mass, rec.s2_norm, rec.energy, rec.kinetic, rec.h1s1):
            raise DivergenceError(t, records)
        records.append(rec)
    return state, records


# ---- operator-level helpers ----


def _potential_matrix(entries: np.ndarray) -> np.ndarray:
    """V(rho_U) in the plane-wave basis, V_mn = (2*pi)**-1 * d(m - n), per matrix along leading axes."""
    return toeplitz(diagonal_sums(entries)) / TWO_PI


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
    phases, so it stays independent of the split-step integrator.  Raises
    NoContractionError if the iterate distances stop decreasing.
    """
    _check_finite(p=p, q=q, T=T, gamma0=gamma0.entries)
    if T < 0:
        raise ValueError("horizon must be >= 0")
    if n_quad < 2 or n_iter < 1:
        raise ValueError("need n_quad >= 2 and n_iter >= 1")
    if T == 0.0:
        return OperatorMatrix(gamma0.grid, gamma0.entries.copy(), hermitian=gamma0.hermitian)
    n2 = gamma0.grid.modes().astype(float) ** 2
    d2 = n2[:, None] - n2[None, :]
    ts = np.linspace(0.0, T, n_quad)
    h = ts[1] - ts[0]
    theta = p * h * d2
    step = np.exp(1j * theta)
    before, after = _product_weights(theta, step)
    free = np.exp(1j * p * ts[:, None, None] * d2) * gamma0.entries
    iterates = free.copy()
    scale = math.sqrt(float(np.sum(np.abs(gamma0.entries) ** 2))) or 1.0
    prev_dist = math.inf
    for _ in range(n_iter):
        v = _potential_matrix(iterates)
        forcings = v @ iterates - iterates @ v
        new = free.copy()
        integral = np.zeros_like(forcings[0])
        for i in range(1, n_quad):
            integral = step * integral + before * forcings[i - 1] + after * forcings[i]
            new[i] += (-1j * q * h) * integral
        dist = math.sqrt(float(np.sum(np.abs(new - iterates) ** 2, axis=(1, 2)).max()))
        iterates = new
        if dist >= prev_dist and dist > 1e-14 * scale:
            raise NoContractionError(
                f"Picard iterates stopped contracting ({prev_dist:.3e} -> {dist:.3e}); "
                "shorten the horizon"
            )
        prev_dist = dist
    final = iterates[-1]
    final = 0.5 * (final + final.conj().T)
    return OperatorMatrix(gamma0.grid, final, hermitian=True)


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
    x <- h^2 x + dt (h c) (w . x), and those steps otherwise.  A
    matrix is rebuilt from the stack only where one is recorded.  M_0 is
    exactly the identity (h = 1 and c = 0 there), so every diagonal entry
    of U, hence tr U, keeps its initial value bit for bit.  Unbounded
    growth is expected for spectrally unstable backgrounds and is
    flagged, not raised: growth_flag is set once a record of d(k) fails
    _trusted, and overflow on the way warns nothing.
    """
    grid = u0.grid
    if grid.N < bg.J:
        raise TruncationError(f"grid cutoff N={grid.N} below background support J={bg.J}")
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
    ends = [*range(0, cfg.steps, cfg.record_every), cfg.steps]
    uses = Counter(b - a for a, b in zip(ends, ends[1:]))  # record_every, and a partial last stride
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

    half_band = slice(grid.N, 3 * grid.N + 1)  # k = -N..N inside d(k), k = -2N..2N
    full = np.zeros((2 * nm - 1, nm), dtype=complex)
    times, spectra = [], []
    matrices, matrix_times = [], []
    growth = False
    # growth is flagged, not raised, so overflow on the way is no error
    with np.errstate(over="ignore", invalid="ignore"):
        powers = {n: np.linalg.matrix_power(step, n) for n in pays}
        for prev, i in zip([0, *ends], ends):
            x = advance(x, i - prev)
            full[live] = x
            d = full.sum(axis=1)[half_band]
            growth = growth or not _trusted(d).all()
            times.append(i * cfg.dt)
            spectra.append(d)
            if matrix_every and (i // cfg.record_every) % matrix_every == 0 or i in (0, cfg.steps):
                matrices.append(OperatorMatrix(grid, from_diagonal_stack(full)))
                matrix_times.append(i * cfg.dt)
    return LinearizedTrajectory(
        times=np.asarray(times),
        k_modes=modes.copy(),
        density_modes=np.asarray(spectra),
        matrices=matrices,
        matrix_times=np.asarray(matrix_times),
        growth_flag=growth,
    )
