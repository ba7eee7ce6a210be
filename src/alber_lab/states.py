"""Mixed states, operator matrices and homogeneous background symbols.

A mixed state is gamma = sum_k mu_k |psi_k><psi_k| with weights mu_k >= 0
and orthonormal orbitals psi_k.  Its matrix in the orthonormal basis
e_n = (2*pi)**-0.5 exp(i*n*x) is U_mn = sum_k mu_k psihat_k(m) conj(psihat_k(n)).
Homogeneous backgrounds are diagonal in that basis: a symbol Gamma_hat >= 0
supported on |n| <= J gives the matrix diag(Gamma_hat(n)).
Each orbital formula has one home: _density (rho on the grid, the one
density routine behind density_samples; potential_step, the split-step
kernel and the Hoffmann-Ostenhof check write rho inline because they
reuse psi), _orbital_sum (the weighted trace behind mass, kinetic energy
and the H^s S^1 norm) and _energy (E = -p*K + (q/2)*||rho||^2, shared by
the record scalars of dynamics).  These three act on raw weights (..., r)
and orbitals (..., r, 2N+1) along any leading axes, every state through
_weighted, the weighted sum over k; on one state they give the bits of
the single-state forms rows.T @ mu and np.dot(mu, x).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .spectral import TWO_PI, SpectralGrid, bessel_constant, synthesize_batch


class GramError(ValueError):
    """Orbitals fail the orthonormality tolerance at construction."""


class NotNonNegativeError(ValueError):
    """An operator expected to be non-negative has a significant negative eigenvalue."""


class TruncationError(ValueError):
    """A mode cutoff is too small to hold the requested object."""


class NumericalError(RuntimeError):
    """A dense linear-algebra kernel failed or returned inconsistent output."""


@dataclass
class MixedState:
    """Weights and orthonormal orbital coefficients on a shared grid.

    orbitals is a (rank, 2N+1) complex array; row k holds psihat_k on
    modes -N..N.  Construction rejects non-finite or negative weights and,
    for a finite gram_tol, a Gram deviation (NaN included) not within it;
    use reorthonormalized() to repair a drifted state.
    """

    grid: SpectralGrid
    weights: np.ndarray = field(repr=False)
    orbitals: np.ndarray = field(repr=False)
    gram_tol: float = 1e-10

    def __post_init__(self) -> None:
        self.weights = np.atleast_1d(np.asarray(self.weights, dtype=float))
        self.orbitals = np.asarray(self.orbitals, dtype=complex)
        if self.orbitals.ndim != 2 or self.orbitals.shape != (self.weights.size, self.grid.n_modes):
            raise ValueError(
                f"orbitals shape {self.orbitals.shape} does not match "
                f"{self.weights.size} weights on {self.grid.n_modes} modes"
            )
        if not np.isfinite(self.weights).all():
            raise ValueError("weights must be finite")
        if self.weights.size and self.weights.min() < 0.0:
            raise ValueError(f"negative weight {self.weights.min()}")
        # gram_tol = inf accepts all, unmeasured; a NaN deviation fails any finite tolerance
        if self.gram_tol != math.inf:
            dev = gram_deviation(self)
            if not dev <= self.gram_tol:
                raise GramError(f"orbital Gram matrix deviates from identity by {dev:.3e}")

    @property
    def rank(self) -> int:
        return self.weights.size

    @classmethod
    def empty(cls, grid: SpectralGrid) -> "MixedState":
        return cls(grid, np.zeros(0), np.zeros((0, grid.n_modes), dtype=complex))


def gram_matrix(state: MixedState) -> np.ndarray:
    """G_kl = <psi_k, psi_l> = sum_n conj(psihat_k(n)) psihat_l(n)."""
    return state.orbitals.conj() @ state.orbitals.T


def gram_deviation(state: MixedState) -> float:
    if state.rank == 0:
        return 0.0
    g = gram_matrix(state)
    return float(np.abs(g - np.eye(state.rank)).max())


@dataclass
class OperatorMatrix:
    """Dense matrix of an operator in the plane-wave basis, modes -N..N."""

    grid: SpectralGrid
    entries: np.ndarray = field(repr=False)
    hermitian: bool = False

    def __post_init__(self) -> None:
        self.entries = np.asarray(self.entries, dtype=complex)
        nm = self.grid.n_modes
        if self.entries.shape != (nm, nm):
            raise ValueError(f"expected {(nm, nm)} matrix, got {self.entries.shape}")
        if self.hermitian:
            scale = math.sqrt(float(np.sum(np.abs(self.entries) ** 2))) or 1.0
            dev = float(np.abs(self.entries - self.entries.conj().T).max())
            if dev > 1e-12 * scale:
                raise ValueError(f"hermitian flag set but max|U - U*| = {dev:.3e}")


@dataclass
class BackgroundSymbol:
    """Non-negative diagonal symbol Gamma_hat(n) on |n| <= J."""

    symbol: np.ndarray

    def __post_init__(self) -> None:
        self.symbol = np.atleast_1d(np.asarray(self.symbol, dtype=float))
        if self.symbol.size % 2 != 1:
            raise ValueError("symbol must cover modes -J..J (odd length)")
        if not np.isfinite(self.symbol).all():
            raise ValueError("symbol entries must be finite")
        if self.symbol.min() < 0.0:
            raise ValueError(f"symbol must be >= 0, min is {self.symbol.min()}")

    @property
    def J(self) -> int:
        return (self.symbol.size - 1) // 2

    def gamma_hat(self, n) -> np.ndarray:
        """Symbol value at integer mode(s) n, zero outside the support."""
        n = np.asarray(n)
        inside = np.abs(n) <= self.J
        idx = np.where(inside, n + self.J, 0)
        return np.where(inside, self.symbol[idx], 0.0)

    def l1_norm(self) -> float:
        """Trace norm of the background = sum_n Gamma_hat(n)."""
        return float(self.symbol.sum())

    def h1s1_norm(self) -> float:
        """sum_n <n>^2 Gamma_hat(n): the weighted trace norm of the background."""
        n = np.arange(-self.J, self.J + 1, dtype=float)
        return float(np.sum((1.0 + n * n) * self.symbol))


# ---- densities and matrices ----


def _weighted(mu: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """sum_k mu_k rows_k for mu of shape (..., r) and rows of shape (..., r, m): shape (..., m)."""
    return (mu[..., None, :] @ rows)[..., 0, :]


def _density(grid: SpectralGrid, mu: np.ndarray, orbitals: np.ndarray) -> np.ndarray:
    """rho(x_j) = sum_k mu_k |psi_k(x_j)|^2 on the M points, along leading axes."""
    return _weighted(mu, np.abs(synthesize_batch(grid, orbitals)) ** 2)


def density_samples(state: MixedState) -> np.ndarray:
    """Position density rho(x_j) = sum_k mu_k |psi_k(x_j)|^2 on the M points.

    The samples resolve the full band of rho (<= 2N) and are real and
    non-negative by construction; a rank-0 state gives zeros.
    """
    return _density(state.grid, state.weights, state.orbitals)


def to_matrix(state: MixedState) -> OperatorMatrix:
    """Matrix U_mn = sum_k mu_k psihat_k(m) conj(psihat_k(n))."""
    c = state.orbitals
    u = (c.T * state.weights) @ c.conj()
    u = 0.5 * (u + u.conj().T)
    return OperatorMatrix(state.grid, u, hermitian=True)


def _band_symbol(bg: BackgroundSymbol, grid: SpectralGrid) -> np.ndarray:
    """Gamma_hat on the grid band; the cutoff must hold the support."""
    if grid.N < bg.J:
        raise TruncationError(f"grid cutoff N={grid.N} cannot hold symbol support J={bg.J}")
    return bg.gamma_hat(grid.modes())


def background_to_matrix(bg: BackgroundSymbol, grid: SpectralGrid) -> OperatorMatrix:
    """diag(Gamma_hat(n)) on the grid band."""
    return OperatorMatrix(grid, np.diag(_band_symbol(bg, grid).astype(complex)), hermitian=True)


def background_to_state(bg: BackgroundSymbol, grid: SpectralGrid) -> MixedState:
    """The background as a mixed state of plane waves (zero-weight modes dropped)."""
    values = _band_symbol(bg, grid)
    keep = np.flatnonzero(values > 0.0)
    orbitals = np.zeros((keep.size, grid.n_modes), dtype=complex)
    orbitals[np.arange(keep.size), keep] = 1.0
    return MixedState(grid, values[keep], orbitals)


# ---- Schatten and Sobolev-Schatten norms ----


def _singular_values(entries: np.ndarray) -> np.ndarray:
    try:
        return np.linalg.svd(entries, compute_uv=False)
    except np.linalg.LinAlgError as exc:
        finite = bool(np.isfinite(entries).all())
        peak = float(np.abs(entries).max()) if finite else math.inf
        raise NumericalError(f"SVD failed (finite={finite}, max|entry|={peak:.3e})") from exc


def schatten_norm(u: OperatorMatrix, p) -> float:
    """Schatten norm via singular values, p in {1, 2, inf}."""
    if p not in (1, 2, math.inf):
        raise ValueError(f"unsupported Schatten exponent p={p}")
    sv = _singular_values(u.entries)
    if sv.size == 0:
        return 0.0
    s1 = float(sv.sum())
    s2 = math.sqrt(float(np.sum(sv**2)))
    sinf = float(sv.max())
    slack = 1e-12 * (s1 + 1.0)
    if not (sinf <= s2 + slack and s2 <= s1 + slack):
        raise NumericalError(f"singular values violate norm ordering: {sinf}, {s2}, {s1}")
    return {1: s1, 2: s2, math.inf: sinf}[p]


def sobolev_schatten_norm(u: OperatorMatrix, s: float) -> float:
    """Trace norm of <D>^s U <D>^s with <D>^s = diag(<n>^s) on the band."""
    if not 0 <= s < math.inf:
        raise ValueError(f"s must be a finite Sobolev order >= 0, got {s}")
    d = u.grid.brackets_sq() ** (0.5 * s)
    weighted = d[:, None] * u.entries * d[None, :]
    return float(_singular_values(weighted).sum())


def _orbital_sum(mu: np.ndarray, orbitals: np.ndarray, w) -> np.ndarray:
    """tr(diag(w) gamma) = sum_k mu_k sum_n w(n) |psihat_k(n)|^2 along leading axes; 0 at rank 0."""
    return _weighted(mu, np.sum(w * np.abs(orbitals) ** 2, axis=-1, keepdims=True))[..., 0]


def hs1_norm_nonneg(state: MixedState, s: float) -> float:
    """H^s Schatten-1 norm of a non-negative state: sum_k mu_k ||psi_k||_{H^s}^2."""
    if not 0 <= s < math.inf:
        raise ValueError(f"s must be a finite Sobolev order >= 0, got {s}")
    return float(_orbital_sum(state.weights, state.orbitals, state.grid.brackets_sq() ** s))


# ---- conserved observables ----


def mass(state: MixedState) -> float:
    """tr gamma = sum_k mu_k ||psi_k||^2 (= sum_k mu_k for orthonormal orbitals)."""
    return float(_orbital_sum(state.weights, state.orbitals, 1.0))


def kinetic_energy(state: MixedState) -> float:
    """tr(-Lap gamma) = sum_k mu_k sum_n n^2 |psihat_k(n)|^2."""
    return float(_orbital_sum(state.weights, state.orbitals, state.grid.modes().astype(float) ** 2))


@lru_cache(maxsize=8)
def _bessel_b1() -> float:
    return bessel_constant(1.0, 1e-12)


def _energy(kinetic, rho: np.ndarray, p: float, q: float):
    """E = -p*K + (q/2)*||rho||_{L2}^2 from the kinetic energy and density samples, along leading axes.

    ||rho||_{L2} is lp_norm's rectangle rule on the last axis, and a
    square that overflows is infinite without a numpy warning.  On one
    state l2 is a numpy scalar, whose square is the pow of lp_norm(rho, 2) ** 2.
    """
    with np.errstate(over="ignore"):
        l2 = np.sqrt(np.sum(np.abs(rho) ** 2, axis=-1) * (TWO_PI / rho.shape[-1]))
        return -p * kinetic + 0.5 * q * l2**2


def energy(state: MixedState, p: float, q: float) -> float:
    """Conserved energy E = -p*K + (q/2)*||rho||_{L2}^2."""
    if p * q == 0.0:
        raise ValueError("dispersion and coupling coefficients must be nonzero")
    kin = kinetic_energy(state)
    value = float(_energy(kin, density_samples(state), p, q))
    # |E| <= |p|*||gamma||_{H1 S1} + (|q|/2)*B_1*||gamma||_{S1}*||gamma||_{H1 S1}
    h1s1 = mass(state) + kin
    bound = abs(p) * h1s1 + 0.5 * abs(q) * _bessel_b1() * mass(state) * h1s1
    if abs(value) > bound * (1.0 + 1e-9) + 1e-300:
        raise NumericalError(f"energy {value} violates its finiteness bound {bound}")
    return value


# ---- truncation and diagonalization ----


def galerkin_truncate(u: OperatorMatrix, n_prime: int) -> OperatorMatrix:
    """Compression P_N' U P_N' onto modes |n| <= N', kept on the same grid."""
    if not 0 <= n_prime <= u.grid.N:
        raise ValueError(f"truncation cutoff {n_prime} outside 0..{u.grid.N}")
    keep = np.abs(u.grid.modes()) <= n_prime
    entries = np.where(keep[:, None] & keep[None, :], u.entries, 0.0)
    return OperatorMatrix(u.grid, entries, hermitian=u.hermitian)


def eigendecompose(u: OperatorMatrix, drop_tol: float = 1e-12) -> MixedState:
    """Spectral decomposition of a non-negative self-adjoint matrix.

    Eigenvalues in (-drop_tol, drop_tol) * ||U||_op are treated as zero;
    anything below that window raises NotNonNegativeError.
    """
    if not (math.isfinite(drop_tol) and drop_tol >= 0.0):
        raise ValueError(f"drop_tol must be finite and >= 0, got {drop_tol}")
    entries = u.entries
    scale = math.sqrt(float(np.sum(np.abs(entries) ** 2)))
    dev = float(np.abs(entries - entries.conj().T).max())
    if dev > 1e-10 * max(scale, 1e-300):
        raise ValueError(f"matrix is not self-adjoint: max|U - U*| = {dev:.3e}")
    try:
        evals, evecs = np.linalg.eigh(0.5 * (entries + entries.conj().T))
    except np.linalg.LinAlgError as exc:
        raise NumericalError("eigendecomposition failed") from exc
    top = float(np.abs(evals).max()) if evals.size else 0.0
    threshold = drop_tol * top
    if evals.size and float(evals.min()) < -threshold:
        raise NotNonNegativeError(
            f"eigenvalue {float(evals.min()):.6e} below -{drop_tol:g} * ||U||_op"
        )
    keep = evals > threshold
    order = np.argsort(evals[keep])[::-1]
    return MixedState(u.grid, evals[keep][order], evecs[:, keep][:, order].T)


def reorthonormalized(state: MixedState, drop_tol: float = 1e-12) -> MixedState:
    """Rebuild a valid state from a drifted one, preserving the operator.

    Goes through the matrix and its eigendecomposition, which keeps
    gamma itself fixed up to drop_tol instead of trusting the orbitals.
    """
    loose = MixedState(state.grid, state.weights, state.orbitals, gram_tol=math.inf)
    return eigendecompose(to_matrix(loose), drop_tol=drop_tol)


# ---- a-priori bound ----


def ybar_bound(
    mass_: float, kinetic0: float, rho0_l2: float, p: float, q: float, focusing: bool
) -> float:
    """Time-uniform bound on mass + kinetic energy from the conserved quantities.

    Focusing: Ybar = M + (A + sqrt(A^2 + 4*K(0) + 2|q|M^2/(|p|*2*pi)))^2 / 4
    with A = |q| M^{3/2} / |p|.  Defocusing: Ybar = M + K(0) + (|q|/2|p|) ||rho_0||^2.
    """
    if p * q == 0.0:
        raise ValueError("dispersion and coupling coefficients must be nonzero")
    if min(mass_, kinetic0) < 0.0 or rho0_l2 < 0.0:
        raise ValueError("mass, kinetic energy and density norm must be >= 0")
    if focusing:
        a = abs(q) * mass_**1.5 / abs(p)
        disc = a * a + 4.0 * kinetic0 + 2.0 * abs(q) * mass_**2 / (abs(p) * TWO_PI)
        return mass_ + 0.25 * (a + math.sqrt(disc)) ** 2
    return mass_ + kinetic0 + 0.5 * (abs(q) / abs(p)) * rho0_l2**2


# ---- serialization ----

STATE_SCHEMA = "alber-lab/state-v1"


def state_to_dict(state: MixedState) -> dict:
    """JSON-ready payload; each orbital row is [re, im] interleaved per mode."""
    flat = np.empty((state.rank, 2 * state.grid.n_modes))
    flat[:, 0::2] = state.orbitals.real
    flat[:, 1::2] = state.orbitals.imag
    return {
        "schema": STATE_SCHEMA,
        "grid": {"N": state.grid.N, "M": state.grid.M},
        "weights": state.weights.tolist(),
        "orbitals": flat.tolist(),
    }


def state_from_dict(payload: dict) -> MixedState:
    if payload.get("schema") != STATE_SCHEMA:
        raise ValueError(f"unexpected state schema {payload.get('schema')!r}")
    grid = SpectralGrid(int(payload["grid"]["N"]), int(payload["grid"]["M"]))
    weights = np.asarray(payload["weights"], dtype=float)
    flat = np.asarray(payload["orbitals"], dtype=float)
    flat = flat.reshape(weights.size, 2 * grid.n_modes)
    orbitals = flat[:, 0::2] + 1j * flat[:, 1::2]
    return MixedState(grid, weights, orbitals)
