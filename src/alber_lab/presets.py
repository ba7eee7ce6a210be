"""Named backgrounds and initial states used by the CLI and the test suite."""

from __future__ import annotations

import math

import numpy as np

from .spectral import SpectralGrid, _check_finite
from .states import BackgroundSymbol, MixedState, OperatorMatrix, sobolev_schatten_norm

REMARK_UNSTABLE = "remark-5-2-unstable"
STABLE_BROAD = "stable-broad"


def background_preset(name: str) -> tuple[BackgroundSymbol, float, float]:
    """Return (symbol, p, q) for a named background.

    remark-5-2-unstable: Gamma_hat(0) = 2*pi with p = q = 1.  Its k = 1
    dispersion function is (lambda^2 - 1)/(lambda^2 + 1), with a genuine
    zero at lambda = 1 and linear-in-time growth rate 1.

    stable-broad: Gamma_hat(n) = 0.2 <n>^-4 on |n| <= 2 with p = 1,
    q = -1.  Its dispersion functions have no zeros in the right
    half-plane; the margin on the line Re(lambda) = eta_min is positive (it
    shrinks linearly with eta_min, as it must on the torus, where marginal
    modes sit on the imaginary axis).
    """
    if name == REMARK_UNSTABLE:
        return BackgroundSymbol(np.array([2.0 * np.pi])), 1.0, 1.0
    if name == STABLE_BROAD:
        n = np.arange(-2, 3, dtype=float)
        return BackgroundSymbol(0.2 * (1.0 + n * n) ** (-2.0)), 1.0, -1.0
    raise KeyError(f"unknown background preset {name!r}")


def random_smooth_state(
    grid: SpectralGrid,
    rank: int,
    band: int,
    decay: float,
    rng: np.random.Generator,
    total_mass: float = 1.0,
) -> MixedState:
    """Random orthonormal orbitals supported in |n| <= band with
    <n>^-decay coefficient falloff; geometric weights normalized to
    total_mass.  Smooth enough (for band << N) that split-step aliasing
    sits at rounding level."""
    if not 0 <= rank <= grid.n_modes:
        raise ValueError(f"rank {rank} outside 0..{grid.n_modes} (the modes of the grid)")
    if not 0 <= band <= grid.N:
        raise ValueError(f"band {band} outside 0..{grid.N} (the grid cutoff N)")
    _check_finite(decay=decay)
    if not (math.isfinite(total_mass) and total_mass >= 0.0):
        raise ValueError(f"total_mass must be finite and >= 0, got {total_mass}")
    n = grid.modes().astype(float)
    with np.errstate(over="ignore"):
        shape = np.where(np.abs(n) <= band, (1.0 + n * n) ** (-0.5 * decay), 0.0)
    if not np.isfinite(shape).all():
        raise ValueError(f"decay {decay} overflows the falloff (1 + n^2)^(-decay/2) on |n| <= {band}")
    raw = (
        rng.standard_normal((rank, grid.n_modes)) + 1j * rng.standard_normal((rank, grid.n_modes))
    ) * shape[None, :]
    q_mat, _ = np.linalg.qr(raw.T)
    weights = 0.6 ** np.arange(rank)
    if rank:
        weights *= total_mass / weights.sum()
    return MixedState(grid, weights, q_mat.T)


def random_hermitian_perturbation(
    grid: SpectralGrid, band: int, rng: np.random.Generator
) -> OperatorMatrix:
    """Random Hermitian operator supported on the mode box |m|, |n| <= band,
    normalized to unit weighted trace norm.  Intended as the shape U0 of a
    perturbed datum Gamma + eps U0; keep band at or below the spectral
    support of the background so the perturbed datum stays nonnegative
    for eps below the smallest occupied background level."""
    if band > grid.N:
        raise ValueError(f"band {band} exceeds grid cutoff {grid.N}")
    n = grid.modes()
    mask = (np.abs(n)[:, None] <= band) & (np.abs(n)[None, :] <= band)
    raw = rng.standard_normal((grid.n_modes, grid.n_modes)) + 1j * rng.standard_normal(
        (grid.n_modes, grid.n_modes)
    )
    herm = 0.5 * (raw + raw.conj().T) * mask
    u = OperatorMatrix(grid, herm.astype(complex), hermitian=True)
    scale = sobolev_schatten_norm(u, 1.0)
    if scale == 0.0:
        raise ValueError("degenerate random draw, empty perturbation")
    return OperatorMatrix(grid, herm / scale, hermitian=True)
