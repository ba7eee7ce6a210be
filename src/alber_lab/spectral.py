"""Spectral substrate for fields on the 2*pi-periodic torus.

Everything downstream relies on the unitary Fourier convention

    f_hat(n) = (2*pi)**-0.5 * integral_0^{2*pi} f(x) exp(-i*n*x) dx,
    f(x)     = (2*pi)**-0.5 * sum_n f_hat(n) exp(+i*n*x),

so Parseval reads ||f||_{L2}^2 = sum_n |f_hat(n)|^2 with no extra factor.
The plane-wave Toeplitz pair lives here too: diagonal_sums (the density
coefficients of a mode matrix) and its adjoint toeplitz (multiplication).
All operations here are pure functions; only the offset table that the
pair indexes is cached, one read-only copy per matrix size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

TWO_PI = 2.0 * math.pi


def _is_five_smooth(m: int) -> bool:
    for p in (2, 3, 5):
        while m % p == 0:
            m //= p
    return m == 1


def fft_friendly_size(m: int) -> int:
    """Smallest 5-smooth integer >= m (keeps FFTs at O(M log M))."""
    candidate = max(int(m), 1)
    while not _is_five_smooth(candidate):
        candidate += 1
    return candidate


@dataclass(frozen=True)
class SpectralGrid:
    """Collocation grid for the torus with symmetric mode cutoff.

    N is the largest retained wavenumber; active modes are n = -N..N.
    M physical points x_j = 2*pi*j/M.  The default M is the smallest
    5-smooth integer >= 2*(2N+1).  The exponential potential factor in
    the split-step integrator is not polynomial, so exact dealiasing is
    impossible; the factor-two oversampling keeps the aliasing residue of
    resolved fields at spectral-accuracy level instead.
    """

    N: int
    M: int = 0

    def __post_init__(self) -> None:
        if self.N < 1:
            raise ValueError(f"N must be >= 1 (the mode cutoff), got {self.N}")
        if self.M == 0:
            object.__setattr__(self, "M", fft_friendly_size(2 * (2 * self.N + 1)))
        if self.M < 2 * (2 * self.N + 1):
            raise ValueError(
                f"M={self.M} undersamples cutoff N={self.N}; need M >= {2 * (2 * self.N + 1)}"
            )

    @property
    def n_modes(self) -> int:
        return 2 * self.N + 1

    def modes(self) -> np.ndarray:
        """Wavenumbers n = -N..N in storage order."""
        return np.arange(-self.N, self.N + 1)

    def points(self) -> np.ndarray:
        """Collocation points x_j = 2*pi*j/M."""
        return TWO_PI * np.arange(self.M) / self.M

    def brackets_sq(self) -> np.ndarray:
        """Japanese-bracket weights <n>^2 = 1 + n^2 on the active modes."""
        n = self.modes()
        return 1.0 + n.astype(float) ** 2


@dataclass
class FourierField:
    """A band-limited field, stored as its coefficients on modes -N..N."""

    grid: SpectralGrid
    coeffs: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        self.coeffs = np.asarray(self.coeffs, dtype=complex)
        if self.coeffs.shape != (self.grid.n_modes,):
            raise ValueError(
                f"expected {self.grid.n_modes} coefficients for N={self.grid.N}, "
                f"got shape {self.coeffs.shape}"
            )

    @classmethod
    def zero(cls, grid: SpectralGrid) -> "FourierField":
        return cls(grid, np.zeros(grid.n_modes, dtype=complex))

    @classmethod
    def from_mode(cls, grid: SpectralGrid, n: int, coeff: complex = 1.0) -> "FourierField":
        if abs(n) > grid.N:
            raise ValueError(f"mode {n} outside band |n| <= {grid.N}")
        c = np.zeros(grid.n_modes, dtype=complex)
        c[n + grid.N] = coeff
        return cls(grid, c)


def synthesize_batch(grid: SpectralGrid, coeffs: np.ndarray) -> np.ndarray:
    """Evaluate stacked coefficient rows on the physical grid.

    coeffs has shape (..., 2N+1); the result has shape (..., M) with
    samples (2*pi)**-0.5 * sum_n c(n) exp(i*n*x_j).
    """
    coeffs = np.asarray(coeffs, dtype=complex)
    if coeffs.shape[-1] != grid.n_modes:
        raise ValueError(f"expected trailing axis {grid.n_modes}, got {coeffs.shape}")
    padded = np.zeros(coeffs.shape[:-1] + (grid.M,), dtype=complex)
    padded[..., grid.modes() % grid.M] = coeffs
    return np.fft.ifft(padded, axis=-1) * (grid.M / math.sqrt(TWO_PI))


def analyze_batch(grid: SpectralGrid, samples: np.ndarray) -> np.ndarray:
    """Project physical samples back onto the active band -N..N.

    Left inverse of synthesize_batch; content outside the band is
    discarded, which is exact for fields synthesized on the same grid
    because M >= 2(2N+1) separates the discrete exponentials.
    """
    samples = np.asarray(samples, dtype=complex)
    if samples.shape[-1] != grid.M:
        raise ValueError(f"expected {grid.M} samples on this grid, got shape {samples.shape}")
    spectrum = np.fft.fft(samples, axis=-1) * (math.sqrt(TWO_PI) / grid.M)
    return spectrum[..., grid.modes() % grid.M]


def synthesize(field_: FourierField) -> np.ndarray:
    """Physical samples of a field on its grid."""
    return synthesize_batch(field_.grid, field_.coeffs)


def analyze(grid: SpectralGrid, samples: np.ndarray) -> FourierField:
    """FourierField from physical samples (band-limited projection)."""
    return FourierField(grid, analyze_batch(grid, samples))


@lru_cache(maxsize=16)
def _offsets(nm: int) -> np.ndarray:
    """Read-only table (m - n) + (nm - 1) of an nm x nm matrix."""
    idx = np.arange(nm)
    table = (idx[:, None] - idx[None, :]) + (nm - 1)
    table.flags.writeable = False
    return table


def diagonal_sums(entries: np.ndarray) -> np.ndarray:
    """All diagonal sums d(k) = sum_j U_{j+k, j} for k = -(nm-1)..(nm-1).

    d(k) is (2*pi)**0.5 times the unitary Fourier coefficient of the
    position density of U.
    """
    nm = entries.shape[0]
    offsets = _offsets(nm).ravel()
    re = np.bincount(offsets, weights=entries.real.ravel(), minlength=2 * nm - 1)
    im = np.bincount(offsets, weights=entries.imag.ravel(), minlength=2 * nm - 1)
    return re + 1j * im


def toeplitz(d: np.ndarray) -> np.ndarray:
    """T_mn = d(m - n) for d on k = -(nm-1)..(nm-1); the adjoint of diagonal_sums."""
    if len(d) % 2 != 1:
        raise ValueError(f"diagonal values must cover k = -(nm-1)..(nm-1), got length {len(d)}")
    return d[_offsets((len(d) + 1) // 2)]


@lru_cache(maxsize=16)
def _stack_index(nm: int) -> tuple:
    """Where entry (m, n) sits in the diagonal stack: row m - n + nm - 1, column min(m, n)."""
    idx = np.arange(nm)
    cols = np.minimum.outer(idx, idx)
    cols.flags.writeable = False
    return _offsets(nm), cols


def diagonal_stack(entries: np.ndarray) -> np.ndarray:
    """The diagonals m - n = k of an nm x nm matrix as rows of a (2nm-1, nm) stack.

    Row k + nm - 1 holds diagonal k from its top-left entry on and is
    zero-padded to length nm, so its sum is diagonal_sums(entries)[k + nm - 1].
    """
    nm = entries.shape[0]
    out = np.zeros((2 * nm - 1, nm), dtype=complex)
    out[_stack_index(nm)] = entries
    return out


def from_diagonal_stack(stack: np.ndarray) -> np.ndarray:
    """The nm x nm matrix whose diagonal_stack is stack; the padding is not read."""
    return stack[_stack_index(stack.shape[1])]


def sobolev_norm(field_: FourierField, s: float) -> float:
    """H^s norm (sum_n <n>^{2s} |f_hat(n)|^2)^{1/2}; s must be >= 0."""
    if s < 0:
        raise ValueError(f"negative Sobolev order s={s} is not exposed here")
    weights = field_.grid.brackets_sq() ** s
    return math.sqrt(float(np.sum(weights * np.abs(field_.coeffs) ** 2)))


def lp_norm(samples: np.ndarray, p) -> float:
    """L^p norm of physical samples via the rectangle rule, p in {1,2,4,inf}.

    The quadrature weight is 2*pi/len(samples), exact for trigonometric
    polynomials resolved by the sample count.  A p-th power that overflows
    gives an infinite norm, without a numpy warning.
    """
    samples = np.asarray(samples)
    if samples.ndim != 1 or samples.size == 0:
        raise ValueError("samples must be a non-empty 1-d array")
    dx = TWO_PI / samples.size
    a = np.abs(samples)
    if p == math.inf:
        return float(a.max())
    if p == 1:
        return float(np.sum(a) * dx)
    with np.errstate(over="ignore"):
        if p == 2:
            return math.sqrt(float(np.sum(a**2) * dx))
        if p == 4:
            return float(np.sum(a**4) * dx) ** 0.25
    raise ValueError(f"unsupported exponent p={p}; use 1, 2, 4 or math.inf")


def bessel_constant(s: float, tail_tol: float = 1e-10) -> float:
    """B_s = (2*pi)**-1 * sum_{n in Z} <n>^{-2s}, valid for s > 1/2.

    Partial summation over |n| <= K plus an integral estimate of the
    remainder.  The midpoint integral int_{K+1/2}^inf (1+x^2)^{-s} dx
    matches the tail sum with Euler-Maclaurin error O(s * K^{-2s-1});
    K is chosen adaptively so that error stays below tail_tol.
    """
    if s <= 0.5:
        raise ValueError(f"sum_n <n>^(-2s) diverges for s={s} <= 1/2")
    if tail_tol <= 0:
        raise ValueError("tail_tol must be positive")
    K = int(math.ceil((s / (6.0 * TWO_PI * tail_tol)) ** (1.0 / (2.0 * s + 1.0))))
    K = max(K, 16)
    n = np.arange(1, K + 1, dtype=float)
    partial = 1.0 + 2.0 * float(np.sum((1.0 + n * n) ** (-s)))
    # Tail integral expanded in x^-2: (1+x^2)^-s = x^-2s * sum_i binom(-s,i) x^-2i.
    a = K + 0.5
    tail = 0.0
    c = 1.0
    for i in range(4):
        tail += c * a ** (1.0 - 2.0 * s - 2.0 * i) / (2.0 * s + 2.0 * i - 1.0)
        c *= -(s + i) / (i + 1.0)
    return (partial + 2.0 * tail) / TWO_PI
