"""Spectral substrate for fields on the 2*pi-periodic torus.

Everything downstream relies on the unitary Fourier convention

    f_hat(n) = (2*pi)**-0.5 * integral_0^{2*pi} f(x) exp(-i*n*x) dx,
    f(x)     = (2*pi)**-0.5 * sum_n f_hat(n) exp(+i*n*x),

so Parseval reads ||f||_{L2}^2 = sum_n |f_hat(n)|^2 with no extra factor.
A field is a plain array of its coefficients on modes -N..N, or a stack
of such rows: synthesize_batch/analyze_batch are the one transform pair,
and sobolev_norm the one H^s formula.  The plane-wave Toeplitz pair lives
here too: diagonal_sums (the density coefficients of a mode matrix) and
its adjoint toeplitz (multiplication), both over any leading axes.  All
operations here are pure functions; only the offset table that the pair
indexes is cached, one read-only copy per matrix size.  _check_finite is
the one check that arguments are finite, for every module that takes
numbers or arrays from outside.

_fft and _ifft are the package's raw transforms: numpy's own pocketfft
gufuncs (numpy >= 2.0; signature (n),()->(m) along the last axis), bound
once here.  np.fft.fft and np.fft.ifft are Python wrappers around them
that spend microseconds per call on argument handling (dtype, norm and
axis resolution), a large share of a split-step substep at the lab's
sizes.  Called with out= and np.fft's own factors, 1.0 forward and
1.0 / M inverse, the gufuncs give exactly np.fft's bits.  The transform
pair and the split-step loop in dynamics call them directly; nothing
else in the package calls np.fft.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.fft import _pocketfft_umath

TWO_PI = 2.0 * math.pi

# _fft(a, 1.0, out=b) is b = np.fft.fft(a) and _ifft(a, 1.0 / M, out=b) is
# b = np.fft.ifft(a), along the last axis of length M, bit for bit
_fft = _pocketfft_umath.fft
_ifft = _pocketfft_umath.ifft


def _check_finite(**values) -> None:
    """A ValueError for the first value, a number or an array, that is not finite.

    The message starts with the parameter's name, so a caller can say where
    it came from: "<name> must be finite, got <value>", or "got a
    non-finite entry" for an array.
    """
    for name, value in values.items():
        if np.ndim(value):
            if not np.isfinite(value).all():
                raise ValueError(f"{name} must be finite, got a non-finite entry")
        elif not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")


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
    samples = np.empty_like(padded)
    _ifft(padded, 1.0 / grid.M, out=samples)
    samples *= grid.M / math.sqrt(TWO_PI)
    return samples


def analyze_batch(grid: SpectralGrid, samples: np.ndarray) -> np.ndarray:
    """Project physical samples back onto the active band -N..N.

    Left inverse of synthesize_batch; content outside the band is
    discarded, which is exact for fields synthesized on the same grid
    because M >= 2(2N+1) separates the discrete exponentials.
    """
    samples = np.asarray(samples, dtype=complex)
    if samples.shape[-1] != grid.M:
        raise ValueError(f"expected {grid.M} samples on this grid, got shape {samples.shape}")
    spectrum = np.empty_like(samples)
    _fft(samples, 1.0, out=spectrum)
    band = spectrum[..., grid.modes() % grid.M]
    band *= math.sqrt(TWO_PI) / grid.M
    return band


@lru_cache(maxsize=16)
def _offsets(nm: int) -> np.ndarray:
    """Read-only table (m - n) + (nm - 1) of an nm x nm matrix."""
    idx = np.arange(nm)
    table = (idx[:, None] - idx[None, :]) + (nm - 1)
    table.flags.writeable = False
    return table


def diagonal_sums(entries: np.ndarray) -> np.ndarray:
    """All diagonal sums d(k) = sum_j U_{j+k, j} for k = -(nm-1)..(nm-1).

    entries has shape (..., nm, nm); the result has shape (..., 2nm-1).
    d(k) is (2*pi)**0.5 times the unitary Fourier coefficient of the
    position density of U.  One bincount sums every matrix, matrix i in
    bins i*(2nm-1) on, each diagonal in the order of a single-matrix call.
    """
    *lead, nm, _ = entries.shape
    width, count = 2 * nm - 1, math.prod(lead)
    bins = (_offsets(nm).ravel() + width * np.arange(count)[:, None]).ravel()
    re = np.bincount(bins, weights=entries.real.ravel(), minlength=count * width)
    im = np.bincount(bins, weights=entries.imag.ravel(), minlength=count * width)
    return (re + 1j * im).reshape(*lead, width)


def toeplitz(d: np.ndarray) -> np.ndarray:
    """T_mn = d(m - n) for d on k = -(nm-1)..(nm-1) along the last axis; the adjoint of diagonal_sums."""
    if d.shape[-1] % 2 != 1:
        raise ValueError(f"diagonal values must cover k = -(nm-1)..(nm-1), got length {d.shape[-1]}")
    return d[..., _offsets((d.shape[-1] + 1) // 2)]


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


def sobolev_norm(coeffs: np.ndarray, s: float):
    """H^s norm (sum_n <n>^{2s} |f_hat(n)|^2)^{1/2} of coefficients on modes -K..K.

    K is read from the length of the last axis, which must be odd; s must
    be finite and >= 0.  One row gives a float, a stack of rows (..., 2K+1)
    an array of their norms.
    """
    if not 0 <= s < math.inf:
        raise ValueError(f"s must be a finite Sobolev order >= 0, got {s}")
    coeffs = np.asarray(coeffs)
    if coeffs.shape[-1] % 2 != 1:
        raise ValueError(f"coefficients must cover modes -K..K, got length {coeffs.shape[-1]}")
    k = coeffs.shape[-1] // 2
    n = np.arange(-k, k + 1)
    weights = (1.0 + n.astype(float) ** 2) ** s
    norms = np.sqrt(np.sum(weights * np.abs(coeffs) ** 2, axis=-1))
    return float(norms) if coeffs.ndim == 1 else norms


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
