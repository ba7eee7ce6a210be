"""Spectral substrate for fields on the 2*pi-periodic torus.

Everything downstream relies on the unitary Fourier convention

    f_hat(n) = (2*pi)**-0.5 * integral_0^{2*pi} f(x) exp(-i*n*x) dx,
    f(x)     = (2*pi)**-0.5 * sum_n f_hat(n) exp(+i*n*x),

so Parseval reads ||f||_{L2}^2 = sum_n |f_hat(n)|^2 with no extra factor.
A field is a plain array of its coefficients on modes -N..N, or a stack
of such rows: synthesize_batch/analyze_batch are the one transform pair,
and sobolev_norm the one H^s formula.  bessel_constant sums the lattice
constant B_s to one fixed tail tolerance, BESSEL_TAIL.  The plane-wave
Toeplitz pair lives here too: diagonal_sums (the density coefficients of
a mode matrix) and its adjoint toeplitz (multiplication), both over any
leading axes.  All operations here are pure functions; only the offset
table that the pair indexes is cached, one read-only copy per matrix size.

Every module that takes numbers or arrays from outside checks them with
two rules kept here.  _check_finite is the rule for real arguments: each
value, or each entry of an array, must be finite and, given a lower
bound, at or above it (above it if strict); NaN never passes.
_check_int is the rule for integer arguments: a Python or numpy integer,
never a bool or a fraction, at or above an optional least.  Both raise a
ValueError whose message starts with the parameter's name, which the CLI
maps to its config key.

_fft and _ifft are the package's raw transforms: numpy's own pocketfft
gufuncs (numpy >= 2.0; signature (n),()->(m) along the last axis), bound
once here.  np.fft.fft and np.fft.ifft are Python wrappers around them
that spend microseconds per call on argument handling (dtype, norm and
axis resolution), a large share of a split-step substep at the lab's
sizes.  Called with an output array (out= or positional) and np.fft's
own factors, 1.0 forward and 1.0 / M inverse (floats or 0-d float64
arrays), the gufuncs give exactly np.fft's bits, also when the output
is the input itself: they may write into their input, which
synthesize_batch (on its own padded buffer) and the split-step loop in
dynamics do.  The transform pair and that loop call them directly;
nothing else in the package calls np.fft.
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


def _check_finite(least: float | None = None, strict: bool = False, **values) -> None:
    """A ValueError for the first value, a number or an array, that is not finite or not >= least.

    With least given, every value (every entry of an array) must be >= least,
    or > least if strict; NaN never passes.  The message starts with the
    parameter's name, so a caller can say where it came from: "<name> must
    be finite, got <value>" ("got a non-finite entry" for an array), "<name>
    must be positive, got <value>" (strict, least 0) or "<name> must be >=
    <least>, got <value>", an array's value its least entry.
    """
    for name, value in values.items():
        if np.ndim(value) or isinstance(value, np.ndarray):  # a 0-d array may be complex
            if not np.isfinite(value).all():
                raise ValueError(f"{name} must be finite, got a non-finite entry")
            if least is None or not np.size(value):
                continue
            value = np.min(value)
        elif not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
        if least is not None and not (value > least if strict else value >= least):
            rule = "positive" if strict and least == 0 else f"{'>' if strict else '>='} {least}"
            raise ValueError(f"{name} must be {rule}, got {value}")


def _check_int(least: int | None = None, **values) -> None:
    """A ValueError for the first value that is not an int >= least (any int if least is None).

    An int is a Python or numpy integer, never a bool, so a fraction, an
    integral float or True is refused: "<name> must be an int >= <least>,
    got <value>", starting with the parameter's name as _check_finite's.
    """
    for name, value in values.items():
        if isinstance(value, (bool, np.bool_)) or not isinstance(value, (int, np.integer)) or (
            least is not None and value < least
        ):
            raise ValueError(f"{name} must be an int{'' if least is None else f' >= {least}'}, got {value!r}")


def fft_friendly_size(m: int) -> int:
    """Smallest 5-smooth integer >= m (keeps FFTs at O(M log M)): each 3^b 5^c times the least 2^a reaching m."""
    m, best, five = max(int(m), 1), math.inf, 1
    while five < best:
        odd = five
        while odd < best:
            best, odd = min(best, odd << (-(-m // odd) - 1).bit_length()), 3 * odd
        five *= 5
    return best


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
        for name in ("N", "M"):  # stored as Python ints; an integral float counts, a bool does not
            value = getattr(self, name)
            if isinstance(value, (float, np.floating)) and value.is_integer():
                value = int(value)
            _check_int(**{name: value})
            object.__setattr__(self, name, int(value))
        if self.N < 1:
            raise ValueError(f"N must be >= 1 (the mode cutoff), got {self.N}")
        if self.M == 0:
            object.__setattr__(self, "M", fft_friendly_size(2 * (2 * self.N + 1)))
        if self.M > np.iinfo(np.intp).max:  # M >= 2(2N+1) follows, so the modes fit too
            raise ValueError(f"N={self.N} with M={self.M} points is past numpy's largest index {np.iinfo(np.intp).max}")
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
    _ifft(padded, 1.0 / grid.M, out=padded)  # in place: the buffer is this call's own
    padded *= grid.M / math.sqrt(TWO_PI)
    return padded


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
    Real entries give real sums, with no bincount over a zero imaginary part.
    """
    *lead, nm, _ = entries.shape
    width, count = 2 * nm - 1, math.prod(lead)
    bins = (_offsets(nm).ravel() + width * np.arange(count)[:, None]).ravel()
    re = np.bincount(bins, weights=entries.real.ravel(), minlength=count * width)
    if not np.iscomplexobj(entries):
        return re.reshape(*lead, width)
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


def sobolev_norm(coeffs: np.ndarray, s: float):
    """H^s norm (sum_n <n>^{2s} |f_hat(n)|^2)^{1/2} of coefficients on modes -K..K.

    K is read from the length of the last axis, which must be odd; s must
    be finite and >= 0.  One row gives a float, a stack of rows (..., 2K+1)
    an array of their norms.
    """
    _check_finite(0, s=s)
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


# the tail tolerance of bessel_constant; the sum then takes at most 115 166 terms, as s -> 1/2
BESSEL_TAIL = 1e-12


def bessel_constant(s: float) -> float:
    """B_s = (2*pi)**-1 * sum_{n in Z} <n>^{-2s}, valid for s > 1/2.

    Partial summation over |n| <= K plus an integral estimate of the
    remainder.  The midpoint integral int_{K+1/2}^inf (1+x^2)^{-s} dx
    matches the tail sum with Euler-Maclaurin error O(s * K^{-2s-1});
    K is chosen so that error stays below BESSEL_TAIL.
    """
    _check_finite(s=s)
    if s <= 0.5:
        raise ValueError(f"sum_n <n>^(-2s) diverges for s={s} <= 1/2")
    # K = (s / (6 2pi BESSEL_TAIL))^(1 / (2s + 1)), in logs so that no large s overflows
    K = max(math.ceil(math.exp((math.log(s) - math.log(6.0 * TWO_PI * BESSEL_TAIL)) / (2.0 * s + 1.0))), 16)
    n = np.arange(1, K + 1, dtype=float)
    partial = 1.0 + 2.0 * float(np.sum((1.0 + n * n) ** (-s)))
    # Tail integral expanded in x^-2: (1+x^2)^-s = x^-2s * sum_i binom(-s,i) x^-2i.
    a = K + 0.5
    tail = 0.0
    c = 1.0
    for i in range(4):
        power = a ** (1.0 - 2.0 * s - 2.0 * i)
        tail += c * power / (2.0 * s + 2.0 * i - 1.0) if power else 0.0  # c may overflow where power underflows
        c *= -(s + i) / (i + 1.0)
    return (partial + 2.0 * tail) / TWO_PI
