"""Linear stability of homogeneous backgrounds: Volterra kernels, the
dispersion function on the Laplace side, its Penrose margin, and the
constants entering the polynomial-propagator and stable-window estimates.

For a background symbol Gh and mode k != 0 the density perturbation obeys
the scalar Volterra equation

    rho_hat(k, t) = rho_hat_free(k, t)
                    + (i*q/2pi) * int_0^t Phi_k(t - s) rho_hat(k, s) ds,

with kernel Phi_k(tau) = sum_j (Gh(j+k) - Gh(j)) exp(i*p*k*(2j+k)*tau).
Its Laplace transform is a finite pole sum, and the dispersion function
F_k(lambda) = 1 - (i*q/2pi) * Phitilde_k(lambda) controls stability:
zeros of F_k with Re(lambda) > 0 are exponential growth rates.

F_k is rational: its zeros are the eigenvalues of one small matrix.
Without a zero in Re(lambda) >= eta_min, 1/F_k is analytic there and
tends to 1 at infinity, so inf |F_k| over that half-plane lies on the one
line Re(lambda) = eta_min (maximum modulus principle; Penrose 1960).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .spectral import TWO_PI, _check_finite
from .states import BackgroundSymbol, OperatorMatrix

ZERO_RESIDUAL = 1e-8
BOUNDARY_RE = 1e-9
NEWTON_POLISH = 2
GOLDEN_ITERS = 80


class UnstableBackgroundError(ValueError):
    """Constants that require a positive Penrose margin were requested without one."""


def _kernel_terms(bg: BackgroundSymbol, p: float, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Nonzero coefficients c_j = Gh(j+k) - Gh(j) and frequencies p*k*(2j+k)."""
    if k == 0:
        raise ValueError("the k = 0 mode is conserved; kernels are defined for k != 0")
    j = np.arange(-bg.J - abs(k), bg.J + abs(k) + 1)
    c = bg.gamma_hat(j + k) - bg.gamma_hat(j)
    keep = c != 0.0
    omega = p * k * (2 * j + k)
    return c[keep], omega[keep].astype(float)


def volterra_kernel(bg: BackgroundSymbol, p: float, k: int, tau) -> np.ndarray:
    """Phi_k(tau); tau may be a scalar or an array."""
    c, omega = _kernel_terms(bg, p, k)
    tau = np.asarray(tau, dtype=float)
    out = np.sum(c * np.exp(1j * np.multiply.outer(tau, omega)), axis=-1)
    return out if out.shape else complex(out)


def laplace_symbol(bg: BackgroundSymbol, p: float, k: int, lam) -> np.ndarray:
    """Phitilde_k(lambda) = sum_j c_j / (lambda - i*omega_j), Re(lambda) > 0."""
    lam = np.asarray(lam, dtype=complex)
    if np.any(lam.real <= 0.0):
        raise ValueError("the Laplace symbol is defined on the open half-plane Re(lambda) > 0")
    out = _symbol_unchecked(*_kernel_terms(bg, p, k), lam)
    return out if out.shape else complex(out)


def _symbol_unchecked(c: np.ndarray, omega: np.ndarray, lam: np.ndarray) -> np.ndarray:
    return np.sum(c / (np.asarray(lam, dtype=complex)[..., None] - 1j * omega), axis=-1)


def dispersion(bg: BackgroundSymbol, p: float, q: float, k: int, lam) -> np.ndarray:
    """F_k(lambda) = 1 - (i*q/2pi) * Phitilde_k(lambda)."""
    return 1.0 - (1j * q / TWO_PI) * laplace_symbol(bg, p, k, lam)


@dataclass
class PenroseReport:
    k: int
    margin: float
    argmin_lambda: complex
    zeros: list
    eta_line_margins: list

    def to_dict(self) -> dict:
        return {
            "k": self.k,
            "margin": self.margin,
            "argmin_lambda": [self.argmin_lambda.real, self.argmin_lambda.imag],
            "zeros": [[z.real, z.imag] for z in self.zeros],
            "eta_line_margins": [[e, m] for e, m in self.eta_line_margins],
        }


def _golden_minimize(f, lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Golden-section search of f on every bracket [lo, hi] at once."""
    g = (math.sqrt(5.0) - 1.0) / 2.0
    x1, x2 = hi - g * (hi - lo), lo + g * (hi - lo)
    f1, f2 = f(x1), f(x2)
    for _ in range(GOLDEN_ITERS):
        left = f1 < f2
        lo, hi = np.where(left, lo, x1), np.where(left, x2, hi)
        x = np.where(left, hi - g * (hi - lo), lo + g * (hi - lo))
        fx = f(x)
        x1, f1, x2, f2 = (
            np.where(left, x, x2), np.where(left, fx, f2), np.where(left, x1, x), np.where(left, f1, fx)
        )
    return np.where(f1 <= f2, x1, x2), np.minimum(f1, f2)


def _line_minimum(f_value, residue, omega, zeros, eta) -> tuple[np.ndarray, np.ndarray]:
    """Im(lambda) and value of min |F_k| on each line Re(lambda) = eta[i].

    The local minima sit near the zeros of F_k or beside its poles.  Near
    the pole i*omega_j the line sees F_k ~ B_j + residue_j/(lambda - i*omega_j),
    whose pole term runs over a circle through 0 and residue_j/eta; the
    seed there is the point where the shifted circle comes closest to 0.
    Every seed is bracketed by half its distance to the nearest pole, and
    all brackets are refined together.
    """
    eta = eta[:, None]
    centre = residue / (2.0 * eta)
    shifted = f_value(eta + 1j * omega) - centre
    with np.errstate(all="ignore"):
        nearest = centre - np.abs(centre) * shifted / np.abs(shifted)
        beside = np.nan_to_num((residue / nearest).imag, posinf=0.0, neginf=0.0)
    seeds = np.concatenate([np.broadcast_to(zeros.imag, beside.shape), omega + beside], axis=1)
    half = 0.5 * np.abs(seeds[..., None] - omega).min(axis=-1)
    s, line = _golden_minimize(lambda s: np.abs(f_value(eta + 1j * s)), seeds - half, seeds + half)
    best = np.argmin(line, axis=1)
    rows = np.arange(line.shape[0])
    return s[rows, best], line[rows, best]


def check_eta_min(eta_min: float) -> float:
    """eta_min as a float; a ValueError starting "eta_min" unless it is finite and > 0 with 4*eta_min finite."""
    eta_min = float(eta_min)
    if not (eta_min > 0.0 and math.isfinite(4.0 * eta_min)):
        raise ValueError(f"eta_min must be finite and > 0, with 4*eta_min finite, got {eta_min}")
    return eta_min


def penrose_margin(bg: BackgroundSymbol, p: float, q: float, k: int, eta_min: float = 1e-3) -> PenroseReport:
    """inf |F_k| over Re(lambda) >= eta_min, and the growing zeros.

    Zeros: every eigenvalue of the matrix below, given at most
    NEWTON_POLISH Newton steps and kept if |F_k| <= ZERO_RESIDUAL there.
    Kept zeros with Re(lambda) > BOUNDARY_RE are growth rates; zeros on
    the imaginary axis are marginal modes, not growth.

    Margin: with a growing zero, the smallest residual at one.  Otherwise
    the minimum of |F_k| on the line Re(lambda) = eta_min (_line_minimum),
    capped at 1, the limit at infinity.  eta_line_margins holds the same
    capped line minimum at eta_min, 2*eta_min and 4*eta_min; a margin that
    doubles with eta_min shows zeros on the imaginary axis.
    """
    _check_finite(p=p, q=q)
    eta_min = check_eta_min(eta_min)
    c, omega = _kernel_terms(bg, p, k)
    eta = eta_min * np.array([1.0, 2.0, 4.0])
    if c.size == 0:
        return PenroseReport(k, 1.0, complex(eta[0]), [], [(float(e), 1.0) for e in eta])
    coef = 1j * q / TWO_PI

    def f_value(lam):
        return 1.0 - coef * _symbol_unchecked(c, omega, lam)

    # det(lambda - A) = prod_j (lambda - i*omega_j) * F_k(lambda) for the
    # diagonal-plus-rank-one A below (its secular equation), and no c_j
    # vanishes, so the eigenvalues of A are exactly the zeros of F_k
    z = np.linalg.eigvals(np.diag(1j * omega) + coef * np.outer(c, np.ones(c.size)))
    with np.errstate(all="ignore"):
        for _ in range(NEWTON_POLISH):
            newton = z - f_value(z) / (coef * np.sum(c / (z[:, None] - 1j * omega) ** 2, axis=-1))
            z = np.where(np.abs(f_value(newton)) < np.abs(f_value(z)), newton, z)
        residual = np.abs(f_value(z))
    growing = (residual <= ZERO_RESIDUAL) & (z.real > BOUNDARY_RE)
    zeros = sorted((complex(w) for w in z[growing]), key=lambda w: (-w.real, abs(w.imag)))

    s, line = _line_minimum(f_value, -coef * c, omega, z, eta)
    line = np.minimum(line, 1.0)
    eta_lines = [(float(e), float(m)) for e, m in zip(eta, line)]
    if zeros:
        i = int(np.argmin(np.where(growing, residual, np.inf)))
        return PenroseReport(k, float(residual[i]), complex(z[i]), zeros, eta_lines)
    return PenroseReport(k, float(line[0]), complex(eta[0], s[0]), zeros, eta_lines)


# ---- time-side oracle ----


def free_density(u0: OperatorMatrix, p: float, k: int, t) -> np.ndarray:
    """rho_hat_free(k, t) = sum_j exp(i*p*k*(2j+k)*t) * U0_{j+k, j}.

    Reads the diagonal with np.diagonal, not spectral's diagonal helpers,
    on purpose: it feeds the Volterra oracle that is checked against
    linearized_evolve, which uses spectral.diagonal_stack.
    """
    if k == 0:
        raise ValueError("k = 0 carries no free oscillation; use the trace")
    nm = u0.grid.n_modes
    if abs(k) >= nm:
        raise ValueError(f"|k|={abs(k)} outside the band of the matrix")
    d = np.diagonal(u0.entries, offset=-k)
    j = np.arange(-u0.grid.N + max(-k, 0), u0.grid.N - max(k, 0) + 1)
    omega = p * k * (2 * j + k)
    t = np.asarray(t, dtype=float)
    out = np.sum(d * np.exp(1j * np.multiply.outer(t, omega.astype(float))), axis=-1)
    return out if out.shape else complex(out)


def volterra_solve(
    bg: BackgroundSymbol,
    u0: OperatorMatrix,
    p: float,
    q: float,
    k: int,
    t_grid: np.ndarray,
) -> np.ndarray:
    """Product-trapezoidal march for the scalar density equation at mode k.

    t_grid must be uniform starting at 0.  Phi_k is a sum of exponentials
    c_j exp(i*omega_j*tau), so the trapezoid history sum splits into one
    running sum per term, S_j <- exp(i*omega_j*dt)(S_j + rho_i) from
    S_j = rho_0/2 * exp(i*omega_j*dt): O(n * terms) work.  Warns when the
    step undersamples the fastest kernel oscillation (dt > 0.1 / max|omega|).
    """
    _check_finite(p=p, q=q, u0=u0.entries)
    t = np.asarray(t_grid, dtype=float)
    if t.ndim != 1 or t.size < 2 or t[0] != 0.0:
        raise ValueError("t_grid must be 1-d, start at 0 and have >= 2 points")
    dt = t[1] - t[0]
    if dt <= 0 or not np.allclose(np.diff(t), dt, rtol=1e-9, atol=1e-12):
        raise ValueError("t_grid must be uniformly spaced")
    c, omega = _kernel_terms(bg, p, k)
    omega_max = float(np.abs(omega).max()) if omega.size else 0.0
    if omega_max > 0 and dt > 0.1 / omega_max:
        warnings.warn(
            f"dt={dt:.3g} undersamples the kernel (fastest resonance {omega_max:.3g}); "
            "expect degraded accuracy",
            RuntimeWarning,
            stacklevel=2,
        )
    rho_free = np.asarray(free_density(u0, p, k, t), dtype=complex)
    if c.size == 0:
        return rho_free
    phase = np.exp(1j * omega * dt)
    coef = 1j * q / TWO_PI
    denom = 1.0 - coef * 0.5 * dt * c.sum()
    rho = np.empty_like(rho_free)
    rho[0] = rho_free[0]
    history = 0.5 * rho[0] * phase
    for i in range(1, t.size):
        rho[i] = (rho_free[i] + coef * dt * (c @ history)) / denom
        history = phase * (history + rho[i])
    return rho


# ---- constants for the propagator and the stable window ----


@dataclass
class PropagatorConstants:
    """Constants of the weighted-density propagator bound and the stable window.

    With A = C|q| * ||Gamma||_{H1 S1} and B = |q| * ||Gh||_{l1} / (2*pi*kappa):
    C_gamma_eta = 1 + A(1 + B/eta)/eta bounds the eta-weighted density
    response, C_star = 3(1 + A + A*B) the polynomial propagator, and the
    stable window is |t| <= T_star = c_gamma * epsilon^{-1/5} with
    c_gamma = (8 C_star^2 C_Q)^{-1/5}, C_Q = C|q|.  C is the bilinear
    constant, supplied empirically.
    """

    gamma_h1s1: float
    gamma_l1: float
    kappa: float
    q_abs: float
    c_bilinear: float
    eta: float
    epsilon: float
    c_gamma_eta: float
    c_star: float
    c_q: float
    c_gamma: float
    t_star: float

    def to_dict(self) -> dict:
        return {k: getattr(self, k) for k in self.__dataclass_fields__}


def propagator_constants(
    gamma_h1s1: float,
    gamma_l1: float,
    kappa: float,
    q: float,
    eta: float,
    epsilon: float,
    c_bilinear: float,
) -> PropagatorConstants:
    inputs = {
        "gamma_h1s1": gamma_h1s1,
        "gamma_l1": gamma_l1,
        "kappa": kappa,
        "q": q,
        "eta": eta,
        "epsilon": epsilon,
        "c_bilinear": c_bilinear,
    }
    _check_finite(**inputs)
    if kappa <= 0.0:
        raise UnstableBackgroundError(f"kappa must be a positive Penrose margin, got {kappa}")
    if min(gamma_h1s1, gamma_l1) < 0.0:
        raise ValueError("background norms must be >= 0")
    for name in ("eta", "epsilon", "c_bilinear"):
        if inputs[name] <= 0.0:
            raise ValueError(f"{name} must be positive, got {inputs[name]}")
    if q == 0.0:
        raise ValueError("q must be nonzero")
    a = c_bilinear * abs(q) * gamma_h1s1
    b = abs(q) * gamma_l1 / (TWO_PI * kappa)
    c_gamma_eta = 1.0 + a * (1.0 + b / eta) / eta
    c_star = 3.0 * (1.0 + a + a * b)
    c_q = c_bilinear * abs(q)
    c_gamma = (8.0 * c_star**2 * c_q) ** (-0.2)
    t_star = c_gamma * epsilon ** (-0.2)
    return PropagatorConstants(
        gamma_h1s1=gamma_h1s1,
        gamma_l1=gamma_l1,
        kappa=kappa,
        q_abs=abs(q),
        c_bilinear=c_bilinear,
        eta=eta,
        epsilon=epsilon,
        c_gamma_eta=c_gamma_eta,
        c_star=c_star,
        c_q=c_q,
        c_gamma=c_gamma,
        t_star=t_star,
    )
