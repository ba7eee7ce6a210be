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
F_k and its first two derivatives come from one pass over its pole terms
(_dispersion_derivatives): they polish the zeros by Newton's method and
find the line minimum by a safeguarded Newton iteration on the derivative
of |F_k|^2.  penrose_margins scans the modes of a background at once:
each mode's pole terms are padded with c = 0 to one width, so the polish
and the line minima of all modes run through one evaluator and one
Newton loop, and only the eigenvalues are taken mode by mode.
penrose_margin is the scan of one mode.

On the time side, volterra_solve marches the density equation as a
linear recurrence with one running sum per kernel term.  Its forcing,
free_density, is a sum of equally spaced frequencies p*k*(2j+k), so it is
a Laurent polynomial in exp(2i*p*k*t) evaluated by Horner's rule: one
complex exponential and about 2N+1-|k| multiply-adds per time point.
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
# evaluator entries (points x pole terms) that one pass of penrose_margins may hold
SCAN_ENTRIES = 2**17


class UnstableBackgroundError(ValueError):
    """Constants that require a positive Penrose margin were requested without one."""


def _kernel_terms(bg: BackgroundSymbol, p: float, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Nonzero coefficients c_j = Gh(j+k) - Gh(j) and frequencies p*k*(2j+k); a
    ValueError starting "p " if p*k*(2j+k) is past the float range for a j of the sum."""
    if k == 0:
        raise ValueError("the k = 0 mode is conserved; kernels are defined for k != 0")
    j = np.arange(-bg.J - abs(k), bg.J + abs(k) + 1)
    c = bg.gamma_hat(j + k) - bg.gamma_hat(j)
    keep = c != 0.0
    with np.errstate(over="ignore"):
        omega = float(p) * k * (2 * j + k)
    if not np.isfinite(omega).all():
        raise ValueError(f"p = {p:g} puts the kernel frequencies p*k*(2j+k) of mode k = {k} past the float range")
    return c[keep], omega[keep]


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
    c, omega = _kernel_terms(bg, p, k)
    out = np.sum(c / (lam[..., None] - 1j * omega), axis=-1)
    return out if out.shape else complex(out)


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


def _dispersion_derivatives(c: np.ndarray, omega: np.ndarray, coef: complex, lam) -> tuple:
    """F_k, F_k' and F_k'' at lam from one pass over the pole terms, with
    r_j = 1/(lam - i*omega_j) and coef = i*q/2pi:
    F = 1 - coef*sum c r, F' = coef*sum c r^2, F'' = -2*coef*sum c r^3."""
    gap = np.asarray(lam, dtype=complex)[..., None] - 1j * omega
    term2 = c / gap**2
    return 1.0 - coef * (c / gap).sum(axis=-1), coef * term2.sum(axis=-1), -2.0 * coef * (term2 / gap).sum(axis=-1)


def _line_minima(evaluate, residue, omega, poles, zeros, level, eta) -> tuple[np.ndarray, np.ndarray]:
    """Im(lambda) and value of min |F_k| on each line Re(lambda) = eta[i], for
    every mode of a pass: arrays of shape (modes, lines).

    residue = -coef*c and omega hold each mode's pole terms padded to one
    width, zeros its eigenvalues in the slots of its own terms, poles marks
    those slots on every line, and level holds F_k at eta + i*omega there;
    evaluate(modes, lam) gives F_k, F_k' and F_k'' of the mode of every
    point.  The local minima sit near the zeros of F_k or beside its poles.
    Near the pole i*omega_j the line sees
    F_k ~ B_j + residue_j/(lambda - i*omega_j), whose pole term runs over a
    circle through 0 and residue_j/eta; the seed there is the point where
    the shifted circle comes closest to 0.  Every seed is bracketed by half
    its distance to the nearest pole.  A padding slot seeds no bracket, and
    its pole repeats one of the mode's own, so it moves no half-width.

    Along the line phi(s) = |F_k(eta + i*s)|^2 has phi' = -2 Im(conj(F) F')
    and phi'' = 2(|F'|^2 - Re(conj(F) F'')), F' = dF_k/dlambda; divided by
    phi, with u = F'/F and v = F''/F, they are -2 Im u and 2(|u|^2 - Re v),
    so the search reads the same at any amplitude of the symbol.  Both ends
    and the seed of every bracket are evaluated once.  Where phi falls at
    the lower end and rises at the upper one, or the seed lies below both
    ends, Newton's method on phi' = 0 starts at the seed: each point moves
    the end of its side of the minimum, a Newton point off the bracket
    falls back to bisection, and a bracket stops once its Newton step would
    lower phi by at most 1e-14 relative or move s by rounding only.  Any
    other bracket keeps the smaller end.  All brackets of all lines of all
    modes take their steps together, each one reports its smallest
    evaluated |F_k|, and each line its first smallest bracket in the order
    zeros, then poles.  No step reads another bracket, so a mode's minima
    do not depend on the modes that share its pass.
    """
    centre = residue[:, None, :] / (2.0 * eta[:, None])  # (modes, lines, width)
    with np.errstate(all="ignore"):  # shifted may vanish, and gap**2 overflows once |lambda| > 1e154
        shifted = np.zeros_like(centre)
        shifted[poles] = level - centre[poles]
        nearest = centre - np.abs(centre) * shifted / np.abs(shifted)
        beside = np.nan_to_num((residue[:, None, :] / nearest).imag, posinf=0.0, neginf=0.0)
        seeds = np.concatenate([np.broadcast_to(zeros.imag[:, None, :], beside.shape), omega[:, None, :] + beside], -1)
        half = 0.5 * np.abs(seeds[..., None] - omega[:, None, None, :]).min(axis=-1)
        brackets = np.broadcast_to(np.concatenate([poles, poles], axis=-1), seeds.shape)
        mode, line, _ = np.nonzero(brackets)
        points = seeds[brackets][:, None] + half[brackets][:, None] * np.array([-1.0, 0.0, 1.0])  # lo, seed, hi
        row = eta[line]  # the eta of every bracket
        f, df, d2f = evaluate(mode[:, None], row[:, None] + 1j * points)
        value = np.abs(f)
        s = points[np.arange(len(points)), value.argmin(axis=1)]
        least = value.min(axis=1)
        falling = (df / f).imag  # -phi'/(2 phi)
        dip = (falling[:, 0] > 0.0) & (falling[:, 2] < 0.0) | (value[:, 1] < np.minimum(value[:, 0], value[:, 2]))
        active = np.flatnonzero(dip)
        mode, row, (lo, t, hi) = mode[active], row[active], points[active].T
        f, df, d2f = f[active, 1], df[active, 1], d2f[active, 1]
        floor = 4.0 * np.finfo(float).eps * (np.abs(t) + half[brackets][active])
        for _ in range(64):  # bisection alone shrinks a bracket to rounding in 53 steps
            u, v = df / f, d2f / f
            lo, hi = np.where(u.imag > 0.0, t, lo), np.where(u.imag < 0.0, t, hi)
            step = u.imag / (np.abs(u) ** 2 - v.real)
            take = (lo <= t + step) & (t + step <= hi)
            done = take & ((step * u.imag <= 1e-14) | (np.abs(step) <= floor)) | (hi - lo <= floor)
            if done.all():
                break
            t = np.where(take, t + step, 0.5 * (lo + hi))[~done]
            active, mode, row, lo, hi, floor = (a[~done] for a in (active, mode, row, lo, hi, floor))
            f, df, d2f = evaluate(mode, row + 1j * t)
            better = np.abs(f) < least[active]
            s[active] = np.where(better, t, s[active])
            least[active] = np.where(better, np.abs(f), least[active])
    at, minimum = np.zeros(seeds.shape), np.full(seeds.shape, np.inf)
    at[brackets], minimum[brackets] = s, least
    best = np.argmin(minimum, axis=-1)[..., None]
    return np.take_along_axis(at, best, -1)[..., 0], np.take_along_axis(minimum, best, -1)[..., 0]


def check_eta_min(eta_min: float) -> float:
    """eta_min as a float; a ValueError starting "eta_min" unless it is finite and > 0 with 4*eta_min finite."""
    eta_min = float(eta_min)
    if not (eta_min > 0.0 and math.isfinite(4.0 * eta_min)):
        raise ValueError(f"eta_min must be finite and > 0, with 4*eta_min finite, got {eta_min}")
    return eta_min


def _scan(ks: list, terms: list, coef: complex, eta: np.ndarray, width: int) -> list[PenroseReport]:
    """The PenroseReports of the modes ks, each with pole terms, in one pass;
    see penrose_margins."""
    # numpy sums a row of complex terms in blocks of four and adds the last
    # n % 4 one by one; a mode's own terms take the leading blocks and the
    # last slots of a row of width 3 mod 4, so the sums over its padded row
    # are those over its n terms alone, bit for bit (while the row is at
    # most 64 terms, which numpy does not split)
    count = np.array([c.size for c, _ in terms])
    slot = np.arange(width)
    own = (slot < count[:, None] - count[:, None] % 4) | (slot >= width - count[:, None] % 4)
    c, omega = np.zeros(own.shape), np.empty(own.shape)
    for i, (ci, wi) in enumerate(terms):
        c[i, own[i]], omega[i] = ci, wi[0]  # a padding term has c = 0 at the mode's first pole
        omega[i, own[i]] = wi

    def evaluate(modes, lam):
        return _dispersion_derivatives(c[modes], omega[modes], coef, lam)

    # det(lambda - A) = prod_j (lambda - i*omega_j) * F_k(lambda) for the
    # diagonal-plus-rank-one A below (its secular equation), and no c_j
    # vanishes, so the eigenvalues of A are exactly the zeros of F_k
    z = np.concatenate([np.linalg.eigvals(np.diag(1j * w) + coef * np.outer(ci, np.ones(ci.size))) for ci, w in terms])
    owner = np.repeat(np.arange(len(ks)), count)
    # the first evaluation also takes F_k level with every pole on every line, which seeds the brackets there
    poles = np.broadcast_to(own[:, None, :], (len(ks), eta.size, width))
    mode, line, slot = np.nonzero(poles)
    with np.errstate(all="ignore"):
        f, df, _ = evaluate(np.concatenate([owner, mode]), np.concatenate([z, eta[line] + 1j * omega[mode, slot]]))
        f, df, level = f[: z.size], df[: z.size], f[z.size :]
        for _ in range(NEWTON_POLISH):
            newton = z - f / df
            f_new, df_new, _ = evaluate(owner, newton)
            better = np.abs(f_new) < np.abs(f)
            z, f, df = np.where(better, newton, z), np.where(better, f_new, f), np.where(better, df_new, df)
        residual = np.abs(f)
        size = np.abs(coef * c[owner] / (z[:, None] - 1j * omega[owner])).sum(axis=-1)
        rounding = np.finfo(float).eps * (1.0 + size)
        reach = z.real - 2.0 * np.abs(f / df)  # the real part left after twice the next Newton step
    unresolved = (residual > np.maximum(ZERO_RESIDUAL, rounding)) & (reach > BOUNDARY_RE)
    if unresolved.any():
        i = int(np.flatnonzero(unresolved)[0])
        raise ValueError(
            f"background: at k={ks[owner[i]]} F_k has a growing zero near {complex(z[i]):.6g} that {NEWTON_POLISH} "
            f"Newton steps leave at residual |F_k| = {residual[i]:.3e} > ZERO_RESIDUAL = {ZERO_RESIDUAL:g}; the "
            "symbol is too strongly coupled for its zeros to be resolved"
        )
    growing = (residual <= ZERO_RESIDUAL) & (z.real > BOUNDARY_RE)
    zeros = np.zeros(own.shape, dtype=complex)
    zeros[own] = z
    s, line = _line_minima(evaluate, -coef * c, omega, poles, zeros, level, eta)
    line = np.minimum(line, 1.0)
    reports = []
    for i, k in enumerate(ks):
        mine = owner == i
        found = sorted((complex(w) for w in z[mine & growing]), key=lambda w: (-w.real, abs(w.imag)))
        eta_lines = [(float(e), float(m)) for e, m in zip(eta, line[i])]
        if found:
            j = int(np.argmin(np.where(mine & growing, residual, np.inf)))
            reports.append(PenroseReport(k, float(residual[j]), complex(z[j]), found, eta_lines))
        else:
            reports.append(PenroseReport(k, float(line[i, 0]), complex(eta[0], s[i, 0]), found, eta_lines))
    return reports


def penrose_margins(bg: BackgroundSymbol, p: float, q: float, ks, eta_min: float = 1e-3) -> list[PenroseReport]:
    """inf |F_k| over Re(lambda) >= eta_min, and the growing zeros, for every k of ks.

    Zeros: every eigenvalue of the matrix in _scan, given at most
    NEWTON_POLISH Newton steps and kept if |F_k| <= ZERO_RESIDUAL there.
    Kept zeros with Re(lambda) > BOUNDARY_RE are growth rates; zeros on
    the imaginary axis are marginal modes, not growth.  An eigenvalue left
    with |F_k| above ZERO_RESIDUAL and above the rounding bound
    eps (1 + sum |coef c_j / (lambda - i omega_j)|) of its evaluation, yet
    with Re(lambda) - 2 |F_k / F_k'| > BOUNDARY_RE, so that Newton's method
    is still heading for a zero inside the growing half-plane, is a growing
    zero the polish did not resolve (strong coupling puts the eigenvalues
    far from the zeros): a ValueError starting "background" names the first
    such k of ks and its residual, rather than a stable verdict.  Other
    eigenvalues above ZERO_RESIDUAL are dropped: there |F_k| is rounding,
    or Newton's method points at the imaginary axis, where zeros are
    marginal.

    Margin: with a growing zero, the smallest residual at one.  Otherwise
    the minimum of |F_k| on the line Re(lambda) = eta_min, capped at 1, the
    limit at infinity: _line_minima brackets it at the zeros and beside
    the poles and runs Newton's method on d|F_k|^2/ds = 0 with the exact
    derivatives, falling back to bisection.  eta_line_margins holds the same
    capped line minimum at eta_min, 2*eta_min and 4*eta_min; a margin that
    doubles with eta_min shows zeros on the imaginary axis.

    Only the eigenvalues are taken mode by mode.  Every mode's pole terms
    are padded with c = 0 to one width, 2(2J+1) + 1, so the polish and the
    line minima of all modes run as one batch, in passes of at most
    SCAN_ENTRIES evaluator entries; each mode's report is the same whatever
    modes share its pass, and (for J <= 15) the same as its own terms alone
    give.
    """
    _check_finite(p=p, q=q)
    eta_min = check_eta_min(eta_min)
    ks = list(ks)
    terms = [_kernel_terms(bg, p, k) for k in ks]
    eta = eta_min * np.array([1.0, 2.0, 4.0])
    reports = [PenroseReport(k, 1.0, complex(eta[0]), [], [(float(e), 1.0) for e in eta]) for k in ks]
    live = [i for i, (c, _) in enumerate(terms) if c.size]
    width = 4 * bg.J + 3  # the 2(2J+1) terms a mode can have, and one slot
    # the largest evaluation reads the bracket ends: 3 lines x 2 width seeds x 3 points, each over width terms
    per_pass = max(1, SCAN_ENTRIES // (18 * width * width))
    coef = 1j * q / TWO_PI
    for start in range(0, len(live), per_pass):
        batch = live[start : start + per_pass]
        for i, report in zip(batch, _scan([ks[i] for i in batch], [terms[i] for i in batch], coef, eta, width)):
            reports[i] = report
    return reports


def penrose_margin(bg: BackgroundSymbol, p: float, q: float, k: int, eta_min: float = 1e-3) -> PenroseReport:
    """inf |F_k| over Re(lambda) >= eta_min, and the growing zeros: the one
    report of penrose_margins for (k,)."""
    return penrose_margins(bg, p, q, (k,), eta_min)[0]


# ---- time-side oracle ----


def free_density(u0: OperatorMatrix, p: float, k: int, t) -> np.ndarray:
    """rho_hat_free(k, t) = sum_j exp(i*p*k*(2j+k)*t) * U0_{j+k, j}.

    The frequencies p*k*(2j+k) step by 2*p*k and are symmetric about 0,
    so with w = exp(i*p*k*t) and z = w^2 the sum is a Laurent polynomial
    in z, evaluated by Horner's rule outward from its centre: the upper
    half of the diagonal in z, the lower half in conj(z), and for odd k a
    last factor w or conj(w).  That is one complex exponential per time
    point and about 2N+1-|k| complex multiply-adds, against one
    exponential per (time point, entry) of the term-by-term sum.  No
    phase is accumulated past the largest |p*k*(2j+k)*t|, so both routes
    share one error scale: the rounding of that phase, eps*|p*k*(2j+k)*t|
    relative to sum |U0_{j+k, j}|.

    Reads the diagonal with np.diagonal, not spectral's diagonal helpers,
    on purpose: it feeds the Volterra oracle that is checked against
    linearized_evolve, which uses spectral.diagonal_stack.
    """
    if k == 0:
        raise ValueError("k = 0 carries no free oscillation; use the trace")
    nm = u0.grid.n_modes
    if abs(k) >= nm:
        raise ValueError(f"|k|={abs(k)} outside the band of the matrix")
    d = np.diagonal(u0.entries, offset=-k)  # d[m] has frequency p*k*(2m - (size - 1))
    t = np.asarray(t, dtype=float)
    w = np.exp(1j * (p * k) * t)
    z = w * w
    zbar = z.conj()
    centre, odd = divmod(d.size, 2)  # d[centre] has exponent 0 in z (odd size), else 1 in w
    upper = np.zeros(t.shape, dtype=complex)  # sum over m >= centre of d[m] z^(m - centre)
    lower = np.zeros(t.shape, dtype=complex)  # sum over m < centre of d[m] zbar^(centre - 1 - m)
    for c in d[centre:][::-1]:
        upper *= z
        upper += c
    for c in d[:centre]:
        lower *= zbar
        lower += c
    out = upper + zbar * lower if odd else w * upper + w.conj() * lower
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

    t_grid must be finite, uniform and start at 0.  Phi_k is a sum of
    exponentials c_j exp(i*omega_j*tau), so the trapezoid history sum splits
    into one running sum per term, S_j <- exp(i*omega_j*dt)(S_j + rho_i) from
    S_j = rho_0/2 * exp(i*omega_j*dt).  With g_i = rho_free_i / denom,
    a = (coef*dt/denom) c and P = exp(i*omega*dt) that march is the linear
    recurrence rho_i = g_i + a.S_{i-1}, S_i = A S_{i-1} + P g_i with the step
    A = diag(P) + P a^T, and it is run in blocks of L ~ sqrt(n) steps: in a
    block rho = g + T g + G S_start, with T the strictly lower-triangular
    Toeplitz matrix of h_m = a A^m P and the rows of G the a A^l, and the
    block ends in S = A^L S_start + K g, the columns of K the A^(L-1-j) P.
    The tables take only powers of A; the products with g run for every
    block at once, and the one Python loop carries S over the O(sqrt(n))
    block starts.  A growing solution overflows to inf/nan entries without
    a numpy warning.  Warns when the step undersamples the fastest kernel
    oscillation (dt > 0.1 / max|omega|).
    """
    t = np.asarray(t_grid, dtype=float)
    _check_finite(p=p, q=q, u0=u0.entries, t_grid=t)
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
    a = (coef * dt / denom) * c
    step = np.diag(phase) + np.outer(phase, a)
    steps = t.size - 1
    length = math.isqrt(steps)
    blocks = -(-steps // length)
    g = np.zeros(blocks * length, dtype=complex)
    g[:steps] = rho_free[1:] / denom
    g = g.reshape(blocks, length)
    with np.errstate(over="ignore", invalid="ignore"):
        powers = np.eye(c.size, dtype=complex)[None]  # A^0 .. A^(m-1), doubled to A^L
        while len(powers) <= length:
            powers = np.concatenate([powers, powers @ (powers[-1] @ step)])
        rows, jump = a @ powers[:length], powers[length]
        lag = np.subtract.outer(np.arange(length), np.arange(length)) - 1
        toeplitz = np.where(lag >= 0, (rows @ phase)[lag.clip(0)], 0.0)
        kick = g @ (powers[length - 1 :: -1] @ phase)
        starts = np.empty((blocks, c.size), dtype=complex)
        history = 0.5 * rho_free[0] * phase
        for b in range(blocks):
            starts[b] = history
            history = jump @ history + kick[b]
        rho = g + g @ toeplitz.T + starts @ rows.T
    return np.concatenate([rho_free[:1], rho.ravel()[:steps]])


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
    with np.errstate(over="ignore", invalid="ignore"):  # numpy scalars overflow to inf, as floats do
        a = c_bilinear * abs(q) * gamma_h1s1
        b = abs(q) * gamma_l1 / (TWO_PI * kappa)
        c_gamma_eta = 1.0 + a * (1.0 + b / eta) / eta
        c_star = 3.0 * (1.0 + a + a * b)
        c_q = c_bilinear * abs(q)
        try:
            window = 8.0 * c_star**2 * c_q
        except OverflowError:  # a float power past the float range raises
            window = math.inf
    derived = {"c_gamma_eta": c_gamma_eta, "c_star": c_star, "8*c_star**2*c_q": window}
    for name, value in derived.items():
        if not math.isfinite(value):
            given = ", ".join(f"{key}={v:.6g}" for key, v in inputs.items())
            raise ValueError(f"constants are not finite: {name} = {value} from {given}")
    c_gamma = window ** (-0.2)
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
