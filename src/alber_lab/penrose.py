"""Linear stability of homogeneous backgrounds: Volterra kernels, the
dispersion function on the Laplace side, its Penrose margin, the constants
entering the polynomial-propagator and stable-window estimates (margin_report
runs both), and perturbation_run, which measures the window on a perturbed run.

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
line Re(lambda) = eta_min (maximum modulus principle; Penrose 1960),
the only line the scan reads; another line is a scan at another eta_min.
F_k and its first two derivatives come from one pass over its pole terms
(_dispersion_derivatives): they polish the zeros by Newton's method and
find the line minimum by a safeguarded Newton iteration on the derivative
of |F_k|^2.  penrose_margins scans the modes of a background at once:
each mode's pole terms are padded with c = 0 to one width, so the polish
and the line minima of all modes run through one evaluator and one
Newton loop, and only the eigenvalues are taken mode by mode.  The scan
runs in lambda/|p|, where the poles are integers, so the dip of |F_k|
beside a pole reads the same at every p.

perturbation_run measures the window on a run: the nonlinear flow of
Gamma + epsilon*U0 on the full grid beside the linearized flow of
epsilon*U0, which runs on the mode box |m|, |n| <= J + 2*seed_band only.
For U0 on |n| <= seed_band that is exact: the flow never mixes the
diagonals k = m - n, the live ones have |k| <= 2*seed_band, and an entry
outside the box has Gh(m) = Gh(n) = 0 and starts at zero, so it is never
coupled and stays zero.

On the time side, volterra_solve marches the density equation as a
linear recurrence with one running sum per kernel term.  Its forcing,
free_density, is a sum of equally spaced frequencies p*k*(2j+k), so it is
a Laurent polynomial in exp(2i*p*k*t) evaluated by Horner's rule: one
complex exponential and about 2N+1-|k| multiply-adds per time point.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .dynamics import EvolveConfig, _block_records, _linearized_blocks, _split_step, _trusted
from .inequalities import EnsembleConfig, run_checks
from .presets import random_hermitian_perturbation
from .spectral import TWO_PI, SpectralGrid, _check_finite, _check_int
from .states import BackgroundSymbol, NotNonNegativeError, OperatorMatrix, _check_hermitian, _factored_trace_norm
from .states import background_to_matrix, background_to_state, eigendecompose

ZERO_RESIDUAL = 1e-8
BOUNDARY_RE = 1e-9
NEWTON_POLISH = 2
# evaluator entries (points x pole terms) that one pass of penrose_margins may hold
SCAN_ENTRIES = 2**17
# the largest rounding bound of |F_k| at a line minimum, relative to that minimum, that penrose_margins accepts
MARGIN_ROUNDING = 2.0**-9


class UnstableBackgroundError(ValueError):
    """Constants that require a positive Penrose margin were requested without one."""


def _kernel_terms(bg: BackgroundSymbol, p: float, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Nonzero coefficients c_j = Gh(j+k) - Gh(j) and frequencies p*k*(2j+k); a
    ValueError starting "p " if p is not finite or p*k*(2j+k) is past the float range for a j of the sum."""
    _check_int(k=k)
    if k == 0:
        raise ValueError("the k = 0 mode is conserved; kernels are defined for k != 0")
    _check_finite(p=p)
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
    _check_finite(tau=tau)
    out = np.sum(c * np.exp(1j * np.multiply.outer(tau, omega)), axis=-1)
    return out if out.shape else complex(out)


def laplace_symbol(bg: BackgroundSymbol, p: float, k: int, lam) -> np.ndarray:
    """Phitilde_k(lambda) = sum_j c_j / (lambda - i*omega_j), Re(lambda) > 0."""
    lam = np.asarray(lam, dtype=complex)
    _check_finite(lam=lam)
    if np.any(lam.real <= 0.0):
        raise ValueError("the Laplace symbol is defined on the open half-plane Re(lambda) > 0")
    c, omega = _kernel_terms(bg, p, k)
    out = np.sum(c / (lam[..., None] - 1j * omega), axis=-1)
    return out if out.shape else complex(out)


def dispersion(bg: BackgroundSymbol, p: float, q: float, k: int, lam) -> np.ndarray:
    """F_k(lambda) = 1 - (i*q/2pi) * Phitilde_k(lambda)."""
    _check_finite(q=q)
    return 1.0 - (1j * q / TWO_PI) * laplace_symbol(bg, p, k, lam)


@dataclass
class PenroseReport:
    k: int
    margin: float
    argmin_lambda: complex
    zeros: list

    def to_dict(self) -> dict:
        return {
            "k": self.k,
            "margin": self.margin,
            "argmin_lambda": [self.argmin_lambda.real, self.argmin_lambda.imag],
            "zeros": [[z.real, z.imag] for z in self.zeros],
        }


def _dispersion_derivatives(c: np.ndarray, offset: np.ndarray, coef: complex, lam) -> tuple:
    """F_k, F_k' and F_k'' at the points i*m + lam from one pass over the pole
    terms, given offset_j = i*(m - omega_j) for each point's integer m, with
    r_j = 1/(lam + offset_j) and coef = i*q/2pi:
    F = 1 - coef*sum c r, F' = coef*sum c r^2, F'' = -2*coef*sum c r^3."""
    gap = np.asarray(lam, dtype=complex)[..., None] + offset
    term2 = c / gap**2
    return 1.0 - coef * (c / gap).sum(axis=-1), coef * term2.sum(axis=-1), -2.0 * coef * (term2 / gap).sum(axis=-1)


def _line_minima(c, coef, omega, poles, zeros, level, eta) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Im(lambda) = m + delta and value of min |F_k| on the line
    Re(lambda) = eta, for every mode of a pass: arrays of shape (modes,).

    c and omega hold each mode's pole terms padded to one width, zeros its
    eigenvalues in the slots of its own terms, poles marks those slots, and
    level holds F_k at eta + i*omega there; all are (modes, width) arrays.
    The local minima sit near the zeros of F_k or beside its poles.  Near
    the pole i*omega_j the line sees F_k ~ B_j + residue_j/(lambda - i*omega_j),
    residue = -coef*c, whose pole term runs over a circle through 0 and
    residue_j/eta; the seed there is the point where the shifted circle
    comes closest to 0.  Every seed is bracketed by half its distance to the
    nearest pole.  A padding slot seeds no bracket, and its pole repeats one
    of the mode's own, so it moves no half-width.  The poles are integers,
    and a bracket holds its points as offsets delta from an integer m, the
    pole it sits beside or the one nearest its zero, so its terms read
    1/(eta + i(delta + (m - omega_j))) with m - omega_j exact; it runs in
    delta/unit, unit the power of 2 just above eta + its half-width, so
    F_k' and F_k'' (per unit) stay in the float range however narrow its dip.

    Along the line phi(s) = |F_k(eta + i*s)|^2 has phi' = -2 Im(conj(F) F')
    and phi'' = 2(|F'|^2 - Re(conj(F) F'')), F' = dF_k/dlambda; divided by
    phi, with u = F'/F and v = F''/F, they are -2 Im u and 2(|u|^2 - Re v),
    so the search reads the same at any amplitude of the symbol.  Both ends
    and the seed of every bracket are evaluated once.  Where phi falls at
    the lower end and rises at the upper one, or the seed lies below both
    ends, Newton's method on phi' = 0 starts at the seed: each point moves
    the end of its side of the minimum, a Newton point off the bracket
    falls back to bisection, and a bracket stops once its Newton step would
    lower phi by at most 1e-14 relative or move delta by rounding only.  Any
    other bracket keeps the smaller end.  All brackets of all modes take
    their steps together, each one reports its smallest evaluated |F_k|,
    and each mode its first smallest bracket in the order zeros, then
    poles.  No step reads another bracket, so a mode's minimum does not
    depend on the modes that share its pass.
    """
    residue = -coef * c
    centre = residue / (2.0 * eta)  # (modes, width)
    with np.errstate(all="ignore"):  # shifted may vanish, and gap**2 overflows once |lambda| > 1e154
        shifted = np.zeros_like(centre)
        shifted[poles] = level - centre[poles]
        nearest = centre - np.abs(centre) * shifted / np.abs(shifted)
        beside = np.nan_to_num((residue / nearest).imag, posinf=0.0, neginf=0.0)
        brackets = np.concatenate([poles, poles], axis=-1)
        mode, _ = np.nonzero(brackets)
        m = np.concatenate([np.rint(zeros.imag), omega], -1)[brackets]  # the integer each bracket is read from
        seeds = np.concatenate([zeros.imag - np.rint(zeros.imag), beside], -1)[brackets]
        offset = 1j * (m[:, None] - omega[mode])  # i(m - omega_j), taken once for every step of a bracket
        half = 0.5 * np.abs(seeds[:, None] + offset.imag).min(axis=-1)
        unit = np.ldexp(1.0, np.frexp(eta + half)[1])  # a power of 2, so each step only scales the search exactly
        c_unit, offset, eta_unit = c[mode] / unit[:, None], offset / unit[:, None], eta / unit
        points = (seeds[:, None] + half[:, None] * np.array([-1.0, 0.0, 1.0])) / unit[:, None]  # lo, seed, hi
        f, df, d2f = _dispersion_derivatives(c_unit[:, None], offset[:, None], coef, eta_unit[:, None] + 1j * points)
        value = np.abs(f)
        s = points[np.arange(len(points)), value.argmin(axis=1)]
        least = value.min(axis=1)
        falling = (df / f).imag  # -phi'/(2 phi)
        dip = (falling[:, 0] > 0.0) & (falling[:, 2] < 0.0) | (value[:, 1] < np.minimum(value[:, 0], value[:, 2]))
        active = np.flatnonzero(dip)
        lo, t, hi = points[active].T
        f, df, d2f = f[active, 1], df[active, 1], d2f[active, 1]
        floor = 4.0 * np.finfo(float).eps * (np.abs(t) + half[active] / unit[active])
        for _ in range(64):  # bisection alone shrinks a bracket to rounding in 53 steps
            u, v = df / f, d2f / f
            lo, hi = np.where(u.imag > 0.0, t, lo), np.where(u.imag < 0.0, t, hi)
            step = u.imag / (np.abs(u) ** 2 - v.real)
            take = (lo <= t + step) & (t + step <= hi)
            done = take & ((step * u.imag <= 1e-14) | (np.abs(step) <= floor)) | (hi - lo <= floor)
            if done.all():
                break
            t = np.where(take, t + step, 0.5 * (lo + hi))[~done]
            active, lo, hi, floor = (a[~done] for a in (active, lo, hi, floor))
            f, df, d2f = _dispersion_derivatives(c_unit[active], offset[active], coef, eta_unit[active] + 1j * t)
            better = np.abs(f) < least[active]
            s[active] = np.where(better, t, s[active])
            least[active] = np.where(better, np.abs(f), least[active])
    at, minimum = np.zeros((2, *brackets.shape)), np.full(brackets.shape, np.inf)
    at[:, brackets], minimum[brackets] = (m, s * unit), least
    best = np.argmin(minimum, axis=-1)[:, None]
    return *np.take_along_axis(at, best[None], -1)[..., 0], np.take_along_axis(minimum, best, -1)[:, 0]


def check_eta_min(eta_min: float) -> float:
    """eta_min as a float; a ValueError starting "eta_min" unless it is a normal float > 0 with 2*eta_min finite
    (the scan reads residue / (2*eta_min/|p|))."""
    eta_min = float(eta_min)
    if not (eta_min >= np.finfo(float).tiny and math.isfinite(2.0 * eta_min)):
        raise ValueError(f"eta_min must be finite and > 0, a normal float with 2*eta_min finite, got {eta_min}")
    return eta_min


def _scan(ks: list, terms: list, coef: complex, eta_min: float, scale: float, width: int) -> list[PenroseReport]:
    """The PenroseReports of the modes ks in one pass, run in lambda/scale, scale = |p|; see penrose_margins."""
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
        c[i, own[i]], omega[i] = ci, wi[0] if wi.size else 0.0  # a padding term has c = 0 at the mode's first pole
        omega[i, own[i]] = wi
    eta = eta_min / scale
    # det(lambda - A) = prod_j (lambda - i*omega_j) * F_k(lambda) for the
    # diagonal-plus-rank-one A below (its secular equation), and no c_j
    # vanishes, so the eigenvalues of A are exactly the zeros of F_k
    z = np.concatenate([np.linalg.eigvals(np.diag(1j * w) + coef * np.outer(ci, np.ones(ci.size))) for ci, w in terms])
    owner = np.repeat(np.arange(len(ks)), count)
    at_zero = -1j * omega[owner]  # a zero, and a pole's own point on the line, are read from m = 0
    # the first evaluation also takes F_k level with every pole on the line, which seeds the brackets there
    with np.errstate(all="ignore"):
        f, df, _ = _dispersion_derivatives(c[owner], at_zero, coef, np.stack([z, eta + 1j * omega[own]]))
        f, df, level = f[0], df[0], f[1]
        for _ in range(NEWTON_POLISH):
            newton = z - f / df
            f_new, df_new, _ = _dispersion_derivatives(c[owner], at_zero, coef, newton)
            better = np.abs(f_new) < np.abs(f)
            z, f, df = np.where(better, newton, z), np.where(better, f_new, f), np.where(better, df_new, df)
        residual = np.abs(f)
        size = np.abs(coef * c[owner] / (z[:, None] + at_zero)).sum(axis=-1)
        rounding = np.finfo(float).eps * (1.0 + size)
        reach = z.real - 2.0 * np.abs(f / df)  # the real part left after twice the next Newton step
        edge = np.maximum(BOUNDARY_RE / scale, np.finfo(float).eps * np.abs(z))  # no growth at or below it
        z_scaled = scale * z
    unresolved = (residual > np.maximum(ZERO_RESIDUAL, rounding)) & (reach > edge)
    if unresolved.any():
        i = int(np.flatnonzero(unresolved)[0])
        raise ValueError(
            f"background: at k={ks[owner[i]]} F_k has a growing zero near {complex(z_scaled[i]):.6g} that "
            f"{NEWTON_POLISH} Newton steps leave at residual |F_k| = {residual[i]:.3e} > ZERO_RESIDUAL = "
            f"{ZERO_RESIDUAL:g}; the symbol is too strongly coupled for its zeros to be resolved"
        )
    growing = (residual <= ZERO_RESIDUAL) & (z.real > edge)
    zeros = np.zeros(own.shape, dtype=complex)
    zeros[own] = z
    m, delta, line = _line_minima(c, coef, omega, own, zeros, level, eta)
    with np.errstate(over="ignore"):  # a bound past the float range refuses the margin all the same
        gap = eta + 1j * (delta[:, None] + (m[:, None] - omega))  # at each line minimum, as _line_minima reads it
        bound = np.finfo(float).eps * (1.0 + np.abs(coef * c / gap).sum(axis=-1))  # as the zeros' rounding
    line = np.minimum(line, 1.0)
    reports = []
    for i, k in enumerate(ks):
        mine = owner == i
        found = sorted((complex(w) for w in z_scaled[mine & growing]), key=lambda w: (-w.real, abs(w.imag)))
        if found:
            j = int(np.argmin(np.where(mine & growing, residual, np.inf)))
            reports.append(PenroseReport(k, float(residual[j]), complex(z_scaled[j]), found))
            continue
        if bound[i] > MARGIN_ROUNDING * line[i]:
            raise ValueError(
                f"eta_min = {eta_min:g} is below what double precision resolves: at k={k} F_k has the line "
                f"minimum {line[i]:.3e}, within 1/MARGIN_ROUNDING = {1.0 / MARGIN_ROUNDING:g} times its rounding "
                f"bound {bound[i]:.3e}"
            )
        reports.append(PenroseReport(k, float(line[i]), complex(eta_min, scale * (m[i] + delta[i])), found))
    return reports


def penrose_margins(bg: BackgroundSymbol, p: float, q: float, ks, eta_min: float = 1e-3) -> list[PenroseReport]:
    """inf |F_k| over Re(lambda) >= eta_min, and the growing zeros, for every k of ks.

    Zeros: every eigenvalue of the matrix in _scan, given at most
    NEWTON_POLISH Newton steps and kept if |F_k| <= ZERO_RESIDUAL there.
    Kept zeros with Re(lambda) above the edge, BOUNDARY_RE or the rounding
    eps |lambda| of the eigenvalue, are growth rates; zeros on the
    imaginary axis are marginal modes, not growth.  An eigenvalue left
    with |F_k| above ZERO_RESIDUAL and above the rounding bound
    eps (1 + sum |coef c_j / (lambda - i omega_j)|) of its evaluation, yet
    with Re(lambda) - 2 |F_k / F_k'| above the edge, so that Newton's method
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
    derivatives, falling back to bisection.  F_k(-conj(lambda)) =
    conj(F_k(lambda)), so a mode without a growing zero has all its zeros
    on the imaginary axis and its margin grows about linearly with eta_min;
    the margin on another line is a scan at that eta_min.

    Only the eigenvalues are taken mode by mode.  Every mode's pole terms
    are padded with c = 0 to one width, 2(2J+1) + 1, so the polish and the
    line minima of all modes run as one batch, in passes of at most
    SCAN_ENTRIES evaluator entries; each mode's report is the same whatever
    modes share its pass, and (for J <= 15) the same as its own terms alone
    give.  Only the zero symbol has modes without pole terms; each has
    margin 1 and no zeros.

    The scan runs in lambda/|p|, where the poles are the integers
    sign(p) k (2j+k) and every p reads the same dip beside a pole.  A
    ValueError starting "p " refuses p = 0, p*k*(2j+k) past the float range
    and q/|p| or eta_min/|p| outside the normal floats; one starting
    "eta_min" the first k whose line minimum is below 1/MARGIN_ROUNDING
    times its rounding bound (as the zeros'): double precision cannot
    resolve it.
    """
    _check_finite(p=p, q=q)
    eta_min = check_eta_min(eta_min)
    ks = list(ks)
    terms = [_kernel_terms(bg, math.copysign(1.0, p), k) for k in ks]
    _kernel_terms(bg, p, max(ks, key=abs, default=1))  # the fastest mode refuses a p as the time side does
    scale, tiny = abs(float(p)), np.finfo(float).tiny
    coupling, eta = (abs(q) / scale, eta_min / scale) if scale else (math.inf, math.inf)
    if not (tiny <= eta and math.isfinite(2.0 * eta) and (q == 0.0 or tiny <= coupling < math.inf)):
        raise ValueError(f"p = {p:g} takes q/|p| or eta_min/|p| out of the normal floats the scan in lambda/|p| reads")
    width = 4 * bg.J + 3  # the 2(2J+1) terms a mode can have, and one slot
    # the largest evaluation reads the bracket ends: 2 width seeds x 3 points, each over width terms
    per_pass = max(1, SCAN_ENTRIES // (6 * width * width))
    coef = 1j * q / TWO_PI / scale
    reports = []
    for start in range(0, len(ks), per_pass):
        reports += _scan(ks[start : start + per_pass], terms[start : start + per_pass], coef, eta_min, scale, width)
    return reports


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
    _check_int(k=k)
    if k == 0:
        raise ValueError("k = 0 carries no free oscillation; use the trace")
    nm = u0.grid.n_modes
    if abs(k) >= nm:
        raise ValueError(f"|k|={abs(k)} outside the band of the matrix")
    d = np.diagonal(u0.entries, offset=-k)  # d[m] has frequency p*k*(2m - (size - 1))
    t = np.asarray(t, dtype=float)
    _check_finite(p=p, t=t)
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

    t_grid must be finite, uniform (to 1e-9 of a step, beside the rounding
    of its times) and start at 0.  Phi_k is a sum of
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
    # a step may differ from dt by 1e-9 of dt and by the rounding of the times, at most eps max|t| a time
    rounding = 4.0 * np.finfo(float).eps * np.abs(t).max()
    if dt <= 0 or not np.allclose(np.diff(t), dt, rtol=1e-9, atol=rounding):
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
    inputs = dict(
        gamma_h1s1=gamma_h1s1, gamma_l1=gamma_l1, kappa=kappa, q=q, eta=eta, epsilon=epsilon, c_bilinear=c_bilinear
    )
    _check_finite(**inputs)
    if kappa <= 0.0:
        raise UnstableBackgroundError(f"kappa must be a positive Penrose margin, got {kappa}")
    _check_finite(0, gamma_h1s1=gamma_h1s1, gamma_l1=gamma_l1)
    _check_finite(0, True, eta=eta, epsilon=epsilon, c_bilinear=c_bilinear)
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
    fields = {key: value for key, value in inputs.items() if key != "q"}
    return PropagatorConstants(
        **fields, q_abs=abs(q), c_gamma_eta=c_gamma_eta, c_star=c_star, c_q=c_q, c_gamma=c_gamma, t_star=t_star
    )


# ---- the stable window: the scan and the perturbed run ----


@dataclass
class MarginReport:
    """margin_report's scan, its least margin, its verdict and, if stable, the window constants."""

    reports: list[PenroseReport]
    kappa: float
    stable: bool
    constants: PropagatorConstants | None


def _window_constants(bg: BackgroundSymbol, kappa, q, eta, epsilon, c_bilinear, seed: int) -> PropagatorConstants:
    """propagator_constants of bg, c_bilinear estimated when None (see margin_report)."""
    if c_bilinear is None:
        ensemble = EnsembleConfig(40, SpectralGrid(16), seed=seed)
        c_bilinear = run_checks(ensemble, 1.0, ("bilinear",))[0].empirical_constant
    return propagator_constants(bg.h1s1_norm(), bg.l1_norm(), kappa, q, eta, epsilon, float(c_bilinear))


def margin_report(
    bg: BackgroundSymbol, p: float, q: float, k_max: int = 8, eta_min: float = 1e-3, eta: float = 1.0,
    epsilon: float = 1e-2, c_bilinear: float | None = None, seed: int = 0,
) -> MarginReport:
    """The Penrose scan of k = 1..k_max on the line Re(lambda) = eta_min (penrose_margins).

    Only a stable background (no growing zero) gets the window constants at eta and epsilon,
    c_bilinear defaulting to the bilinear constant of a 40-sample ensemble at N = 16 drawn from
    seed; eta, epsilon and a given c_bilinear are checked before the scan, whatever its verdict.
    """
    _check_finite(0, True, eta=eta, epsilon=epsilon, **({} if c_bilinear is None else {"c_bilinear": c_bilinear}))
    _check_int(1, k_max=k_max)
    reports = penrose_margins(bg, p, q, range(1, k_max + 1), eta_min)
    kappa = min(r.margin for r in reports)
    stable = not any(r.zeros for r in reports)
    constants = _window_constants(bg, kappa, q, eta, epsilon, c_bilinear, seed) if stable else None
    return MarginReport(reports, kappa, stable, constants)


def _hermitian_trace_norm(stack: np.ndarray) -> np.ndarray:
    """Trace norms of a stack of Hermitian matrices, the sums of their |eigenvalues|; a
    ValueError if one is not Hermitian (states._check_hermitian, one call per stack)."""
    _check_hermitian(stack)
    return np.abs(np.linalg.eigvalsh(stack)).sum(axis=-1)


@dataclass
class PerturbationRun:
    """perturbation_run's (t, deviation, linearized deviation, bound) rows, fit, divergence time and
    the constants (with kappa) of the bound."""

    rows: list[tuple[float, float, float, float]]
    horizon: float
    fit_rate: float | None
    diverged_at: float | None
    constants: PropagatorConstants


def perturbation_run(
    bg: BackgroundSymbol, p: float, q: float, grid: SpectralGrid, epsilon: float, T: float | None = None,
    dt: float = 1e-3, kappa: float | None = None, seed_band: int | None = None,
    record_every: int | None = None, fit_window: list[float] | None = None, k_max: int = 6, eta: float = 1.0,
    eta_min: float = 1e-3, c_bilinear: float | None = None, seed: int = 0,
) -> PerturbationRun:
    """Nonlinear against linearized H^1 S^1 deviation from bg of the datum Gamma + epsilon*U0.

    U0 is random Hermitian on |n| <= seed_band (default max(J, 1)), drawn from seed.  The
    constants (c_bilinear as in margin_report) are taken at epsilon, or at 1 for epsilon = 0,
    which has no horizon t_star and needs T.  Without kappa, margin_report scans k = 1..k_max on
    Re(lambda) = eta_min and gives kappa, its least margin, and the constants; a scan that finds a
    growing zero leaves no margin, and an UnstableBackgroundError starting "kappa" names k and the
    zero.  Both flows run T in whole steps dt and are read side by side a block of records at a
    time (dynamics._linearized_blocks and _split_step, no object per record); the run stops at
    the first record after t = 0 outside the trust region (_trusted).  A block holds as many
    records as BLOCK_ENTRIES holds of a record's arrays in both flows: the factors of the
    nonlinear norm on the grid, the live diagonals and the matrix of the linearized flow on its
    box.  Each stacked QR, SVD and eigvalsh takes a record's matrix as if alone, so the rows have
    the same bits at any block length.  The linearized flow and
    its norm run on the mode box |m|, |n| <= L = min(N, max(1, J + 2 seed_band)), epsilon*U0
    cut to it, which is exact: the flow never mixes the diagonals k = m - n and only
    |k| <= 2 seed_band are live, so an entry outside the box has Gh(m) = Gh(n) = 0, starts at
    zero and stays zero, and the rows left out would add only zero eigenvalues.  The datum, the
    nonlinear flow and its norm stay on the full grid.  The bound is 2 c_star (1 + t^2) epsilon,
    fit_rate the slope of log(deviation) in fit_window.
    """
    _check_finite(0, epsilon=epsilon)
    _check_finite(0, True, **({} if T is None else {"T": T}), dt=dt)
    if epsilon == 0 and T is None:
        raise ValueError("T is required when epsilon is 0 (no intrinsic horizon)")
    if fit_window is not None and not (len(fit_window) == 2 and fit_window[0] < fit_window[1]):
        raise ValueError(f"fit_window must be [t_lo, t_hi] with t_lo < t_hi, got {fit_window}")
    if grid.N < bg.J:
        raise ValueError(f"grid.N={grid.N} cannot hold the support J={bg.J} of the background")
    check_eta_min(eta_min)  # also when a given kappa leaves it unread, as k_max
    _check_int(1, k_max=k_max)
    seed_band = max(bg.J, 1) if seed_band is None else seed_band
    _check_int(0, seed_band=seed_band)
    if seed_band > grid.N:
        raise ValueError(f"seed_band={seed_band} outside 0..{grid.N} (the grid N)")
    u0 = random_hermitian_perturbation(grid, seed_band, np.random.default_rng(seed))
    window_epsilon = epsilon if epsilon > 0 else 1.0  # the epsilon the constants are taken at
    if kappa is None:
        report = margin_report(bg, p, q, k_max, eta_min, eta, window_epsilon, c_bilinear, seed)
        if not report.stable:
            growing = next(r for r in report.reports if r.zeros)
            raise UnstableBackgroundError(
                f"kappa: the background has no Penrose margin: F_k has the growing zero {growing.zeros[0]:.6g} "
                f"at k={growing.k}; pass kappa to run it anyway"
            )
        consts = report.constants
    else:
        consts = _window_constants(bg, kappa, q, eta, window_epsilon, c_bilinear, seed)

    # the linearized flow's mode box, the modes -L..L of the grid (SpectralGrid needs L >= 1)
    box = SpectralGrid(min(grid.N, max(1, bg.J + 2 * seed_band)))
    cut = slice(grid.N - box.N, grid.N + box.N + 1)
    lin_u0 = OperatorMatrix(box, epsilon * u0.entries[cut, cut], hermitian=True)
    try:
        datum = eigendecompose(
            OperatorMatrix(grid, background_to_matrix(bg, grid).entries + epsilon * u0.entries, hermitian=True)
        )
    except NotNonNegativeError as exc:
        raise ValueError(f"epsilon: the perturbed datum is not a state: {exc}") from exc
    del u0  # no dense matrix of the grid is held through the record blocks
    horizon = consts.t_star if T is None else T
    if not math.isfinite(horizon / dt):
        raise ValueError(f"dt must give a finite number of steps, got T={horizon}, dt={dt}")
    # the run takes whole steps, so the horizon it reports is steps * dt
    steps = max(1, int(round(horizon / dt)))
    horizon = steps * dt
    record_every = max(1, steps // 200) if record_every is None else record_every
    run_cfg = EvolveConfig(p, q, dt, horizon, record_every)

    # <D>(gamma(t) - Gamma)<D> = F C F* with F = <D>[orbitals(t)^T | plane waves of Gamma] and
    # C = diag(mu, -Gamma_hat(supp)), whose trace norm is taken in factor space (rank r + |supp|)
    weight = grid.brackets_sq() ** 0.5
    bg_state = background_to_state(bg, grid)
    rank, columns = datum.weights.size, datum.weights.size + bg_state.weights.size
    core = np.diag(np.concatenate([datum.weights, -bg_state.weights]))
    records = _split_step(grid, datum.weights, datum.orbitals, run_cfg)
    lin_weight = weight[cut]
    # a record of a block holds the factors F on the grid and, on the box, the live diagonals
    # |k| <= 2 seed_band with the zero row that stands for the dead ones, and the gathered matrix;
    # BLOCK_ENTRIES bounds their sum, so a block's memory grows neither with N nor with the run
    diagonal_rows = 4 * min(seed_band, box.N) + 2
    per_record = grid.n_modes * columns + box.n_modes * (diagonal_rows + box.n_modes)
    length = min(_block_records(per_record), -(-steps // record_every) + 1)  # at most the run's records
    # F's plane-wave columns are the same in every record, so they are written once
    factors = np.empty((length, grid.n_modes, columns), dtype=complex)
    factors[:, :, rank:] = weight[:, None] * bg_state.orbitals.T
    rows, diverged_at = [], None
    # both flows advance a block of records at a time; the norms of a block are two stacked calls
    for times, _, _, _, lin_stack in _linearized_blocks(lin_u0, bg, run_cfg, 1, length):
        block = factors[: times.size]
        for j, (_, orbitals) in enumerate(itertools.islice(records, times.size)):
            np.multiply(weight[:, None], orbitals.T, out=block[j, :, :rank])
        devs = _factored_trace_norm(block, core)
        # the explicit linearized step can overflow, and a matrix that is not finite has no spectrum:
        # its norm is inf, and the stacked call, which takes each matrix alone, reads it as zero
        with np.errstate(over="ignore", invalid="ignore"):
            lin_stack *= lin_weight[:, None]
            lin_stack *= lin_weight
            finite = np.isfinite(lin_stack).all(axis=(-2, -1))
            lin_stack[~finite] = 0.0
            lin_devs = np.where(finite, _hermitian_trace_norm(lin_stack), math.inf)
        # the datum's own row is always kept, so there is a last good time
        bad = np.flatnonzero(~_trusted(devs, lin_devs) & (times > 0.0))
        good = bad[0] if bad.size else times.size
        t = times[:good]
        bound = 2.0 * consts.c_star * (1.0 + t * t) * epsilon
        rows += zip(t.tolist(), devs[:good].tolist(), lin_devs[:good].tolist(), bound.tolist())
        if bad.size:
            diverged_at = float(times[good])
            break
    fit_rate = None
    if fit_window is not None:
        lo, hi = fit_window
        pts = [(t, math.log(dev)) for t, dev, *_ in rows if dev > 0 and lo <= t <= hi]
        if len(pts) >= 2:
            ts, ys = zip(*pts)
            fit_rate = float(np.polyfit(ts, ys, 1)[0])
    return PerturbationRun(rows, horizon, fit_rate, diverged_at, consts)
