"""Transform round trips, norms, and the lattice Bessel constant.

Expected values are closed forms computed by hand and frozen here:
    sum_n 1/(1+n^2) = pi*coth(pi)           (classical lattice sum)
    int_0^{2pi} cos^4 = 3*pi/4
    B_20 brute-forced over |n| <= 2*10^5    (tail < 1e-90)
"""

import itertools
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

import alber_lab as al
from alber_lab.spectral import (
    TWO_PI,
    _check_finite,
    _fft,
    _ifft,
    _offsets,
    analyze_batch,
    diagonal_sums,
    fft_friendly_size,
    synthesize_batch,
    toeplitz,
)

from conftest import named_first

COTH_PI_HALF = 0.5018709365986607  # coth(pi)/2 to 16 digits
B20_BRUTE = 0.15915524665586178  # (1 + 2*2^-20 + 2*5^-20 + ...)/(2*pi)


def mode_coeffs(grid, n, coeff):
    """Coefficients on modes -N..N of the single mode coeff * e_n."""
    c = np.zeros(grid.n_modes, dtype=complex)
    c[n + grid.N] = coeff
    return c


class TestSpectralGrid:
    def test_mode_layout(self, grid8):
        assert grid8.n_modes == 17
        assert grid8.modes()[0] == -8 and grid8.modes()[-1] == 8
        assert grid8.M >= 2 * (2 * 8 + 1)
        x = grid8.points()
        assert x[0] == 0.0
        assert np.allclose(np.diff(x), TWO_PI / grid8.M)

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            al.SpectralGrid(0)
        with pytest.raises(ValueError):
            al.SpectralGrid(8, M=10)  # below the oversampling floor

    def test_explicit_m_accepted(self):
        g = al.SpectralGrid(4, M=64)
        assert g.M == 64

    def test_fft_friendly_size(self):
        for m in (3, 17, 257):
            sz = fft_friendly_size(m)
            assert sz >= m
            k = sz
            for prime in (2, 3, 5):
                while k % prime == 0:
                    k //= prime
            assert k == 1

    def test_fft_friendly_size_is_the_walk(self):
        # the search over 2^a 3^b 5^c gives what a walk up one integer at a time gives
        def five_smooth(k):
            for prime in (2, 3, 5):
                while k % prime == 0:
                    k //= prime
            return k == 1

        want = 1
        for m in range(1, 20001):
            want = want if want >= m else next(k for k in itertools.count(m) if five_smooth(k))
            assert fft_friendly_size(m) == want

    def test_huge_cutoff_refused(self):
        # a grid numpy cannot index is refused before any array of it is made
        with pytest.raises(ValueError, match=named_first("N")):
            al.SpectralGrid(10**300)
        with pytest.raises(ValueError, match=named_first("N")):
            al.SpectralGrid(4, M=2**63)


BOOLS = [True, False, np.True_, np.False_]
FRACTIONS = hst.floats().filter(lambda v: not v.is_integer())  # nan and +-inf among them


class TestGridSizesAreInts:
    """N and M are Python ints: an int, a numpy integer or an integral float,
    never a bool or a fraction (SpectralGrid(2.5) once had the wavenumbers
    -2.5 .. 2.5 and SpectralGrid(4, 18.5) kept M = 18.5)."""

    @settings(max_examples=60, deadline=None)
    @given(n=hst.one_of(FRACTIONS, hst.sampled_from(BOOLS)))
    def test_n_refused(self, n):
        with pytest.raises(ValueError, match=named_first("N")):
            al.SpectralGrid(n)

    @settings(max_examples=60, deadline=None)
    @given(m=hst.one_of(FRACTIONS, hst.sampled_from(BOOLS)))
    def test_m_refused(self, m):
        with pytest.raises(ValueError, match=named_first("M")):
            al.SpectralGrid(4, m)

    @pytest.mark.parametrize(
        "n, m", [(4.0, 0), (np.int64(4), np.int32(18)), (np.float64(4.0), 18.0), (4, np.uint8(18))]
    )
    def test_integral_values_stored_as_python_ints(self, n, m):
        # M = 0 takes the default, 18 at N = 4
        grid = al.SpectralGrid(n, m)
        assert type(grid.N) is int and type(grid.M) is int
        assert grid == al.SpectralGrid(4, 18)
        assert type(grid.n_modes) is int and grid.modes().dtype.kind == "i"


class TestSynthesizeAnalyze:
    def test_zero_field(self, grid8):
        assert np.all(synthesize_batch(grid8, np.zeros(grid8.n_modes)) == 0)

    def test_constant_mode(self, grid8):
        s = synthesize_batch(grid8, mode_coeffs(grid8, 0, math.sqrt(TWO_PI)))
        assert np.allclose(s, 1.0, atol=1e-13)

    def test_plane_wave_closed_form(self, grid8):
        c = mode_coeffs(grid8, 1, math.sqrt(TWO_PI))
        s = synthesize_batch(grid8, c)
        assert np.allclose(s, np.exp(1j * grid8.points()), atol=1e-12)
        back = analyze_batch(grid8, s)
        assert np.abs(back - c).max() < 1e-12

    def test_all_ones_samples(self, grid8):
        coeffs = analyze_batch(grid8, np.ones(grid8.M, dtype=complex))
        assert abs(coeffs[grid8.N] - math.sqrt(TWO_PI)) < 1e-12
        coeffs[grid8.N] = 0.0
        assert np.abs(coeffs).max() < 1e-12

    def test_random_round_trip(self, grid16, rng):
        c = rng.standard_normal(grid16.n_modes) + 1j * rng.standard_normal(grid16.n_modes)
        back = analyze_batch(grid16, synthesize_batch(grid16, c))
        assert np.abs(back - c).max() < 1e-12 * np.abs(c).max()

    def test_out_of_band_discarded(self, grid8):
        # e^{i(N+1)x} is orthogonal to every retained mode on the M-point rule
        x = grid8.points()
        c = analyze_batch(grid8, np.exp(1j * (grid8.N + 1) * x))
        assert al.sobolev_norm(c, 0.0) < 1e-12

    def test_length_mismatch_rejected(self, grid8):
        with pytest.raises(ValueError):
            analyze_batch(grid8, np.ones(grid8.M - 1, dtype=complex))

    def test_batch_shapes(self, grid8, rng):
        c = rng.standard_normal((3, grid8.n_modes)).astype(complex)
        s = synthesize_batch(grid8, c)
        assert s.shape == (3, grid8.M)
        back = analyze_batch(grid8, s)
        assert np.abs(back - c).max() < 1e-12


class TestCheckFinite:
    def test_finite_values_pass(self):
        _check_finite(a=1.0, b=-3, c=np.ones((2, 2), dtype=complex), d=np.float64(2.0))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_number_named_with_its_value(self, bad):
        with pytest.raises(ValueError, match=f"^b must be finite, got {bad}$"):
            _check_finite(a=1.0, b=bad, c=math.nan)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0.0, math.inf)])
    def test_array_named_by_its_entry(self, bad):
        entries = np.zeros((2, 2), dtype=complex)
        entries[1, 0] = bad
        with pytest.raises(ValueError, match="^u0 must be finite, got a non-finite entry$"):
            _check_finite(p=1.0, u0=entries)

    def test_bound_wordings(self):
        for args, values, message in (
            ((0, True), {"eta": 0.0}, "eta must be positive, got 0.0"),
            ((0,), {"s": -1.0}, "s must be >= 0, got -1.0"),
            ((0.5, True), {"s": 0.5}, "s must be > 0.5, got 0.5"),
            ((0,), {"weights": np.array([1.0, -2.0, -1.0])}, "weights must be >= 0, got -2.0"),
            ((0,), {"weights": np.array([1.0, math.nan])}, "weights must be finite, got a non-finite entry"),
            ((0, True), {"eta": math.nan}, "eta must be finite, got nan"),
        ):
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                _check_finite(*args, **values)

    def test_values_on_the_bound(self):
        _check_finite(0, s=0.0, t=-0.0, weights=np.zeros(3), empty=np.zeros(0))
        _check_finite(0, True, eta=5e-324, c=np.float64(1.0))


class TestSobolevNorm:
    def test_zero_field(self, grid8):
        assert al.sobolev_norm(np.zeros(grid8.n_modes, dtype=complex), 2.0) == 0.0

    def test_plane_wave_h1(self, grid8):
        c = mode_coeffs(grid8, 1, math.sqrt(TWO_PI))
        assert abs(al.sobolev_norm(c, 1.0) - 2.0 * math.sqrt(math.pi)) < 1e-12

    def test_s0_matches_quadrature(self, grid16, rng):
        for _ in range(5):
            c = rng.standard_normal(grid16.n_modes) + 1j * rng.standard_normal(grid16.n_modes)
            l2 = al.lp_norm(synthesize_batch(grid16, c), 2)
            s0 = al.sobolev_norm(c, 0.0)
            assert abs(s0 - l2) <= 1e-10 * s0

    def test_monotone_in_s(self, grid8, rng):
        c = rng.standard_normal(grid8.n_modes).astype(complex)
        norms = [al.sobolev_norm(c, s) for s in (0.0, 0.5, 1.0, 2.0)]
        assert all(a <= b + 1e-14 for a, b in zip(norms, norms[1:]))

    def test_negative_order_rejected(self, grid8):
        for s in (-1.0, math.nan, math.inf):  # a non-finite order is rejected too, naming s
            with pytest.raises(ValueError, match="^s must be"):
                al.sobolev_norm(np.zeros(grid8.n_modes, dtype=complex), s)


class TestRawTransformPair:
    """_fft/_ifft are numpy's private pocketfft gufuncs: called with out= and
    np.fft's factors (1.0 forward, 1.0 / M inverse) they are np.fft.fft and
    np.fft.ifft bit for bit, also when out= is the input itself.  A numpy
    release that changes that contract fails here first."""

    def test_pair_is_np_fft_bit_for_bit(self):
        # both calling conventions: the transform pair's float factors and out=,
        # and the split-step loop's 0-d factor arrays and positional outputs
        gen = np.random.default_rng(20)
        for m in (50, 72, 135, 270):
            for shape in ((m,), (3, m), (2, 4, m), (0, m), (2, 0, m)):
                a = gen.standard_normal(shape) + 1j * gen.standard_normal(shape)
                want_forward, want_inverse = np.fft.fft(a), np.fft.ifft(a)
                for wrap in (float, np.array):
                    one, inverse_factor = wrap(1.0), wrap(1.0 / m)
                    forward, inverse = np.empty(shape, dtype=complex), np.empty(shape, dtype=complex)
                    _fft(a, one, out=forward)
                    _ifft(a, inverse_factor, out=inverse)
                    assert np.array_equal(forward, want_forward), (m, shape, wrap)
                    assert np.array_equal(inverse, want_inverse), (m, shape, wrap)
                    forward, inverse = np.empty(shape, dtype=complex), np.empty(shape, dtype=complex)
                    _fft(a, one, forward)
                    _ifft(a, inverse_factor, inverse)
                    assert np.array_equal(forward, want_forward), (m, shape, wrap)
                    assert np.array_equal(inverse, want_inverse), (m, shape, wrap)

    def test_pair_in_place_is_np_fft_bit_for_bit(self):
        # the output is the input array, as in the split-step loop (positional)
        # and in synthesize_batch (out=): the transform overwrites its operand
        gen = np.random.default_rng(21)
        for m in (50, 72, 135, 270):
            for shape in ((m,), (3, m), (2, 4, m), (0, m), (2, 0, m)):
                a = gen.standard_normal(shape) + 1j * gen.standard_normal(shape)
                want_forward, want_inverse = np.fft.fft(a), np.fft.ifft(a)
                for wrap in (float, np.array):
                    one, inverse_factor = wrap(1.0), wrap(1.0 / m)
                    forward, inverse = a.copy(), a.copy()
                    _fft(forward, one, out=forward)
                    _ifft(inverse, inverse_factor, out=inverse)
                    assert np.array_equal(forward, want_forward), (m, shape, wrap)
                    assert np.array_equal(inverse, want_inverse), (m, shape, wrap)
                    forward, inverse = a.copy(), a.copy()
                    _fft(forward, one, forward)
                    _ifft(inverse, inverse_factor, inverse)
                    assert np.array_equal(forward, want_forward), (m, shape, wrap)
                    assert np.array_equal(inverse, want_inverse), (m, shape, wrap)

    @pytest.mark.parametrize("n", [12, 16, 64])
    def test_batch_transforms_keep_the_np_fft_bits(self, n, rng):
        grid = al.SpectralGrid(n)
        band = grid.modes() % grid.M
        c = rng.standard_normal((2, 3, grid.n_modes)) + 1j * rng.standard_normal((2, 3, grid.n_modes))
        padded = np.zeros((2, 3, grid.M), dtype=complex)
        padded[..., band] = c
        samples = np.fft.ifft(padded, axis=-1) * (grid.M / math.sqrt(TWO_PI))
        assert np.array_equal(synthesize_batch(grid, c), samples)
        spectrum = np.fft.fft(samples, axis=-1) * (math.sqrt(TWO_PI) / grid.M)
        assert np.array_equal(analyze_batch(grid, samples), spectrum[..., band])


def non_five_smooth_m(n: int) -> int:
    """The smallest admissible sample count for cutoff n that is not 5-smooth."""
    m = 2 * (2 * n + 1)
    while fft_friendly_size(m) == m:
        m += 1
    return m


class TestTransformProperties:
    """Round trip, Parseval and length checks over cutoffs, sample counts and shapes."""

    @settings(max_examples=80, deadline=None)
    @given(
        n=hst.integers(1, 24),
        default_m=hst.booleans(),
        lead=hst.lists(hst.integers(1, 4), max_size=2).map(tuple),
        seed=hst.integers(0, 2**32 - 1),
    )
    def test_round_trip(self, n, default_m, lead, seed):
        grid = al.SpectralGrid(n) if default_m else al.SpectralGrid(n, M=non_five_smooth_m(n))
        gen = np.random.default_rng(seed)
        shape = lead + (grid.n_modes,)
        c = gen.standard_normal(shape) + 1j * gen.standard_normal(shape)
        samples = synthesize_batch(grid, c)
        assert samples.shape == lead + (grid.M,)
        back = analyze_batch(grid, samples)
        assert back.shape == c.shape
        assert np.abs(back - c).max() <= 1e-12 * np.abs(c).max()

    @settings(max_examples=60, deadline=None)
    @given(n=hst.integers(1, 24), default_m=hst.booleans(), seed=hst.integers(0, 2**32 - 1))
    def test_parseval(self, n, default_m, seed):
        grid = al.SpectralGrid(n) if default_m else al.SpectralGrid(n, M=non_five_smooth_m(n))
        gen = np.random.default_rng(seed)
        c = gen.standard_normal(grid.n_modes) + 1j * gen.standard_normal(grid.n_modes)
        s0 = al.sobolev_norm(c, 0.0)
        assert abs(s0 - al.lp_norm(synthesize_batch(grid, c), 2)) <= 1e-12 * s0

    @given(half=hst.integers(0, 30), s=hst.floats(0.0, 3.0))
    def test_sobolev_norm_rejects_even_length(self, half, s):
        with pytest.raises(ValueError, match="modes -K..K"):
            al.sobolev_norm(np.ones(2 * half, dtype=complex), s)


class TestLpNorm:
    def test_constant(self, grid8):
        ones = np.ones(grid8.M)
        assert abs(al.lp_norm(ones, 2) - math.sqrt(TWO_PI)) < 1e-12
        assert abs(al.lp_norm(ones, 1) - TWO_PI) < 1e-12
        assert al.lp_norm(ones, math.inf) == 1.0

    def test_cosine_fourth_power(self, grid16):
        samples = np.cos(grid16.points())
        # int cos^4 over the period is 3*pi/4
        assert abs(al.lp_norm(samples, 4) - (3 * math.pi / 4) ** 0.25) < 1e-12

    def test_unsupported_p(self, grid8):
        with pytest.raises(ValueError):
            al.lp_norm(np.ones(grid8.M), 3)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("p", [2, 4])
    def test_overflowing_powers_infinite(self, grid8, p):
        # a**p overflows for these finite samples: the norm is inf, with no warning
        assert al.lp_norm(1e200 * np.cos(grid8.points()), p) == math.inf
        assert al.lp_norm(np.full(grid8.M, math.inf), p) == math.inf
        assert math.isnan(al.lp_norm(np.full(grid8.M, math.nan), p))


class TestBesselConstant:
    def test_s1_closed_form(self):
        assert abs(al.bessel_constant(1.0, tail_tol=1e-12) - COTH_PI_HALF) < 2e-12

    def test_large_s(self):
        assert abs(al.bessel_constant(20.0) - B20_BRUTE) < 1e-12

    def test_tail_tolerance_honored(self):
        tight = al.bessel_constant(0.6, tail_tol=1e-13)
        assert abs(al.bessel_constant(0.6, tail_tol=1e-8) - tight) < 1e-8

    def test_strictly_decreasing_in_s(self):
        values = [al.bessel_constant(s) for s in (0.6, 0.8, 1.0, 2.0, 5.0)]
        assert all(a > b for a, b in zip(values, values[1:]))

    @pytest.mark.parametrize("s", [200.0, 1e10, 1e102, 1e300, 1.7e308])
    def test_huge_order_is_the_zero_mode(self, s):
        # every term but n = 0 underflows; K and the tail neither overflow nor turn NaN
        assert al.bessel_constant(s, 1e-12) == 1.0 / TWO_PI

    @pytest.mark.parametrize("s, tail_tol, terms", [(0.51, 1e-30, "8.44e+13"), (0.6, 1e-20, "1.88e+08")])
    def test_tail_tolerance_past_the_term_cap_refused(self, s, tail_tol, terms):
        # the first once raised MemoryError for 614 TiB, the second sized 187 739 046 terms;
        # both are refused before the partial sum is allocated
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="^" + re.escape(f"tail_tol={tail_tol:g} at s={s:g} needs {terms} terms")):
                al.bessel_constant(s, tail_tol)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_tight_tolerances_below_the_term_cap_accepted(self):
        # 524 195 terms, and about 1.2e5 for the tail 1e-12 the checks use, next to s = 1/2
        assert al.bessel_constant(0.75, 1e-16) > al.bessel_constant(0.8, 1e-16)
        assert al.bessel_constant(0.5 + 1e-9, 1e-12) > 1e8

    @pytest.mark.parametrize(
        "s, tail_tol, name",
        [(0.75, math.nan, "tail_tol"), (math.nan, 1e-10, "s"), (math.inf, 1e-10, "s"), (0.75, math.inf, "tail_tol")],
    )
    def test_non_finite_argument_named(self, s, tail_tol, name):
        # NaN and an infinite s once raised "cannot convert float NaN to integer",
        # and tail_tol = inf gave a value from 16 terms with no tolerance at all
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            al.bessel_constant(s, tail_tol)

    def test_divergent_order_rejected(self):
        with pytest.raises(ValueError):
            al.bessel_constant(0.5)
        with pytest.raises(ValueError):
            al.bessel_constant(0.3)


class TestToeplitzPair:
    @settings(max_examples=40, deadline=None)
    @given(nm=hst.integers(1, 13), seed=hst.integers(0, 2**32 - 1))
    def test_adjoint_identity(self, nm, seed):
        # <toeplitz(d), U> = sum_mn conj(d(m-n)) U_mn = <d, diagonal_sums(U)>
        gen = np.random.default_rng(seed)
        u = gen.standard_normal((nm, nm)) + 1j * gen.standard_normal((nm, nm))
        d = gen.standard_normal(2 * nm - 1) + 1j * gen.standard_normal(2 * nm - 1)
        lhs = np.vdot(toeplitz(d), u)
        rhs = np.vdot(d, diagonal_sums(u))
        scale = math.sqrt(nm) * np.linalg.norm(d) * np.linalg.norm(u)
        assert abs(lhs - rhs) <= 1e-13 * scale

    @settings(max_examples=40, deadline=None)
    @given(
        lead=hst.lists(hst.integers(1, 3), max_size=2),
        nm=hst.integers(1, 13),
        seed=hst.integers(0, 2**32 - 1),
    )
    def test_real_entries_give_real_sums(self, lead, nm, seed):
        x = np.random.default_rng(seed).standard_normal((*lead, nm, nm))
        sums = diagonal_sums(x)
        assert sums.dtype == np.float64
        assert np.array_equal(sums, diagonal_sums(x + 0j).real)

    def test_toeplitz_entries(self):
        nm = 5
        d = np.arange(2 * nm - 1) + 1j
        t = toeplitz(d)
        for m in range(nm):
            for n in range(nm):
                assert t[m, n] == d[m - n + nm - 1]

    def test_offset_table_cached_and_read_only(self):
        table = _offsets(7)
        assert _offsets(7) is table
        assert not table.flags.writeable
        out = toeplitz(np.zeros(13, dtype=complex))
        out[0, 0] = 1.0  # the result is a fresh array, not a view of the table
        assert table[0, 0] == 6

    def test_even_length_rejected(self):
        with pytest.raises(ValueError):
            toeplitz(np.zeros(4))

    def test_leading_axes_bit_for_bit(self):
        # one bincount over a stack sums each diagonal in the order of a per-matrix call
        gen = np.random.default_rng(7)
        stack = gen.standard_normal((33, 33, 33)) + 1j * gen.standard_normal((33, 33, 33))
        sums = diagonal_sums(stack)
        assert sums.shape == (33, 65)
        assert np.array_equal(sums, np.array([diagonal_sums(m) for m in stack]))
        assert np.array_equal(toeplitz(sums), np.array([toeplitz(d) for d in sums]))
        grid = diagonal_sums(stack.reshape(3, 11, 33, 33))
        assert np.array_equal(grid, sums.reshape(3, 11, 65))


# Each public callable's real parameters with their bound: (case id, parameter, (least, strict) or None
# for finite only, the call with the value in the parameter's place and valid values elsewhere)
_GRID = al.SpectralGrid(2)
_STATE = al.MixedState(_GRID, [1.0], np.eye(_GRID.n_modes, dtype=complex)[2:3])
_MATRIX = al.to_matrix(_STATE)
_BROAD, _P, _Q = al.background_preset("stable-broad")
_CONSTANTS = {"gamma_h1s1": 0.5, "gamma_l1": 0.3, "kappa": 0.05, "q": -1.0, "eta": 0.7, "epsilon": 1e-3,
              "c_bilinear": 0.2}
_PERTURB = {"grid": al.SpectralGrid(6), "epsilon": 1e-3, "T": 0.2, "dt": 0.01, "kappa": 0.03, "c_bilinear": 0.18}
REAL_ARGUMENTS = [
    ("sobolev_norm", "s", (0, False), lambda v: al.sobolev_norm(np.ones(5), v)),
    ("bessel_constant-s", "s", None, lambda v: al.bessel_constant(v)),
    ("bessel_constant-tail_tol", "tail_tol", (0, True), lambda v: al.bessel_constant(1.0, v)),
    ("MixedState", "weights", (0, False),
     lambda v: al.MixedState(_GRID, [0.5, v], np.eye(_GRID.n_modes, dtype=complex)[:2])),
    ("BackgroundSymbol", "symbol", (0, False), lambda v: al.BackgroundSymbol([1.0, v, 1.0])),
    ("sobolev_schatten_norm", "s", (0, False), lambda v: al.sobolev_schatten_norm(_MATRIX, v)),
    ("hs1_norm_nonneg", "s", (0, False), lambda v: al.hs1_norm_nonneg(_STATE, v)),
    ("eigendecompose", "drop_tol", (0, False), lambda v: al.eigendecompose(_MATRIX, v)),
    ("energy-p", "p", None, lambda v: al.energy(_STATE, v, 1.0)),
    ("energy-q", "q", None, lambda v: al.energy(_STATE, 1.0, v)),
    ("ybar_bound-mass_", "mass_", (0, False), lambda v: al.ybar_bound(v, 1.0, 1.0, 1.0, 1.0, True)),
    ("ybar_bound-kinetic0", "kinetic0", (0, False), lambda v: al.ybar_bound(1.0, v, 1.0, 1.0, 1.0, True)),
    ("ybar_bound-rho0_l2", "rho0_l2", (0, False), lambda v: al.ybar_bound(1.0, 1.0, v, 1.0, 1.0, False)),
    ("ybar_bound-p", "p", None, lambda v: al.ybar_bound(1.0, 1.0, 1.0, v, 1.0, True)),
    ("ybar_bound-q", "q", None, lambda v: al.ybar_bound(1.0, 1.0, 1.0, 1.0, v, False)),
    ("random_smooth_state", "total_mass", (0, False),
     lambda v: al.random_smooth_state(_GRID, 1, 1, 2.0, np.random.default_rng(0), total_mass=v)),
    ("EvolveConfig", "dt", (0, True), lambda v: al.EvolveConfig(1.0, 1.0, v, 1.0)),
    ("picard_solve", "T", (0, False), lambda v: al.picard_solve(_MATRIX, 1.0, 1.0, v)),
    ("run_checks", "s", (0, False), lambda v: al.run_checks(al.EnsembleConfig(2, _GRID), v, ("gn",))),
    *[(f"margin_report-{name}", name, (0, True), lambda v, name=name: al.margin_report(_BROAD, _P, _Q, **{name: v}))
      for name in ("eta", "epsilon", "c_bilinear")],
    *[(f"propagator_constants-{name}", name, (0, name not in ("gamma_h1s1", "gamma_l1")),
       lambda v, name=name: al.propagator_constants(**{**_CONSTANTS, name: v}))
      for name in ("gamma_h1s1", "gamma_l1", "eta", "epsilon", "c_bilinear")],
    ("perturbation_run-epsilon", "epsilon", (0, False),
     lambda v: al.perturbation_run(_BROAD, _P, _Q, **{**_PERTURB, "epsilon": v})),
    ("perturbation_run-T", "T", (0, True), lambda v: al.perturbation_run(_BROAD, _P, _Q, **{**_PERTURB, "T": v})),
]


class TestRealArguments:
    """One rule for real arguments: NaN, +-inf and a value below the bound each raise a ValueError
    whose message starts with the parameter's name, which the CLI maps to its config key."""

    @pytest.mark.parametrize("name, bound, call", [case[1:] for case in REAL_ARGUMENTS],
                             ids=[case[0] for case in REAL_ARGUMENTS])
    @settings(max_examples=15, deadline=None)
    @given(data=hst.data())
    def test_refused_naming_the_parameter(self, name, bound, call, data):
        bad = [math.nan, math.inf, -math.inf]
        if bound is not None:
            least, strict = bound
            below = hst.floats(max_value=least, allow_nan=False, allow_infinity=False)
            bad.append(data.draw(below.filter(lambda v: v <= least if strict else v < least), label=name))
        for value in bad:
            with pytest.raises(ValueError, match=named_first(name)):
                call(value)
