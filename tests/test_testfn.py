"""Test-function algebra: evaluation, Mellin transforms, transposes,
derivation, and multiplicative convolution."""

import math
from functools import reduce
from operator import add
from unittest import mock

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from eflab import testfn
from eflab.contour import BLOCK_WIDTH
from eflab.errors import AdmissibilityError, DomainError, ParseError
from eflab.quadrature import panel_nodes
from eflab.testfn import (BumpCombination, LogGridFunction, StepFunction,
                          autocorrelate, bump, derivation_D, mconvolve,
                          parse_test_function)

from conftest import CORPUS, G0


def mellin_quad_oracle(g, s, lo, hi):
    """Independent adaptive quadrature of int F(x) e^{sx} dx on the log axis."""
    re = quad(lambda x: (g.profile(np.array([x]))[0] * np.exp(s * x)).real,
              lo, hi, limit=400, epsabs=1e-13)[0]
    im = quad(lambda x: (g.profile(np.array([x]))[0] * np.exp(s * x)).imag,
              lo, hi, limit=400, epsabs=1e-13)[0]
    return complex(re, im)


class TestEvaluate:
    def test_step_interior(self):
        assert StepFunction(4.0).evaluate(2.0) == 1.0

    def test_step_midpoints(self):
        st = StepFunction(4.0)
        assert st.evaluate(4.0) == 0.5
        assert st.evaluate(1.0) == 0.5

    def test_bump_center(self):
        # B(0) = e^-1 at the center of a single bump
        assert abs(bump(0.0, 1.0).evaluate(1.0) - math.exp(-1.0)) < 1e-15

    def test_nonpositive_rejected(self):
        with pytest.raises(DomainError):
            G0.evaluate(0.0)
        with pytest.raises(DomainError):
            StepFunction(4.0).evaluate(-2.0)


class TestMellin:
    def test_step_at_one(self):
        assert abs(StepFunction(4.0).mellin(1.0) - 3.0) < 1e-14

    def test_step_closed_form(self):
        st = StepFunction(7.5)
        for s in (0.3 + 2j, -1.1 + 0.4j, 2.0):
            assert abs(st.mellin(s) - (7.5 ** complex(s) - 1.0) / s) < 1e-12, s
        # removable point: the limit log X, approached smoothly
        assert abs(st.mellin(0.0) - math.log(7.5)) < 1e-14
        assert abs(st.mellin(1e-12) - math.log(7.5)) < 1e-11

    def test_bump_at_zero_against_quadrature(self):
        # ghat(0) = int g du/u by an independent adaptive quadrature
        a, b = G0.support_log()
        ref = mellin_quad_oracle(G0, 0.0, a, b)
        assert abs(G0.mellin(0.0) - ref) < 1e-12

    def test_high_frequency_accuracy(self):
        # |Im s| up to 1e3 must stay within 1e-12 absolute (mpmath oracle)
        def F(x):
            xi = (x - mp.mpf("0.7")) / mp.mpf("0.6")
            return mp.e ** (-1 / (1 - xi ** 2)) if abs(xi) < 1 else mp.mpf(0)
        for s in (0.5 + 100j, 0.3 + 553j, 0.5 + 1000j):
            ref = complex(mp.quad(lambda x: F(x) * mp.e ** (mp.mpc(s) * x),
                                  [mp.mpf("0.1"), mp.mpf("0.7"), mp.mpf("1.3")],
                                  maxdegree=12))
            assert abs(G0.mellin(s) - ref) < 1e-12, s

    @pytest.mark.parametrize("g", [G0, StepFunction(7.5), mconvolve(G0, bump(0.0, 0.5)),
                                   G0.transpose()], ids=["bump", "step", "log-grid", "transposed"])
    def test_two_dimensional_argument(self, g):
        s = 0.5 + 1j * np.arange(6.0).reshape(2, 3) + np.array([[0.0], [0.25]])
        got = g.mellin(s)
        assert got.shape == (2, 3)
        assert np.array_equal(got, g.mellin(s.ravel()).reshape(2, 3))
        for idx in np.ndindex(s.shape):
            want = g.mellin(complex(s[idx]))
            assert abs(got[idx] - want) <= 1e-12 * max(1.0, abs(want)), idx

    def test_mellin_decay_envelope(self):
        # |ghat(c+it)| (1+|t|)^6 stays bounded: the far window cannot beat
        # the near window on any of the three reference lines.
        ts = np.linspace(-200.0, 200.0, 401)
        far_ts = np.linspace(600.0, 800.0, 81)
        for c in (0.0, 0.5, 1.0):
            env = np.abs(G0.mellin(c + 1j * ts)) * (1.0 + np.abs(ts)) ** 6
            assert np.isfinite(env).all()
            far = np.abs(G0.mellin(c + 1j * far_ts)) * (1.0 + far_ts) ** 6
            assert far.max() <= env.max(), (c, far.max(), env.max())


class TestTranspose:
    def test_involution_pointwise(self):
        u = np.array([0.4, 1.0, 2.5, 3.1])
        gtt = G0.transpose().transpose()
        assert np.max(np.abs(gtt.evaluate(u) - G0.evaluate(u))) == 0.0

    def test_mellin_functional_equation_quadrature_both_sides(self):
        s = 0.3 + 2j
        gt = G0.transpose()
        a, b = gt.support_log()
        lhs = mellin_quad_oracle(gt, s, a, b)
        a0, b0 = G0.support_log()
        rhs = mellin_quad_oracle(G0, 1.0 - s, a0, b0)
        assert abs(lhs - rhs) < 1e-11
        assert abs(gt.mellin(s) - G0.mellin(1.0 - s)) < 1e-12

    def test_functional_equation_random_strip_points(self):
        rng = np.random.default_rng(5)
        gt = G0.transpose()
        for _ in range(20):
            s = complex(rng.uniform(0.05, 0.95), rng.uniform(-20, 20))
            assert abs(gt.mellin(s) - G0.mellin(1.0 - s)) <= 1e-10

    def test_step_transpose_support(self):
        st = StepFunction(4.0).transpose()
        a, b = st.support_log()
        assert abs(a + math.log(4.0)) < 1e-15 and b == 0.0
        # (1/u) g(1/u) carries the 1/u weight
        assert abs(st.evaluate(0.5) - 2.0) < 1e-15


class TestConjReflect:
    def test_real_valued_reduces_to_transpose(self):
        u = np.array([0.31, 0.8, 1.7])
        gc = G0.conj_reflect()
        gt = G0.transpose()
        assert np.max(np.abs(gc.evaluate(u) - gt.evaluate(u))) == 0.0

    def test_on_line_pairing(self):
        s = 0.5 + 3j
        gc = G0.conj_reflect()
        assert abs(gc.mellin(s) - np.conj(G0.mellin(s))) < 1e-12

    def test_mellin_identity_complex_amplitudes(self):
        g = bump(0.2, 0.5, amp=1 + 2j) + bump(-0.3, 0.3, amp=0.5 - 1j)
        gc = g.conj_reflect()
        for s in (0.4 + 3j, 0.7 - 11j):
            assert abs(gc.mellin(s) - np.conj(g.mellin(1.0 - np.conj(s)))) < 1e-12

    def test_involution(self):
        g = bump(0.1, 0.4, amp=2 - 1j)
        u = np.array([0.7, 1.1, 1.3])
        back = g.conj_reflect().conj_reflect()
        assert np.max(np.abs(back.evaluate(u) - g.evaluate(u))) == 0.0

    def test_is_real_every_kind(self):
        z = bump(0.1, 0.4, amp=2 - 1j)
        for g, real in ((G0, True), (z, False), (G0 + z, False), (BumpCombination(()), True),
                        (StepFunction(3.0), True), (StepFunction(3.0).transpose(), True),
                        (G0.transpose(), True), (z.transpose(), False),
                        (derivation_D(G0), True), (derivation_D(z), False),
                        (autocorrelate(G0), True), (mconvolve(G0, z), False),
                        (z.conj_reflect(), False)):
            assert g.is_real is real, g
            # a real g's transform is conjugate-symmetric
            if real and not g.is_zero:
                s = np.array([0.5 + 3.0j, 0.25 + 17.5j])
                want = np.conj(g.mellin(s))
                assert np.all(np.abs(g.mellin(np.conj(s)) - want) <= 1e-15 * np.abs(want))


class TestDerivation:
    def test_mellin_at_zero_and_one(self):
        Dg = derivation_D(G0)
        assert abs(Dg.mellin(0.0)) < 1e-12
        assert abs(Dg.mellin(1.0) - G0.mellin(1.0)) < 1e-12

    def test_pointwise_against_finite_differences(self):
        Dg = derivation_D(G0)
        x = np.linspace(0.15, 1.25, 9)
        h = 1e-6
        fd = -(G0.profile(x + h) - G0.profile(x - h)) / (2.0 * h)
        assert np.max(np.abs(fd - Dg.profile(x))) <= 1e-8

    def test_symbol_identity_random_strip_points(self):
        Dg = derivation_D(G0)
        rng = np.random.default_rng(17)
        for _ in range(20):
            s = complex(rng.uniform(0.0, 1.0), rng.uniform(-30, 30))
            assert abs(Dg.mellin(s) - s * G0.mellin(s)) <= 1e-10

    def test_step_rejected(self):
        with pytest.raises(AdmissibilityError):
            derivation_D(StepFunction(4.0))


class TestConvolution:
    def test_mellin_multiplicativity(self):
        f, k = bump(0.3, 0.4), bump(-0.5, 0.3, amp=2.0)
        c = mconvolve(f, k)
        for s in (0.5, 0.5 + 50j, 0.2 + 17j):
            assert abs(c.mellin(s) - f.mellin(s) * k.mellin(s)) <= 1e-9, s

    def test_support_minkowski_sum(self):
        f, k = bump(0.3, 0.4), bump(-0.5, 0.3)
        c = mconvolve(f, k)
        a, b = c.support_log()
        pad = 2.5 * c.h  # grid snapping adds at most two samples per side
        assert a >= (0.3 - 0.4) + (-0.5 - 0.3) - pad
        assert b <= (0.3 + 0.4) + (-0.5 + 0.3) + pad

    def test_commutativity_on_grid(self):
        f, k = bump(0.3, 0.4), bump(-0.5, 0.3, amp=2.0)
        c1, c2 = mconvolve(f, k), mconvolve(k, f)
        assert c1.x0 == c2.x0
        assert np.max(np.abs(c1.values - c2.values)) < 1e-12

    def test_associativity_three_bumps(self):
        a, b, c = bump(0.2, 0.3), bump(-0.1, 0.25), bump(0.5, 0.35)
        left = mconvolve(mconvolve(a, b), c)
        right = mconvolve(a, mconvolve(b, c))
        xs = np.linspace(-0.4, 1.4, 41)
        assert np.max(np.abs(left.profile(xs) - right.profile(xs))) <= 1e-8

    def test_step_rejected(self):
        with pytest.raises(AdmissibilityError):
            mconvolve(StepFunction(2.0), G0)


class TestLogGrid:
    def test_sampled_bump_profile_and_derivatives(self):
        # G0 sampled at the default spacing 1/512.  Measured worst errors
        # relative to each curve's peak at 4000 random points: 9.8e-11,
        # 4.6e-8 and 4.1e-6 for orders 0, 1, 2 (a natural cubic spline gave
        # 6.6e-9, 2.9e-6 and 9.4e-4).
        h = 1.0 / 512.0
        a, b = G0.support_log()
        i0, i1 = math.floor(a / h) - 1, math.ceil(b / h) + 1
        grid = LogGridFunction(i0 * h, h, G0.profile(np.arange(i0, i1 + 1) * h))
        x = np.random.default_rng(0).uniform(a - 0.01, b + 0.01, 4000)
        for order, tol in ((0, 2e-10), (1, 1e-7), (2, 1e-5)):
            ref = G0.profile(x) if order == 0 else G0.profile_deriv(x, order)
            got = grid.profile(x) if order == 0 else grid.profile_deriv(x, order)
            assert np.max(np.abs(got - ref)) <= tol * np.max(np.abs(ref)), order

    def test_stencil_is_the_eight_nearest_samples(self):
        # Interpolating t^8 leaves exactly prod(t - t_j) over the stencil,
        # which pins the window: the 8 samples around t, clipped at the grid
        # ends.  Rounding in the samples (up to 5.5^8) is 4e-10 at most.
        xs = np.arange(12) - 5.5
        grid = LogGridFunction(-5.5, 1.0, xs ** 8)
        for t in (-5.5, -5.2, -3.1, -0.3, 0.0, 0.4, 2.7, 5.4, 5.5):
            start = min(max(math.floor(t + 5.5) - 3, 0), 4)
            expected = t ** 8 - np.prod(t - xs[start:start + 8])
            assert abs(grid.profile(np.array([t]))[0] - expected) <= 1e-8, t

    @pytest.mark.parametrize("n", range(2, 9))
    def test_short_grid_interpolates_its_nodes(self, n):
        # Grids under 8 points use all their points.  Evaluation is in the
        # monomial basis on nodes out to +-3.5, which amplifies rounding:
        # 6e-14 of the peak was the worst of 3000 random grids.
        v = np.array([1.0, 1j]) @ np.random.default_rng(n).normal(size=(2, n))
        grid = LogGridFunction(-0.75, 0.25, v)
        assert np.max(np.abs(grid.profile(grid.xs) - v)) <= 2e-13 * np.max(np.abs(v))

    def test_short_grid_is_its_polynomial(self):
        # Three points carry the quadratic through them, derivatives included.
        grid = LogGridFunction(0.0, 0.5, np.array([1.0, 0.0, 3.0]))
        x = np.array([0.2, 0.7])
        assert np.allclose(grid.profile(x), 1.0 - 6.0 * x + 8.0 * x * x, atol=1e-14)
        assert np.allclose(grid.profile_deriv(x, 1), -6.0 + 16.0 * x, atol=1e-13)
        assert np.allclose(grid.profile_deriv(x, 2), 16.0, atol=1e-12)

    def test_transpose_overflow_rejected(self):
        grid = LogGridFunction(800.0, 0.5, np.array([0.0, 1.0, 0.0]))
        with pytest.raises(DomainError):
            grid.transpose()


class TestAutocorrelate:
    def test_on_line_modulus(self):
        h = autocorrelate(G0)
        assert abs(h.mellin(0.5) - abs(G0.mellin(0.5)) ** 2) < 1e-9

    def test_on_line_nonnegative(self):
        h = autocorrelate(G0)
        v = h.mellin(0.5 + 5j)
        assert abs(v.imag) < 1e-10 and v.real >= 0.0

    def test_off_line_factorization(self):
        g = bump(0.2, 0.5, amp=1 + 1j)
        h = autocorrelate(g)
        s = 0.4 + 1j
        expected = g.mellin(s) * np.conj(g.mellin(1.0 - np.conj(s)))
        assert abs(h.mellin(s) - expected) <= 1e-9


#: Sums of one to three bumps with complex amplitudes.  Widths start at 0.5:
#: narrower bumps carry a larger quadrature error in derivation_D (measured
#: 3.8e-6 at sigma = 0.1).
_BUMPS = st.lists(
    st.builds(bump, st.floats(-1.5, 1.5), st.floats(0.5, 1.5),
              st.complex_numbers(max_magnitude=2.0, allow_nan=False, allow_infinity=False)),
    min_size=1, max_size=3).map(lambda bs: reduce(add, bs))
_STRIP = st.builds(complex, st.floats(0.0, 1.0), st.floats(-40.0, 40.0))


class TestAlgebraProperties:
    """Tolerances are about 50x the worst error measured over 3000 random
    draws from the same ranges plus their corners."""

    @settings(max_examples=150, deadline=None)
    @given(_BUMPS, _STRIP)
    def test_transpose_maps_s_to_one_minus_s(self, g, s):
        # measured <= 2.0e-15
        assert abs(g.transpose().mellin(s) - g.mellin(1.0 - s)) <= 1e-13

    @settings(max_examples=150, deadline=None)
    @given(_BUMPS, _STRIP)
    def test_derivation_multiplies_by_s(self, g, s):
        # D is -u d/du on functions of u, so mellin(Dg, s) = s mellin(g, s);
        # measured <= 6.2e-10
        assert abs(derivation_D(g).mellin(s) - s * g.mellin(s)) <= 3e-8

    @settings(max_examples=40, deadline=None)
    @given(_BUMPS, st.lists(st.floats(-40.0, 40.0), min_size=1, max_size=8))
    def test_autocorrelation_nonnegative_on_the_line(self, g, ts):
        # measured |imag| <= 2.0e-15; the real part never went below 0
        v = autocorrelate(g).mellin(0.5 + 1j * np.array(ts))
        assert np.max(np.abs(v.imag)) <= 1e-13
        assert np.min(v.real) >= -1e-12


def direct_mellin_sum(x, F, s):
    """The chunked direct sum sum_k F_k e^{s x_k}, one exponential per (node, ordinate)."""
    out = np.empty(s.shape, dtype=complex)
    for lo in range(0, s.size, 512):
        blk = s[lo:lo + 512]
        out[lo:lo + 512] = F @ np.exp(np.multiply.outer(x, blk))
    return out


def kernel_call(g, s):
    """(x, F, kernel value) of the one kernel call that g.mellin(s) makes."""
    calls = []
    kernel = testfn._mellin_sum

    def spy(x, F, s):
        out = kernel(x, F, s)
        calls.append((x, F, out))
        return out

    with mock.patch.object(testfn, "_mellin_sum", spy):
        value = g.mellin(s)
    assert len(calls) == 1
    x, F, out = calls[0]
    assert np.array_equal(value, out)
    return x, F, out


def kernel_scale(x, F, s):
    """sum_k |F_k e^{Re s x_k}| for every s: the size the kernel's error is measured in."""
    return np.abs(F) @ np.exp(np.multiply.outer(x, s.real))


def contour_block(k, osc):
    """Ordinates of the k-th t >= 0 block of the vertical-line integrator."""
    t, _ = panel_nodes((k * BLOCK_WIDTH, (k + 1) * BLOCK_WIDTH), density=8.0, osc=osc)
    return 0.5 + 1j * t


def line_ordinates(n, seed):
    return 0.5 + 1j * np.sort(np.random.default_rng(seed).uniform(0.0, 600.0, n))


def strip_points(n, seed):
    # half on the line, half with real parts across [-3, 4]: the second half
    # falls outside its window whenever the real part moves more than h
    rng = np.random.default_rng(seed)
    re = np.where(rng.random(n) < 0.5, 0.5, rng.uniform(-3.0, 4.0, n))
    return re + 1j * rng.uniform(-60.0, 60.0, n)


_KERNEL_BUMP = st.builds(bump, st.floats(-2.0, 3.0), st.floats(0.1, 1.0),
                         st.floats(0.5, 2.0))
_KERNEL_FUNCTIONS = st.one_of(
    _KERNEL_BUMP,
    st.lists(_KERNEL_BUMP, min_size=2, max_size=3).map(lambda bs: reduce(add, bs)),
    _KERNEL_BUMP.map(autocorrelate),
    _KERNEL_BUMP.map(derivation_D),
    st.lists(_KERNEL_BUMP, min_size=1, max_size=2).map(lambda bs: reduce(add, bs).transpose()),
)
_KERNEL_ORDINATES = st.one_of(
    st.builds(contour_block, st.integers(0, 99), st.floats(0.0, 10.0)),
    st.builds(line_ordinates, st.integers(64, 400), st.integers(0, 2**32 - 1)),
    st.builds(strip_points, st.integers(64, 300), st.integers(0, 2**32 - 1)),
)


class TestMellinKernel:
    """The windowed Taylor-moment kernel against the direct sum on the same nodes."""

    @settings(max_examples=120, deadline=None)
    @given(_KERNEL_FUNCTIONS, _KERNEL_ORDINATES)
    def test_matches_the_direct_sum(self, g, s):
        x, F, got = kernel_call(g, s)
        ref = direct_mellin_sum(x, F, s)
        eps = np.finfo(float).eps
        bound = 64 * eps * (1.0 + np.max(np.abs(s.imag)) * np.max(np.abs(x)))
        assert np.all(np.abs(got - ref) <= bound * kernel_scale(x, F, s))

    def test_fixed_corpus_within_1e_13(self):
        fns = CORPUS + (CORPUS[1] + CORPUS[3], bump(-1.5, 0.5) + bump(2.4, 0.6),
                        autocorrelate(G0), derivation_D(CORPUS[2]), CORPUS[4].transpose())
        for g in fns:
            a, b = g.support_log()
            assert -2.0 <= a and b <= 3.0
            blocks = [contour_block(k, 5.0) for k in range(0, 100, 9)]
            for s in blocks + [line_ordinates(300, 1), strip_points(200, 2)]:
                x, F, got = kernel_call(g, s)
                err = np.abs(got - direct_mellin_sum(x, F, s)) / kernel_scale(x, F, s)
                assert err.max() <= 1e-13, (g, err.max())

    @staticmethod
    def direct_calls(x, F, s):
        calls = []
        direct = testfn._mellin_direct

        def spy(x, F, s):
            calls.append(s.copy())
            return direct(x, F, s)

        with mock.patch.object(testfn, "_mellin_direct", spy):
            out = testfn._mellin_sum(x, F, s)
        return out, calls

    @staticmethod
    def nodes(g, s):
        x, w = panel_nodes(g._breakpoints(), density=64.0,
                           osc=float(np.max(np.abs(s.imag), initial=0.0)))
        return x, w * g.profile(x)

    def test_empty_s(self):
        s = np.empty(0, dtype=complex)
        assert testfn._mellin_sum(*self.nodes(G0, s), s).shape == (0,)

    @pytest.mark.parametrize("n", [1, testfn._MOMENT_MIN_POINTS - 1])
    def test_small_calls_take_the_direct_sum(self, n):
        s = 0.5 + 1j * np.linspace(0.0, 100.0, n)
        x, F = self.nodes(G0, s)
        out, calls = self.direct_calls(x, F, s)
        assert len(calls) == 1 and np.array_equal(calls[0], s)
        assert np.array_equal(out, direct_mellin_sum(x, F, s))

    def test_contour_block_takes_only_moments(self):
        s = contour_block(40, 2.0)
        assert s.size >= testfn._MOMENT_MIN_POINTS
        x, F = self.nodes(G0, s)
        out, calls = self.direct_calls(x, F, s)
        assert calls == []
        err = np.abs(out - direct_mellin_sum(x, F, s)) / kernel_scale(x, F, s)
        assert err.max() <= 1e-13

    def test_points_outside_their_window_take_the_direct_sum(self):
        # G0's nodes span [0.1, 1.3], so r = 0.6 and h = 2/r = 3.3: Re s = 5
        # puts a point at least 4.5 from every centre on the line Re s = 1/2
        s = 0.5 + 1j * np.linspace(0.0, 50.0, 100)
        s[[3, 50, 97]] += 4.5
        x, F = self.nodes(G0, s)
        out, calls = self.direct_calls(x, F, s)
        assert len(calls) == 1 and np.array_equal(calls[0], s[[3, 50, 97]])
        assert np.array_equal(out[[3, 50, 97]], direct_mellin_sum(x, F, s[[3, 50, 97]]))
        err = np.abs(out - direct_mellin_sum(x, F, s)) / kernel_scale(x, F, s)
        assert err.max() <= 1e-13

    def test_wide_support_takes_the_direct_sum(self):
        # nodes 200 apart make windows of half-width 0.02: one per ordinate
        g = bump(-100.0, 0.5) + bump(100.0, 0.5)
        s = 0.5 + 1j * np.linspace(0.0, 200.0, 100)
        x, F = self.nodes(g, s)
        out, calls = self.direct_calls(x, F, s)
        assert len(calls) == 1 and np.array_equal(calls[0], s)


#: A literal field: any float, written as the grammar allows (no '+'), or any text.
_LITERAL_FIELD = st.one_of(
    st.floats().map(lambda x: repr(x).replace("e+", "e")), st.text(max_size=8))


class TestParse:
    def test_single_bump(self):
        g = parse_test_function("bump:mu=0.7,sigma=0.6")
        assert isinstance(g, BumpCombination)
        assert g.terms == G0.terms

    def test_multi_term_with_amp(self):
        g = parse_test_function("bump:mu=0.1,sigma=0.2,amp=2+mu=-0.3,sigma=0.4")
        assert len(g.terms) == 2
        assert g.terms[0].amp == 2.0 and g.terms[1].mu == -0.3

    def test_step(self):
        st = parse_test_function("step:X=4")
        assert isinstance(st, StepFunction) and st.X == 4.0

    @pytest.mark.parametrize("text", [
        "bump:mu=0.7", "bump:sigma=0.5", "bump:mu=a,sigma=0.5",
        "step:X=0.5", "step:Y=4", "blob:mu=0,sigma=1",
        "bump:mu=0,sigma=-1", "bump:mu=0,sigma=0.5,amp=1,amp=2", "",
        "bump:mu=0,sigma=inf", "bump:mu=1e308,sigma=1e308", "bump:mu=0,sigma=1,amp=nan",
        "bump:mu=nan,sigma=1", "bump:mu=705,sigma=5", "step:X=inf",
    ])
    def test_malformed_rejected(self, text):
        with pytest.raises(ParseError):
            parse_test_function(text)

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(
        st.text(max_size=40),
        st.builds("step:X={}".format, _LITERAL_FIELD),
        st.builds("bump:mu={},sigma={},amp={}".format,
                  _LITERAL_FIELD, _LITERAL_FIELD, _LITERAL_FIELD)))
    def test_fuzzed_literal_parses_or_raises_parse_error(self, text):
        try:
            g = parse_test_function(text)
        except ParseError:
            return
        a, b = g.support_log()
        assert math.isfinite(math.exp(-a)) and math.isfinite(math.exp(b))
