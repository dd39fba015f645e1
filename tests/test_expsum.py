"""The Taylor-moment kernel shared by the Mellin transforms and zeta's bisection."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eflab import expsum


def tail_bound(rho, M):
    return rho**M / math.factorial(M) / (1.0 - rho / (M + 1))


class TestTermRule:
    @pytest.mark.parametrize("rho,M", [(2.0, 26), (0.04 * math.log(1166), 14)])
    def test_the_two_callers_radii(self, rho, M):
        # testfn's windows and zeta's brackets at t = 1000
        assert expsum.terms(rho) == M

    @given(st.floats(1e-3, 20.0))
    def test_smallest_count_below_the_bound(self, rho):
        M = expsum.terms(rho)
        assert rho < M + 1 and tail_bound(rho, M) < 3e-19
        assert M == 1 or rho >= M or tail_bound(rho, M - 1) >= 3e-19

    def test_zero_radius_keeps_the_constant_term(self):
        assert expsum.terms(0.0) == 1


class TestMomentSums:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.floats(0.05, 2.0), st.floats(-3.0, 3.0))
    def test_matches_the_direct_sum(self, seed, rho, x0):
        # points within h of their centre, so |(s - c)(x - x0)| <= rho
        rng = np.random.default_rng(seed)
        x = x0 + rng.uniform(-1.0, 1.0, 200)
        r = float(np.max(np.abs(x - x0)))
        h = rho / r
        F = rng.standard_normal(x.size) + 1j * rng.standard_normal(x.size)
        c = rng.uniform(-1.0, 1.0, 7) + 1j * rng.uniform(-300.0, 300.0, 7)
        idx = rng.integers(0, c.size, 50)
        d = h * rng.uniform(0.0, 1.0, idx.size) * np.exp(2j * np.pi * rng.uniform(size=idx.size))
        s = c[idx] + d
        mom = expsum.moments(x, F, c, x0, h, expsum.terms(rho))
        got = np.exp(d * x0) * expsum.horner(mom[:, idx], d / h)
        ref = np.exp(np.multiply.outer(s, x)) @ F
        scale = np.abs(np.exp(d * x0)) * (np.exp(np.multiply.outer(c[idx].real, x)) @ np.abs(F))
        # rounding of the phases s x, as for the Mellin kernel
        eps = np.finfo(float).eps
        bound = 64 * eps * (1.0 + np.max(np.abs(s.imag)) * np.max(np.abs(x)))
        assert np.all(np.abs(got - ref) <= bound * scale)

    def test_more_centres_than_one_product(self):
        x = np.linspace(-1.0, 0.0, 50)
        c = 0.5 + 1j * np.arange(1100.0)
        mom = expsum.moments(x, np.ones(x.size), c, 0.0, 1.0, 3)
        assert mom.shape == (3, 1100)
        assert np.allclose(mom[0], np.exp(np.multiply.outer(c, x)).sum(axis=1), rtol=0, atol=1e-12)
        assert np.allclose(mom[2], np.exp(np.multiply.outer(c, x)) @ (x * x / 2.0),
                           rtol=0, atol=1e-12)

    def test_no_centres(self):
        assert expsum.moments(np.arange(3.0), np.ones(3), np.empty(0, complex), 0.0, 1.0,
                              4).shape == (4, 0)
