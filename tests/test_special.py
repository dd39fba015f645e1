"""Special functions: log-gamma, digamma, and the local gamma/lambda factors."""

import math
import time

import mpmath as mp
import numpy as np
import pytest

from eflab import special
from eflab.errors import DomainError, PoleError
from eflab.special import (EULER_GAMMA, PRIME_TEST_MAX, Place, digamma, gamma_factor,
                           factorize, is_prime, lambda_factor, log_gamma)
from eflab.zeta import VonMangoldtSieve

PI = math.pi


class TestPlace:
    def test_real_and_prime(self):
        assert Place.real().is_real
        assert Place.prime(7).p == 7
        assert Place.prime(2).label == "2" and Place.real().label == "r"

    def test_composite_rejected(self):
        for bad in (1, 4, 9, 15):
            with pytest.raises(DomainError):
                Place.prime(bad)

    def test_primality(self):
        assert [n for n in range(2, 30) if is_prime(n)] == \
            [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]

    def test_primality_beyond_the_sieve(self):
        # command-line places may exceed the sieve's 1e6 cap
        assert is_prime(1000003)
        assert not is_prime(1000001)  # 101 * 9901
        assert not any(is_prime(n) for n in (-7, 0, 1))

    def test_primality_agrees_with_the_sieve(self):
        primes = set(VonMangoldtSieve.build(100_000).primes.tolist())
        assert all(is_prime(n) == (n in primes) for n in range(100_001))

    def test_carmichael_number_rejected(self):
        assert not is_prime(561)

    @pytest.mark.parametrize("n,bases", [
        (3215031751, 4),                   # strong pseudoprime to 2, 3, 5, 7
        (3825123056546413051, 11),         # ... to every prime base 2..31
        (318665857834031151167461, 12),    # ... to every prime base 2..37
    ])
    def test_strong_pseudoprimes_rejected(self, n, bases, monkeypatch):
        assert not is_prime(n)
        # the first `bases` bases let n through, so the next one is needed
        monkeypatch.setattr(special, "_MR_BASES", special._MR_BASES[:bases])
        assert is_prime(n)

    def test_large_primes(self):
        assert is_prime(10000000000000061) and is_prime(2**61 - 1)
        assert is_prime(999999999999999999999743)  # the largest prime below 1e24
        assert not is_prime(10000000000000061 * 1000003)

    def test_primality_past_the_proven_range_raises(self):
        assert not is_prime(PRIME_TEST_MAX - 1)
        for n in (PRIME_TEST_MAX, 2**89 - 1):
            with pytest.raises(DomainError, match="primality"):
                is_prime(n)
        with pytest.raises(DomainError):
            Place.prime(2**89 - 1)

    def test_factorize(self):
        assert factorize(1) == []
        assert factorize(360) == [(2, 3), (3, 2), (5, 1)]
        assert factorize(2 * 1000003) == [(2, 1), (1000003, 1)]
        # two large prime factors: trial division up to the smaller one
        assert factorize(1000003 * 1000033) == [(1000003, 1), (1000033, 1)]
        with pytest.raises(DomainError):
            factorize(0)

    #: a 17-digit prime: trial division took about 7 s to reach it
    BIG = 10000000000000061

    @pytest.mark.parametrize("n,want", [
        (BIG, [(BIG, 1)]),
        (BIG ** 2, [(BIG, 2)]),  # above PRIME_TEST_MAX: found by its square root
        (6 * BIG ** 3, [(2, 1), (3, 1), (BIG, 3)]),
        (43 ** 2 * 47 ** 3, [(43, 2), (47, 3)]),
        (43 * 53 ** 2 * 1000003 ** 4, [(43, 1), (53, 2), (1000003, 4)]),
        (1000003 ** 6, [(1000003, 6)]),  # a sixth power: square root, then cube root
        (2 ** 100 * 3, [(2, 100), (3, 1)]),
    ])
    def test_factorize_stops_at_a_prime_power(self, n, want):
        start = time.perf_counter()
        assert factorize(n) == want
        assert time.perf_counter() - start < 0.1


class TestLogGamma:
    def test_at_one(self):
        assert abs(log_gamma(1.0)) < 1e-14  # Gamma(1) = 1

    def test_at_half_via_duplication(self):
        # Gamma(z)Gamma(z+1/2) = 2^(1-2z) sqrt(pi) Gamma(2z) at z = 1/2
        # forces Gamma(1/2) = sqrt(pi).
        expected = 0.5 * math.log(PI)
        assert abs(log_gamma(0.5) - expected) < 1e-14

    def test_at_five_via_recurrence(self):
        # Gamma(5) = 4! by Gamma(s+1) = s Gamma(s) from Gamma(1) = 1.
        expected = math.log(24.0)
        assert abs(log_gamma(5.0) - expected) < 1e-13

    def test_against_mpmath_on_desk_scale(self):
        pts = [0.25 + 500j, 0.5 + 1000j, 2.5 - 100j, 0.1 + 0.2j, 7.0 - 3j,
               0.3 + 1j, 950.0 + 1j]
        for z in pts:
            ref = complex(mp.loggamma(z))
            assert abs(log_gamma(z) - ref) <= 1e-12 * max(1.0, abs(ref)), z

    def test_pole_error(self):
        for z in (0.0, -1.0, -7.0, -3.0 + 1e-13j):
            with pytest.raises(PoleError):
                log_gamma(z)


class TestDigamma:
    def test_at_one_series_oracle(self):
        # psi(x) = -gamma + sum_{k>=0} (1/(k+1) - 1/(k+x)); at x = 1 every
        # term vanishes, so psi(1) = -gamma.
        assert abs(digamma(1.0) - (-EULER_GAMMA)) < 1e-13

    def test_series_oracle_generic_point(self):
        x = 2.75
        k = np.arange(0, 2_000_000, dtype=float)
        partial = float(np.sum(1.0 / (k + 1.0) - 1.0 / (k + x)))
        tail = (x - 1.0) / 2_000_000  # sum_{k>K} (x-1)/((k+1)(k+x)) ~ (x-1)/K
        ref = -EULER_GAMMA + partial + tail
        assert abs(digamma(x) - ref) < 1e-6

    def test_at_two_via_recurrence(self):
        # psi(x+1) = psi(x) + 1/x
        assert abs(digamma(2.0) - (1.0 - EULER_GAMMA)) < 1e-13

    def test_at_half_via_duplication(self):
        # psi(2z) = psi(z)/2 + psi(z+1/2)/2 + log 2 at z = 1/2.
        assert abs(digamma(0.5) - (-EULER_GAMMA - 2.0 * math.log(2.0))) < 1e-13

    def test_against_mpmath(self):
        for z in (0.25 + 250j, 0.125 - 0.7j, 3.0 + 40j):
            ref = complex(mp.digamma(z))
            assert abs(digamma(z) - ref) <= 1e-12 * max(1.0, abs(ref))

    def test_pole_error(self):
        with pytest.raises(PoleError):
            digamma(-2.0)


class TestShiftGuard:
    """The unit-step recurrence into Re w >= 10 takes at most ten steps: left of
    Re s = 0 the reflection formulas hand it 1 - s, so every argument costs the same."""

    @pytest.mark.parametrize("fn", [log_gamma, digamma])
    @pytest.mark.parametrize("z,err", [(-1e7, PoleError)])
    def test_far_left_fails_fast(self, fn, z, err):
        start = time.perf_counter()
        with pytest.raises(err):
            fn(z)
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize("fn", [log_gamma, digamma])
    @pytest.mark.parametrize("z", [-1e7 + 0.5, -3e6 + 0.5j, np.array([1.0, -1999990.5]),
                                   -1e6 + 0.25 + 2j, -99999.5 + 1j, -12345.678 - 0.001j,
                                   -0.3 + 500j, -7.7 - 3j, -2.5, -0.5])
    def test_far_left_matches_mpmath(self, fn, z):
        oracle = mp.loggamma if fn is log_gamma else mp.digamma
        start = time.perf_counter()
        got = np.atleast_1d(fn(z))
        assert time.perf_counter() - start < 0.01
        for zi, gi in zip(np.atleast_1d(z), got):
            ref = complex(oracle(complex(zi)))
            assert abs(gi - ref) <= 2e-15 * max(1.0, abs(ref)), zi

    def test_message_names_function(self):
        with pytest.raises(PoleError, match="log_gamma: argument"):
            log_gamma(-3e6)
        with pytest.raises(PoleError, match="digamma: argument"):
            digamma(-3e6)

    def test_left_of_origin_inside_guard(self):
        for z in (-20.5 + 0.3j, -101.25):
            assert abs(log_gamma(z) - complex(mp.loggamma(z))) <= 1e-11 * abs(complex(mp.loggamma(z)))
            assert abs(digamma(z) - complex(mp.digamma(z))) <= 1e-11 * abs(complex(mp.digamma(z)))


class TestGammaFactor:
    def test_real_fixed_point(self):
        assert abs(gamma_factor(Place.real(), 0.5) - 1.0) < 1e-14

    def test_prime_substitution(self):
        # (1 - 2^(2-1)) / (1 - 2^-2) = (1-2)/(3/4) = -4/3
        assert abs(gamma_factor(Place.prime(2), 2.0) - (-4.0 / 3.0)) < 1e-14

    def test_prime_symmetry_point(self):
        assert abs(gamma_factor(Place.prime(3), 0.5) - 1.0) < 1e-14

    def test_reflection_product(self):
        rng = np.random.default_rng(11)
        places = [Place.real(), Place.prime(2), Place.prime(5), Place.prime(13)]
        for c in (0.3, 0.5, 0.7):
            for t in rng.uniform(-30.0, 30.0, size=8):
                s = complex(c, t)
                for pl in places:
                    v = gamma_factor(pl, s) * gamma_factor(pl, 1.0 - s)
                    assert abs(v - 1.0) <= 1e-10, (pl, s, v)

    def test_poles(self):
        with pytest.raises(PoleError):
            gamma_factor(Place.real(), -2.0)
        with pytest.raises(PoleError):
            gamma_factor(Place.prime(3), 2j * PI / math.log(3.0))

    def test_real_zero_at_one(self):
        assert gamma_factor(Place.real(), 1.0) == 0.0


class TestLambdaFactor:
    def test_prime_value(self):
        q = 2.0 ** -0.5
        expected = 2.0 * math.log(2.0) * q / (1.0 - q)
        got = lambda_factor(Place.prime(2), 0.5)
        assert abs(got - expected) < 1e-13
        assert abs(got - 3.347) < 5e-4

    def test_real_value_via_digamma_oracle(self):
        # psi(1/4) = -gamma - 3 log 2 - pi/2, so Lambda_r(1/2) = log pi - psi(1/4).
        expected = math.log(PI) + EULER_GAMMA + 3.0 * math.log(2.0) + PI / 2.0
        got = lambda_factor(Place.real(), 0.5)
        assert abs(got - expected) < 1e-12
        assert abs(got - 5.37218) < 5e-6

    def test_reflection_symmetry(self):
        for pl in (Place.real(), Place.prime(2), Place.prime(7)):
            for s in (0.3 + 4j, 0.45 - 11j, 0.62 + 0.1j):
                assert abs(lambda_factor(pl, s) - lambda_factor(pl, 1.0 - s)) < 1e-11

    def test_out_of_strip(self):
        for s in (1.2, -0.1, 0.0, 1.0):
            with pytest.raises(DomainError):
                lambda_factor(Place.prime(2), s)

    def test_log_derivative_by_finite_differences(self):
        h = 1e-5
        for pl in (Place.real(), Place.prime(2), Place.prime(5)):
            for s in (0.4 + 1.3j, 0.5 + 9j, 0.7 - 2j):
                fd = -(np.log(gamma_factor(pl, s + h)) -
                       np.log(gamma_factor(pl, s - h))) / (2.0 * h)
                assert abs(fd - lambda_factor(pl, s)) <= 1e-6, (pl, s)

    def test_prime_periodicity(self):
        for p in (2, 5):
            period = 2.0 * PI / math.log(p)
            pl = Place.prime(p)
            for s in (0.3 + 1.7j, 0.5 - 4.1j):
                assert abs(lambda_factor(pl, s) -
                           lambda_factor(pl, s + 1j * period)) < 1e-12

    def test_prime_power_expansion_geometric(self):
        # Lambda_p(s) = sum_{k>=1} log p (p^{-ks} + p^{-k(1-s)}), with the
        # truncation error shrinking by p^{-min(Re s, 1-Re s)} per term.
        p, s = 3, 0.4 + 2.3j
        pl = Place.prime(p)
        target = lambda_factor(pl, s)
        logp = math.log(p)
        errs = []
        partial = 0.0 + 0.0j
        for k in range(1, 13):
            partial += logp * (p ** (-k * s) + p ** (-k * (1.0 - s)))
            errs.append(abs(target - partial))
        ratio = p ** (-min(s.real, 1.0 - s.real))
        for e_next, e_prev in zip(errs[4:], errs[3:-1]):
            assert e_next <= e_prev * ratio * 1.25
        assert errs[-1] <= errs[0] * ratio ** 11 * 2.0
