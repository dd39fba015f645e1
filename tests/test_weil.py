"""Local explicit-formula terms by every route, zero-side sums, the balance,
positivity, reciprocal sums, and the rational-shift symmetry."""

import math
import time
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from eflab import weil
from eflab.errors import AdmissibilityError, CertificationError, DomainError
from eflab.padic import g_apply, haran_term, RealTestInput
from eflab.quadrature import _gl_rule
from eflab.special import EULER_GAMMA, LOG_PI, Place
from eflab.testfn import StepFunction, autocorrelate, bump, derivation_D, parse_test_function
from eflab.zeta import VonMangoldtSieve, ZeroTable

from conftest import CORPUS, G0


class TestPrimeSums:
    def test_step_three_powers(self):
        assert abs(weil.v_p_sum(StepFunction(10.0), 2) - 3 * math.log(2)) < 1e-14

    def test_no_prime_power_in_support(self):
        g = bump(math.log(3.0), 0.05)  # support around 3 only
        assert weil.v_p_sum(g, 11) == 0.0

    def test_single_term(self):
        g = bump(math.log(3.0), 0.2)
        expected = math.log(3.0) * g.evaluate(3.0)
        assert abs(weil.v_p_sum(g, 3) - expected) < 1e-14

    def test_w_p_step(self):
        # the transposed side lives in (1/X, 1) and meets no 2-power
        assert abs(weil.w_p(StepFunction(10.0), 2) - 3 * math.log(2)) < 1e-14

    def test_w_p_two_sided_bump(self):
        g = bump(0.0, 0.8)  # support spans [e^-0.8, e^0.8], covers 2 and 1/2
        expected = math.log(2.0) * (g.evaluate(2.0) + 0.5 * g.evaluate(0.5))
        assert abs(weil.w_p(g, 2) - expected) < 1e-13

    def test_w_p_transpose_symmetric_function(self, zeros100):
        # h = g * g-check is transpose-symmetric, so W_p(h) = 2 V_p(h)
        h = autocorrelate(G0)
        assert abs(weil.w_p(h, 2) - 2.0 * weil.v_p_sum(h, 2)) < 1e-9


class TestPrimeContour:
    def test_step_rejected(self):
        with pytest.raises(AdmissibilityError):
            weil.w_p_contour(StepFunction(4.0), 2)

    def test_vanishing_when_no_powers_meet_support(self):
        g = bump(0.45, 0.2)  # support [e^0.25, e^0.65], between 1 and 2
        assert abs(weil.w_p_contour(g, 5)) < 1e-8

    def test_matches_direct_sum(self):
        assert abs(weil.w_p_contour(G0, 2) - weil.w_p(G0, 2)) < 1e-6


class TestRealPlaceForms:
    def test_step_closed_form_value(self):
        got = weil.w_r(StepFunction(4.0), "finite")
        expected = (LOG_PI + EULER_GAMMA) / 2 + math.log(4.0) + 0.5 * math.log(15.0 / 16.0)
        assert abs(got - expected) < 1e-12
        assert abs(got - 2.21500) < 5e-6

    def test_step_nonfinite_forms_rejected(self):
        for form in ("series", "pf", "contour", "convolution"):
            with pytest.raises(AdmissibilityError):
                weil.w_r(StepFunction(4.0), form)

    def test_support_above_one_kernel_oracle(self):
        # with g(1) = 0 and support in (1, inf) the finite form collapses to
        # int g(t) t/(t^2-1) dt, checked by independent quadrature
        g = bump(1.5, 0.3)
        ref = quad(lambda t: g.evaluate(t).real * t / (t * t - 1.0),
                   math.exp(1.2), math.exp(1.8), limit=200, epsabs=1e-13)[0]
        assert abs(weil.w_r(g, "finite") - ref) < 1e-11

    def test_five_form_agreement_reference(self):
        vals = [weil.w_r(G0, f) for f in weil.W_R_FORMS]
        spread = max(abs(a - b) for a in vals for b in vals)
        assert spread <= 1e-7

    def test_unknown_form(self):
        with pytest.raises(DomainError):
            weil.w_r(G0, "magic")


def oracle_w_r(g):
    """W_r(g) = V_r(g) + V_r(g^tau) for a sum of plain bump terms (order 0),
    by mpmath.quad at 30 digits on the finite formula with every bump edge
    as a break:

        V_r(g) = (log pi + gamma)/2 F(0) + int_0^inf F dx
                 + int_0^inf (F(x) - F(0)) / (e^(2x) - 1) dx,  F(x) = g(e^x).
    """
    def v_r(terms):
        assert all(t.order == 0 for t in terms)

        def F(x):
            total = mp.mpf(0)
            for t in terms:
                xi = (x - t.mu) / mp.mpf(t.sigma)
                if xi * xi < 1:
                    total += mp.mpc(t.amp) * mp.exp(t.kappa * x - 1 / (1 - xi * xi))
            return total

        edges = sorted({e for t in terms for e in (t.mu - t.sigma, t.mu + t.sigma)})
        b = edges[-1]
        f0 = F(mp.mpf(0))
        val = (mp.log(mp.pi) + mp.euler) / 2 * f0
        if b <= 0:
            return val
        pts = [mp.mpf(x) for x in sorted({0.0, b} | {e for e in edges if 0 < e < b})]
        val += mp.quad(F, pts) + mp.quad(lambda x: (F(x) - f0) / mp.expm1(2 * x), pts)
        return val + f0 / 2 * mp.log(-mp.expm1(-2 * mp.mpf(b)))  # the tail of -F(0) past b

    with mp.workdps(30):
        return complex(v_r(g.terms) + v_r(g.transpose().terms))


#: Sums of one to three bumps, real or complex, some with supports off u = 1.
_SERIES_BUMPS = st.lists(
    st.builds(bump, st.floats(-2.5, 2.5), st.floats(0.2, 1.5),
              st.one_of(st.floats(-2.0, 2.0),
                        st.complex_numbers(max_magnitude=2.0, allow_nan=False,
                                           allow_infinity=False))),
    min_size=1, max_size=3).map(lambda bs: sum(bs[1:], bs[0]))


class TestSeriesRoute:
    #: Measured distances of series to the oracle: 2.5e-16 or less for the
    #: four single bumps, 1.2e-13 for sigma = 8 and 1.1e-13 for the sum,
    #: the same with and without a panel cut at 4/j in the j-term.
    ORACLE_LITERALS = ("bump:mu=0.7,sigma=0.6", "bump:mu=0,sigma=0.5",
                       "bump:mu=-0.8,sigma=0.4", "bump:mu=1.8,sigma=0.35", "bump:mu=0,sigma=8",
                       "bump:mu=0,sigma=0.5+mu=0.4,sigma=0.2+mu=-0.6,sigma=0.3,amp=3")

    @pytest.mark.parametrize("literal", ORACLE_LITERALS)
    def test_within_1e_12_of_the_oracle(self, literal):
        g = parse_test_function(literal)
        assert abs(weil.w_r(g, "series") - oracle_w_r(g)) <= 1e-12

    @settings(max_examples=120, deadline=None)
    @given(_SERIES_BUMPS)
    def test_agrees_with_finite(self, g):
        # measured <= 6.7e-12 over 1500 random sums; the finite route's
        # Taylor value below |x| = 1e-4 was 1.7e-9 off for bump(0.17, 0.2, 2)
        finite = weil.w_r(g, "finite")
        assert abs(weil.w_r(g, "series") - finite) <= 1e-9 * max(1.0, abs(finite))


class TestSecondDerivative:
    """D^2 bump(0, 0.5) takes order-4 kernel derivatives at r."""

    G = derivation_D(derivation_D(bump(0.0, 0.5)))

    def test_every_form_reports(self):
        rep = weil.place_term_report(self.G, Place.real())
        assert sorted([*dict(rep.values), *rep.not_converged]) == sorted(weil.W_R_FORMS)
        assert {"finite", "series"} <= set(dict(rep.values))

    def test_finite_agrees_with_series(self):
        # measured 4.4e-16 apart, at -2.71634333003
        finite = weil.w_r(self.G, "finite")
        assert abs(finite - weil.w_r(self.G, "series")) <= 1e-12
        assert abs(finite - (-2.71634333003)) <= 1e-11


class TestRealPanelBreaks:
    #: pf and convolution integrate on the u axis; with panels split only at
    #: the support ends and at 1 and 2 these spread 7.4e-7, 4.1e-8 and 7.07
    #: (pf and convolution at 2.6939 against 9.7678); with a break at every
    #: bump edge and at the powers of 2 inside the support, 4.4e-12, 5.9e-13
    #: and 1.5e-12.
    LITERALS = ("bump:mu=0,sigma=0.5+mu=0.4,sigma=0.2+mu=-0.6,sigma=0.3,amp=3",
                "bump:mu=0,sigma=8", "bump:mu=0,sigma=40")

    @pytest.mark.parametrize("literal", LITERALS)
    def test_u_axis_routes_within_1e_7(self, literal):
        g = parse_test_function(literal)
        vals = [weil.w_r(g, f) for f in ("finite", "series", "pf", "convolution")]
        assert max(abs(a - b) for a in vals for b in vals) <= 1e-7

    def test_breakpoints(self):
        g = parse_test_function(self.LITERALS[0])
        edges = sorted({math.exp(x) for x in g._breakpoints()})
        got = g._u_breakpoints()
        assert got == sorted(set(edges) | {0.5, 1.0})
        assert bump(0.0, 2.0)._u_breakpoints() == [math.exp(-2.0), 0.25, 0.5, 1.0, 2.0, 4.0,
                                                   math.exp(2.0)]
        # past 64 every m-th power, so no more than 128 of them
        wide = bump(0.0, 705.0)._u_breakpoints()
        high = [u for u in wide if 64.0 < u < wide[-1]]
        assert len(high) <= 128 and high[1] / high[0] == 2.0 ** 8


class TestWField:
    def test_reduces_to_w_r_at_one(self):
        v = weil.w_field(G0, Place.real(), 1.0)
        assert abs(v - weil.w_r(G0, "convolution")) < 1e-12
        assert abs(v - weil.w_r(G0, "finite")) < 1e-7

    def test_reduces_to_w_p_at_valuation_zero(self):
        for p in (2, 3):
            v = weil.w_field(G0, Place.prime(p), 0)
            assert abs(v - weil.w_p(G0, p)) < 1e-12
            assert abs(v - haran_term(G0, Place.prime(p))) < 1e-12

    @pytest.mark.parametrize("y", [0.5, 2.0, 3.0])
    def test_real_inversion_identity(self, y):
        lhs = weil.w_field(G0, Place.real(), y)
        rhs = weil.w_field(G0.transpose(), Place.real(), 1.0 / y) / abs(y)
        assert abs(lhs - rhs) <= 1e-7

    def test_two_term_decomposition(self):
        # the pointwise term splits exactly into -log|y| g(|y|) plus the
        # additive convolution, evaluated here through the G machinery
        y = 2.0
        g = G0
        a, b = g.support_log()
        u1, u2 = math.exp(a), math.exp(b)
        phi = RealTestInput(
            fn=lambda t: g.evaluate(np.abs(y - np.asarray(t, dtype=float))),
            value_at_zero=complex(g.evaluate(y)),
            breakpoints=tuple(sorted({0.0, y, y - u2, y - u1, y + u1, y + u2})),
            support_lo=y - u2, support_hi=y + u2)
        conv = g_apply(Place.real(), phi)
        total = weil.w_field(g, Place.real(), y)
        assert abs(total - (-math.log(y) * g.evaluate(y) + conv)) < 1e-12

    def test_y_zero_rejected(self):
        with pytest.raises(DomainError):
            weil.w_field(G0, Place.real(), 0.0)


class TestZeroSide:
    def test_empty_table_boundary_terms(self):
        empty = ZeroTable(np.empty(0), 10.0, 1e-9, certified=True)
        v = weil.zero_side_sum(G0, empty)
        assert abs(v - (G0.mellin(0.0) + G0.mellin(1.0))) < 1e-14

    def test_step_reproduces_classical_series(self, zeros100):
        # the step zero side is log X + (X-1) - sum over paired zeros of
        # (X^rho - 1)/rho, assembled here directly from the ordinates
        X = 4.0
        st = StepFunction(X)
        rho = 0.5 + 1j * zeros100.ordinates
        series = np.sum(2.0 * np.real((np.exp(rho * math.log(X)) - 1.0) / rho))
        expected = math.log(X) + (X - 1.0) - series
        assert abs(weil.zero_side_sum(st, zeros100) - expected) < 1e-10

    def test_uncertified_rejected(self):
        t = ZeroTable(np.array([14.13]), 15.0, 1e-9)
        with pytest.raises(CertificationError):
            weil.zero_side_sum(G0, t)


class TestExplicitFormula:
    def test_reference_balance(self, zeros100):
        rep = weil.explicit_formula_check(G0, zeros100)
        assert abs(rep.residual) <= 1e-4
        assert rep.tail_estimate > 0.0
        labels = [lab for lab, _ in rep.place_terms]
        assert labels == ["r", "2", "3"]

    def test_residual_improves_with_height(self, zeros50, zeros200):
        r50 = weil.explicit_formula_check(G0, zeros50).residual
        r200 = weil.explicit_formula_check(G0, zeros200).residual
        assert abs(r200) <= abs(r50)

    def test_linearity_in_g(self, zeros100):
        a = 2.0 - 1.5j
        rep1 = weil.explicit_formula_check(G0, zeros100)
        rep2 = weil.explicit_formula_check(G0.scale(a), zeros100)
        assert abs(rep2.residual - a * rep1.residual) <= 1e-10

    def test_step_routed_elsewhere(self, zeros100):
        with pytest.raises(AdmissibilityError):
            weil.explicit_formula_check(StepFunction(4.0), zeros100)

    def test_linearity_of_local_terms(self):
        rng = np.random.default_rng(3)
        f, k = bump(0.4, 0.5), bump(-0.2, 0.3)
        a, b = complex(rng.normal(), rng.normal()), complex(rng.normal(), rng.normal())
        comb = f.scale(a) + k.scale(b)
        for p in (2, 3):
            lhs = weil.w_p(comb, p)
            rhs = a * weil.w_p(f, p) + b * weil.w_p(k, p)
            assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(rhs))
        lhs = weil.w_r(comb, "finite")
        rhs = a * weil.w_r(f, "finite") + b * weil.w_r(k, "finite")
        assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(rhs))

    def test_transpose_invariance(self):
        for g in (G0, bump(-0.8, 0.4)):
            gt = g.transpose()
            for p in (2, 3):
                assert abs(weil.w_p(g, p) - weil.w_p(gt, p)) < 1e-12
            for form in ("finite", "pf", "series", "convolution"):
                assert abs(weil.w_r(g, form) - weil.w_r(gt, form)) <= 1e-8, form


class TestVonMangoldtCheck:
    def test_reference_height(self, zeros500):
        rep = weil.vonmangoldt_check(10.5, zeros500)
        assert abs(rep.residual) <= 0.1
        assert rep.tail_estimate > 0.0

    def test_near_one_divergence_isolated(self, zeros100):
        rep = weil.vonmangoldt_check(1.0 + 1e-4, zeros100)
        assert rep.prime_side == 0.0  # psi side empty below the first prime
        # the divergence lives in -(1/2) log(1 - X^-2), which dominates
        assert rep.zero_side.real > 2.0

    def test_constant_bridge(self, zeros1000):
        # sum over paired zeros of 1/rho converges to
        # 1 + (log pi + gamma)/2 - log(2 pi) = (2 + gamma - log 4 pi)/2
        lhs = 1.0 + 0.5 * (LOG_PI + EULER_GAMMA) - math.log(2.0 * math.pi)
        target = 0.5 * (2.0 + EULER_GAMMA - math.log(4.0 * math.pi))
        assert abs(lhs - target) < 1e-15
        rho = 0.5 + 1j * zeros1000.ordinates
        partial = float(np.sum(2.0 * np.real(1.0 / rho)))
        tail = 0.5 * (math.log(zeros1000.t_max / (2 * math.pi)) + 1.0) / (math.pi * zeros1000.t_max)
        assert abs(partial + tail - target) < 3e-3


class TestReciprocalSum:
    def test_paper_constant(self, zeros1000):
        target = 2.0 + EULER_GAMMA - math.log(4.0 * math.pi)
        assert abs(target - 0.0461914) < 5e-8
        got = weil.reciprocal_zero_sum(zeros1000, with_tail=True)
        assert abs(got - target) <= 3e-3

    def test_partial_at_moderate_height(self, zeros100):
        target = 2.0 + EULER_GAMMA - math.log(4.0 * math.pi)
        got = weil.reciprocal_zero_sum(zeros100, with_tail=True)
        assert abs(got - target) <= 2e-2

    def test_modulus_variant_exact(self, zeros1000):
        a = weil.reciprocal_zero_sum(zeros1000, with_tail=False)
        b = weil.reciprocal_zero_sum_modulus(zeros1000)
        assert abs(a - b) <= 1e-14 * max(1.0, abs(a))


class TestPositivity:
    def test_zero_function(self, zeros100):
        from eflab.testfn import BumpCombination
        assert weil.positivity_q(BumpCombination(()), zeros100) == (0.0, 0.0)

    def test_reference_bump(self, zeros100):
        pq, zq = weil.positivity_q(G0, zeros100)
        assert pq >= -1e-6
        assert abs(pq - zq) <= 1e-4

    def test_phase_invariance(self, zeros100):
        alpha = 0.73
        pq1, zq1 = weil.positivity_q(G0, zeros100)
        pq2, zq2 = weil.positivity_q(G0.scale(complex(math.cos(alpha), math.sin(alpha))),
                                     zeros100)
        assert abs(pq1 - pq2) <= 1e-9 and abs(zq1 - zq2) <= 1e-12

    def test_bit_identical_to_the_explicit_formula_route(self, zeros100):
        # bit for bit the prime side that explicit_formula_check(h) reports
        for g in CORPUS:
            h = autocorrelate(g)
            boundary = h.mellin(np.array([0.0 + 0.0j, 1.0 + 0.0j]))
            prime = weil.explicit_formula_check(h, zeros100).prime_side
            gam = zeros100.ordinates
            upper = g.mellin(0.5 + 1j * gam)
            lower = g.conjugate().mellin(0.5 + 1j * gam)
            want = (float(np.real(boundary[0] + boundary[1] - prime)),
                    float(np.sum(np.abs(upper) ** 2 + np.abs(lower) ** 2)))
            got = weil.positivity_q(g, zeros100)
            assert got == want
            # the two-sided sum it replaces, evaluated at -gamma directly
            vals = g.mellin(np.concatenate([0.5 + 1j * gam, 0.5 - 1j * gam]))
            two_sided = float(np.sum(np.abs(vals) ** 2))
            assert abs(got[1] - two_sided) <= 1e-12 * two_sided

    def test_no_zero_side_of_h(self, zeros100, monkeypatch):
        calls = []

        def counted(fn):
            def wrapper(*args, **kwargs):
                calls.append(fn.__name__)
                return fn(*args, **kwargs)
            return wrapper

        for name in ("zero_side_sum", "zero_sum_tail_estimate"):
            monkeypatch.setattr(weil, name, counted(getattr(weil, name)))
        weil.positivity_q(G0, zeros100)
        assert calls == []
        weil.explicit_formula_check(G0, zeros100)  # the counters do count
        assert calls == ["zero_side_sum", "zero_sum_tail_estimate"]


class TestSymmetryShift:
    def test_product_formula_integers(self, zeros100):
        # q = 6: (-log 2) + (-log 3) + log 6 = 0
        assert abs(weil.symmetry_shift(G0, Fraction(6), zeros100)) <= 1e-12

    def test_identity_rational(self):
        rows = weil.log_abs_places(Fraction(1))
        assert rows == [("r", 0.0)]
        assert abs(weil.symmetry_shift(G0, Fraction(1))) == 0.0

    def test_ratio(self, zeros100):
        # q = 5/3: log 3 - log 5 + log(5/3) = 0
        rows = dict(weil.log_abs_places(Fraction(5, 3)))
        assert abs(rows["3"] - math.log(3.0)) < 1e-15
        assert abs(rows["5"] + math.log(5.0)) < 1e-15
        assert abs(weil.symmetry_shift(G0, Fraction(5, 3), zeros100)) <= 1e-12

    def test_residual_unchanged(self, zeros100):
        for q in (Fraction(6), Fraction(5, 3)):
            assert weil.shifted_residual_delta(G0, q, zeros100) <= 1e-10

    def test_zero_rejected(self):
        with pytest.raises(DomainError):
            weil.symmetry_shift(G0, Fraction(0))

    @pytest.mark.parametrize("q,want", [
        (Fraction(-12, 35), [("2", -1.3862943611198906), ("3", -1.0986122886681098),
                             ("5", 1.6094379124341003), ("7", 1.9459101490553132),
                             ("r", -1.0704414117014134)]),
        (Fraction(1024, 2187), [("2", -6.931471805599453), ("3", 7.690286020676768),
                                ("r", -0.7588142150773147)]),
        (Fraction(1000003, 6), [("2", 0.6931471805599453), ("3", 1.0986122886681098),
                                ("1000003", -13.815513557959774), ("r", 12.02375408873172)]),
        ((360, 7), [("2", -2.0794415416798357), ("3", -2.1972245773362196),
                    ("5", -1.6094379124341003), ("7", 1.9459101490553132),
                    ("r", 3.9401938823948424)]),
    ])
    def test_log_abs_places_values(self, q, want):
        # exact values: the shared factorization must not change a bit
        assert weil.log_abs_places(q) == want

    @pytest.mark.parametrize("k", [1, 2])
    def test_log_abs_places_fail_fast_at_a_large_prime_power(self, k):
        # trial division took 7.2 s at k = 1
        p = 10000000000000061
        start = time.perf_counter()
        rows = weil.log_abs_places(p ** k)
        assert time.perf_counter() - start < 0.1
        assert rows == [(str(p), -k * math.log(p)), ("r", math.log(float(p ** k)))]

    def test_log_abs_places_match_the_sieve(self):
        # one prime place per prime power n <= 1e5, carrying -log|n|_p = -Lambda(n) k
        sieve = VonMangoldtSieve.build(10 ** 5)
        for n, lam in sieve.entries:
            rows = weil.log_abs_places(n)
            assert len(rows) == 2 and math.log(int(rows[0][0])) == lam, n
            assert rows[0][1] == -round(math.log(n) / lam) * lam, n


class TestPrimePlaces:
    def test_reach_past_the_sieve_cap(self):
        # e^13.8155 = 10^6, and bump(0, 13.8) reaches every prime up to e^13.8
        assert weil.prime_places(bump(0.0, 13.8))[-1] == 984593
        with pytest.raises(DomainError, match="up to e\\^13.82, past the sieve cap 1000000"):
            weil.prime_places(bump(0.0, 13.82))

    def test_positivity_places_from_the_hull(self, zeros100):
        # the hull of bump(0, 6.91) is [-13.82, 13.82], past the cap, though
        # h's last nonzero sample, where its edge underflows, is not
        with pytest.raises(DomainError, match="up to e\\^13.82"):
            weil.positivity_q(bump(0.0, 6.91), zeros100)
        # e^1400 is past the float range
        with pytest.raises(DomainError, match="up to e\\^1400"):
            weil.positivity_q(bump(0.0, 700.0), zeros100)


class TestReports:
    #: Distinct Gauss-Legendre rules the corpus's place reports build from a
    #: cold cache (41 before node counts were put on a fixed ladder).
    CORPUS_RULES = 27

    def test_corpus_reports_build_few_rules(self):
        _gl_rule.cache_clear()
        for g in CORPUS:
            for place in [Place.real()] + [Place.prime(p) for p in weil.prime_places(g)]:
                weil.place_term_report(g, place)
        assert _gl_rule.cache_info().currsize <= self.CORPUS_RULES

    def test_local_term_unknown_prime_method(self):
        with pytest.raises(DomainError, match="prime-place method"):
            weil.local_term(G0, Place.prime(2), "pf")

    def test_place_report_real_smooth(self):
        rep = weil.place_term_report(G0, Place.real())
        assert [m for m, _ in rep.values] == list(weil.W_R_FORMS)
        assert rep.spread <= 1e-7

    def test_place_report_step(self):
        rep = weil.place_term_report(StepFunction(4.0), Place.real())
        assert [m for m, _ in rep.values] == ["finite"]
        assert set(rep.inadmissible) == {"series", "pf", "contour", "convolution"}
        rep2 = weil.place_term_report(StepFunction(10.0), Place.prime(2))
        methods = dict(rep2.values)
        assert abs(methods["direct"] - 3 * math.log(2)) < 1e-13
        assert "contour" in rep2.inadmissible

    def test_csv_shape(self, zeros100):
        rep = weil.explicit_formula_check(G0, zeros100)
        text = weil.rows_to_csv(weil.ef_report_rows(rep, tol=1e-4))
        lines = text.strip().split("\n")
        assert lines[0] == weil.CSV_HEADER
        assert any(ln.startswith("residual,") and ln.endswith(",ok") for ln in lines)
