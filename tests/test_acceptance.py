"""Acceptance suite: every criterion at its stated tolerance, one pass/fail
line per criterion."""

import math

import mpmath as mp
import numpy as np

from eflab import weil
from eflab.padic import (GAUSSIAN, LevelFunction, closed_form_spectrum,
                         cusp_project, cuspidal_spectrum, fourier_level,
                         gamma_identity_check, haran_term,
                         mellin_fourier_check, reflect_level)
from eflab.special import EULER_GAMMA, Place, gamma_factor
from eflab.testfn import StepFunction
from eflab.zeta import hardy_z

from conftest import CORPUS, G0, random_bumps


def report(num: int, ok: bool, desc: str, detail: str = ""):
    line = f"ACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'}: {desc}"
    if detail:
        line += f"  [{detail}]"
    print("\n" + line)
    assert ok, line


def test_c01_five_form_w_r_agreement():
    worst = 0.0
    for g in [G0] + random_bumps(5, seed=20260810):
        vals = [weil.w_r(g, form) for form in weil.W_R_FORMS]
        spread = max(abs(a - b) for a in vals for b in vals)
        worst = max(worst, spread)
    report(1, worst <= 1e-7,
           "five-form W_r spread <= 1e-7 on g0 and 5 random bumps",
           f"max spread {worst:.3e}")


def test_c02_w_p_triple_agreement():
    worst_contour = 0.0
    worst_haran = 0.0
    for g in CORPUS:
        for p in (2, 3, 5, 7):
            direct = weil.w_p(g, p)
            contour = weil.w_p_contour(g, p)
            shell = haran_term(g, Place.prime(p))
            worst_contour = max(worst_contour, abs(direct - contour))
            worst_haran = max(worst_haran, abs(direct - shell))
    ok = worst_contour <= 1e-6 and worst_haran <= 1e-12
    report(2, ok, "W_p direct = contour (1e-6) = Haran shell sum (1e-12), p in {2,3,5,7}",
           f"contour {worst_contour:.3e}, shell {worst_haran:.3e}")


def test_c03_explicit_formula_balance(zeros50, zeros100, zeros200):
    rep100 = weil.explicit_formula_check(G0, zeros100)
    r50 = abs(weil.explicit_formula_check(G0, zeros50).residual)
    r200 = abs(weil.explicit_formula_check(G0, zeros200).residual)
    ok = len(zeros100) == 29 and abs(rep100.residual) <= 1e-4 and r200 <= r50
    report(3, ok, "|zero side - prime side| <= 1e-4 at t_max=100; improves 50 -> 200",
           f"residual {abs(rep100.residual):.3e}, r50 {r50:.3e}, r200 {r200:.3e}")


def test_c04_zero_engine(zeros100):
    # independent oracle: Euler-Maclaurin (mpmath) Hardy-function bisection
    a, b = 14.0, 14.2
    fa = mp.siegelz(a)
    for _ in range(40):
        m = 0.5 * (a + b)
        fm = mp.siegelz(m)
        if mp.sign(fa) == mp.sign(fm):
            a, fa = m, fm
        else:
            b = m
    gamma1 = 0.5 * (a + b)
    first_err = abs(zeros100.ordinates[0] - float(gamma1))
    g = zeros100.ordinates
    signs_differ = np.all(np.sign(hardy_z(g - 2e-9)) != np.sign(hardy_z(g + 2e-9)))
    ok = len(zeros100) == 29 and first_err <= 1e-6 and bool(signs_differ)
    report(4, ok, "29 zeros below 100; first within 1e-6 of the oracle; "
           "every ordinate straddles a Hardy-Z sign change",
           f"first-ordinate error {first_err:.2e}")


def test_c05_reciprocal_sum(zeros1000):
    target = 2.0 + EULER_GAMMA - math.log(4.0 * math.pi)
    got = weil.reciprocal_zero_sum(zeros1000, with_tail=True)
    partial = weil.reciprocal_zero_sum(zeros1000, with_tail=False)
    variant = weil.reciprocal_zero_sum_modulus(zeros1000)
    ok = abs(got - target) <= 3e-3 and abs(variant - partial) <= 1e-14
    report(5, ok, "reciprocal zero sum + tail within 3e-3 of 2+gamma-log(4 pi); "
           "1/|rho|^2 variant equals the partial sum",
           f"|sum - target| {abs(got - target):.3e}")


def test_c06_von_mangoldt(zeros500):
    rep = weil.vonmangoldt_check(10.5, zeros500)
    ok = abs(rep.residual) <= 0.1
    report(6, ok, "von Mangoldt balance at X=10.5, t_max=500, within 0.1",
           f"residual {abs(rep.residual):.3e}, truncation estimate {rep.tail_estimate:.3e}")


def test_c07_step_closed_form():
    got = weil.w_r(StepFunction(4.0), "finite")
    expected = (math.log(math.pi) + EULER_GAMMA) / 2 + math.log(4.0) \
        + 0.5 * math.log(15.0 / 16.0)
    ok = abs(got - expected) <= 1e-12
    report(7, ok, "W_r(step X=4) = (log pi + gamma)/2 + log 4 + log(15/16)/2 to 1e-12",
           f"difference {abs(got - expected):.2e}")


def test_c08_conductor_spectra():
    worst = 0.0
    closed_gap = 0.0
    for p, n in ((3, 3), (5, 2), (2, 3)):
        ev = cuspidal_spectrum(p, n)
        ratios = ev / math.log(p)
        worst = max(worst, float(np.max(np.abs(ratios - np.round(ratios)))))
        closed = closed_form_spectrum(p, n)
        assert closed.shape == ev.shape
        closed_gap = max(closed_gap, float(np.max(np.abs(ev - closed))) / math.log(p))
    ev2 = cuspidal_spectrum(2, 3)
    min2 = float(ev2.min()) if ev2.size else math.inf
    ok = worst <= 1e-8 and closed_gap <= 1e-8 and min2 >= 2.0 * math.log(2.0) - 1e-8
    report(8, ok, "cuspidal spectra are integer multiples of log p and match "
           "the closed form; p=2 floor at 2 log 2",
           f"ratio defect {worst:.2e}, closed-form gap {closed_gap:.2e}, "
           f"p=2 min {min2:.6f}")


def test_c09_finite_fourier():
    rng = np.random.default_rng(99)
    worst_par = 0.0
    worst_refl = 0.0
    for (p, m, n) in ((2, 5, 6), (2, 6, 5), (3, 3, 3)):  # sizes 2048, 2048, 729
        size = p ** (m + n)
        phi = LevelFunction(p, m, n, rng.normal(size=size) + 1j * rng.normal(size=size))
        worst_par = max(worst_par, abs(phi.norm_sq() - fourier_level(phi).norm_sq()))
        FF = fourier_level(fourier_level(phi))
        worst_refl = max(worst_refl,
                         float(np.max(np.abs(FF.coeffs - reflect_level(phi).coeffs))))
    # vanishing near 0 for a cuspidal input
    p, m, n = 3, 1, 2
    phi = cusp_project(LevelFunction(p, m, n,
                                     rng.normal(size=27) + 1j * rng.normal(size=27)))
    F = fourier_level(phi)
    ball = [j for j in range(F.size) if j == 0 or F.vp[j] - F.m >= m]
    vanish = float(np.max(np.abs(F.coeffs[ball])))
    ok = worst_par <= 1e-12 and worst_refl <= 1e-12 and vanish <= 1e-12
    report(9, ok, "Parseval and double-transform reflection exact to 1e-12 at "
           "size 2048; cuspidal transforms vanish near 0",
           f"parseval {worst_par:.2e}, reflection {worst_refl:.2e}, near-0 {vanish:.2e}")


def test_c10_local_functional_equation():
    worst = 0.0
    for s in (0.3, 0.5, 0.7 + 2j):
        r = gamma_identity_check(Place.real(), s, GAUSSIAN)
        worst = max(worst, abs(r - gamma_factor(Place.real(), s)))
        for p in (2, 3):
            ind = LevelFunction(p, 0, 0, [1.0])
            r = gamma_identity_check(Place.prime(p), s, ind)
            worst = max(worst, abs(r - gamma_factor(Place.prime(p), s)))
    report(10, worst <= 1e-8, "gamma_identity_check matches gamma_factor to 1e-8 "
           "at s in {0.3, 0.5, 0.7+2i}", f"max deviation {worst:.3e}")


def test_c11_mellin_fourier_bridge():
    worst = 0.0
    for v in (0, -1, 1):  # shells |x| = 1, 2, 1/2
        line, direct = mellin_fourier_check(G0, Place.prime(2), v)
        worst = max(worst, abs(line - direct))
    report(11, worst <= 1e-6, "complex-line integral = direct 2-adic Fourier "
           "on shells |x| in {1, 2, 1/2}", f"max difference {worst:.3e}")


def test_c12_positivity(zeros100):
    pq, zq = weil.positivity_q(G0, zeros100)
    tail = weil.zero_sum_tail_estimate(G0, zeros100.t_max)
    ok = pq >= -1e-6 and abs(pq - zq) <= 1e-4 + tail
    report(12, ok, "prime_side_q >= -1e-6 and both positivity sides agree "
           "within 1e-4 + tail", f"prime {pq:.6e}, zero {zq:.6e}, diff {abs(pq-zq):.2e}")


def test_c13_symmetry(zeros100):
    from fractions import Fraction
    worst_shift = 0.0
    worst_delta = 0.0
    for q in (Fraction(6), Fraction(5, 3)):
        worst_shift = max(worst_shift, abs(weil.symmetry_shift(G0, q, zeros100)))
        worst_delta = max(worst_delta, weil.shifted_residual_delta(G0, q, zeros100))
    ok = worst_shift <= 1e-12 and worst_delta <= 1e-10
    report(13, ok, "rational-shift total = 0 to 1e-12; shifted residual "
           "unchanged to 1e-10", f"shift {worst_shift:.2e}, delta {worst_delta:.2e}")
