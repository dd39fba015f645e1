"""The prime side of the explicit formula and the balance against the zeros.

The identity under test is

    ghat(0) + ghat(1) - sum_rho ghat(rho) = sum_nu W_nu(g)

with the local terms computed by every equivalent route:

  prime place p
    direct       log p sum_k g(p^k) + log p sum_k p^-k g(p^-k)
    contour      (1/2 pi i) int_{Re s = c} Lambda_p(s) ghat(s) ds
    convolution  (G * g_p)(1), the field term W_p(g; y) at |y| = 1: the
                 |y - t| shell table with G applied by padic.g_apply, exact

  real place
    finite       V_r(g) + V_r(g^tau), V_r(g) = (log pi + gamma)/2 g(1)
                 + int_1^inf g dt/t + int_1^inf (g(t)-g(1))/(t^2-1) dt/t,
                 both integrals on one node set
    series       (log pi + gamma) g(1) + int_1^inf (g+g^tau) du/u
                 + sum_{j>=1} int_1^inf (g - g(1)) u^-2j du/u  (+ transpose),
                 partial sums to J plus the exact geometric remainder; all
                 J terms on one node set, with no per-term panel cut
    pf           (log 2 pi + gamma) g(1) + finite-part integrals over the
                 multiplicative group, rewritten exactly via y = 1/x
    contour      Lambda_r version of the vertical-line integral
    convolution  (G_r * g_r)(1), the field term W_r(g; y) at y = 1, by
                 regularized quadrature

plus the step-function closed form
    W_r(step X) = (log pi + gamma)/2 + log X + (1/2) log(1 - X^-2),
the only route admissible for the discontinuous kind.

local_term is the one table from a (place, method) pair to its route; the
per-place reports and the command line both go through it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .contour import VerticalLineIntegrator, mellin_pair
from .errors import (AdmissibilityError, CertificationError, ConvergenceError,
                     DomainError)
from .padic import haran_term, w_field  # noqa: F401  (w_field is re-exported)
from .quadrature import panel_nodes
from .special import EULER_GAMMA, LOG_2PI, LOG_PI, Place, factorize, lambda_factor
from .testfn import StepFunction, TestFunction, autocorrelate
from .zeta import SIEVE_LIMIT_MAX, ZeroTable, _sieve_for, psi_sum

W_R_FORMS = ("finite", "series", "pf", "contour", "convolution")
PRIME_METHODS = ("direct", "contour", "convolution")

_SERIES_TERMS = 64


def v_p_sum(g: TestFunction, p: int) -> complex:
    """V_p(g) = log p * sum_{k>=1} g(p^k); a finite sum on compact support."""
    Place.prime(p)  # rejects a non-prime p
    _, b = g.support_log()
    logp = math.log(p)
    k_hi = math.floor(b / logp + 1e-12)
    total = 0.0 + 0.0j
    for k in range(1, k_hi + 1):
        total += complex(g.evaluate(float(p) ** k))
    return logp * total


def w_p(g: TestFunction, p: int) -> complex:
    """W_p(g) = V_p(g) + V_p(g^tau), the full prime-place term."""
    return v_p_sum(g, p) + v_p_sum(g.transpose(), p)


def w_p_contour(g: TestFunction, p: int) -> complex:
    """Prime-place term as a truncated vertical-line integral at Re s = 1/2."""
    if not g.is_smooth:
        raise AdmissibilityError("w_p_contour needs a smooth test function")
    place = Place.prime(p)
    integ = VerticalLineIntegrator(g, weight_osc=math.log(p))
    return integ.integrate(lambda s: lambda_factor(place, s), place)


# ----------------------------------------------------------------------------
# the real-place term, five ways

def _profile_at_zero(g: TestFunction):
    z = np.array([0.0])
    return tuple(complex(g.profile_deriv(z, k)[0]) for k in range(3))


def _v_r_finite(g: TestFunction) -> complex:
    """V_r(g) on the log axis; the (t^2-1) singularity is removable and the
    divided difference is replaced by its Taylor value below |x| = 1e-6."""
    a, b = g.support_log()
    f0, f1, f2 = _profile_at_zero(g)
    total = 0.5 * (LOG_PI + EULER_GAMMA) * f0
    if b <= 0.0:
        return total  # g vanishes on [1, inf) and g(1) = 0
    lo = max(a, 0.0) if f0 == 0 else 0.0
    x, w = panel_nodes([lo, b] + [x for x in g._breakpoints() if lo < x < b], density=96.0)
    F = np.asarray(g.profile(x), dtype=complex)
    total += complex(np.sum(w * F))
    # below a lo > 0 both integrands vanish: g is 0 there and so is g(1)
    ratio = np.where(np.abs(x) < 1e-6, f1 + 0.5 * x * f2, (F - f0) / x)
    with np.errstate(over="ignore"):  # x / expm1(2x) is 0 where expm1 overflows
        total += complex(np.sum(w * ratio * (x / np.expm1(2.0 * x))))
    if f0 != 0:
        total += -f0 * (-0.5) * math.log1p(-math.exp(-2.0 * b))  # exact tail of -g(1)/(t^2-1)
    return total


def _w_r_series(g: TestFunction) -> complex:
    """Series route: J explicit j-terms plus the exact geometric remainder.

    The j-term integrates phi = g + g^tau - 2 g(1) against e^(-2jx) over
    (0, B).  All J terms use one node set, the base panels from 0, B and the
    inner breakpoints of g and g^tau, with g + g^tau evaluated once on it,
    and are one (J, nodes) array of exponentials times w phi.  No panel is
    cut where e^(-2jx) decays: a panel of length L has n >= 96 L + 16 nodes,
    and an n-node Gauss-Legendre rule integrates e^(-2jx) there to about
    (e j L / 4n)^(2n) of its size, below 1e-39 for j <= J on every panel
    under the 6000-node cap.  Past the support phi is -2 g(1), and its
    j-terms and their remainder sum exactly to g(1) log(1 - e^(-2B)).
    """
    gt = g.transpose()
    f0 = complex(g.evaluate(1.0))
    B = max(g.support_log()[1], gt.support_log()[1], 0.0)
    total = (LOG_PI + EULER_GAMMA) * f0
    breaks = [0.0, B] + [x for x in g._breakpoints() + gt._breakpoints() if 0.0 < x < B]
    x, w = panel_nodes(breaks, density=96.0)
    both = np.asarray(g.profile(x), dtype=complex) + gt.profile(x)
    total += complex(np.sum(w * both))
    phi = both - 2.0 * f0
    j = np.arange(1, _SERIES_TERMS + 1)
    total += complex(np.sum(np.exp(np.multiply.outer(-2.0 * j, x)) * (w * phi)))

    # remainder sum_{j>J}: geometric closed form of the exponential tail
    d1 = _profile_at_zero(g)[1] + _profile_at_zero(gt)[1]  # phi(0) = 0, phi'(0) drives the limit
    ratio = np.where(np.abs(x) < 1e-6, 0.5 * d1,
                     phi / np.where(x == 0.0, 1.0, -np.expm1(-2.0 * x)))
    total += complex(np.sum(w * ratio * np.exp(-2.0 * (_SERIES_TERMS + 1) * x)))
    if f0 != 0:
        total += f0 * math.log1p(-math.exp(-2.0 * B))  # every j-term's piece past B
    return total


def _w_r_pf(g: TestFunction) -> complex:
    """Finite-part route, rewritten exactly by the measure-invariant y = 1/x:

        (log 2 pi + gamma) g(1) + (1/2) int_0^2 (g(y)-g(1))/|1-y| dy
        + (1/2) int_2^inf g(y)/(y-1) dy + (1/2) int_0^inf g(t)/(t+1) dt.

    Panels break at g's u-axis breakpoints (every bump edge and powers of 2
    inside the support), so a narrow inner bump or a wide support is not
    left to one linear panel.
    """
    g1 = complex(g.evaluate(1.0))
    breaks = g._u_breakpoints()
    u1, u2 = breaks[0], breaks[-1]
    total = (LOG_2PI + EULER_GAMMA) * g1

    def geval(y):
        return np.asarray(g.evaluate(y), dtype=complex)

    lo = 0.0 if g1 != 0 else min(u1, 2.0)
    if lo < 2.0:
        pts = {lo, 2.0, 1.0}
        pts.update(u for u in breaks if lo < u < 2.0)
        x, w = panel_nodes(sorted(pts), density=96.0)
        total += complex(np.sum(w * (geval(x) - g1) / (2.0 * np.abs(1.0 - x))))
    if u2 > 2.0:
        x, w = panel_nodes([max(2.0, u1)] + [u for u in breaks if u > 2.0], density=96.0)
        total += complex(np.sum(w * geval(x) / (2.0 * (x - 1.0))))
    x, w = panel_nodes(breaks, density=96.0)
    total += complex(np.sum(w * geval(x) / (2.0 * (x + 1.0))))
    return total


def _w_r_contour(g: TestFunction) -> complex:
    place = Place.real()
    integ = VerticalLineIntegrator(g, weight_osc=1.0)
    return integ.integrate(lambda s: lambda_factor(place, s), place)


def w_r(g: TestFunction, form: str = "finite") -> complex:
    """The real-place term W_r(g) by the requested route.

    Step functions admit only the closed-form finite route; smooth kinds
    admit all five, agreeing within 1e-7 on the reference corpus.
    """
    if form not in W_R_FORMS:
        raise DomainError(f"unknown w_r form {form!r}; expected one of {W_R_FORMS}")
    if isinstance(g, StepFunction):
        if form != "finite":
            raise AdmissibilityError(
                f"step functions admit only the finite closed form, not {form!r}")
        X = g.X
        return complex(0.5 * (LOG_PI + EULER_GAMMA) + math.log(X)
                       + 0.5 * math.log1p(-X ** -2))
    if not g.is_smooth:
        raise AdmissibilityError(f"w_r form {form!r} needs a smooth test function")
    if form == "finite":
        return _v_r_finite(g) + _v_r_finite(g.transpose())
    if form == "series":
        return _w_r_series(g)
    if form == "pf":
        return _w_r_pf(g)
    if form == "contour":
        return _w_r_contour(g)
    return haran_term(g, Place.real())  # convolution


def local_term(g: TestFunction, place: Place, method: str) -> complex:
    """W_nu(g) by one named route: a W_R_FORMS form at the real place, a
    PRIME_METHODS method at a prime.  Raises AdmissibilityError when the
    route does not admit g's kind.

    The routes are looked up as module attributes at call time, so a wrapper
    installed on w_r, w_p, w_p_contour or haran_term sees every call.
    """
    if place.is_real:
        return w_r(g, method)
    if method == "direct":
        return w_p(g, place.p)
    if method == "contour":
        return w_p_contour(g, place.p)
    if method == "convolution":
        return haran_term(g, place)
    raise DomainError(f"unknown prime-place method {method!r}; expected one of {PRIME_METHODS}")


# ----------------------------------------------------------------------------
# place enumeration and reports

def _primes_up_to(n: int) -> list[int]:
    return _sieve_for(n).primes.tolist() if n >= 2 else []


def prime_places(g: TestFunction) -> list[int]:
    """Primes with some power p^k or p^-k (k >= 1) inside support(g)."""
    return [] if g.is_zero else _places_in(*g.support_log())


def _places_in(a: float, b: float) -> list[int]:
    """Primes with some power p^k or p^-k (k >= 1) inside [e^a, e^b].

    Raises DomainError, before sieving, when that needs primes past the
    sieve's cap.
    """
    reach = max(b, -a, 0.0)
    # clamped one unit past the cap's log, so that exp stays finite
    n = math.floor(math.exp(min(reach, math.log(SIEVE_LIMIT_MAX) + 1.0)) + 1e-9)
    if n > SIEVE_LIMIT_MAX:
        raise DomainError(f"prime places need primes up to e^{reach:.6g}, past the sieve "
                          f"cap {SIEVE_LIMIT_MAX} = e^{math.log(SIEVE_LIMIT_MAX):.6g}")

    def meets(logp, lo, hi):  # some k >= 1 with lo <= k log p <= hi
        return max(1, math.ceil(lo / logp - 1e-12)) * logp <= hi + 1e-12

    return [p for p in _primes_up_to(n)
            if any(meets(math.log(p), lo, hi) for lo, hi in ((a, b), (-b, -a)))]


@dataclass(frozen=True)
class PlaceTermReport:
    """Per-place local term by every admissible method, with the spread over
    the methods that converged."""

    place_label: str
    values: tuple[tuple[str, complex], ...]
    inadmissible: tuple[str, ...]
    not_converged: tuple[str, ...]
    spread: float


def place_term_report(g: TestFunction, place: Place) -> PlaceTermReport:
    """All admissible methods at one place; no admissible method is omitted.

    A method that raises ConvergenceError is filed as not converged; the
    other methods still report.
    """
    values: list[tuple[str, complex]] = []
    inadmissible: list[str] = []
    not_converged: list[str] = []
    for method in W_R_FORMS if place.is_real else PRIME_METHODS:
        try:
            values.append((method, local_term(g, place, method)))
        except AdmissibilityError:
            inadmissible.append(method)
        except ConvergenceError:
            not_converged.append(method)
    vs = [v for _, v in values]
    spread = max((abs(x - y) for x in vs for y in vs), default=0.0)
    return PlaceTermReport(place.label, tuple(values), tuple(inadmissible),
                           tuple(not_converged), spread)


# ----------------------------------------------------------------------------
# zero side and the balance

def _require_certified(zeros: ZeroTable):
    if not isinstance(zeros, ZeroTable) or not zeros.certified:
        raise CertificationError("explicit-formula drivers need a certified ZeroTable")


def zero_side_sum(g: TestFunction, zeros: ZeroTable) -> complex:
    """ghat(0) + ghat(1) - sum over paired zeros ghat(1/2 +- i gamma).

    Evaluated at 1/2 + i gamma only; each -gamma term is the conjugate of
    conj(g)'s transform there, so a real g gets a zero sum with an imaginary
    part of exactly 0.
    """
    _require_certified(zeros)
    gam = zeros.ordinates
    boundary = g.mellin(np.array([0.0 + 0.0j, 1.0 + 0.0j]))
    if gam.size == 0:
        return complex(boundary[0] + boundary[1])
    upper, lower = mellin_pair(g, 0.5 + 1j * gam)
    return complex(boundary[0] + boundary[1] - np.sum(upper + np.conj(lower)))


def zero_sum_tail_estimate(g: TestFunction, t_max: float) -> float:
    """Bound on the dropped |Im rho| > t_max part: the sampled Mellin-decay
    envelope max |ghat(1/2+it)|(1+t)^3 times the zero density log(t/2pi)/2pi,
    integrated from t_max."""
    if g.is_zero:
        return 0.0
    ts = np.linspace(t_max, 4.0 * t_max, 61)
    env = np.abs(g.mellin(0.5 + 1j * ts)) * (1.0 + ts) ** 3
    M = float(np.max(env))
    x, w = panel_nodes((t_max, 50.0 * t_max), density=0.02)
    dens = np.log(np.maximum(x / (2.0 * math.pi), 1.001)) / (2.0 * math.pi)
    integral = float(np.sum(w * dens / (1.0 + x) ** 3))
    return 2.0 * M * integral


@dataclass(frozen=True)
class EFReport:
    """Both sides of the balance, their residual, and the truncation estimate."""

    zero_side: complex
    prime_side: complex
    residual: complex
    t_max: float
    tail_estimate: float
    place_terms: tuple[tuple[str, complex], ...]


def _prime_side_terms(g: TestFunction, places: list[int]) -> list[tuple[str, complex]]:
    """W_nu(g) at r (finite form) and at each of the primes places, in that order."""
    return [("r", w_r(g, "finite"))] + [(str(p), w_p(g, p)) for p in places]


def explicit_formula_check(g: TestFunction, zeros: ZeroTable) -> EFReport:
    """residual = zero side - sum_nu W_nu(g) over the support-determined places."""
    if not g.is_smooth:
        raise AdmissibilityError(
            "explicit_formula_check needs a smooth kind; steps go through vonmangoldt_check")
    _require_certified(zeros)
    terms = _prime_side_terms(g, prime_places(g))
    prime_side = complex(sum(v for _, v in terms))
    zside = zero_side_sum(g, zeros)
    return EFReport(zside, prime_side, zside - prime_side, zeros.t_max,
                    zero_sum_tail_estimate(g, zeros.t_max), tuple(terms))


def vonmangoldt_check(X: float, zeros: ZeroTable) -> EFReport:
    """Prime-power sum versus the truncated zero expansion:

        sum_{1<n<X} Lambda(n) + Lambda(X)/2
            = X - sum_rho X^rho/rho - log(2 pi) - (1/2) log(1 - X^-2)

    with the zero sum paired and truncated at t_max.  The reported truncation
    estimate is the crude classical envelope sqrt(X) log(X t_max)^2 / (pi t_max).
    """
    X = float(X)
    if not X > 1.0:
        raise DomainError("vonmangoldt_check needs X > 1")
    _require_certified(zeros)
    left = psi_sum(X)
    gam = zeros.ordinates
    rho = 0.5 + 1j * gam
    zsum = float(np.sum(2.0 * np.real(np.exp(rho * math.log(X)) / rho)))
    right = X - zsum - LOG_2PI - 0.5 * math.log1p(-X ** -2)
    est = math.sqrt(X) * math.log(X * max(zeros.t_max, 2.0)) ** 2 / (math.pi * max(zeros.t_max, 1.0))
    return EFReport(complex(right), complex(left), complex(right - left),
                    zeros.t_max, est, (("psi", complex(left)),))


def reciprocal_zero_sum(zeros: ZeroTable, with_tail: bool = True) -> float:
    """Partial sum of sum_rho 1/(rho(1-rho)) = 2 sum_gamma 1/(1/4+gamma^2),
    plus the integral tail (log(t/2pi)+1)/(pi t) at t = t_max when asked."""
    _require_certified(zeros)
    gam = zeros.ordinates
    partial = float(np.sum(2.0 / (0.25 + gam * gam)))
    if not with_tail:
        return partial
    T = zeros.t_max
    return partial + (math.log(T / (2.0 * math.pi)) + 1.0) / (math.pi * T)


def reciprocal_zero_sum_modulus(zeros: ZeroTable) -> float:
    """sum over table zeros rho = 1/2 +- i gamma of 1/|rho|^2; equals the
    reciprocal partial sum exactly because the table zeros are on the line."""
    _require_certified(zeros)
    gam = zeros.ordinates
    return float(np.sum(np.abs(0.5 + 1j * np.concatenate([gam, -gam])) ** -2.0))


def positivity_q(g: TestFunction, zeros: ZeroTable) -> tuple[float, float]:
    """Both sides of the positivity functional for h = g * g-check:

    prime_side_q = Re[ hhat(0) + hhat(1) - sum_nu W_nu(h) ]
    zero_side_q  = sum_{gamma <= t_max} (|ghat(1/2+i gamma)|^2 + |ghat(1/2-i gamma)|^2)

    The local terms of h are the ones explicit_formula_check sums.  h's own
    zero side is not formed: hhat = |ghat|^2 on the line, so zero_side_q is
    that sum, taken on g.  |ghat(1/2-i gamma)| is |gbar-hat(1/2+i gamma)|
    with gbar = conj g, so only the upper ordinates are evaluated, and a real
    g's two terms are one value counted twice.
    """
    if not g.is_smooth:
        raise AdmissibilityError("positivity_q needs a smooth test function")
    _require_certified(zeros)
    if g.is_zero:
        return 0.0, 0.0
    # h lives on the hull [a - b, b - a] of g's support [a, b] (Titchmarsh),
    # so its places are known, and checked against the sieve cap, before h
    # is built; primes past h's last nonzero sample add exact zeros
    a, b = g.support_log()
    places = _places_in(a - b, b - a)
    h = autocorrelate(g)
    prime_side = complex(sum(v for _, v in _prime_side_terms(h, places)))
    boundary = h.mellin(np.array([0.0 + 0.0j, 1.0 + 0.0j]))
    prime_side_q = float(np.real(boundary[0] + boundary[1] - prime_side))
    gam = zeros.ordinates
    if gam.size:
        upper, lower = mellin_pair(g, 0.5 + 1j * gam)
        zero_side_q = float(np.sum(np.abs(upper) ** 2 + np.abs(lower) ** 2))
    else:
        zero_side_q = 0.0
    return prime_side_q, zero_side_q


# ----------------------------------------------------------------------------
# the rational-shift symmetry

def _as_fraction(q) -> Fraction:
    if isinstance(q, tuple):
        q = Fraction(q[0], q[1])
    else:
        q = Fraction(q)
    if q == 0:
        raise DomainError("the shift parameter must be a nonzero rational")
    return q


def log_abs_places(q) -> list[tuple[str, float]]:
    """Nonzero local logs log|q|_nu, primes ascending then the real place."""
    q = _as_fraction(q)
    # numerator and denominator are coprime, so each prime comes from one of them
    primes = sorted((p, sign * e * math.log(p))
                    for n, sign in ((abs(q.numerator), -1), (q.denominator, 1))
                    for p, e in factorize(n))
    return [(str(p), v) for p, v in primes] + [("r", math.log(abs(float(q))))]


#: How far the explicit-formula residual may move under a rational shift.
SHIFT_RESIDUAL_ATOL = 1e-10


def symmetry_shift(g: TestFunction, q, zeros: ZeroTable | None = None) -> complex:
    """Total shift sum_nu log|q|_nu * g(1) over the places where it is nonzero.

    The product formula makes the total vanish; when a certified table is
    supplied, the explicit-formula check is rerun with the shifted local
    terms and the residual is asserted unchanged within SHIFT_RESIDUAL_ATOL.
    """
    total = complex(g.evaluate(1.0)) * sum(v for _, v in log_abs_places(q))
    if zeros is not None:
        delta = shifted_residual_delta(g, q, zeros)
        if delta > SHIFT_RESIDUAL_ATOL:
            raise DomainError(
                f"shifted-term residual moved by {delta:.3e} > {SHIFT_RESIDUAL_ATOL}")
    return total


def shifted_residual_delta(g: TestFunction, q, zeros: ZeroTable) -> float:
    """|residual(shifted terms) - residual| for the rational shift q."""
    base = explicit_formula_check(g, zeros)
    shift = symmetry_shift(g, q)
    return abs((base.zero_side - (base.prime_side + shift)) - base.residual)


# ----------------------------------------------------------------------------
# CSV emission (columns fixed: quantity, method, value_re, value_im, tolerance, status)

CSV_HEADER = "quantity,method,value_re,value_im,tolerance,status"


def _fmt(x: float) -> str:
    return f"{float(x):.15g}"


def rows_to_csv(rows) -> str:
    lines = [CSV_HEADER]
    for quantity, method, vre, vim, tol, status in rows:
        lines.append(f"{quantity},{method},{_fmt(vre)},{_fmt(vim)},"
                     f"{'' if tol is None else _fmt(tol)},{status}")
    return "\n".join(lines) + "\n"


def ef_report_rows(rep: EFReport, tol: float | None = None):
    rows = []
    for label, val in rep.place_terms:
        rows.append((f"w_{label}", "direct", val.real, val.imag, None, ""))
    rows.append(("zero_side", "mellin", rep.zero_side.real, rep.zero_side.imag, None, ""))
    rows.append(("prime_side", "sum", rep.prime_side.real, rep.prime_side.imag, None, ""))
    status = ""
    if tol is not None:
        status = "ok" if abs(rep.residual) <= tol else "fail"
    rows.append(("residual", "difference", rep.residual.real, rep.residual.imag, tol, status))
    rows.append(("tail_estimate", "envelope", rep.tail_estimate, 0.0, None, ""))
    return rows


def place_report_rows(rep: PlaceTermReport, tol: float | None = None):
    rows = []
    for method, val in rep.values:
        rows.append((f"w_{rep.place_label}", method, val.real, val.imag, None, "ok"))
    for method in rep.inadmissible:
        rows.append((f"w_{rep.place_label}", method, 0.0, 0.0, None, "inadmissible"))
    for method in rep.not_converged:
        rows.append((f"w_{rep.place_label}", method, 0.0, 0.0, None, "not_converged"))
    status = ""
    if tol is not None:
        status = "ok" if rep.spread <= tol else "fail"
    rows.append((f"w_{rep.place_label}", "spread", rep.spread, 0.0, tol, status))
    return rows
