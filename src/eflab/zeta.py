"""Riemann zeta on the critical strip, zero location with count certification,
and the prime-power side of the classical balance.

The evaluator is Euler-Maclaurin continuation with N ~ |Im s| initial terms
and Bernoulli corrections through B_24, giving absolute error well below
1e-10 on 0 <= Re s <= 2, |Im s| <= 1e3 (desk scale).  Zeros are located as
sign changes of the Hardy function Z(t) = e^{i theta(t)} zeta(1/2 + it), and
their count is certified by Turing's method (Turing 1953; Brent, Math. Comp.
33 (1979), Theorem 3.2, with Lehman's bound on the integral of S).

What the certification covers: each sign change is a zero, so the scan's
count in (0, t] is a lower bound for N(t), and so is its count up to a good
Gram point g_j >= max(t, 168 pi) for N(g_j).  Rosser's rule on the next few
Gram blocks and Lehman's bound prove N(g_j) <= j + 1, so when the scan finds
j + 1 sign changes below g_j it has found every zero below t, a close pair
included; when it finds fewer the scan is repeated 8 times finer, and
CertificationError is raised if that falls short too (zero_count derives
the bound).  The count assumes that each sign the scan reads is the sign of
Z, as the next paragraphs bound.

The direct kernel (_zeta_line_many, _hardy_z_many) sums the O(t) Dirichlet
terms sample by sample.  Two cheaper kernels share its Euler-Maclaurin tail
(the multi-evaluation idea of Odlyzko-Schoenhage in its simplest form):

* On a uniform grid the Dirichlet phases factor,
  n^(-i(t_c + (jB + k)h)) = n^(-i(t_c + jBh)) n^(-ikh), so each chunk of
  samples is one matrix product (_zeta_line_grid).  It serves the
  sign-change scan of find_zeros and zero_count (within 2.9e-12 of the
  direct sum on grids up to t = 1000).
* Around each bracket centre c the Dirichlet sum is a power series in
  -i(t - c) whose coefficients, the moments sum_n n^(-1/2-ic) (log n)^m / m!,
  come from one matrix product for all brackets (_bracket_moments); each
  bisection pass is then a Horner evaluation.

Every sign find_zeros and zero_count act on is the direct kernel's sign: a fast Z closer
than _SIGN_MARGIN = 1e-9 to zero is replaced by the direct value
(_certified_z).  The fast Z of the scan and of the bisection differ from the
direct Z by at most 2.4e-12 up to t = 1000, about 400 times less than the
margin, so zero tables are byte for byte those of the direct kernel.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .errors import CertificationError, DomainError, ParseError, PoleError
from .special import LOG_PI, factorize, log_gamma

T_DESK_MAX = 1000.0
ZERO_ACCURACY = 1e-9
SIEVE_LIMIT_MAX = 1_000_000

_SCAN_STEP = 0.08
_SCAN_REFINE = 8
#: Lehman's bound on the integral of S(t) holds above this height.
_TURING_T0 = 168.0 * math.pi
_LINE_CHUNK = 2048
_GRID_BLOCK = 64
#: A fast-kernel Z closer than this to zero gets its sign from the direct kernel.
_SIGN_MARGIN = 1e-9
#: Terms of the per-bracket Taylor series; _bracket_moments bounds the rest.
_TAYLOR_TERMS = 14

# B_{2k} / (2k)! for the Euler-Maclaurin tail, k = 1..12 (through B_24).
_B2K = (Fraction(1, 6), Fraction(-1, 30), Fraction(1, 42), Fraction(-1, 30),
        Fraction(5, 66), Fraction(-691, 2730), Fraction(7, 6),
        Fraction(-3617, 510), Fraction(43867, 798), Fraction(-174611, 330),
        Fraction(854513, 138), Fraction(-236364091, 2730))
_EM_COEF = tuple(float(b / math.factorial(2 * (k + 1))) for k, b in enumerate(_B2K))


def _em_terms_needed(t_abs: float) -> int:
    return max(32, int(1.15 * t_abs) + 16)


def _add_em_tail(out: np.ndarray, s: np.ndarray, N: int) -> None:
    """Add the Euler-Maclaurin remainder at the cut N to the partial sums in out."""
    Ns = np.exp(-s * math.log(N))
    out += 0.5 * Ns + Ns * (N / (s - 1.0))
    poch = s.copy()
    for k, coef in enumerate(_EM_COEF, start=1):
        out += coef * poch * Ns * float(N) ** (1 - 2 * k)
        poch = poch * (s + (2 * k - 1)) * (s + 2 * k)


def _zeta_em_batch(s: np.ndarray, N: int) -> np.ndarray:
    """Euler-Maclaurin zeta for a 1-D complex array sharing the cut N."""
    n = np.arange(1, N, dtype=float)
    logn = np.log(n)
    out = np.exp(-np.multiply.outer(s, logn)).sum(axis=1)
    _add_em_tail(out, s, N)
    return out


def zeta_em(s):
    """zeta(s) by Euler-Maclaurin continuation; pole error at s = 1.

    Absolute error <= 1e-10 for 0 <= Re s <= 2, |Im s| <= 1e3; scalar or array.
    """
    z0 = np.asarray(s, dtype=complex)
    scalar = z0.ndim == 0
    z = np.atleast_1d(z0).astype(complex)
    if np.any(np.abs(z - 1.0) < 1e-12):
        raise PoleError("zeta has its pole at s = 1")
    N = _em_terms_needed(float(np.max(np.abs(z.imag))) if z.size else 0.0)
    out = _zeta_em_batch(z, N)
    return complex(out[0]) if scalar else out.reshape(z0.shape)


def _zeta_line_many(ts: np.ndarray) -> np.ndarray:
    """zeta(1/2 + i t) for a 1-D float array, chunked so N tracks each chunk."""
    out = np.empty(ts.shape, dtype=complex)
    order = np.argsort(np.abs(ts), kind="stable")
    sorted_ts = ts[order]
    for lo in range(0, ts.size, _LINE_CHUNK):
        sel = order[lo:lo + _LINE_CHUNK]
        chunk = sorted_ts[lo:lo + _LINE_CHUNK]
        N = _em_terms_needed(float(np.max(np.abs(chunk))))
        out[sel] = _zeta_em_batch(0.5 + 1j * chunk, N)
    return out


def _zeta_line_grid(ts: np.ndarray) -> np.ndarray:
    """zeta(1/2 + i t) on an ascending uniform grid of t >= 0, by factored phases.

    Same chunks and cuts N as _zeta_line_many.  Inside a chunk starting at
    t_c with step h, sample jB + k has n^(-i t) = n^(-i(t_c + jBh)) n^(-ikh), so
    the Dirichlet sum is one (J x N) @ (N x B) product: (J + B) N exponentials
    instead of J B N.  Differs from the direct kernel by rounding of t and of
    the product, measured <= 2.9e-12 on 0.01 grids from t = 6 up to t = 1000.
    """
    out = np.empty(ts.size, dtype=complex)
    h = (ts[-1] - ts[0]) / max(ts.size - 1, 1)
    k = np.arange(_GRID_BLOCK) * h
    for lo in range(0, ts.size, _LINE_CHUNK):
        chunk = ts[lo:lo + _LINE_CHUNK]
        N = _em_terms_needed(float(chunk[-1]))
        logn = np.log(np.arange(1, N, dtype=float))
        starts = chunk[::_GRID_BLOCK]
        A = np.exp(-np.multiply.outer(0.5 + 1j * starts, logn))
        C = np.exp(-1j * np.multiply.outer(logn, k))
        vals = (A @ C).ravel()[:chunk.size]
        _add_em_tail(vals, 0.5 + 1j * chunk, N)
        out[lo:lo + chunk.size] = vals
    return out


def rs_theta(t):
    """theta(t) = Im log Gamma(1/4 + it/2) - (t/2) log pi, for t >= 0."""
    t0 = np.asarray(t, dtype=float)
    scalar = t0.ndim == 0
    tt = np.atleast_1d(t0).astype(float)
    if np.any(tt < 0.0):
        raise DomainError("rs_theta is defined for t >= 0")
    lg = log_gamma(0.25 + 0.5j * tt)
    out = np.imag(lg) - 0.5 * tt * LOG_PI
    return float(out[0]) if scalar else out.reshape(t0.shape)


def _hardy_real(zeta_vals: np.ndarray, ts: np.ndarray) -> np.ndarray:
    """Z(t) = Re(e^{i theta(t)} zeta(1/2 + it)) at t = ts >= 0 from zeta values,
    after checking that the imaginary residue is at most 1e-9."""
    vals = zeta_vals * np.exp(1j * rs_theta(ts))
    resid = float(np.max(np.abs(vals.imag))) if vals.size else 0.0
    if resid > 1e-9:
        raise DomainError(f"Hardy Z imaginary residue {resid:.3e} exceeds 1e-9")
    return vals.real


def _hardy_z_many(ts: np.ndarray) -> np.ndarray:
    ta = np.abs(ts)
    return _hardy_real(_zeta_line_many(ta), ta)


def _certified_z(ts: np.ndarray, zeta_fast: np.ndarray) -> np.ndarray:
    """Z on an ascending array ts >= 0 from fast-kernel zeta values, with the
    direct kernel's value wherever the fast |Z| is below _SIGN_MARGIN.

    The direct values use the cut N that _zeta_line_many takes at that sample
    of ts, and each row of the direct sum is independent of the others, so
    they are bit for bit those of _hardy_z_many(ts).  Every other fast value
    lies at least 1e-9 from zero, over 400 times the largest gap measured
    between the kernels, so its sign is the direct kernel's too.
    """
    z = _hardy_real(zeta_fast, ts)
    near = np.flatnonzero(np.abs(z) < _SIGN_MARGIN)
    chunk = near // _LINE_CHUNK
    for c in np.unique(chunk):
        sel = near[chunk == c]
        N = _em_terms_needed(float(ts[min((c + 1) * _LINE_CHUNK, ts.size) - 1]))
        z[sel] = _hardy_real(_zeta_em_batch(0.5 + 1j * ts[sel], N), ts[sel])
    return z


def _bracket_moments(centres: np.ndarray, N: int) -> np.ndarray:
    """mom[k, m] = sum_{n<N} n^(-1/2 - i c_k) (log n)^m / m! for m < _TAYLOR_TERMS.

    Then sum_{n<N} n^(-1/2 - i(c_k + d)) = sum_m mom[k, m] (-i d)^m.  A bracket
    is at most one scan step (0.08) wide, so |d| <= 0.04, and N <= 1166 at
    t <= 1000; there x = |d log n| <= 0.283 and the dropped terms are at most
    x^14/14! / (1 - x/15) < 3e-19 times sum n^(-1/2) <= 2 sqrt(N - 1) - 1 < 68.
    """
    logn = np.log(np.arange(1, N, dtype=float))
    steps = np.ones((logn.size, _TAYLOR_TERMS))
    steps[:, 1:] = logn[:, None] / np.arange(1, _TAYLOR_TERMS)
    phases = np.exp(-np.multiply.outer(0.5 + 1j * centres, logn))
    return phases @ np.cumprod(steps, axis=1)


def _taylor_zeta(mom: np.ndarray, centres: np.ndarray, ts: np.ndarray,
                 N: int) -> np.ndarray:
    """zeta(1/2 + i ts[k]) from the moments around centres[k] and the EM tail at N."""
    x = -1j * (ts - centres)
    out = mom[:, -1].copy()
    for m in range(_TAYLOR_TERMS - 2, -1, -1):
        out = out * x + mom[:, m]
    _add_em_tail(out, 0.5 + 1j * ts, N)
    return out


def hardy_z(t):
    """Real Hardy function Z(t) = e^{i theta} zeta(1/2+it); even in t."""
    t0 = np.asarray(t, dtype=float)
    scalar = t0.ndim == 0
    out = _hardy_z_many(np.atleast_1d(t0).astype(float))
    return float(out[0]) if scalar else out.reshape(t0.shape)


@dataclass(frozen=True)
class ZeroTable:
    """Ascending positive ordinates of critical-line zeros up to t_max.

    Certified tables have length N(t_max) as zero_count proves it;
    find_zeros and read_zero_table set the flag, hand-built tables carry
    certified=False and are rejected by the explicit-formula drivers.
    """

    ordinates: np.ndarray
    t_max: float
    accuracy: float
    certified: bool = False

    def __post_init__(self):
        g = np.ascontiguousarray(np.asarray(self.ordinates, dtype=float))
        # Written as what must hold, so that a NaN fails it.
        if g.size and not (np.all(np.diff(g) > 0.0) and g[0] > 0.0
                           and g[-1] <= self.t_max + 1e-12):
            raise DomainError("zero table must be strictly ascending inside (0, t_max]")
        g.flags.writeable = False
        object.__setattr__(self, "ordinates", g)

    def __len__(self) -> int:
        return int(self.ordinates.size)

    @property
    def count(self) -> int:
        return len(self)


def _scan(t_max: float, step: float):
    """Brackets (lo, hi, Z(lo)) of the sign changes of Z on
    arange(0.1, t_max, step) with t_max appended; the uniform part goes
    through the grid kernel."""
    grid = np.arange(0.1, t_max, step)
    ts = np.append(grid, t_max)
    fast = np.append(_zeta_line_grid(grid) if grid.size else [], _zeta_line_many(ts[-1:]))
    zs = _certified_z(ts, fast)
    exact = zs == 0.0
    if exact.any():
        ts[exact] += step * 1e-3
        zs[exact] = _hardy_z_many(ts[exact])
    flips = np.nonzero(np.sign(zs[:-1]) * np.sign(zs[1:]) < 0)[0]
    return ts[flips], ts[flips + 1], zs[flips]


def _bisect(lo: np.ndarray, hi: np.ndarray, zlo: np.ndarray) -> np.ndarray:
    """Bisect every bracket to width <= 2e-10 and return the midpoints; Z at
    each pass's midpoints comes from the brackets' Taylor series."""
    centres = 0.5 * (lo + hi)
    N = _em_terms_needed(float(np.max(hi, initial=0.0)))
    mom = _bracket_moments(centres, N)
    sign_lo = np.sign(zlo)
    while float(np.max(hi - lo, initial=0.0)) > 2e-10:
        mid = 0.5 * (lo + hi)
        zm = _certified_z(mid, _taylor_zeta(mom, centres, mid, N))
        right = np.sign(zm) == sign_lo
        lo = np.where(right, mid, lo)
        hi = np.where(right, hi, mid)
    return 0.5 * (lo + hi)


def zero_count(t: float) -> int:
    """N(t), the number of zeros with 0 < gamma <= t, certified by Turing's method.

    The count is the number of sign changes of Z in (0, t] on the scan that
    find_zeros runs (step 0.08 from t = 0.1, with t itself sampled).  It is
    proved to be N(t) with the Gram points g_j, where theta(g_j) = j pi, so
    that N(g_j) = j + 1 + S(g_j):

    * Anchor.  g_j is the first good Gram point, (-1)^j Z(g_j) > 0, at or
      above max(t, 168 pi).  Z(0) < 0, so the sign of Z(g_j) makes the number
      of zeros of odd order on the line below g_j, and with it N(g_j) (zeros
      off the line pair up at one ordinate), congruent to j + 1 mod 2: the
      integer S(g_j) is even.
    * Upper bound (Brent's argument, Math. Comp. 33 (1979), Theorem 3.2).
      Beyond g_j come K Gram blocks, each running from one good Gram point
      to the next, that end at g_p; each must obey Rosser's rule: a block of
      l Gram intervals holds at least l sign changes.  Suppose S(g_j) >= 2.
      N(t) >= N(g_j) plus the zeros in (g_j, t].  Rosser's rule on the
      blocks before t and one sign change between consecutive bad Gram
      points inside t's block give S(t) >= 2 - phi on a block's first Gram
      interval and S(t) >= 1 - phi on its others, where
      phi = theta(t)/pi - m lies in [0, 1) on [g_m, g_m+1).  theta is convex
      there, so phi lies below its chord: an interval of length d adds at
      least d/2 to the integral of S, a block's first one at least 3d/2.
      theta' < L/2 with L = log(g_p / 2 pi), so d >= 2 pi / L, and the
      integral of S over [g_j, g_p] is at least 3 pi K / L.  Lehman's bound
      |int_t1^t2 S(t) dt| <= 2.30 + 0.128 log(t2 / 2 pi), which holds for
      168 pi < t1 < t2 (hence the anchor), rules that out once
      K > L (2.30 + 0.128 L) / (3 pi).  So N(g_j) <= j + 1; K is 2 up to
      t = 1000.
    * Squeeze.  Every sign change is a zero, so L1 sign changes in (0, t]
      and L2 in (t, g_j] with L1 + L2 = j + 1 prove N(t) = L1.

    The signs at the Gram points and at t come from the direct kernel, those
    on the scan grid from the grid kernel with the direct kernel below
    _SIGN_MARGIN.  A shortfall (a pair of zeros closer than the step, or a
    block short of Rosser's rule) triggers one rescan _SCAN_REFINE times
    finer; CertificationError if that falls short too.
    """
    t = float(t)
    if not math.isfinite(t):
        raise DomainError(f"zero_count needs a finite t, got {t}")
    if t > T_DESK_MAX + 1e-9:
        raise DomainError(f"zero_count is calibrated for t <= {T_DESK_MAX}")
    if t <= 0.0:
        return 0
    return _certified_scan(t)[0].size


def _gram_points(js: np.ndarray, t0: float) -> np.ndarray:
    """Gram points g_j, theta(g_j) = j pi, near t0 >= 168 pi, by Newton on
    rs_theta with the slope theta'(t) ~ log(t / 2 pi) / 2."""
    g = t0 + (js * math.pi - rs_theta(t0)) * 2.0 / math.log(t0 / (2.0 * math.pi))
    for _ in range(20):
        dg = (rs_theta(g) - js * math.pi) * 2.0 / np.log(g / (2.0 * math.pi))
        g = g - dg
        if float(np.max(np.abs(dg))) < 1e-9:
            return g
    raise RuntimeError("Gram point iteration did not converge")


def _rosser_blocks_needed(g: np.ndarray) -> np.ndarray:
    """The bound that K Gram blocks ending at g must exceed (see zero_count)."""
    L = np.log(g / (2.0 * math.pi))
    return L * (2.30 + 0.128 * L) / (3.0 * math.pi)


def _turing_certify(t: float, below: int, step: float) -> None:
    """Raise CertificationError unless below, the sign changes of Z in (0, t]
    on the scan at this step, is N(t) by Turing's method (see zero_count)."""
    t0 = max(t, _TURING_T0)
    j0 = math.ceil(rs_theta(t0) / math.pi)
    n = 16
    while True:
        js = j0 + np.arange(n)
        gs = _gram_points(js, t0)
        zg = _hardy_z_many(gs)
        good = np.flatnonzero(np.where(js % 2, -1.0, 1.0) * zg > 0.0)
        enough = np.flatnonzero(np.arange(1, good.size) > _rosser_blocks_needed(gs[good[1:]]))
        if enough.size:
            break
        n *= 2
    ends = good[:enough[0] + 2]
    grid = np.arange(0.1, gs[ends[-1]], step)
    grid = grid[grid > t]
    ts = np.concatenate(([t], grid, gs[ends[0]:ends[-1] + 1]))
    # Z(t) bit for bit as _scan's last sample, so both sides of t read one sign.
    zt = np.concatenate((_hardy_z_many(ts[:1]), _certified_z(grid, _zeta_line_grid(grid)),
                         zg[ends[0]:ends[-1] + 1]))
    order = np.argsort(ts, kind="stable")
    ts, zt = ts[order], zt[order]
    flips = ts[1:][np.sign(zt[:-1]) * np.sign(zt[1:]) < 0]
    found = np.diff(np.searchsorted(flips, np.append(t, gs[ends]), side="right"))
    j = int(js[ends[0]])
    if below + found[0] != j + 1 or np.any(found[1:] < np.diff(ends)):
        raise CertificationError(
            f"Turing's method at Gram point g_{j} = {gs[ends[0]]:.6f}: "
            f"{below} sign changes in (0, {t}] and {found[0]} above, against "
            f"N(g_{j}) = {j + 1}; Gram blocks of lengths {np.diff(ends).tolist()} "
            f"show {found[1:].tolist()} sign changes")


def _certified_scan(t_max: float):
    """_scan(t_max, _SCAN_STEP), with its count of brackets certified as
    N(t_max) by Turing's method.  On a shortfall the scan is repeated
    _SCAN_REFINE times finer, and its brackets replace the coarse ones unless
    both counts agree."""
    brackets = _scan(t_max, _SCAN_STEP)
    try:
        _turing_certify(t_max, brackets[0].size, _SCAN_STEP)
    except CertificationError:
        fine = _SCAN_STEP / _SCAN_REFINE
        refined = _scan(t_max, fine)
        _turing_certify(t_max, refined[0].size, fine)
        if refined[0].size != brackets[0].size:
            brackets = refined
    return brackets


def find_zeros(t_max: float) -> ZeroTable:
    """All ordinates <= t_max, bisected to 1e-9, count-certified.

    Scans Z(t) at step 0.08 for sign changes and certifies their count by
    Turing's method on the same scan (see zero_count); on a shortfall rescans
    at an 8x finer step, and raises CertificationError if that falls short too.
    """
    t_max = float(t_max)
    if not 0.0 < t_max <= T_DESK_MAX + 1e-9:
        raise DomainError(f"find_zeros needs 0 < t_max <= {T_DESK_MAX}")
    lo, hi, zlo = _certified_scan(t_max)
    return ZeroTable(_bisect(lo, hi, zlo), t_max, ZERO_ACCURACY, certified=True)


# ----------------------------------------------------------------------------
# zero-table text format

_HEADER_RE = re.compile(
    r"^# zeta-zeros v1 t_max=(\S+) accuracy=(\S+) count=(\d+)\s*$")


def _format_t_max(t_max: float) -> str:
    """6 significant digits when they read back exactly, else the shortest
    round-trip repr, so a written header always re-reads at the same t_max."""
    t_max = float(t_max)
    short = f"{t_max:.6g}"
    return short if float(short) == t_max else repr(t_max)


def zero_table_to_string(table: ZeroTable) -> str:
    """The zero table in the line-oriented text format."""
    lines = [f"# zeta-zeros v1 t_max={_format_t_max(table.t_max)} "
             f"accuracy={table.accuracy:.3g} count={len(table)}"]
    # 17 significant digits: exact float round trip, >= 12 as the format demands
    lines.extend(f"{g:.17g}" for g in table.ordinates)
    return "\n".join(lines) + "\n"


def write_zero_table(table: ZeroTable, dest) -> None:
    """Write the line-oriented text format; dest is a path or text stream."""
    text = zero_table_to_string(table)
    if hasattr(dest, "write"):
        dest.write(text)
    else:
        with open(dest, "w", encoding="ascii") as fh:
            fh.write(text)


def read_zero_table(src, certify: bool = True) -> ZeroTable:
    """Parse and certify a zero table; src is a path, text, or text stream.

    Rejects a missing/malformed header, non-finite, non-ascending or
    out-of-range ordinates (ParseError with the line number), and, when
    certify is on, any count other than N(t_max) from a fresh zero_count.
    """
    if hasattr(src, "read"):
        text = src.read()
    elif isinstance(src, str) and "\n" in src:
        text = src
    else:
        try:
            with open(src, "r", encoding="ascii") as fh:
                text = fh.read()
        except UnicodeDecodeError as exc:
            raise ParseError(f"zero-table file is not ASCII: {exc.reason} "
                             f"at byte {exc.start}") from None
    lines = text.splitlines()
    if not lines:
        raise ParseError("empty zero-table stream")
    m = _HEADER_RE.match(lines[0])
    if not m:
        raise ParseError("line 1: missing or malformed zero-table header")
    try:
        t_max = float(m.group(1))
        accuracy = float(m.group(2))
    except ValueError:
        raise ParseError("line 1: bad numeric field in header") from None
    if not (math.isfinite(t_max) and t_max > 0.0):
        raise ParseError(f"line 1: t_max must be finite and > 0, got {m.group(1)}")
    if not (math.isfinite(accuracy) and accuracy >= 0.0):
        raise ParseError(f"line 1: accuracy must be finite and >= 0, got {m.group(2)}")
    count = int(m.group(3))
    body = [ln for ln in lines[1:] if ln.strip()]
    if len(body) != count:
        raise ParseError(f"header announces {count} ordinates, found {len(body)}")
    ordinates = np.empty(count)
    prev = 0.0
    for i, ln in enumerate(body, start=2):
        try:
            g = float(ln)
        except ValueError:
            raise ParseError(f"line {i}: not a decimal ordinate: {ln!r}") from None
        if not math.isfinite(g):
            raise ParseError(f"line {i}: ordinate must be finite, got {ln.strip()!r}")
        if g <= prev:
            raise ParseError(f"line {i}: ordinates must be strictly ascending")
        if g > t_max + 1e-12:
            raise ParseError(f"line {i}: ordinate {g} exceeds t_max={t_max}")
        ordinates[i - 2] = g
        prev = g
    if certify:
        demanded = zero_count(t_max)
        if demanded != count:
            raise CertificationError(
                f"imported table has {count} ordinates but Turing's method "
                f"counts {demanded} below t_max={t_max}")
    return ZeroTable(ordinates, t_max, accuracy, certified=certify)


# ----------------------------------------------------------------------------
# von Mangoldt side

def lambda_von_mangoldt(n: int) -> float:
    """log p if n = p^k for a prime p and k >= 1, else 0; n >= 1."""
    pairs = factorize(n)
    return math.log(pairs[0][0]) if len(pairs) == 1 else 0.0


@dataclass(frozen=True)
class VonMangoldtSieve:
    """Primes and prime powers n <= limit with their von Mangoldt values.

    powers is ascending, log_p[i] = Lambda(powers[i]) = log p and
    psi[i] = log_p[0] + ... + log_p[i] summed in ascending order.  log p is
    math.log(p): numpy's log differs from it in the last bit at a few primes.
    All arrays are read-only.
    """

    limit: int
    primes: np.ndarray
    powers: np.ndarray
    log_p: np.ndarray
    psi: np.ndarray

    @property
    def entries(self) -> tuple[tuple[int, float], ...]:
        """(n, Lambda(n)) for every prime power n <= limit, ascending."""
        return tuple(zip(self.powers.tolist(), self.log_p.tolist()))

    @staticmethod
    def build(limit: int) -> "VonMangoldtSieve":
        if not 2 <= limit <= SIEVE_LIMIT_MAX:
            raise DomainError(f"sieve limit must lie in [2, {SIEVE_LIMIT_MAX}]")
        is_prime = np.ones(limit + 1, dtype=bool)
        is_prime[:2] = False
        for p in range(2, math.isqrt(limit) + 1):
            if is_prime[p]:
                is_prime[p * p::p] = False
        primes = np.nonzero(is_prime)[0]
        logs = np.array([math.log(p) for p in primes.tolist()])
        # p^k <= limit holds for a prefix of the ascending primes at each k.
        powers, which = [primes], [np.arange(primes.size)]
        pk = primes
        while True:
            pk = pk * primes[:pk.size]
            pk = pk[:np.searchsorted(pk, limit, side="right")]
            if not pk.size:
                break
            powers.append(pk)
            which.append(np.arange(pk.size))
        powers = np.concatenate(powers)
        order = np.argsort(powers)
        log_p = logs[np.concatenate(which)[order]]
        arrays = (primes, powers[order], log_p, np.cumsum(log_p))
        for arr in arrays:
            arr.flags.writeable = False
        return VonMangoldtSieve(limit, *arrays)


@lru_cache(maxsize=8)
def _sieve_for(limit: int) -> VonMangoldtSieve:
    return VonMangoldtSieve.build(limit)


def psi_sum(X: float) -> float:
    """sum_{1 < n < X} Lambda(n) + Lambda(X)/2, the exact prime-power side.

    The half weight applies when X sits within 1e-9 of a prime power.
    """
    X = float(X)
    if not X > 1.0:
        raise DomainError("psi_sum needs X > 1")
    if not math.isfinite(X):
        raise DomainError("psi_sum needs a finite X")
    limit = int(math.floor(X + 1e-9))
    if limit < 2:
        return 0.0
    sv = _sieve_for(limit)
    # Prime powers are integers, so only the largest one <= limit can sit
    # within 1e-9 of X; every other one lies below X and counts in full.
    if abs(int(sv.powers[-1]) - X) <= 1e-9:
        full = float(sv.psi[-2]) if sv.psi.size > 1 else 0.0
        return full + 0.5 * float(sv.log_p[-1])
    return float(sv.psi[-1])
