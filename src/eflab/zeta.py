"""Riemann zeta on the critical strip, zero location with count certification,
and the prime-power side of the classical balance.

The evaluator is Euler-Maclaurin continuation with N ~ |Im s| initial terms
and Bernoulli corrections through B_24, giving absolute error well below
1e-10 on 0 <= Re s <= 2, |Im s| <= 1e3 (desk scale).  Zeros are located as
sign changes of the Hardy function Z(t) = e^{i theta(t)} zeta(1/2 + it) and
certified against the counting formula N(t) = theta(t)/pi + 1 + S(t), with
S tracked by phase continuity along the critical line.

What the certification covers: on the line zeta = e^{-i theta} Z, so the
tracked phase of zeta is -theta plus pi at each sign change of Z, and the
rounded count is exactly the number of sign changes of Z on the 0.01 track.
Certification therefore catches zeros that the 0.08 scan steps over, but a
pair of zeros closer together than the track step is invisible to the count
itself.  Turing's method would be the independent check.

The direct kernel (_zeta_line_many, _hardy_z_many) sums the O(t) Dirichlet
terms sample by sample.  Two cheaper kernels share its Euler-Maclaurin tail
(the multi-evaluation idea of Odlyzko-Schoenhage in its simplest form):

* On a uniform grid the Dirichlet phases factor,
  n^(-i(t_c + (jB + k)h)) = n^(-i(t_c + jBh)) n^(-ikh), so each chunk of
  samples is one matrix product (_zeta_line_grid).  It serves the phase track
  of zero_count (every 0.01 from t = 6; within 2.9e-12 of the direct sum up
  to t = 1000, far inside the 0.25 band the count is rounded with) and the
  sign-change scan of find_zeros.
* Around each bracket centre c the Dirichlet sum is a power series in
  -i(t - c) whose coefficients, the moments sum_n n^(-1/2-ic) (log n)^m / m!,
  come from one matrix product for all brackets (_bracket_moments); each
  bisection pass is then a Horner evaluation.

Every sign find_zeros acts on is the direct kernel's sign: a fast Z closer
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

from .errors import (AmbiguityError, CertificationError, DomainError,
                     ParseError, PoleError)
from .special import LOG_PI, factorize, log_gamma

T_DESK_MAX = 1000.0
ZERO_ACCURACY = 1e-9
SIEVE_LIMIT_MAX = 1_000_000

_SCAN_STEP = 0.08
_SCAN_REFINE = 8
_TRACK_STEP = 0.01
_TRACK_T0 = 6.0
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
    the product, measured <= 2.9e-12 on the zero_count tracks up to t = 1000.
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


def zero_count(t: float) -> int:
    """Count of zeros with 0 < gamma <= t (t itself away from ordinates).

    Computed as the nearest integer to theta(t)/pi + 1 + S(t), where the
    argument term S is tracked by phase continuity along Re s = 1/2 from a
    base point below the first ordinate.  Raises AmbiguityError if the
    formula lands farther than 0.25 from an integer.

    The tracked phase of zeta is -theta plus pi at each sign change of Z, so
    the value is the number of sign changes of Z on the 0.01 track: it is the
    true count unless two zeros lie closer together than one track step.
    """
    t = float(t)
    if not math.isfinite(t):
        raise DomainError(f"zero_count needs a finite t, got {t}")
    if t <= _TRACK_T0:
        return 0
    if t > T_DESK_MAX + 1e-9:
        raise DomainError(f"zero_count is calibrated for t <= {T_DESK_MAX}")
    n_steps = max(1, int(math.ceil((t - _TRACK_T0) / _TRACK_STEP)))
    ts = np.linspace(_TRACK_T0, t, n_steps + 1)
    vals = _zeta_line_grid(ts)
    # Samples essentially on top of a zero carry no usable phase; nudge them.
    tiny = np.abs(vals) < 1e-8
    if tiny.any():
        ts = ts.copy()
        ts[tiny] += 0.003
        vals[tiny] = _zeta_line_many(ts[tiny])
    var = float(np.sum(np.angle(vals[1:] / vals[:-1])))
    raw = (rs_theta(t) - rs_theta(_TRACK_T0) + var) / math.pi
    count = int(round(raw))
    if abs(raw - count) > 0.25:
        raise AmbiguityError(
            f"counting formula gave {raw:.6f}, farther than 0.25 from an integer")
    return count


@dataclass(frozen=True)
class ZeroTable:
    """Ascending positive ordinates of critical-line zeros up to t_max.

    Certified tables have length equal to the counting-formula value at
    t_max; find_zeros and read_zero_table set the flag, hand-built tables
    carry certified=False and are rejected by the explicit-formula drivers.
    """

    ordinates: np.ndarray
    t_max: float
    accuracy: float
    certified: bool = False

    def __post_init__(self):
        g = np.ascontiguousarray(np.asarray(self.ordinates, dtype=float))
        if g.size and (np.any(np.diff(g) <= 0.0) or g[0] <= 0.0 or g[-1] > self.t_max + 1e-12):
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


def find_zeros(t_max: float) -> ZeroTable:
    """All ordinates <= t_max, bisected to 1e-9, count-certified.

    Scans Z(t) at step 0.08 for sign changes; on a count mismatch rescans at
    an 8x finer step, and raises CertificationError if the refined scan still
    disagrees with the counting formula.
    """
    t_max = float(t_max)
    if not 0.0 < t_max <= T_DESK_MAX + 1e-9:
        raise DomainError(f"find_zeros needs 0 < t_max <= {T_DESK_MAX}")
    expected = zero_count(t_max)
    lo, hi, zlo = _scan(t_max, _SCAN_STEP)
    if lo.size != expected:
        lo, hi, zlo = _scan(t_max, _SCAN_STEP / _SCAN_REFINE)
        if lo.size != expected:
            raise CertificationError(
                f"scan found {lo.size} sign changes but the counting formula "
                f"demands {expected} zeros below {t_max}")
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

    Rejects a missing/malformed header, non-ascending or out-of-range
    ordinates (ParseError with the line number), and, when certify is on,
    any count that disagrees with the counting formula at t_max.
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
                f"imported table has {count} ordinates but the counting "
                f"formula demands {demanded} below t_max={t_max}")
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
