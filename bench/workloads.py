"""Seeded inputs for the benchmark workloads; imports nothing from eflab.

Every workload is a closed loop with one client.  Its timed phase runs a
fixed number of *cycles*: short lists of operations whose mix of kinds and
sizes is fixed by design, while the concrete inputs (bump parameters, step
and von Mangoldt points, zero-table heights, conductor levels) come from the
seed.  A fixed mix keeps the per-run medians comparable across seeds; fresh
inputs in every cycle keep any result cache in the program from answering a
repeated input (except conductor levels: each band holds four).  The run
length is a count of cycles, the same on every commit: a run of S seconds
takes about S / CYCLE_SECONDS cycles, rounded to a whole number of blocks
(CYCLE_BLOCK), where CYCLE_SECONDS is a cycle's length at the commit the
benchmark was set up on.

Three independent streams are spawned from the seed: the timed stream, the
warm-up stream and the fixture stream.  Warm-up inputs are drawn so that they
never coincide with a timed input (continuous draws cannot; discrete levels
come from disjoint candidate sets).
"""

from __future__ import annotations

import itertools
import math

import numpy as np

WORKLOADS = ("zero-tables", "local-terms", "conductor-spectra")

CYCLE_SECONDS = {"zero-tables": 13.0, "local-terms": 0.55, "conductor-spectra": 13.5}

#: Prime powers below the von Mangoldt ranges; X is kept 0.25 away from them,
#: where the truncated zero sum rings (measured residual <= 0.063 at
#: t_max >= 150 for X <= 6, <= 0.05 at t_max = 600 for X <= 12).
_PRIME_POWERS = (2, 3, 4, 5, 7, 8, 9, 11, 13)
_JUMP_GAP = 0.25

#: zero-tables: one operation per height band, jittered by the seed.  The
#: bands span [300, 1000]; the cost of an operation grows as t_max^2, so a
#: narrow jitter keeps each cycle's cost steady.  Runs take an even number
#: of cycles, so that the median is the mean of two middle-band operations
#: and the 90th percentile sits among the top-band ones, run at different
#: moments.  Heights are drawn to 0.01, which the table header (6 significant
#: digits) writes exactly.
ZERO_BANDS = (650.0, 330.0, 970.0)
ZERO_JITTER = 10.0
#: Ordinates per table compared with mpmath.zetazero.
ZERO_SAMPLES = 1

#: local-terms: every operation shares one certified table of this height.
#: A cycle is a bump's local terms, its explicit formula check and its
#: positivity check, and a step's local terms with the von Mangoldt check at
#: the same X (the explicit formula for that step).  The step operation is
#: the cheap one (about 1 ms), the bump's local terms the dear one (0.2-0.8
#: s), so the run's median sits in the middle of the explicit formula and
#: positivity checks (10-90 ms, growing with the bump's width).
LOCAL_T_MAX = 600.0
#: Support-prime counts of the bumps in one block of cycles, in seeded order.
#: A bump's local terms cost about 0.17 s at r plus 0.12 s per support prime,
#: and these ops make the run's 90th percentile.  Drawn freely, a bump has
#: 0-4 support primes with frequencies of about 18/32/34/11/5 %, which puts
#: the percentile on the edge between one and two primes, so it jumps from
#: seed to seed.  A fixed count pattern close to that distribution, with the
#: middle on two primes, keeps it in one place.
LOCAL_PRIME_COUNTS = (0, 1, 1, 2, 2, 2, 3, 4)

#: conductor-spectra: levels (p, n) grouped by cusp dimension p^n - 1 - n.
#: A cycle runs CONDUCTOR_CYCLE in order: a spectrum from the numbered band,
#: or a commutation check for None.  Four short operations (~25, ~50 and
#: ~120 spectra, one commutation check), six ~240 spectra and four ~500 ones
#: per cycle put the run's median in the middle of the ~240 spectra (0.5 s
#: each) and its 90th percentile among the ~500 ones (2-3 s).  An order
#: statistic at the edge of a class jumps with the noise of single
#: operations, and short ones are the noisiest: on a shared 2-vCPU host the
#: median of the ~120 spectra (0.1 s each) spread by 40 % from run to run,
#: twice as much as the long ones.  Levels come from a bag per band, refilled
#: in seeded order when empty, so two cycles use every ~240 and ~500 level
#: equally often (levels of one band differ by up to 25 % in cost).
CONDUCTOR_BANDS = (
    ((5, 2), (3, 3), (2, 5), (29, 1)),                # dim 22-27
    ((7, 2), (2, 6), (53, 1), (59, 1)),               # dim 46-57
    ((11, 2), (2, 7), (5, 3), (127, 1)),              # dim 118-125
    ((3, 5), (2, 8), (239, 1), (241, 1)),             # dim 237-247
    ((2, 9), (499, 1), (503, 1), (509, 1)),           # dim 497-507
)
CONDUCTOR_CYCLE = (3, 4, 3, 0, 4, 3, 1, 3, 4, 2, 3, None, 4, 3)
COMMUTATION_LEVELS = ((5, 2), (3, 3), (2, 5), (7, 2))
CONDUCTOR_WARM = ((2, 3), (3, 2), (2, 4), (7, 1))

#: Cycles per run are rounded to a multiple of this, so the mix is exact.
CYCLE_BLOCK = {"zero-tables": 2, "local-terms": len(LOCAL_PRIME_COUNTS),
               "conductor-spectra": 2}



def streams(seed: int):
    """(timed, warm, fixture) generators spawned from one seed."""
    timed, warm, fixture = np.random.SeedSequence(seed).spawn(3)
    return (np.random.default_rng(timed), np.random.default_rng(warm),
            np.random.default_rng(fixture))


def _f(x) -> float:
    # 12 significant digits, so that every input has a short exact repr
    return float(f"{float(x):.12g}")


def draw_bump(rng, primes=None):
    """(mu, sigma, amp) from the reference test distribution: mu in [-1, 1.6],
    sigma in [0.25, 0.7], amp in [0.5, 2]; conditioned on having `primes`
    support primes when that is given."""
    while True:
        b = (_f(rng.uniform(-1.0, 1.6)), _f(rng.uniform(0.25, 0.7)), _f(rng.uniform(0.5, 2.0)))
        if primes is None or len(support_primes(b[0], b[1])) == primes:
            return b


def draw_jump_free(rng, lo: float, hi: float) -> float:
    """Uniform X in [lo, hi] at least _JUMP_GAP away from every prime power."""
    while True:
        x = _f(rng.uniform(lo, hi))
        if min(abs(x - q) for q in _PRIME_POWERS) >= _JUMP_GAP:
            return x


def support_primes(mu: float, sigma: float) -> list[int]:
    """Primes p with some p^k or p^-k (k >= 1) inside the bump's support."""
    a, b = mu - sigma, mu + sigma
    out = []
    for p in (2, 3, 5, 7, 11, 13):
        lp = math.log(p)
        for lo, hi in ((a, b), (-b, -a)):
            if max(1, math.ceil(lo / lp - 1e-12)) * lp <= hi + 1e-12:
                out.append(p)
                break
    return out


def step_primes(X: float) -> list[int]:
    """Primes p <= X: the places where the step 1_(1,X) has a local term."""
    return [p for p in (2, 3, 5, 7, 11, 13) if p <= X]


# ----------------------------------------------------------------------------
# cycles: lists of operations (tuples of plain values)

def _zero_cycles(rng):
    while True:
        ops = []
        for centre in ZERO_BANDS:
            t_max = round(centre + rng.uniform(-ZERO_JITTER, ZERO_JITTER), 2)
            ops.append(("zeros", t_max, tuple(_f(u) for u in rng.uniform(size=ZERO_SAMPLES))))
        yield ops


def _local_cycles(rng):
    while True:
        for primes in rng.permutation(LOCAL_PRIME_COUNTS):
            b = draw_bump(rng, int(primes))
            yield [("local_terms", b), ("ef_check", b), ("positivity", b),
                   ("step", draw_jump_free(rng, 2.0, 12.0))]


def _conductor_cycles(rng):
    bags = {b: [] for b in CONDUCTOR_CYCLE}
    while True:
        ops = []
        for b in CONDUCTOR_CYCLE:
            if not bags[b]:
                bags[b] = list(rng.permutation(COMMUTATION_LEVELS if b is None
                                               else CONDUCTOR_BANDS[b]))
            level = tuple(int(x) for x in bags[b].pop())
            ops.append(("commutation" if b is None else "spectrum",) + level)
        yield ops


_CYCLES = {"zero-tables": _zero_cycles, "local-terms": _local_cycles,
           "conductor-spectra": _conductor_cycles}


def cycles(workload: str, seed: int):
    """Endless iterator over the timed cycles of a workload."""
    return _CYCLES[workload](streams(seed)[0])


def first_cycles(workload: str, seed: int, count: int) -> list:
    return list(itertools.islice(cycles(workload, seed), count))


def cycle_count(workload: str, seconds: float) -> int:
    block = CYCLE_BLOCK[workload]
    return block * max(1, round(seconds / CYCLE_SECONDS[workload] / block))


def warmup(workload: str, seed: int) -> list:
    """Operations run once before timing, from the warm-up stream."""
    rng = streams(seed)[1]
    if workload == "zero-tables":
        return [("zeros", round(rng.uniform(60.0, 120.0), 2), ())]
    if workload == "local-terms":
        return next(_local_cycles(rng))
    return ([("spectrum", p, n) for p, n in CONDUCTOR_WARM]
            + [("commutation",) + CONDUCTOR_WARM[0]])


def fixtures(workload: str, seed: int) -> dict:
    """Set-up inputs: the shared zero-table heights, and for each table the
    positions (fractions of its length) of the ordinates checked."""
    rng = streams(seed)[2]
    tables = [LOCAL_T_MAX] if workload == "local-terms" else []
    return {"tables": tables,
            "samples": [tuple(_f(u) for u in rng.uniform(size=ZERO_SAMPLES)) for _ in tables]}
