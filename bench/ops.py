"""Running benchmark operations against eflab and checking their results.

Each workload class builds its fixtures in ``setup``, runs one operation in
``run`` (the only code inside the timed region) and judges a result in
``check``, which returns None for a correct result or a one-line reason.
Checks use references independent of the code under test: mpmath for zero
ordinates and counts, closed forms for step functions and conductor spectra,
and the cross-route agreement tolerances of the acceptance criteria.
"""

from __future__ import annotations

import math

import numpy as np
from eflab import padic, weil, zeta
from eflab.special import Place
from eflab.testfn import StepFunction, bump

import workloads as wl

EULER_GAMMA = 0.5772156649015329

#: Acceptance tolerances for the local terms.
R_SPREAD_TOL = 1e-7
P_CONTOUR_TOL = 1e-6
SHELL_TOL = 1e-12
EF_TOL = 1e-4
POSITIVITY_FLOOR = -1e-6
VONMANGOLDT_TOL = 0.1
SPECTRUM_RATIO_TOL = 1e-8
COMMUTATION_TOL = 1e-9
ORDINATE_TOL = 1e-8


def _mp():
    import mpmath
    mpmath.mp.dps = 20
    return mpmath


def check_zero_table(t_max: float, ordinates, sample_fracs) -> str | None:
    """Count against mpmath.nzeros, and sampled ordinates against zetazero."""
    mp = _mp()
    want = int(mp.nzeros(t_max))
    if len(ordinates) != want:
        return f"t_max={t_max}: {len(ordinates)} ordinates, mpmath counts {want}"
    for u in sample_fracs:
        k = min(int(u * want), want - 1)
        ref = float(mp.zetazero(k + 1).imag)
        if abs(float(ordinates[k]) - ref) > ORDINATE_TOL:
            return f"t_max={t_max}: ordinate {k + 1} is {ordinates[k]!r}, mpmath {ref!r}"
    return None


def closed_form_spectrum(p: int, n: int) -> np.ndarray:
    """Conductor eigenvalues / log p: f with multiplicity
    (phi(p^f) - phi(p^(f-1))) * (n - f + 1), f = 1..n, ascending."""
    def phi(k):
        return 1 if k == 0 else p ** k - p ** (k - 1)
    out = []
    for f in range(1, n + 1):
        out += [f] * ((phi(f) - phi(f - 1)) * (n - f + 1))
    return np.asarray(out, dtype=float)


def check_spectrum(p: int, n: int, eigenvalues) -> str | None:
    want = closed_form_spectrum(p, n)
    got = np.sort(np.asarray(eigenvalues, dtype=float)) / math.log(p)
    if got.shape != want.shape:
        return f"({p},{n}): {got.size} eigenvalues, closed form has {want.size}"
    defect = float(np.max(np.abs(got - want), initial=0.0))
    if not defect <= SPECTRUM_RATIO_TOL:
        return f"({p},{n}): ratio defect {defect:.3e} against the closed form"
    return None


def step_w_r(X: float) -> float:
    return 0.5 * (math.log(math.pi) + EULER_GAMMA) + math.log(X) + 0.5 * math.log1p(-X ** -2)



class Workload:
    """Shared set-up: the fixture zero tables, built in process."""

    def __init__(self, workload: str, seed: int):
        self.workload, self.seed = workload, seed
        self.tables = []

    def setup(self):
        self.fixtures = wl.fixtures(self.workload, self.seed)
        self.tables = [zeta.find_zeros(t) for t in self.fixtures["tables"]]

    def check_fixtures(self) -> list:
        """Reason (or None) per fixture table, against mpmath."""
        return [check_zero_table(t.t_max, t.ordinates, fracs)
                for t, fracs in zip(self.tables, self.fixtures["samples"])]

    def fixture_of(self, op):
        return None


class ZeroTables(Workload):
    def run(self, op):
        found = zeta.find_zeros(op[1])
        return found, zeta.read_zero_table(zeta.zero_table_to_string(found))

    def check(self, op, result):
        _, t_max, fracs = op
        found, back = result
        if not (found.certified and back.certified):
            return "table not certified"
        if not np.array_equal(found.ordinates, back.ordinates) or back.t_max != found.t_max:
            return "text round trip changed the table"
        return check_zero_table(t_max, found.ordinates, fracs)


class LocalTerms(Workload):
    def run(self, op):
        kind, arg = op
        zeros = self.tables[0]
        g = StepFunction(arg) if kind == "step" else bump(*arg[:2], amp=arg[2])
        if kind in ("local_terms", "step"):
            reports = [weil.place_term_report(g, Place.real())] + [
                weil.place_term_report(g, Place.prime(p)) for p in weil.prime_places(g)]
            return reports if kind == "local_terms" else (
                reports, weil.vonmangoldt_check(arg, zeros))
        if kind == "ef_check":
            return weil.explicit_formula_check(g, zeros)
        pq, zq = weil.positivity_q(g, zeros)
        return pq, zq, weil.zero_sum_tail_estimate(g, zeros.t_max)

    def fixture_of(self, op):
        return None if op[0] == "local_terms" else 0

    def check(self, op, result):
        kind, arg = op
        if kind == "step":
            result, vm = result
            r = abs(vm.residual)
            if r > VONMANGOLDT_TOL:
                return f"X={arg}: von Mangoldt residual {r:.3e}"
        if kind == "ef_check":
            r = abs(result.residual)
            return None if r <= EF_TOL else f"{arg}: residual {r:.3e}"
        if kind == "positivity":
            pq, zq, tail = result
            ok = pq >= POSITIVITY_FLOOR and abs(pq - zq) <= EF_TOL + tail
            return None if ok else f"{arg}: prime side {pq:.3e}, zero side {zq:.3e}"
        want = wl.support_primes(*arg[:2]) if kind == "local_terms" else wl.step_primes(arg)
        labels = [rep.place_label for rep in result]
        if labels != ["r"] + [str(p) for p in want]:
            return f"{arg}: places {labels}, expected r and {want}"
        for rep in result:
            vals = dict(rep.values)
            if rep.place_label == "r":
                if kind == "step":
                    err = abs(vals["finite"] - step_w_r(arg))
                    if set(vals) != {"finite"} or err > SHELL_TOL:
                        return f"step X={arg}: W_r off the closed form by {err:.3e}"
                elif len(vals) != 5 or rep.spread > R_SPREAD_TOL:
                    return f"{arg}: real-place spread {rep.spread:.3e}"
                continue
            if abs(vals["direct"] - vals["convolution"]) > SHELL_TOL:
                return f"{arg}: shell sum at p={rep.place_label} off by " \
                       f"{abs(vals['direct'] - vals['convolution']):.3e}"
            if kind == "local_terms" and abs(vals["direct"] - vals["contour"]) > P_CONTOUR_TOL:
                return f"{arg}: contour at p={rep.place_label} off by " \
                       f"{abs(vals['direct'] - vals['contour']):.3e}"
        return None


class ConductorSpectra(Workload):
    def run(self, op):
        kind, p, n = op
        if kind == "spectrum":
            return padic.cuspidal_spectrum(p, n)
        return padic.commutation_check(p, n)

    def check(self, op, result):
        kind, p, n = op
        if kind == "spectrum":
            return check_spectrum(p, n, result)
        return None if result <= COMMUTATION_TOL else f"({p},{n}): defect {result:.3e}"



CLASSES = {"zero-tables": ZeroTables, "local-terms": LocalTerms,
           "conductor-spectra": ConductorSpectra}
