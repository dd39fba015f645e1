"""Command-line driver: zero management, explicit-formula checks, per-place
term reports, conductor spectra; deterministic CSV on stdout or --out.

Exit codes: 0 success, 1 input/parse/certification errors, 2 tolerance or
spectrum breaches.
"""

from __future__ import annotations

import argparse
import math
import re
import sys

import numpy as np

from . import padic, weil
from .errors import (AdmissibilityError, AmbiguityError, CertificationError,
                     ConvergenceError, DomainError, ParseError, PoleError)
from .special import Place, is_prime
from .testfn import parse_test_function
from .zeta import find_zeros, read_zero_table, zero_table_to_string

_INPUT_ERRORS = (ParseError, DomainError, AdmissibilityError, CertificationError,
                 PoleError, AmbiguityError, ConvergenceError, OSError)


class _ArgError(Exception):
    pass


#: Tokens that are option values, never option strings: every negative float
#: literal, exponent forms such as -1e-4 included (argparse's own pattern only
#: knows -1 and -.5).
_NEGATIVE_NUMBER = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$|^-(inf|infinity|nan)$",
                              re.IGNORECASE)


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = _NEGATIVE_NUMBER

    def error(self, message):
        raise _ArgError(message)


def _tolerance(text: str) -> float:
    """argparse type for --tol: a finite, non-negative float."""
    try:
        tol = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not (math.isfinite(tol) and tol >= 0.0):
        raise argparse.ArgumentTypeError(f"tolerance must be finite and >= 0, got {text}")
    return tol


def _emit(text: str, out_path: str | None):
    if out_path:
        with open(out_path, "w", encoding="ascii") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_zeros(args) -> int:
    if args.action == "find":
        table = find_zeros(args.t_max)
        _emit(zero_table_to_string(table), args.out)
        print(f"count={len(table)} accuracy={table.accuracy:.3g} t_max={table.t_max:g}",
              file=sys.stderr)
        return 0
    table = read_zero_table(args.infile)
    print(f"count={len(table)} accuracy={table.accuracy:.3g} t_max={table.t_max:g}",
          file=sys.stderr)
    if args.action == "export" or args.out:
        _emit(zero_table_to_string(table), args.out)
    return 0


def _cmd_ef(args) -> int:
    zeros = read_zero_table(args.zeros)
    if args.action == "check":
        g = parse_test_function(args.testfn)
        rep = weil.explicit_formula_check(g, zeros)
        _emit(weil.rows_to_csv(weil.ef_report_rows(rep, tol=args.tol)), args.out)
        return 0 if abs(rep.residual) <= args.tol else 2
    if args.action == "vonmangoldt":
        rep = weil.vonmangoldt_check(args.X, zeros)
        _emit(weil.rows_to_csv(weil.ef_report_rows(rep, tol=args.tol)), args.out)
        return 0 if abs(rep.residual) <= args.tol else 2
    # positivity
    g = parse_test_function(args.testfn)
    pq, zq = weil.positivity_q(g, zeros)
    status = "ok" if pq >= -1e-6 else "fail"
    rows = [("prime_side_q", "autocorrelation", pq, 0.0, -1e-6, status),
            ("zero_side_q", "mellin", zq, 0.0, None, "")]
    _emit(weil.rows_to_csv(rows), args.out)
    return 0 if status == "ok" else 2


def _cmd_weil(args) -> int:
    g = parse_test_function(args.testfn)
    if args.place == "r":
        place = Place.real()
        known = weil.W_R_FORMS
    else:
        try:
            p = int(args.place)
        except ValueError:
            raise DomainError(f"place must be 'r' or a prime, got {args.place}") from None
        if not is_prime(p):
            raise DomainError(f"place must be 'r' or a prime, got {args.place}")
        place = Place.prime(p)
        known = weil.PRIME_METHODS
    if args.form == "all":
        rep = weil.place_term_report(g, place)
        _emit(weil.rows_to_csv(weil.place_report_rows(rep, tol=args.tol)), args.out)
        if rep.not_converged or (args.tol is not None and rep.spread > args.tol):
            return 2
        return 0
    if args.form not in known:
        raise DomainError(f"form {args.form!r} is not defined at place {place}; "
                          f"expected one of {known} or 'all'")
    val = weil.local_term(g, place, args.form)
    rows = [(f"w_{place.label}", args.form, val.real, val.imag, None, "ok")]
    _emit(weil.rows_to_csv(rows), args.out)
    return 0


def _cmd_conductor(args) -> int:
    p, n = args.p, args.n
    ev = padic.cuspidal_spectrum(p, n)  # DomainError for a non-prime p, n < 1 or p^n over the cap
    logp = math.log(p)
    rows = []
    worst = 0.0
    for i, lam in enumerate(ev):
        ratio = lam / logp
        defect = abs(ratio - round(ratio))
        worst = max(worst, defect)
        rows.append((f"eigenvalue_{i:03d}", "eigensolve", float(lam), 0.0, None, ""))
        rows.append((f"ratio_{i:03d}", "eigenvalue/log(p)", float(ratio), 0.0,
                     1e-8, "ok" if defect <= 1e-8 else "fail"))
    if args.check_inversion:
        d = padic.commutation_check(p, n)
        rows.append(("commutation_defect", "inversion", float(d), 0.0, 1e-9,
                     "ok" if d <= 1e-9 else "fail"))
    _emit(weil.rows_to_csv(rows), args.out)
    # second route: the closed form, compared after sorting
    closed = padic.closed_form_spectrum(p, n)
    gap = (float(np.max(np.abs(np.sort(ev) - closed) / logp, initial=0.0))
           if ev.shape == closed.shape else math.inf)
    if gap > 1e-8:
        print(f"error: eigensolve departs from the closed-form spectrum by "
              f"{gap:.3e} in units of log p", file=sys.stderr)
    return 0 if worst <= 1e-8 and gap <= 1e-8 else 2


def build_parser() -> _Parser:
    ap = _Parser(prog="eflab", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    zp = sub.add_parser("zeros", help="find, import, or export zero tables")
    zsub = zp.add_subparsers(dest="action", required=True)
    zf = zsub.add_parser("find")
    zf.add_argument("--t-max", dest="t_max", type=float, required=True)
    zf.add_argument("--out", default=None)
    zf.set_defaults(func=_cmd_zeros)
    for name in ("import", "export"):
        zi = zsub.add_parser(name)
        zi.add_argument("--in", dest="infile", required=True)
        zi.add_argument("--out", default=None, required=(name == "export"))
        zi.set_defaults(func=_cmd_zeros)

    ep = sub.add_parser("ef", help="explicit-formula balance checks")
    esub = ep.add_subparsers(dest="action", required=True)
    ec = esub.add_parser("check")
    ec.add_argument("--testfn", required=True)
    ec.add_argument("--zeros", required=True)
    ec.add_argument("--tol", type=_tolerance, default=1e-4)
    ec.add_argument("--out", default=None)
    ec.set_defaults(func=_cmd_ef)
    ev = esub.add_parser("vonmangoldt")
    ev.add_argument("--X", type=float, required=True)
    ev.add_argument("--zeros", required=True)
    ev.add_argument("--tol", type=_tolerance, default=0.1)
    ev.add_argument("--out", default=None)
    ev.set_defaults(func=_cmd_ef)
    eq = esub.add_parser("positivity")
    eq.add_argument("--testfn", required=True)
    eq.add_argument("--zeros", required=True)
    eq.add_argument("--out", default=None)
    eq.set_defaults(func=_cmd_ef)

    wp = sub.add_parser("weil", help="per-place local terms by each method")
    wp.add_argument("--place", required=True)
    wp.add_argument("--form", default="all")
    wp.add_argument("--testfn", required=True)
    wp.add_argument("--tol", type=_tolerance, default=None)
    wp.add_argument("--out", default=None)
    wp.set_defaults(func=_cmd_weil)

    cp = sub.add_parser("conductor", help="cuspidal spectrum of the conductor operator")
    cp.add_argument("--p", type=int, required=True)
    cp.add_argument("--n", type=int, required=True)
    cp.add_argument("--check-inversion", action="store_true", dest="check_inversion")
    cp.add_argument("--out", default=None)
    cp.set_defaults(func=_cmd_conductor)
    return ap


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _ArgError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        return args.func(args)
    except _INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
