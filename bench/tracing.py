"""Span tracing of eflab's public functions, installed from outside the package.

``Tracer.install`` wraps each function in TARGETS at every binding site: the
defining module and every other loaded ``eflab`` module that imported the same
object with ``from ... import``.  Methods are wrapped on their class.  Each
call records a span [id, parent, name, start, end, items]; spans stay in
memory until ``dump``.  ``layer_stats`` turns spans into per-name call
counts, self times (span time minus the time of its child spans) and item
sums, and ``per_layer_metrics`` names them as the benchmark reports them.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict

import numpy as np


def _size(x) -> int:
    return int(np.size(x))


def _w_r_name(args, kwargs):
    form = args[1] if len(args) > 1 else kwargs.get("form", "finite")
    return f"weil.w_r.{form}"


#: (module, attribute path, span name or callable(args, kwargs), items or None).
#: Items: zero_count sums its t argument, find_zeros/read_zero_table count the
#: ordinates returned, lambda_factor/log_gamma/mellin count evaluation points,
#: panel_nodes counts nodes returned, conductor_matrix sums the dimension.
TARGETS = (
    ("eflab.zeta", "zero_count", "zeta.zero_count", lambda a, k, o: float(a[0])),
    ("eflab.zeta", "find_zeros", "zeta.find_zeros", lambda a, k, o: len(o)),
    ("eflab.zeta", "read_zero_table", "zeta.read_zero_table", lambda a, k, o: len(o)),
    ("eflab.zeta", "psi_sum", "zeta.psi_sum", None),
    ("eflab.special", "lambda_factor", "special.lambda_factor",
     lambda a, k, o: _size(a[1] if len(a) > 1 else k["s"])),
    ("eflab.special", "log_gamma", "special.log_gamma",
     lambda a, k, o: _size(a[0] if a else k["s"])),
    ("eflab.testfn", "TestFunction.mellin", "testfn.mellin",
     lambda a, k, o: _size(a[1] if len(a) > 1 else k["s"])),
    ("eflab.testfn", "autocorrelate", "testfn.autocorrelate", None),
    ("eflab.quadrature", "panel_nodes", "quadrature.panel_nodes", lambda a, k, o: len(o[0])),
    ("eflab.contour", "VerticalLineIntegrator.integrate", "contour.integrate", None),
    ("eflab.weil", "w_r", _w_r_name, None),
    ("eflab.weil", "w_p", "weil.w_p", None),
    ("eflab.weil", "w_p_contour", "weil.w_p_contour", None),
    ("eflab.weil", "place_term_report", "weil.place_term_report", None),
    ("eflab.weil", "explicit_formula_check", "weil.explicit_formula_check", None),
    ("eflab.weil", "zero_side_sum", "weil.zero_side_sum", None),
    ("eflab.weil", "positivity_q", "weil.positivity_q", None),
    ("eflab.weil", "vonmangoldt_check", "weil.vonmangoldt_check", None),
    ("eflab.padic", "cusp_space_basis", "padic.cusp_space_basis", None),
    ("eflab.padic", "conductor_matrix", "padic.conductor_matrix", lambda a, k, o: o.dim),
    ("eflab.padic", "cuspidal_spectrum", "padic.cuspidal_spectrum", None),
    ("eflab.padic", "conductor_apply", "padic.conductor_apply", None),
    ("eflab.padic", "inversion", "padic.inversion", None),
    ("eflab.padic", "commutation_check", "padic.commutation_check", None),
    ("eflab.padic", "haran_term", "padic.haran_term", None),
)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def open(self, name: str) -> list:
        span = [len(self.spans), self._stack[-1] if self._stack else None,
                name, time.perf_counter(), 0.0, 0]
        self.spans.append(span)
        self._stack.append(span[0])
        return span

    def close(self, span: list):
        span[4] = time.perf_counter()
        self._stack.pop()

    def wrap(self, fn, name, items):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = tracer.open(name(args, kwargs) if callable(name) else name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.close(span)
            if items is not None:
                span[5] = items(args, kwargs, out)
            return out
        return traced

    def install(self):
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "eflab" or n.startswith("eflab."))]
        for modname, path, name, items in TARGETS:
            owner = sys.modules[modname]
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            wrapped = self.wrap(original, name, items)
            if outer:
                self._patch(owner, attr, wrapped)
                continue
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is original:
                        self._patch(mod, key, wrapped)

    def _patch(self, owner, attr, value):
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def dump(self, path: str):
        with open(path, "w", encoding="ascii") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def layer_stats(spans) -> dict:
    """name -> {calls, total_s, self_s, items, blocks}; also "" -> top-level time."""
    child_time = defaultdict(float)
    mellin_children = defaultdict(int)
    for sid, parent, name, t0, t1, _ in spans:
        if parent is not None:
            child_time[parent] += t1 - t0
            if name == "testfn.mellin":
                mellin_children[parent] += 1
    stats = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0,
                                 "items": 0.0, "blocks": 0})
    top = 0.0
    for sid, parent, name, t0, t1, items in spans:
        st = stats[name]
        st["calls"] += 1
        st["total_s"] += t1 - t0
        st["self_s"] += (t1 - t0) - child_time[sid]
        st["items"] += items
        st["blocks"] += mellin_children[sid]
        if parent is None:
            top += t1 - t0
    out = dict(stats)
    out[""] = {"total_s": top}
    return out


def _stat(name, key):
    return lambda st: st.get(name, {}).get(key, 0)


def _zeros_per_s(st):
    spans = [st.get(n, {}) for n in ("zeta.find_zeros", "zeta.read_zero_table")]
    busy = sum(s.get("total_s", 0.0) for s in spans)
    return sum(s.get("items", 0) for s in spans) / busy if busy else 0.0


_W_R_FORMS = ("finite", "series", "pf", "contour", "convolution")

#: (metric, unit, better, getter on layer stats).  The cli.* and
#: trace.* metrics are measured by the worker and passed in as extras.
PER_LAYER = (
    [("zeta.zero_count.calls", "count", "lower", _stat("zeta.zero_count", "calls")),
     ("zeta.zero_count.self_s", "s", "lower", _stat("zeta.zero_count", "self_s")),
     ("zeta.zero_count.t_sum", "count", "lower", _stat("zeta.zero_count", "items")),
     ("zeta.find_zeros.self_s", "s", "lower", _stat("zeta.find_zeros", "self_s")),
     ("zeta.read_zero_table.self_s", "s", "lower", _stat("zeta.read_zero_table", "self_s")),
     ("zeta.zeros_per_s", "ordinates/s", "higher", _zeros_per_s),
     ("zeta.psi_sum.calls", "count", "lower", _stat("zeta.psi_sum", "calls")),
     ("zeta.psi_sum.self_s", "s", "lower", _stat("zeta.psi_sum", "self_s")),
     ("special.lambda_factor.calls", "count", "lower", _stat("special.lambda_factor", "calls")),
     ("special.lambda_factor.points", "count", "lower", _stat("special.lambda_factor", "items")),
     ("special.lambda_factor.self_s", "s", "lower", _stat("special.lambda_factor", "self_s")),
     ("special.log_gamma.points", "count", "lower", _stat("special.log_gamma", "items")),
     ("special.log_gamma.self_s", "s", "lower", _stat("special.log_gamma", "self_s")),
     ("testfn.mellin.calls", "count", "lower", _stat("testfn.mellin", "calls")),
     ("testfn.mellin.points", "count", "lower", _stat("testfn.mellin", "items")),
     ("testfn.mellin.self_s", "s", "lower", _stat("testfn.mellin", "self_s")),
     ("testfn.autocorrelate.self_s", "s", "lower", _stat("testfn.autocorrelate", "self_s")),
     ("quadrature.panel_nodes.calls", "count", "lower", _stat("quadrature.panel_nodes", "calls")),
     ("quadrature.panel_nodes.nodes", "count", "lower", _stat("quadrature.panel_nodes", "items")),
     ("quadrature.panel_nodes.self_s", "s", "lower", _stat("quadrature.panel_nodes", "self_s")),
     ("contour.integrate.calls", "count", "lower", _stat("contour.integrate", "calls")),
     ("contour.integrate.self_s", "s", "lower", _stat("contour.integrate", "self_s")),
     ("contour.integrate.blocks", "count", "lower", _stat("contour.integrate", "blocks"))]
    + [(f"weil.w_r.{f}.self_s", "s", "lower", _stat(f"weil.w_r.{f}", "self_s"))
       for f in _W_R_FORMS]
    + [(f"weil.{f}.self_s", "s", "lower", _stat(f"weil.{f}", "self_s"))
       for f in ("w_p", "w_p_contour", "place_term_report", "explicit_formula_check",
                 "zero_side_sum", "positivity_q", "vonmangoldt_check")]
    + [(f"padic.{f}.self_s", "s", "lower", _stat(f"padic.{f}", "self_s"))
       for f in ("cusp_space_basis", "conductor_matrix", "cuspidal_spectrum",
                 "conductor_apply", "inversion", "commutation_check", "haran_term")]
    + [("padic.conductor_matrix.dim_sum", "count", "lower",
        _stat("padic.conductor_matrix", "items")),
       ("padic.conductor_apply.calls", "count", "lower", _stat("padic.conductor_apply", "calls"))]
)

EXTRA_LAYER = (
    ("cli.interp_s", "s", "lower"),
    ("cli.import_s", "s", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
    ("trace.span_share", "ratio", "higher"),
)


def per_layer_metrics(stats: dict, extras: dict) -> dict:
    out = {name: {"value": float(get(stats)), "unit": unit} for name, unit, _, get in PER_LAYER}
    for name, unit, _ in EXTRA_LAYER:
        out[name] = {"value": float(extras[name]), "unit": unit}
    return out
