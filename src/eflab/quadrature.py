"""Composite Gauss-Legendre panels shared by the quadrature-heavy modules.

Panels are split at user-supplied breakpoints (support endpoints, kinks,
removable singularities); node counts scale with panel length and with the
oscillation rate of any e^{i*omega*x} factor in the integrand.

Node counts are rounded up to a fixed ladder of rule sizes (``_rule_size``):
multiples of 8 below 128 nodes, then 8 sizes per octave, capped at
_MAX_PANEL_NODES.  The ladder has 58 sizes, so a process builds each
Gauss-Legendre rule once however the lengths and rates vary; from 128 nodes
up the rounding adds at most 12.5 % to the count asked for.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .errors import DomainError

_MIN_PANEL_NODES = 24
_MAX_PANEL_NODES = 6000


def _legendre_pair(n: int, x: np.ndarray):
    """(P_n(x), P_{n-1}(x)) by the three-term recurrence."""
    p0, p1 = np.ones_like(x), x
    for j in range(1, n):
        p0, p1 = p1, ((2 * j + 1) / (j + 1)) * x * p1 - (j / (j + 1)) * p0
    return p1, p0


@lru_cache(maxsize=None)
def _gl_rule(n: int):
    """Gauss-Legendre nodes (ascending) and weights on [-1, 1], read-only.

    Newton's method on the three-term recurrence, run on the (n+1)//2
    non-negative nodes from Tricomi's estimates; once the step is below 1e-10
    the next one would be under rounding.  Weights come from one more sweep,
    w = 2(1-x^2)/(n P_{n-1}(x))^2.  Nodes agree with a reference rule to
    ~1 ulp and the weights' summed error stays ~1e-11 up to n = 6000.
    """
    k = np.arange(1, (n + 1) // 2 + 1)
    x = (1.0 - (n - 1) / (8.0 * n**3)) * np.cos(np.pi * (4 * k - 1) / (4 * n + 2))
    for step in range(1, 21):
        pn, pm = _legendre_pair(n, x)
        dx = pn * (1.0 - x) * (1.0 + x) / (n * (pm - x * pn))
        x = x - dx
        if step >= 2 and np.max(np.abs(dx)) < 1e-10:
            break
    else:
        raise RuntimeError(f"Gauss-Legendre Newton iteration did not converge at n = {n}")
    pm = _legendre_pair(n, x)[1]
    w = 2.0 * (1.0 - x) * (1.0 + x) / (n * pm) ** 2
    odd = n % 2
    if odd:
        x[-1] = 0.0
    nodes = np.concatenate((-x, x[::-1][odd:]))
    weights = np.concatenate((w, w[::-1][odd:]))
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return nodes, weights


def _rule_size(n: int) -> int:
    """The smallest ladder size >= n: a multiple of 8 below 128, else a
    multiple of 2^(floor(log2 n) - 3), capped at _MAX_PANEL_NODES."""
    step = 8 if n < 128 else 1 << (n.bit_length() - 4)
    return min(-(-n // step) * step, _MAX_PANEL_NODES)


def gl_panel(a: float, b: float, density: float = 64.0, osc: float = 0.0):
    """Gauss-Legendre nodes/weights on the one panel [a, b], a <= b, sized as
    panel_nodes sizes each of its panels.

    A panel of length 1e-14 or less gets no nodes.  Raises DomainError when
    the node count asked for is not finite.
    """
    length = b - a
    want = density * length + osc * length / 3.5
    if not math.isfinite(want):
        raise DomainError(f"quadrature panel [{a:.6g}, {b:.6g}] "
                          f"needs a non-finite number of nodes")
    if length <= 1e-14:
        return np.empty(0), np.empty(0)
    x0, w0 = _gl_rule(_rule_size(max(_MIN_PANEL_NODES, math.ceil(want) + 16)))
    return 0.5 * (a + b) + 0.5 * length * x0, 0.5 * length * w0


def panel_nodes(breakpoints, density: float = 64.0, osc: float = 0.0):
    """Gauss-Legendre nodes/weights over [b_0, b_last] split at breakpoints.

    density: nodes per unit length for smooth non-oscillatory factors.
    osc:     absolute oscillation rate |omega|; adds ~omega*L/3.5 nodes per
             panel so that e^{i*omega*x} is resolved to machine precision.

    The breakpoints are taken in ascending order without repeats, a NaN last
    (np.unique's order); the first panel whose node count is not finite
    raises DomainError.
    """
    values = {float(b) for b in breakpoints}
    bs = sorted(v for v in values if v == v)
    if len(bs) < len(values):
        bs.append(math.nan)
    pieces = [gl_panel(a, b, density, osc) for a, b in zip(bs, bs[1:])]
    pieces = [p for p in pieces if p[0].size]
    if not pieces:
        return np.empty(0), np.empty(0)
    return np.concatenate([x for x, _ in pieces]), np.concatenate([w for _, w in pieces])
