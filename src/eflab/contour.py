"""Adaptive truncated integrals over the critical line.

Integrals of the shape (1/2 pi i) int_{Re s = 1/2} W(s) ghat(s) ds are
computed in symmetric t-blocks [T, T+20] (plus the mirrored negative range),
extended until the most recent block contributes less than BLOCK_TOL.
"""

from __future__ import annotations

import numpy as np

from .errors import ConvergenceError
from .quadrature import panel_nodes

LINE_RE = 0.5
BLOCK_WIDTH = 20.0
BLOCK_TOL = 1e-10
T_CAP = 2000.0


class VerticalLineIntegrator:
    """Blockwise integrator for (1/2 pi i) int W(s) ghat(s) ds on Re s = 1/2."""

    def __init__(self, g, weight_osc: float):
        a, b = g.support_log()
        self._g = g
        # t-oscillation of the integrand: ghat(1/2+it) rings at the support edges,
        # the weight at most at rate weight_osc (log p for prime places).
        self._osc = max(abs(a), abs(b)) + float(weight_osc)

    def integrate(self, weight_fn) -> complex:
        """Integrate until the last block contributes < BLOCK_TOL; error at the t cap."""
        total = 0.0 + 0.0j
        n_blocks = int(np.ceil(T_CAP / BLOCK_WIDTH))
        for k in range(n_blocks):
            t, w = panel_nodes((k * BLOCK_WIDTH, (k + 1) * BLOCK_WIDTH),
                               density=8.0, osc=self._osc)
            t = np.concatenate([-t[::-1], t])
            w = np.concatenate([w[::-1], w])
            s = LINE_RE + 1j * t
            contrib = np.sum(w * self._g.mellin(s) * weight_fn(s)) / (2.0 * np.pi)
            total += contrib
            if abs(contrib) < BLOCK_TOL:
                return complex(total)
        raise ConvergenceError(
            f"vertical-line integral did not converge below {BLOCK_TOL} by t = {T_CAP}")
