"""Adaptive truncated integrals over the critical line.

Integrals of the shape (1/2 pi i) int_{Re s = 1/2} W(s) ghat(s) ds are
computed in t-blocks [T, T+20] on the upper half t >= 0, extended until the
most recent block contributes less than BLOCK_TOL.

The lower half is never evaluated.  The weight must satisfy the contract

    W(conj s) = conj W(s),

which Lambda_nu and the Mellin-Fourier kernel |x|^(s-1)/Gamma_nu(s) do, and
ghat(conj s) = conj gbar-hat(s) with gbar the conjugate test function.  So
the point 1/2 - it contributes conj(gbar-hat(s) W(s)) at s = 1/2 + it.  For a
real g, gbar is g: each block evaluates ghat once, and the block sum
a + conj(a) has an imaginary part of exactly 0.
"""

from __future__ import annotations

import numpy as np

from .errors import ConvergenceError
from .quadrature import panel_nodes

LINE_RE = 0.5
BLOCK_WIDTH = 20.0
BLOCK_TOL = 1e-10
T_CAP = 2000.0


def mellin_pair(g, s: np.ndarray):
    """(ghat(s), gbar-hat(s)) with gbar = conj g, so ghat(conj s) = conj gbar-hat(s).

    For a real g the second entry is the first array itself, not a copy.
    """
    upper = g.mellin(s)
    return upper, (upper if g.is_real else g.conjugate().mellin(s))


class VerticalLineIntegrator:
    """Blockwise integrator for (1/2 pi i) int W(s) ghat(s) ds on Re s = 1/2."""

    def __init__(self, g, weight_osc: float):
        a, b = g.support_log()
        self._g = g
        # t-oscillation of the integrand: ghat(1/2+it) rings at the support edges,
        # the weight at most at rate weight_osc (log p for prime places).
        self._osc = max(abs(a), abs(b)) + float(weight_osc)
        # One t-rule centred on 0; block k is its translate by (k + 1/2) * BLOCK_WIDTH.
        half = 0.5 * BLOCK_WIDTH
        self._t, self._w = panel_nodes((-half, half), density=8.0, osc=self._osc)

    def integrate(self, weight_fn) -> complex:
        """Integrate until the last block contributes < BLOCK_TOL; error at the t cap.

        weight_fn must satisfy weight_fn(conj s) = conj weight_fn(s); it is
        called on the t >= 0 half only.
        """
        total = 0.0 + 0.0j
        n_blocks = int(np.ceil(T_CAP / BLOCK_WIDTH))
        for k in range(n_blocks):
            s = LINE_RE + 1j * (self._t + (k + 0.5) * BLOCK_WIDTH)
            W = weight_fn(s)
            ghat, gbar_hat = mellin_pair(self._g, s)
            upper = self._w * ghat * W
            lower = upper if gbar_hat is ghat else self._w * gbar_hat * W
            contrib = np.sum(upper + np.conj(lower)) / (2.0 * np.pi)
            total += contrib
            if abs(contrib) < BLOCK_TOL:
                return complex(total)
        raise ConvergenceError(
            f"vertical-line integral did not converge below {BLOCK_TOL} by t = {T_CAP}")
