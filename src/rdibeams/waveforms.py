"""Plane-wave driving functions (f1, f2) of the phase xi = omega (t - z/c).

Each waveform supplies the pair, its first two derivatives, and the gauge
integral int_0^xi (f1'^2 + f2'^2) dphi.  The sinusoidal families carry the
integral in closed form.  The pulse integrates it by a fixed 64-node
Gauss-Legendre rule over [0, xi] clipped to center +- 12 width, outside
which the squared envelope is below 1e-62: the nodes move smoothly with xi,
so the gauge phase is smooth in xi for finite-difference stencils.  Every
function takes xi as a float or as an array of phases, one per point.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import mathops

# Gauss-Legendre rule of the pulse gauge integral, and the half-width of
# its clip window in units of the envelope width
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(64)
_PULSE_REACH = 12.0
# points per block of the pulse gauge integral: the phases of a whole
# `numerics.gradient4` batch (16 stencil points per point) at once would
# hold several arrays of 64 x its size in memory together
_PULSE_BLOCK = 32


@dataclass(frozen=True)
class Waveform:
    """Driving pair with derivatives and gauge integral."""

    kind: str
    amplitude: float
    params: tuple = ()

    def f(self, xi):
        a = self.amplitude
        ops = mathops.of(xi)
        if self.kind == "circular":
            return a * ops.sin(xi), a * (1.0 - ops.cos(xi))
        if self.kind == "linear":
            return 0.0, a * (1.0 - ops.cos(xi))
        if self.kind == "pulse":
            return a * self._envelope(xi, ops)[1] * ops.sin(xi), 0.0
        if self.kind == "custom":
            return self.params[0](xi)
        raise ValueError(self.kind)

    def fdot(self, xi):
        a = self.amplitude
        ops = mathops.of(xi)
        if self.kind == "circular":
            return a * ops.cos(xi), a * ops.sin(xi)
        if self.kind == "linear":
            return 0.0, a * ops.sin(xi)
        if self.kind == "pulse":
            u, e = self._envelope(xi, ops)
            de = -u / self.params[1] * e
            return a * (de * ops.sin(xi) + e * ops.cos(xi)), 0.0
        if self.kind == "custom":
            return self.params[1](xi)
        raise ValueError(self.kind)

    def fddot(self, xi):
        a = self.amplitude
        ops = mathops.of(xi)
        if self.kind == "circular":
            return -a * ops.sin(xi), a * ops.cos(xi)
        if self.kind == "linear":
            return 0.0, a * ops.cos(xi)
        if self.kind == "pulse":
            u, e = self._envelope(xi, ops)
            width = self.params[1]
            de = -u / width * e
            d2e = (u * u - 1.0) / (width * width) * e
            return a * (d2e * ops.sin(xi) + 2.0 * de * ops.cos(xi)
                        - e * ops.sin(xi)), 0.0
        if self.kind == "custom":
            return self.params[2](xi)
        raise ValueError(self.kind)

    def gauge_integral(self, xi):
        """int_0^xi (f1'^2 + f2'^2) dphi."""
        a2 = self.amplitude ** 2
        ops = mathops.of(xi)
        if self.kind == "circular":
            return a2 * xi
        if self.kind == "linear":
            return a2 * (0.5 * xi - 0.25 * ops.sin(2.0 * xi))
        if self.kind == "pulse":
            center, width = self.params
            lo, hi = (ops.minimum(ops.maximum(v, center - _PULSE_REACH * width),
                                  center + _PULSE_REACH * width)
                      for v in (0.0, xi))
            half = 0.5 * (hi - lo)
            mid, step = np.ravel(0.5 * (hi + lo)), np.ravel(half)
            # 64 nodes per point, for _PULSE_BLOCK points at a time
            total = np.empty(mid.size)
            for k in range(0, mid.size, _PULSE_BLOCK):
                block = slice(k, k + _PULSE_BLOCK)
                d1, d2 = self.fdot(mid[block, None]
                                   + step[block, None] * _GL_NODES)
                total[block] = (d1 * d1 + d2 * d2) @ _GL_WEIGHTS
            return half * total.reshape(np.shape(half))
        if self.kind == "custom":
            return self.params[3](xi)
        raise ValueError(self.kind)

    def _envelope(self, xi, ops) -> tuple:
        """(u, e): the pulse's scaled phase u = (xi - center) / width and
        its Gaussian envelope e = exp(-u^2 / 2); each method forms only the
        derivatives it needs, since the gauge integral evaluates fdot on 64
        nodes per point and every array of them is memory held at once."""
        center, width = self.params
        u = (xi - center) / width
        return u, ops.exp(-0.5 * u * u)


def circular(amplitude: float) -> Waveform:
    """Circularly polarized sinusoid: f1' = a cos(xi), f2' = a sin(xi)."""
    return Waveform("circular", amplitude)


def linear(amplitude: float) -> Waveform:
    """Linear polarization along y: f1 = 0, f2' = a sin(xi)."""
    return Waveform("linear", amplitude)


def pulse(amplitude: float, center: float = 6.0, width: float = 2.0) -> Waveform:
    """Gaussian-envelope pulse polarized along x."""
    return Waveform("pulse", amplitude, (center, width))


def custom(f, fdot, fddot, gauge_integral) -> Waveform:
    """User-supplied waveform; no symbolic differentiation is attempted, so
    all four callbacks (pair, first and second derivatives, and the gauge
    integral of f1'^2 + f2'^2 from 0) must be provided.  Each receives the
    phase xi as a float or as a numpy array (one element per point of a
    batch) and returns values of the same shape."""
    return Waveform("custom", math.nan, (f, fdot, fddot, gauge_integral))
