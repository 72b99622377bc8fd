"""Plane-wave driving functions (f1, f2) of the phase xi = omega (t - z).

Each waveform supplies the pair, its first two derivatives, and the gauge
integral int_0^xi (f1'^2 + f2'^2) dphi.  The sinusoidal families carry the
integral in closed form.  The pulse integrates it by a fixed 64-node
Gauss-Legendre rule over [0, xi] clipped to center +- 12 width, outside
which the squared envelope is below 1e-62: the nodes move smoothly with xi,
so the gauge phase is smooth in xi for finite-difference stencils.  Every
function is numpy code over an array of phases, one per point; a float
phase is its one-point case and gives the same bits as a one-element
array.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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

    def __post_init__(self):
        # the gauge integral carries amplitude^2; NaN fails the test too
        if not np.isfinite(self.amplitude * self.amplitude):
            raise ValueError(f"need a finite amplitude^2, got amplitude "
                             f"{self.amplitude!r}")

    def f(self, xi):
        a = self.amplitude
        if self.kind == "circular":
            return a * np.sin(xi), a * (1.0 - np.cos(xi))
        if self.kind == "linear":
            return 0.0, a * (1.0 - np.cos(xi))
        if self.kind == "pulse":
            return a * self._envelope(xi)[1] * np.sin(xi), 0.0
        raise ValueError(self.kind)

    def fdot(self, xi):
        a = self.amplitude
        if self.kind == "circular":
            return a * np.cos(xi), a * np.sin(xi)
        if self.kind == "linear":
            return 0.0, a * np.sin(xi)
        if self.kind == "pulse":
            u, e = self._envelope(xi)
            de = -u / self.params[1] * e
            return a * (de * np.sin(xi) + e * np.cos(xi)), 0.0
        raise ValueError(self.kind)

    def fddot(self, xi):
        a = self.amplitude
        if self.kind == "circular":
            return -a * np.sin(xi), a * np.cos(xi)
        if self.kind == "linear":
            return 0.0, a * np.cos(xi)
        if self.kind == "pulse":
            u, e = self._envelope(xi)
            width = self.params[1]
            de = -u / width * e
            d2e = (u * u - 1.0) / (width * width) * e
            return a * (d2e * np.sin(xi) + 2.0 * de * np.cos(xi)
                        - e * np.sin(xi)), 0.0
        raise ValueError(self.kind)

    def gauge_integral(self, xi):
        """int_0^xi (f1'^2 + f2'^2) dphi."""
        a2 = self.amplitude ** 2
        if self.kind == "circular":
            return a2 * xi
        if self.kind == "linear":
            return a2 * (0.5 * xi - 0.25 * np.sin(2.0 * xi))
        if self.kind == "pulse":
            # each phase distinct by its bits is integrated once (by bits,
            # so -0.0 keeps its sign) and gathered back to every point
            bits, where = np.unique(
                np.ravel(np.asarray(xi, np.float64)).view(np.int64),
                return_inverse=True)
            center, width = self.params
            lo, hi = (np.clip(v, center - _PULSE_REACH * width,
                              center + _PULSE_REACH * width)
                      for v in (0.0, bits.view(np.float64)))
            half = 0.5 * (hi - lo)
            mid = 0.5 * (hi + lo)
            # 64 nodes per phase, for _PULSE_BLOCK phases at a time; each
            # phase's nodes are summed in one order, whatever its batch
            total = np.empty(mid.size)
            for k in range(0, mid.size, _PULSE_BLOCK):
                block = slice(k, k + _PULSE_BLOCK)
                d1, d2 = self.fdot(mid[block, None]
                                   + half[block, None] * _GL_NODES)
                total[block] = ((d1 * d1 + d2 * d2) * _GL_WEIGHTS).sum(axis=-1)
            return (half * total)[where].reshape(np.shape(xi))[()]
        raise ValueError(self.kind)

    def _envelope(self, xi) -> tuple:
        """(u, e): the pulse's scaled phase u = (xi - center) / width and
        its Gaussian envelope e = exp(-u^2 / 2); each method forms only the
        derivatives it needs, since the gauge integral evaluates fdot on 64
        nodes per point and every array of them is memory held at once."""
        center, width = self.params
        u = (xi - center) / width
        return u, np.exp(-0.5 * u * u)


def circular(amplitude: float) -> Waveform:
    """Circularly polarized sinusoid: f1' = a cos(xi), f2' = a sin(xi)."""
    return Waveform("circular", amplitude)


def linear(amplitude: float) -> Waveform:
    """Linear polarization along y: f1 = 0, f2' = a sin(xi)."""
    return Waveform("linear", amplitude)


def pulse(amplitude: float, center: float = 6.0, width: float = 2.0) -> Waveform:
    """Gaussian-envelope pulse polarized along x."""
    return Waveform("pulse", amplitude, (center, width))


# the waveform of each kind name, as `eval --waveform kind:amplitude` reads it
KINDS = {"circular": circular, "linear": linear, "pulse": pulse}
