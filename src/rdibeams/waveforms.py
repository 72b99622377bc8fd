"""Plane-wave driving functions (f1, f2) of the phase xi = omega (t - z/c).

Each waveform supplies the pair, its first two derivatives, and the gauge
integral int_0^xi (f1'^2 + f2'^2) dphi.  The sinusoidal families carry the
integral in closed form.  The pulse integrates it by a fixed 64-node
Gauss-Legendre rule over [0, xi] clipped to center +- 12 width, outside
which the squared envelope is below 1e-62: the nodes move smoothly with xi,
so the gauge phase is smooth in xi for finite-difference stencils.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Gauss-Legendre rule of the pulse gauge integral, and the half-width of
# its clip window in units of the envelope width
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(64)
_PULSE_REACH = 12.0


@dataclass(frozen=True)
class Waveform:
    """Driving pair with derivatives and gauge integral."""

    kind: str
    amplitude: float
    params: tuple = ()

    def f(self, xi: float) -> tuple[float, float]:
        a = self.amplitude
        if self.kind == "circular":
            return a * math.sin(xi), a * (1.0 - math.cos(xi))
        if self.kind == "linear":
            return 0.0, a * (1.0 - math.cos(xi))
        if self.kind == "pulse":
            return a * self._env(xi) * math.sin(xi), 0.0
        if self.kind == "custom":
            return self.params[0](xi)
        raise ValueError(self.kind)

    def fdot(self, xi: float) -> tuple[float, float]:
        a = self.amplitude
        if self.kind == "circular":
            return a * math.cos(xi), a * math.sin(xi)
        if self.kind == "linear":
            return 0.0, a * math.sin(xi)
        if self.kind == "pulse":  # xi may be an array
            e, de = self._env(xi), self._denv(xi)
            return a * (de * np.sin(xi) + e * np.cos(xi)), 0.0
        if self.kind == "custom":
            return self.params[1](xi)
        raise ValueError(self.kind)

    def fddot(self, xi: float) -> tuple[float, float]:
        a = self.amplitude
        if self.kind == "circular":
            return -a * math.sin(xi), a * math.cos(xi)
        if self.kind == "linear":
            return 0.0, a * math.cos(xi)
        if self.kind == "pulse":
            e, de, d2e = self._env(xi), self._denv(xi), self._d2env(xi)
            return a * (d2e * math.sin(xi) + 2.0 * de * math.cos(xi)
                        - e * math.sin(xi)), 0.0
        if self.kind == "custom":
            return self.params[2](xi)
        raise ValueError(self.kind)

    def gauge_integral(self, xi: float) -> float:
        """int_0^xi (f1'^2 + f2'^2) dphi."""
        a2 = self.amplitude ** 2
        if self.kind == "circular":
            return a2 * xi
        if self.kind == "linear":
            return a2 * (0.5 * xi - 0.25 * math.sin(2.0 * xi))
        if self.kind == "pulse":
            center, width = self.params
            lo, hi = (min(max(v, center - _PULSE_REACH * width),
                          center + _PULSE_REACH * width) for v in (0.0, xi))
            half = 0.5 * (hi - lo)
            d1, d2 = self.fdot(0.5 * (hi + lo) + half * _GL_NODES)
            return half * float(np.dot(_GL_WEIGHTS, d1 * d1 + d2 * d2))
        if self.kind == "custom":
            return self.params[3](xi)
        raise ValueError(self.kind)

    # Gaussian envelope helpers (pulse family); xi may be an array
    def _env(self, xi):
        center, width = self.params
        u = (xi - center) / width
        return np.exp(-0.5 * u * u)

    def _denv(self, xi):
        center, width = self.params
        u = (xi - center) / width
        return -u / width * self._env(xi)

    def _d2env(self, xi):
        center, width = self.params
        u = (xi - center) / width
        return (u * u - 1.0) / (width * width) * self._env(xi)


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
    integral of f1'^2 + f2'^2 from 0) must be provided."""
    return Waveform("custom", math.nan, (f, fdot, fddot, gauge_integral))
