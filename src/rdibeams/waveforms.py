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
# phases per block of the pulse gauge integral, the fastest of 32 to 512 on
# a 2-core Xeon: 1687, 1459, 1331, 1290 and 1827 us on one suite pass's
# pulse batches (713 phases), 24.0 and 19.0 ms at 32 and 256 on 10^4; its
# node arrays are 256 x 64 x 8 B = 128 KiB each
_PULSE_BLOCK = 256


@dataclass(frozen=True)
class Waveform:
    """Driving pair with derivatives and gauge integral.  `kind` is a key
    of KINDS; a pulse's `params` are its (center, width), finite with
    width > 0, and the sinusoids take none.  Anything else is refused
    here, so each method's if-chain ends with the pulse."""

    kind: str
    amplitude: float
    params: tuple = ()

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown waveform kind {self.kind!r}; known: "
                             f"{', '.join(KINDS)}")
        if self.kind == "pulse":
            # a NaN width fails the comparisons too
            if not (len(self.params) == 2 and np.isfinite(self.params[0])
                    and 0.0 < self.params[1] < np.inf):
                raise ValueError(f"a pulse needs params (center, width), "
                                 f"finite with width > 0, got {self.params!r}")
        elif self.params:
            raise ValueError(f"a {self.kind} waveform takes no params, got "
                             f"{self.params!r}")
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
        return a * self._envelope(xi)[1] * np.sin(xi), 0.0

    def fdot(self, xi):
        a = self.amplitude
        if self.kind == "circular":
            return a * np.cos(xi), a * np.sin(xi)
        if self.kind == "linear":
            return 0.0, a * np.sin(xi)
        u, e = self._envelope(xi)
        de = -u / self.params[1] * e
        return a * (de * np.sin(xi) + e * np.cos(xi)), 0.0

    def fddot(self, xi):
        a = self.amplitude
        if self.kind == "circular":
            return -a * np.sin(xi), a * np.cos(xi)
        if self.kind == "linear":
            return 0.0, a * np.cos(xi)
        u, e = self._envelope(xi)
        width = self.params[1]
        de = -u / width * e
        d2e = (u * u - 1.0) / (width * width) * e
        return a * (d2e * np.sin(xi) + 2.0 * de * np.cos(xi)
                    - e * np.sin(xi)), 0.0

    def gauge_integral(self, xi):
        """int_0^xi (f1'^2 + f2'^2) dphi."""
        a2 = self.amplitude ** 2
        if self.kind == "circular":
            return a2 * xi
        if self.kind == "linear":
            return a2 * (0.5 * xi - 0.25 * np.sin(2.0 * xi))
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
