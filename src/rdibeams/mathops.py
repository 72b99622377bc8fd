"""Float-or-array arithmetic for the serial streamline step.

Every closed form is written once, for numpy arrays (batch axes lead,
components trail, as in psi[..., 4]), and takes a float as the one-point
case of that code; `stack` and `zero` shape its results.  The one exception
is the streamline RK4 right-hand side, which evaluates one point at a time,
where numpy's per-call overhead would make a step several times dearer.
Along that chain alone the arithmetic is numpy-free apart from the
spinor's four-component array: `numerics.rk4_path` steps a state of Python
floats, `catalog.spinor`'s stationary field (the one caller of `of`) reads
its few transcendental calls from the namespace `of(*values)` returns
(`FLOATS` calls `math`/`cmath`, `ARRAYS` numpy), the magnetic profile is a
Laguerre function run on two floats (`specialfn.laguerre_function`), and
`spinors.current` reads J^mu off the components in Python complex
arithmetic.
"""
from __future__ import annotations

import cmath
import math
from types import SimpleNamespace

import numpy as np


def _shape(values):
    # the shape of the first highest-rank array among values, () for floats
    return max([getattr(v, "shape", ()) for v in values], key=len)


def stack(parts):
    """Components along a new trailing axis: one array of the shape of the
    highest-rank part, filled part by part.  A part of a lower rank, a
    float among them, is repeated along the axes it lacks; a part whose
    shape does not fit raises."""
    out = np.empty(_shape(parts) + (len(parts),), np.result_type(*parts))
    for i, p in enumerate(parts):
        out[..., i] = p
    return out


def zero(*values):
    """Zero with the shape of the highest-rank argument."""
    return np.zeros(_shape(values))


FLOATS = SimpleNamespace(cexp=cmath.exp, hypot=math.hypot, atan2=math.atan2,
                         stack=np.array)

ARRAYS = SimpleNamespace(cexp=np.exp, hypot=np.hypot, atan2=np.arctan2,
                         stack=stack)


_NDARRAY = np.ndarray


def of(*values) -> SimpleNamespace:
    """ARRAYS if any argument is a numpy array, else FLOATS."""
    for v in values:
        if isinstance(v, _NDARRAY):
            return ARRAYS
    return FLOATS
