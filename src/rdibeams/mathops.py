"""Float-or-array arithmetic for the serial streamline step.

Every closed form is written once, for numpy arrays (batch axes lead,
components trail, as in psi[..., 4]), and takes a float as the one-point
case of that code.  The one exception is the streamline RK4 right-hand
side, which evaluates one point at a time, where numpy's per-call overhead
would make a step several times dearer.  Along that chain alone the
arithmetic is numpy-free apart from the spinor's four-component array:
`numerics.rk4_path` steps a state of Python floats, `catalog.spinor`'s
stationary field and `catalog.bilinear_fields` read the few calls that
differ from the namespace `of(*values)` returns (`FLOATS` calls
`math`/`cmath`, `ARRAYS` numpy), the magnetic profile is a Laguerre
function run on two floats (`specialfn.laguerre_function`), and
`spinors.current` reads J^mu off the components in Python complex
arithmetic.
"""
from __future__ import annotations

import cmath
import math
from types import SimpleNamespace

import numpy as np


def stack(parts):
    """Components along a new trailing axis, broadcast to one shape."""
    return np.stack(np.broadcast_arrays(*parts), axis=-1)


def zero(*values):
    """Zero with the broadcast shape of the arguments."""
    return np.zeros(np.broadcast_shapes(*(np.shape(v) for v in values)))


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
