"""Float-or-array arithmetic for the closed forms.

The catalog, the special functions and the waveforms write each closed form
once, for arguments given either as floats or as broadcastable numpy arrays
(batch axes lead, components trail, as in psi[..., 4]).  Only the few
transcendental calls and the branch selections differ between the two, and
they are read from the namespace `of(*values)` returns: `FLOATS` calls
`math`/`cmath`, `ARRAYS` calls numpy.

A float is deliberately not the N = 1 case of the array path: numpy's
per-call overhead makes one point through it several times dearer, and the
streamline RK4 right-hand side evaluates one point at a time.  Along that
chain the float path is numpy-free apart from the spinor's four-component
array: `numerics.rk4_path` steps a state of Python floats, the spinor field
reads its profile in `math`/`cmath` (a Laguerre function runs on floats
unless its start underflows, in the far tail, where it takes a 0-d array),
and `spinors.current` reads J^mu off the components in Python complex
arithmetic.
"""
from __future__ import annotations

import cmath
import math
from types import SimpleNamespace

import numpy as np


def _array_stack(parts):
    return np.stack(np.broadcast_arrays(*parts), axis=-1)


def _array_zero(*values):
    return np.zeros(np.broadcast_shapes(*(np.shape(v) for v in values)))


FLOATS = SimpleNamespace(
    exp=math.exp, cexp=cmath.exp, log=math.log,
    sin=math.sin, cos=math.cos, hypot=math.hypot, atan2=math.atan2,
    any=bool, max=lambda v: v, min=lambda v: v, maximum=max, minimum=min,
    where=lambda cond, a, b: a if cond else b,
    # components along a new trailing axis
    stack=np.array,
    # zero with the broadcast shape of the arguments
    zero=lambda *values: 0.0,
)

ARRAYS = SimpleNamespace(
    exp=np.exp, cexp=np.exp, log=np.log,
    sin=np.sin, cos=np.cos, hypot=np.hypot, atan2=np.arctan2,
    any=np.any, max=np.max, min=np.min, maximum=np.maximum,
    minimum=np.minimum, where=np.where, stack=_array_stack, zero=_array_zero,
)


_NDARRAY = np.ndarray


def of(*values) -> SimpleNamespace:
    """ARRAYS if any argument is a numpy array, else FLOATS."""
    for v in values:
        if isinstance(v, _NDARRAY):
            return ARRAYS
    return FLOATS
