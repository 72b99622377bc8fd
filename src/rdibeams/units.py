"""Unit constants threaded through the closed-form evaluators.

Everything internal defaults to natural units (hbar = c = mu0 = 1) with the
electron mass kept explicit; a `UnitSystem` carries hbar and c, the two
constants the evaluators read.  Potentials always carry the coupling folded in
(the library never separates e from A).
"""
from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class UnitSystem:
    hbar: float = 1.0
    c: float = 1.0


NATURAL = UnitSystem()

# CODATA-2018 SI values, for rescaling closed-form output only.
SI = UnitSystem(hbar=1.054571817e-34, c=2.99792458e8)
