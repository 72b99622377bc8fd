"""Exact Dirac-spinor solutions for electron vortex beams, their driving
electromagnetic potentials by dynamic inversion, and the machine checks that
verify every closed form by substitution.

Everything is pure and immutable after construction; fields may be evaluated
in parallel without shared state, except that a negative-control run rebinds
the `catalog` attributes that `verify.FAULTS` names while its faulted rows run.
"""

__version__ = "0.1.0"

from .catalog import (  # noqa: F401
    Family,
    NotNormalizable,
    OnAxisError,
    SolutionSpec,
    averages,
    eigenvalue,
    fields,
    normalization,
    potential,
    potential_split,
    sources,
    spinor,
    velocity_spin,
)
from .inversion import (  # noqa: F401
    PotentialSample,
    SingularSpinor,
    circularity_residual,
    invert,
    radial_ode_residual,
)
from .spinors import (  # noqa: F401
    Bilinears,
    NullDensity,
    Observables,
    bilinears,
    hestenes_matrix,
    observables,
)
from .waveforms import Waveform, circular, linear, pulse  # noqa: F401
