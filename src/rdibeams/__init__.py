"""Exact Dirac-spinor solutions for electron vortex beams, their driving
electromagnetic potentials by dynamic inversion, and the machine checks that
verify every closed form by substitution.

Everything is pure and immutable after construction; fields may be evaluated
at many points in parallel without shared state.
"""

__version__ = "0.1.0"

from .catalog import (  # noqa: F401
    Family,
    FieldSample,
    NotNormalizable,
    OnAxisError,
    SolutionSpec,
    averages,
    eigenvalue,
    fields,
    matrix_spinor,
    normalization,
    potential,
    potential_split,
    radial_profile,
    sources,
    spinor,
    velocity_spin,
)
from .inversion import (  # noqa: F401
    PotentialSample,
    SingularSpinor,
    StepTooLarge,
    circularity_residual,
    invert,
    radial_ode_residual,
    stationary_potential_terms,
)
from .spinors import (  # noqa: F401
    Bilinears,
    MatrixSpinor,
    NullDensity,
    Observables,
    assemble,
    bilinears,
    from_components,
    hestenes_matrix,
    observables,
    plane_wave,
    to_column,
)
from .units import NATURAL, SI, UnitSystem  # noqa: F401
from .waveforms import Waveform, circular, custom, linear, pulse  # noqa: F401
