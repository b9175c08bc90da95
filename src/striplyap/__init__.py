"""Lyapunov spectra and Dirichlet determinants for random operators on a strip."""

from .determinants import (
    NearSingularError,
    SignedLogDet,
    logdet_direct,
    logdet_via_schur,
    logdet_via_transfer,
    signed_logdet,
    site_shift,
)
from .model import (
    ConfigurationError,
    DisorderSample,
    DisorderSpec,
    Region,
    StripGeometry,
    assemble_hamiltonian,
    boundary,
    s_matrix,
    sample_disorder,
)
from .transfer import (
    CocycleAccumulator,
    LyapunovSpectrum,
    accumulate,
    lyapunov_spectrum,
    one_step,
    recurrence_check,
    symplectic_defect,
)

__version__ = "0.1.0"

__all__ = [
    "ConfigurationError",
    "DisorderSample",
    "DisorderSpec",
    "Region",
    "StripGeometry",
    "assemble_hamiltonian",
    "boundary",
    "s_matrix",
    "sample_disorder",
    "CocycleAccumulator",
    "LyapunovSpectrum",
    "accumulate",
    "lyapunov_spectrum",
    "one_step",
    "recurrence_check",
    "symplectic_defect",
    "NearSingularError",
    "SignedLogDet",
    "logdet_direct",
    "logdet_via_schur",
    "logdet_via_transfer",
    "signed_logdet",
    "site_shift",
    "__version__",
]
