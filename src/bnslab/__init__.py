"""bnslab: a pseudospectral laboratory for critical-norm behaviour of the
Navier-Stokes equations on the periodic box."""

__version__ = "0.1.0"

from .field import (SpectralField, Trajectory, heat_flow, leray_project,
                    random_band_limited, scaling_transform)
from .grid import GridSpec
from .littlewood_paley import (BesovIndex, besov_norm, critical_index,
                               reconstruction_defect)
from .profiles import ProfileSet, ScaleCore, extract_profiles, synthesize
from .solver import SolverConfig, bilinear_B, heat_trajectory, picard_solve
from .spacetime import chemin_lerner_norm, kato_norm, script_norm

__all__ = [
    "BesovIndex", "GridSpec", "ProfileSet", "ScaleCore", "SolverConfig",
    "SpectralField", "Trajectory", "__version__", "besov_norm", "bilinear_B",
    "chemin_lerner_norm", "critical_index", "extract_profiles", "heat_flow",
    "heat_trajectory", "kato_norm", "leray_project", "picard_solve",
    "random_band_limited", "reconstruction_defect", "scaling_transform",
    "script_norm", "synthesize",
]
