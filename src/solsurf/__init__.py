"""Integrable spin-chain dynamics, moving frames, and surface reconstruction.

The package is organized around one pipeline: evolve a unit-spin field on a
line, read curvature/torsion frame data off the trajectory, cross-check the
frame, surface-compatibility, and 2x2 linear representations of the same
motion, and reconstruct the swept surface with its fundamental forms.
"""

__version__ = "0.1.0"

from .errors import (ConfigError, DegenerateFrameError, DegenerateMetricError,
                     GramDriftError, GridError, MapInconsistentError,
                     NonFiniteFieldError, ShapeError, SolsurfError,
                     SqrtDomainError)
from .numgrid import (BOUNDARIES, Grid1D, Grid2D, diff_t, diff_tt, diff_x,
                      diff_xx, fit_order, integrate_x, walk_linear)
from .frames import (CTFields, FrameState, compatibility_residual,
                     gram_deviation, matrix_a, torsion_transport_residual,
                     transport_frame_x)
from .spin import (SpinField, SpinRates, SpinSeries, build_frame,
                   ct_from_spin_series, evolve_series, solve_u_constraint,
                   spin_rhs)
from .gauss_codazzi import (FundamentalForms, GCAnalytic, GCData, curvatures,
                            fundamental_forms, gc_residual, map_frame_to_gc,
                            map_gc_to_frame, metric_residual)
from .lax import (Eigenfunction, LaxPairField, build_lax, eigenfunction_field,
                  holonomy_defect, zero_curvature_matrix,
                  zero_curvature_residual)
from .surface import (SurfaceMesh, export_obj, import_obj, mesh_curvatures,
                      mesh_forms, reconstruct)
from . import fieldio, fixtures

__all__ = [
    "__version__",
    "SolsurfError", "ConfigError", "GridError", "ShapeError",
    "NonFiniteFieldError", "SqrtDomainError", "DegenerateFrameError",
    "GramDriftError", "DegenerateMetricError", "MapInconsistentError",
    "BOUNDARIES", "Grid1D", "Grid2D", "diff_x", "diff_t", "diff_xx",
    "diff_tt", "integrate_x", "walk_linear", "fit_order",
    "FrameState", "CTFields", "matrix_a", "gram_deviation",
    "transport_frame_x", "compatibility_residual",
    "torsion_transport_residual",
    "SpinField", "SpinRates", "SpinSeries", "spin_rhs", "solve_u_constraint",
    "evolve_series", "build_frame", "ct_from_spin_series",
    "GCData", "GCAnalytic", "FundamentalForms", "gc_residual",
    "metric_residual", "fundamental_forms", "curvatures", "map_gc_to_frame",
    "map_frame_to_gc",
    "LaxPairField", "Eigenfunction", "build_lax", "zero_curvature_matrix",
    "zero_curvature_residual", "eigenfunction_field", "holonomy_defect",
    "SurfaceMesh", "reconstruct", "mesh_forms", "mesh_curvatures",
    "export_obj", "import_obj",
    "fieldio", "fixtures",
]
