"""Numerical laboratory for trace-map spectra of Fibonacci-class
quasiperiodic operators: certified band covers, a tridiagonal eigenvalue
cross-check, fractal dimension estimators, Minkowski sum-set comparisons,
a linear-IFS sandbox, and closed-form periodic-orbit data.
"""

from .dimension import (DimensionEstimate, box_count, box_dim_regression,
                        moran_dim, solve_partition_exponent)
from .errors import BandIsolationError, EigenvalueSeparationError, SizeCapError
from .hamiltonian import (ALPHA, FibonacciPotential, TridiagonalMatrix,
                          eigenvalues, fibonacci_tridiagonal,
                          square_eigenvalue_sample)
from .ifs import (LinearIFS, ResonanceVerdict, attractor_cover, binary_halves,
                  log_ratio_resonance, middle_thirds, quarter_corners,
                  similarity_dim)
from .intervals import IntervalSet
from .periodic import (PeriodicPointInfo, g_p, g_q, jacobian, log_ratio,
                       minimal_period, multiplier_p_closed,
                       multiplier_q_closed, orbit_info_p, orbit_info_q,
                       point_p, point_q, restricted_jacobian,
                       restricted_multiplier, scan_exceptional, tangent_frame)
from .spectrum import (SpectrumCover, band_hierarchy, fibonacci_number,
                       sigma_bands, spectrum_cover)
from .sumset import (TheoremReport, check_theorem_rect, check_theorem_square,
                     cover_box_dimension, cover_ladder, cover_scales,
                     minkowski_sum, moran_applicable)
from .tracemap import (Point3, apply_map, apply_map_batch, apply_map_inverse,
                       apply_map_inverse_batch, invariant, invariant_batch,
                       invariant_gradient, spectral_line)

__version__ = "0.1.0"

__all__ = [
    "ALPHA",
    "BandIsolationError",
    "DimensionEstimate",
    "EigenvalueSeparationError",
    "FibonacciPotential",
    "IntervalSet",
    "LinearIFS",
    "PeriodicPointInfo",
    "Point3",
    "ResonanceVerdict",
    "SizeCapError",
    "SpectrumCover",
    "TheoremReport",
    "TridiagonalMatrix",
    "apply_map",
    "apply_map_batch",
    "apply_map_inverse",
    "apply_map_inverse_batch",
    "attractor_cover",
    "band_hierarchy",
    "binary_halves",
    "box_count",
    "box_dim_regression",
    "check_theorem_rect",
    "check_theorem_square",
    "cover_box_dimension",
    "cover_ladder",
    "cover_scales",
    "eigenvalues",
    "fibonacci_number",
    "fibonacci_tridiagonal",
    "g_p",
    "g_q",
    "invariant",
    "invariant_batch",
    "invariant_gradient",
    "jacobian",
    "log_ratio",
    "log_ratio_resonance",
    "middle_thirds",
    "minimal_period",
    "minkowski_sum",
    "moran_applicable",
    "moran_dim",
    "multiplier_p_closed",
    "multiplier_q_closed",
    "orbit_info_p",
    "orbit_info_q",
    "point_p",
    "point_q",
    "quarter_corners",
    "restricted_jacobian",
    "restricted_multiplier",
    "scan_exceptional",
    "sigma_bands",
    "similarity_dim",
    "solve_partition_exponent",
    "spectral_line",
    "spectrum_cover",
    "square_eigenvalue_sample",
    "tangent_frame",
]
