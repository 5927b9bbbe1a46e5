"""Numerical laboratory for trace-map spectra of Fibonacci-class
quasiperiodic operators: certified band covers, a tridiagonal eigenvalue
cross-check, fractal dimension estimators, Minkowski sum-set comparisons,
a linear-IFS sandbox, and closed-form periodic-orbit data.
"""

from .dimension import (DimensionEstimate, box_count, box_dim_regression,
                        solve_partition_exponent)
from .errors import BandIsolationError, SizeCapError
from .hamiltonian import (ALPHA, TridiagonalMatrix, eigenvalues,
                          fibonacci_tridiagonal)
from .ifs import (LinearIFS, ResonanceVerdict, attractor_cover,
                  log_ratio_resonance, similarity_dim)
from .intervals import IntervalSet
from .periodic import (PeriodicPointInfo, log_ratio, orbit_info,
                       scan_exceptional)
from .spectrum import BandHierarchy, band_hierarchy, fibonacci_number
from .sumset import TheoremReport, check_theorem_rect, ladder_dimension
from .tracemap import Point3, apply_map, invariant

__version__ = "0.1.0"

__all__ = [
    "ALPHA",
    "BandHierarchy",
    "BandIsolationError",
    "DimensionEstimate",
    "IntervalSet",
    "LinearIFS",
    "PeriodicPointInfo",
    "Point3",
    "ResonanceVerdict",
    "SizeCapError",
    "TheoremReport",
    "TridiagonalMatrix",
    "apply_map",
    "attractor_cover",
    "band_hierarchy",
    "box_count",
    "box_dim_regression",
    "check_theorem_rect",
    "eigenvalues",
    "fibonacci_number",
    "fibonacci_tridiagonal",
    "invariant",
    "ladder_dimension",
    "log_ratio",
    "log_ratio_resonance",
    "orbit_info",
    "scan_exceptional",
    "similarity_dim",
    "solve_partition_exponent",
]
