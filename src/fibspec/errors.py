"""Failure types shared across the numerical pipelines.

Every routine that can fail for a *numerical* reason (as opposed to a bad
argument, which raises ValueError) raises one of the exceptions below, so
callers — the CLI in particular — can map failure classes to exit codes.
"""

from __future__ import annotations


class BandIsolationError(RuntimeError):
    """Root isolation could not certify the spectral band count.

    The band count of a trace-map approximant must equal the Fibonacci
    degree of the half-trace polynomial at every coupling.  Carries the
    offending level and the count observed at the highest grid density
    tried.
    """

    def __init__(self, lam: float, level: int, found: int, expected: int):
        self.lam = lam
        self.level = level
        self.found = found
        self.expected = expected
        super().__init__(
            f"could not certify band count at coupling {lam}, level {level}: "
            f"found {found} bands, expected {expected} (grid escalation exhausted)"
        )


class EigenvalueSeparationError(RuntimeError):
    """Sturm bisection could not shrink an eigenvalue bracket to tolerance."""

    def __init__(self, indices: list[int], width: float, tol: float):
        self.indices = indices
        self.width = width
        self.tol = tol
        super().__init__(
            f"bisection stalled for eigenvalue indices {indices[:8]}"
            f"{'...' if len(indices) > 8 else ''}: bracket width {width:.3e} > tol {tol:.3e}"
        )


class SizeCapError(RuntimeError):
    """A combinatorial intermediate would exceed its documented size cap."""

    def __init__(self, what: str, requested: int, cap: int):
        self.what = what
        self.requested = requested
        self.cap = cap
        super().__init__(f"{what}: {requested} items exceeds cap {cap}")
