"""Exception types shared across the package."""


class HopfSegError(Exception):
    """Base class for all package errors."""


# --- factored-function evaluation ---------------------------------------

class PoleHit(HopfSegError):
    """Evaluation point collided with a pole of the rational function."""


class RootHit(HopfSegError):
    """Logarithmic derivative requested at (or too close to) a root."""


class RootOnContour(HopfSegError):
    """A root lies too close to the integration circle."""


class NonIntegerWinding(HopfSegError):
    """Winding quadrature did not land near an integer."""


# --- slit disk and path routing ------------------------------------------

class CutSearchFailed(HopfSegError):
    """No non-intersecting cut system found after the rotation search."""


class Unreachable(HopfSegError):
    """Target point cannot be joined to the base inside the slit disk."""


class ToleranceNotMet(HopfSegError):
    """Adaptive quadrature could not reach the requested tolerance."""


# --- segregated states -----------------------------------------------------

class NotAdmissible(HopfSegError):
    """Re F does not vanish on the odd zeros; no continuous state exists."""


class SheetLost(HopfSegError):
    """A sign change of a sheet-continued residual refined to no zero."""


class NotOnNodalSet(HopfSegError):
    """Queried point does not lie on the nodal set."""


class GridTooCoarse(HopfSegError):
    """Angular sampling cannot resolve the local maximum."""


# --- nodal graph -------------------------------------------------------------

class TraceStall(HopfSegError):
    """Newton correction failed while continuing a nodal arc."""


# --- Moebius maps ---------------------------------------------------------

class RootTooCloseToBoundary(HopfSegError):
    """A pushed-forward or q-polynomial root landed too close to the unit circle."""


class SearchExhausted(HopfSegError):
    """General-position search ran out of candidates."""


# --- desingularization -----------------------------------------------------

class SplitOrderMismatch(HopfSegError):
    """The split function's zeros lost their intended orders (the new zero
    merged with another one); shrinking eps further cannot repair this."""


class DeterminantFloor(HopfSegError):
    """No exponent scale R gave a well-conditioned system matrix."""


class SingularSolve(HopfSegError):
    """Weight system is numerically singular."""


class BranchLost(HopfSegError):
    """Newton iteration on the angle left its branch basin."""


class ClosenessFailed(HopfSegError):
    """Could not meet the requested closeness budget after backtracking."""


# --- diffusion solver -------------------------------------------------------

class NoConvergence(HopfSegError):
    """The diffusion solver's multigrid cycles did not bring the scaled
    residual to its tolerance: the cycle cap was reached, or a cycle failed
    to lower the residual.  The message gives the cycles run and the
    residual reached."""


# --- serialization ------------------------------------------------------------

class SchemaError(HopfSegError):
    """Malformed JSON function spec; carries a JSON-pointer-ish path."""

    def __init__(self, pointer, message):
        self.pointer = pointer
        super().__init__(f"{pointer}: {message}")
