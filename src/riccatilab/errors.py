"""Exception types raised across the library.

Everything derives from RiccatiLabError so callers can catch the whole
family at once; the CLI maps these to exit code 2 and anything raised
while parsing input to exit code 1.
"""


class RiccatiLabError(Exception):
    """Base class for all library errors."""


class DimensionMismatch(RiccatiLabError):
    """Matrix shapes are inconsistent with the block layout."""


class NonHermitianInput(RiccatiLabError):
    """A matrix required to be Hermitian is not, beyond tolerance."""


class SpectraOverlap(RiccatiLabError):
    """Coefficient spectra touch, so the Sylvester equation is singular."""


class SpectraTooClose(RiccatiLabError):
    """No separating contour exists between the two spectra."""


class LambdaOnSpectrum(RiccatiLabError):
    """Evaluation point sits on (or too near) a spectrum."""


class LambdaOnSpectrumOfC(LambdaOnSpectrum):
    """Evaluation point sits on (or too near) the spectrum of C."""


class WrongSubspaceDimension(RiccatiLabError):
    """The gap carries a spectral subspace of the wrong dimension."""


class NotAGraph(RiccatiLabError):
    """The spectral subspace is not a graph over the first component."""


class QuadratureStall(RiccatiLabError):
    """Contour quadrature failed to converge within the node budget."""


class IterationDiverged(RiccatiLabError):
    """Fixed-point iteration left the trust region or ran out of steps."""


class OutsideUniquenessClass(RiccatiLabError):
    """A solver converged to a root that is not the requested gap's solution."""


class ResidualTooLarge(RiccatiLabError):
    """An approximate solution is too inaccurate for the requested operation."""


class HypothesisViolated(RiccatiLabError):
    """A theorem hypothesis fails, so the certified quantity is undefined."""


class DeltaNonpositive(RiccatiLabError):
    """The separation between sigma(Z) and sigma(C) vanishes."""


class NotSubordinated(RiccatiLabError):
    """sigma(A) does not lie strictly below sigma(C)."""


class InfeasibleSpec(RiccatiLabError):
    """A generator spec asks for an impossible eigenvalue placement."""
