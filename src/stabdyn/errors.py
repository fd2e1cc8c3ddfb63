"""Exception hierarchy shared by all stabdyn modules."""


class StabDynError(Exception):
    """Base class for all mathematical / numerical failures in stabdyn."""


class DimensionMismatch(StabDynError):
    pass


class RootFindingDiverged(StabDynError):
    """Polynomial root residuals could not be certified below tolerance."""


class DegenerateSpectrum(StabDynError):
    """Top-modulus eigenvalue clustering is ambiguous at the given tolerance.

    Carries the two nearest moduli so the caller can widen the tolerance.
    """

    def __init__(self, message, moduli=()):
        super().__init__(message)
        self.moduli = tuple(moduli)


class InvalidLift(StabDynError):
    """f0 does not satisfy the mod-2 congruence forced by the matrix part."""


class NonPositiveDeterminant(StabDynError):
    pass


class SingularMatrix(StabDynError):
    pass


class PowerOverflow(StabDynError):
    """An entry of a requested power of a cover element leaves the float range."""


class UnverifiedTriple(StabDynError):
    """Operation requires a triple whose verification succeeded."""


class EmptyTable(StabDynError):
    pass


class NonSpanningSet(StabDynError):
    pass


class SingularPairing(StabDynError):
    pass


class NotOddCY(StabDynError):
    """Pairing is not an odd-parity antisymmetric form."""


class PreconditionViolated(StabDynError):
    pass


class NonIntegralAction(StabDynError):
    """Requested scaling factor cannot be realized by an integer lattice map."""
