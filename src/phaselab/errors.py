"""Domain errors shared across the package.

Every error carries a machine-readable ``name`` (the class name) used by the
CLI error envelope.
"""


class DomainError(Exception):
    @property
    def name(self) -> str:
        return type(self).__name__


class CutoffTooSmall(DomainError):
    """Fock truncation cannot represent the requested object accurately."""


class NonFiniteArgument(DomainError):
    """An amplitude, argument, state entry or filter parameter is NaN or infinite."""


class MalformedFile(DomainError):
    """A state, ensemble or filter file cannot be read, is not JSON, lacks a field or
    holds a value of the wrong type."""


class UnwritableOutput(DomainError):
    """The --out file cannot be opened or written."""


class InvalidFilter(DomainError, ValueError):
    """A filter series power is not a nonnegative integer, or c_00 is nonzero (Omega(0) = 1)."""


class DimensionMismatch(DomainError):
    """Operands live on incompatible Fock spaces."""


class InvalidWeights(DomainError):
    """Mixture weights are negative or do not sum to one."""


class NonUnitaryBeamSplitter(DomainError):
    """|t|^2 + |r|^2 deviates from 1 beyond tolerance."""


class GainNotAllowed(DomainError):
    """Attenuator transmittance with |t| > 1 (active optics)."""


class SingularPFunction(DomainError):
    """Characteristic function does not decay at the lattice boundary."""


class ImaginaryResidue(DomainError):
    """A transformed characteristic function is not real to tolerance."""


class GridTooCoarse(DomainError):
    """Lattice step violates the Nyquist guard for the requested output."""
