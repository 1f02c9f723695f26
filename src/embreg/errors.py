"""Exception hierarchy shared by all registration stages."""


class RegistrationError(Exception):
    """Base class for all errors raised by this package."""


class InvalidCoordinate(RegistrationError):
    """A sampling coordinate is non-finite or malformed."""


class ShapeMismatch(RegistrationError):
    """Two volumes/fields that must share a grid do not."""


class DimensionMismatch(RegistrationError):
    """Feature vectors with different channel counts were combined."""


class InvalidStep(RegistrationError):
    """Lattice sampling step below 1."""


class DegenerateMatches(RegistrationError):
    """Too few or geometrically degenerate point pairs for an affine fit."""


class SingularAffine(RegistrationError):
    """Affine linear block is not invertible."""


class EmptyMatchSet(RegistrationError):
    """An operation requiring matches received none."""


class EmptyOverlap(RegistrationError):
    """All voxels are masked; a feature loss has no support."""


class DegenerateIntensity(RegistrationError):
    """Intensities whose variance is zero, or too large for a float sum, make a correlation undefined."""


class PairingError(RegistrationError):
    """Landmark point lists cannot be paired by index."""


class NumericalDivergence(RegistrationError):
    """An optimizer produced a non-finite objective value."""


class NotVol1(RegistrationError):
    """File does not start with the VOL1 magic."""


class CorruptContainer(RegistrationError):
    """VOL1 header/payload lengths are inconsistent."""
