"""Exception types shared across the package.

Everything raised on bad domain input derives from :class:`CrcforgeError`
so the command-line layer can map "the request was well-formed but cannot
be honoured" onto a single exit code, distinct from usage errors.
"""


class CrcforgeError(Exception):
    """Base class for domain errors."""


class PolynomialParseError(CrcforgeError, ValueError):
    """Malformed octal generator or hex CRC text."""


class InvalidCrcError(CrcforgeError, ValueError):
    """Hex CRC with the wrong bit width or unset end coefficients."""


class CodeConstructionError(CrcforgeError, ValueError):
    """Generator set inconsistent with the declared memory order."""


class CatastrophicEncoderError(CrcforgeError):
    """Generators share a non-trivial common factor.

    Such an encoder admits a zero-output cycle away from state 0, so a
    weight-pruned event search would never terminate; collection refuses it.
    """


class CoverageError(CrcforgeError):
    """Requested N or distance threshold exceeds what a database holds."""


class EnumerationGuardError(CrcforgeError):
    """Brute-force oracle invoked beyond its hard size guards."""


class DatabaseFormatError(CrcforgeError):
    """Event database file is malformed, corrupt, or version-incompatible."""
