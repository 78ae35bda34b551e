"""Exception types shared across the package."""


class GeneAsmError(ValueError):
    """Base class for all input errors raised by this package."""


class ParseError(GeneAsmError):
    """Malformed textual input (pointer string, arrangement, JSON graph)."""


class LegalityError(GeneAsmError):
    """A pointer string does not satisfy the two-occurrence condition."""


class RealismError(GeneAsmError):
    """An operation required a realistic string or overlap graph."""


class CapError(GeneAsmError):
    """An input is larger than a cap allows: a rewriting search cap, or ``MAX_DIRECT_KAPPA``."""
