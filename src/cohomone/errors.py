"""Shared exception types."""


class CohomoneError(Exception):
    """Base class for all library errors."""


class InvalidLabel(CohomoneError):
    """A simple-group label is syntactically or numerically invalid."""


class InvalidEmbedding(CohomoneError):
    """Embedding data is inconsistent (rank bounds, divisibility, ...)."""


class Unsupported(CohomoneError):
    """The requested operation is outside the supported regime."""


class InvalidParams(CohomoneError):
    """Numeric parameters violate a stated precondition."""


class InvalidLattice(CohomoneError):
    """A subgroup-lattice entry does not live inside the diagram's group."""


class InvalidDiagram(CohomoneError):
    """A group diagram document is malformed or refers to unknown records."""
