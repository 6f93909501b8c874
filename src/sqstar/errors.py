"""Exception taxonomy shared across the package.

Every error that a caller is expected to branch on gets its own class so
the CLI can map exception types onto exit codes without string matching.
"""


class SqstarError(Exception):
    """Base class for all package-specific errors."""


class OutOfRangeError(SqstarError):
    """A value or intermediate product reached or exceeded the table limit.

    Raised whenever an operation would need ground-set information beyond
    what the backing table covers.  Callers can rebuild with a larger limit.
    """


class NotMemberError(SqstarError):
    """An integer was passed where a ground-set member was required."""


class OutOfDomainError(SqstarError):
    """A coloring was queried outside [0, bound)."""


class CorruptCacheError(SqstarError):
    """A cache file failed magic, length, structure, or checksum validation."""


class ResourceBudgetError(SqstarError):
    """A requested build would exceed the configured memory budget."""


class EnumerationCapError(SqstarError):
    """The backtracking coloring search visited more nodes than its cap."""


class SchemaViolationError(SqstarError):
    """A JSON document did not match the expected coloring schema."""


class MalformedWitnessError(SqstarError):
    """A witness document is structurally invalid or internally inconsistent."""


class DomainOverlapError(SqstarError):
    """Two located words with intersecting supports were concatenated."""
