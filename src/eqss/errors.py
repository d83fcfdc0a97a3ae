"""The exceptions `cli.main` maps to exit codes: DocumentError to 2,
GroupBoundError to 3 and SpectralAuditError to 4.  `documents`, `linalg`
and `spectral` raise and re-export these same classes, so the command line
catches them without loading those modules.  `require_count` is the one gate
for every size, degree, index and bound a library caller passes."""

from typing import Iterable

__all__ = ["DocumentError", "GroupBoundError", "SpectralAuditError", "require_count", "require_counts"]


class DocumentError(ValueError):
    """The document text or structure is malformed, or a reference dangles."""


class GroupBoundError(RuntimeError):
    """Raised when a matrix group closure exceeds the configured bound."""


class SpectralAuditError(RuntimeError):
    """Convergence bookkeeping failed; this signals an engine bug."""


def require_count(value: object, what: str, minimum: int = 0) -> int:
    """value if `type(value) is int and value >= minimum`, else ValueError naming what, minimum and value."""
    if type(value) is not int or value < minimum:
        raise ValueError(f"{what} must be an int >= {minimum}, got {value!r}")
    return value


def require_counts(values: Iterable[int], what: str, minimum: int = 0) -> tuple[int, ...]:
    """tuple(values) if every entry passes `require_count`, checked in one pass."""
    try:
        out = tuple(values)
    except TypeError:
        raise ValueError(f"{what} must be a sequence of ints >= {minimum}, got {values!r}") from None
    if not all(type(v) is int and v >= minimum for v in out):
        for i, v in enumerate(out):
            require_count(v, f"{what}[{i}]", minimum)
    return out
