"""The exceptions `cli.main` maps to exit codes: DocumentError to 2,
GroupBoundError to 3 and SpectralAuditError to 4.  `documents`, `linalg`
and `spectral` raise and re-export these same classes, so the command line
catches them without loading those modules."""

__all__ = ["DocumentError", "GroupBoundError", "SpectralAuditError"]


class DocumentError(ValueError):
    """The document text or structure is malformed, or a reference dangles."""


class GroupBoundError(RuntimeError):
    """Raised when a matrix group closure exceeds the configured bound."""


class SpectralAuditError(RuntimeError):
    """Convergence bookkeeping failed; this signals an engine bug."""
