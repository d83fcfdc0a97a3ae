"""The exceptions `cli.main` maps to exit codes 2 and 4; `documents` and
`spectral` raise and re-export these same classes."""

__all__ = ["DocumentError", "SpectralAuditError"]


class DocumentError(ValueError):
    """The document text or structure is malformed, or a reference dangles."""


class SpectralAuditError(RuntimeError):
    """Convergence bookkeeping failed; this signals an engine bug."""
