"""Exception hierarchy shared by all stmrnav modules, and the one reader
of the package's input text files."""

import errno


def read_text(path) -> str:
    """The UTF-8 text of the file at ``path``.  Bytes that are not UTF-8
    raise OSError (``EILSEQ``), as a missing file does, so callers report
    either as unreadable data."""
    with open(path, "r", encoding="utf-8") as f:
        try:
            return f.read()
        except UnicodeDecodeError as exc:
            raise OSError(errno.EILSEQ, f"not valid UTF-8 ({exc.reason})",
                          str(path)) from exc


class StmrNavError(Exception):
    """Base class for every error raised by this package."""


class InvalidDepthError(StmrNavError):
    """Depth value is non-positive or non-finite."""


class PixelBoundsError(StmrNavError):
    """Pixel coordinate outside the image."""


class ShapeMismatchError(StmrNavError):
    """Array dimensions do not agree with each other or with the camera."""


class SceneParseError(StmrNavError):
    """Scene or episode document violates its schema.

    Carries the offending line number and field name when known so the
    CLI can point at the exact spot in the file.
    """

    def __init__(self, message, line=None, field=None):
        self.line = line
        self.field = field
        prefix = ""
        if line is not None:
            prefix += f"line {line}: "
        if field is not None:
            prefix += f"field '{field}': "
        super().__init__(prefix + message)


class LabelError(StmrNavError):
    """Semantic label id not registered in the legend."""


class UndefinedSimilarityError(StmrNavError):
    """Text similarity requested for a document that tokenizes to nothing."""


class PlanningBackendError(StmrNavError):
    """A planning backend gave no usable completion: a scripted backend
    ran out of responses, or a remote server returned a malformed
    completion.

    ``raw`` holds the offending response for audit, when there is one.
    """

    def __init__(self, message, raw=None):
        self.raw = raw
        super().__init__(message)


class TemplateError(StmrNavError):
    """Prompt template and placeholder values do not match."""


class ActionParseError(StmrNavError):
    """Action text does not follow the action grammar."""


class UnparseableResponseError(StmrNavError):
    """Model response is missing a required block (Action)."""


class BackendUnavailableError(StmrNavError):
    """LLM backend failed: its retry budget ran out, or the request
    failed in a way no retry can fix.

    ``attempts`` counts requests made; ``last_error`` keeps the final
    transport or protocol failure.
    """

    def __init__(self, message, attempts=0, last_error=None):
        self.attempts = attempts
        self.last_error = last_error
        super().__init__(message)
