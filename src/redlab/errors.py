"""Exception types shared across the library."""


class RedlabError(Exception):
    """Base class for all library errors."""


class DimensionError(RedlabError, ValueError):
    """Tensor shapes are incompatible with the requested operation."""


class ContractError(RedlabError, ValueError):
    """A documented precondition was violated by the caller."""


class ConfigurationError(RedlabError, ValueError):
    """A block or run configuration is internally inconsistent."""


class DegenerateEmbeddingError(RedlabError, ValueError):
    """An embedding row has (near-)zero norm and cannot be normalized."""


class DegenerateCandidateError(RedlabError, ValueError):
    """A candidate kernel has zero norm; cosine similarity is undefined."""


class SelectorError(RedlabError, KeyError):
    """A layer selector path resolves to no parameters."""

    __str__ = Exception.__str__  # the message, not KeyError's repr of it


class DivergenceError(RedlabError, RuntimeError):
    """Training produced a non-finite loss.

    Attributes:
        step: index of the optimization step at which the loss left the
            finite range.
    """

    def __init__(self, step, message=None):
        self.step = step
        super().__init__(message or f"non-finite loss at step {step}")
