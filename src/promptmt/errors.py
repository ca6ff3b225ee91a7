"""Exception types shared across the package."""


class PromptMtError(Exception):
    """Base class for all errors raised by this package."""


class ShapeError(PromptMtError):
    """Tensor shapes incompatible with the requested operation."""


class NumericError(PromptMtError):
    """Non-finite values where finite ones are required."""


class GraphError(PromptMtError):
    """Misuse of the autodiff graph (non-scalar loss, repeated backward)."""


class VocabularyError(PromptMtError):
    """Token id outside the vocabulary, or a malformed vocabulary file."""


class LanguageError(PromptMtError):
    """Unknown language code, or a sequence already carrying a language tag."""


class ConfigError(PromptMtError):
    """Invalid configuration, manifest, or batch settings."""


class FormatError(PromptMtError):
    """Malformed file contents: a byte that is not UTF-8, or a defect in a
    binary container. Carries the byte offset of the defect."""

    def __init__(self, message, offset=None):
        if offset is not None:
            message = f"{message} (at byte offset {offset})"
        super().__init__(message)
        self.offset = offset


class VariantError(PromptMtError):
    """Operation not available under the configured model variant."""


class DegenerateBatchError(PromptMtError):
    """A batch with no loss-bearing positions."""
