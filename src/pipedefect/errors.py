"""Exception hierarchy shared across the pipeline."""


class PipeDefectError(Exception):
    """Base class for all library errors."""


class EmptyDocument(PipeDefectError):
    pass


class InvalidRating(PipeDefectError):
    pass


class InvalidSpan(PipeDefectError):
    pass


class LexiconRequired(PipeDefectError):
    pass


class LexiconFormatError(PipeDefectError):
    pass


class NumericalError(PipeDefectError):
    pass


class ModelFormatError(PipeDefectError):
    """A model file that does not parse: bad magic, header or payload size."""


class EmptySequence(PipeDefectError):
    pass


class AlignmentError(PipeDefectError):
    pass


class InvalidWeight(PipeDefectError):
    pass


class ConfigError(PipeDefectError):
    pass
