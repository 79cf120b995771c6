"""Exception types shared across the pipeline."""

from contextlib import contextmanager
from pathlib import Path


class DataError(ValueError):
    """Input data violates a documented format or precondition."""


class TaxonomyError(DataError):
    """Taxonomy file is malformed, or a lookup references an unknown entry."""


class ParseError(DataError):
    """Check-in stream is malformed beyond the configured error budget."""

    def __init__(self, message: str, line_number: int | None = None):
        super().__init__(message)
        self.line_number = line_number


class EmptyAreaError(DataError):
    """An area has no check-ins, so no signature can be formed for it."""


class UndefinedMetric(ArithmeticError):
    """A statistic is mathematically undefined for the given input.

    Raised instead of returning a placeholder value so that a degenerate
    network or constant vector can never be mistaken for a finding.
    """


@contextmanager
def utf8_input(path: str | Path):
    """Turn a UTF-8 decoding failure of the text file at ``path``, read in
    the block, into a DataError that names the file."""
    try:
        yield
    except UnicodeDecodeError as exc:
        # The codec's own position counts from the start of a read chunk.
        raise DataError(f"an input file is not UTF-8 ({path}: {exc.reason}, byte "
                        f"0x{exc.object[exc.start]:02x})") from None
