"""Exception hierarchy shared by every module in the package."""

from __future__ import annotations


class TensorError(Exception):
    """Base class for all errors raised by this package."""

    exit_code = 1  # the command line's exit status; 2 for numeric domain failures


class ShapeError(TensorError):
    """Operands disagree in dimension, slot signature, rank, or weight."""


class AddressingError(TensorError, IndexError):
    """A multi-index entry or a slot position is out of range."""


class ConventionError(TensorError):
    """An operation or expression violates the index conventions."""


class ExpressionSyntaxError(TensorError):
    """Malformed expression text.  Carries the 1-based column offset."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (column {position})")
        self.position = position


class SingularityError(TensorError):
    """A matrix or basis that must be invertible is singular or nearly so."""

    exit_code = 2


class DefinitenessError(TensorError):
    """A metric candidate is not symmetric positive-definite."""

    exit_code = 2


class SuperluminalError(TensorError):
    """A boost or rapidity was requested with |beta| >= 1, or a boost from a
    rapidity that is not finite or whose cosh overflows float64."""

    exit_code = 2


class DocumentError(TensorError):
    """A JSON document does not match the expected schema."""
