"""Exception types shared across the package."""

from __future__ import annotations


class InputError(ValueError):
    """Malformed user input: unknown generators, bad files, invalid parameters."""


class ContractError(RuntimeError):
    """An operation was invoked outside its stated precondition."""


class BudgetExceededError(RuntimeError):
    """A search or construction exceeded its resource budget.

    ``partial_count`` carries how much work completed before the budget
    tripped, so callers can report progress in an inconclusive result.
    """

    def __init__(self, message: str, partial_count: int | None = None):
        super().__init__(message)
        self.partial_count = partial_count


class InternalError(RuntimeError):
    """An invariant believed impossible to violate was violated."""


def _require_int(name: str, value: object) -> None:
    """Raise ``InputError`` naming ``name`` unless ``value`` is an ``int``
    (not a ``bool``): a count, a length or an h-word entry."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise InputError(f"{name} must be an int, not {value!r}")


def _require_count(name: str, value: object, least: int) -> None:
    """Raise ``InputError`` unless ``value`` is an ``int`` (not a ``bool``)
    of at least ``least``, which is 0 or 1; the message names ``name``."""
    _require_int(name, value)
    if value < least:
        raise InputError(f"{name} must be {'positive' if least else '>= 0'}")
