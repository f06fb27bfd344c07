"""Exception taxonomy shared by the whole package.

The CLI maps these onto exit codes: invalid inputs exit with 2, blown
piece budgets with 3, and internal invariant violations are genuine bugs
and propagate as ordinary tracebacks.
"""
import functools


class InputError(ValueError):
    """Raised when a caller-supplied value violates an operation's contract."""


class BudgetError(RuntimeError):
    """Raised when materialization would exceed the allowed piece count.

    ``required`` carries the exact number of pieces the operation needs.
    """

    def __init__(self, message: str, required: int):
        super().__init__(message)
        self.required = required


class InternalError(RuntimeError):
    """Raised when an internal invariant breaks (e.g. a malformed DAG cycle)."""


def decoder(fn):
    """``fn``, a decoder of JSON-shaped data, re-raising a missing field, a wrong type or a bad value as an InputError."""

    @functools.wraps(fn)
    def decode(*args):
        try:
            return fn(*args)
        except InputError:
            raise
        except KeyError as exc:
            raise InputError(f"missing field {exc}") from exc
        except (TypeError, ValueError, AttributeError, IndexError) as exc:
            raise InputError(str(exc)) from exc

    return decode
