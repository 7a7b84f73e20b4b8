"""Exception types raised by the library, and the step budget that
bounds every brute-force walk and the class-number counts."""

import os

DEFAULT_BUDGET = 10 ** 8


class ConsistencyError(ArithmeticError):
    """An exact identity that must hold failed (non-integral trace,
    indivisible or negative dual coefficient, ...).  Signals a bug
    or a malformed input, never a rounding issue: all arithmetic is exact."""


class BudgetExceededError(RuntimeError):
    """A brute-force enumeration refused to run because it would exceed
    the configured budget; carries the budget that would be required."""

    def __init__(self, required: int, budget: int):
        super().__init__(
            "enumeration needs budget >= %d, configured budget is %d"
            % (required, budget))
        self.required = required
        self.budget = budget


def check_budget(required: int, explicit: int = None) -> None:
    """Refuse (BudgetExceededError) a brute-force walk or class-number
    count of `required` steps above the budget: `explicit` if given,
    else the QRWE_BUDGET environment variable if set and not empty,
    else DEFAULT_BUDGET.  A negative `explicit`, or a QRWE_BUDGET that
    is not a nonnegative integer, raises ValueError."""
    if explicit is not None:
        if explicit < 0:
            raise ValueError("budget must be a nonnegative integer, got %r" % (explicit,))
        budget = explicit
    else:
        env = os.environ.get("QRWE_BUDGET")
        try:
            budget = int(env) if env else DEFAULT_BUDGET
        except ValueError:
            budget = -1
        if budget < 0:
            raise ValueError("QRWE_BUDGET must be a nonnegative integer, got %r" % env)
    if required > budget:
        raise BudgetExceededError(required=required, budget=budget)

