"""Exception types raised by the library, and the brute-force budget."""

import os

DEFAULT_BUDGET = 10 ** 8


class ConsistencyError(ArithmeticError):
    """An exact identity that must hold failed (non-integral trace,
    nonzero irrational part, negative coefficient, ...).  Signals a bug
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
    """Refuse (BudgetExceededError) a brute-force walk of `required`
    steps above the budget: `explicit` if given, else the QRWE_BUDGET
    environment variable, else DEFAULT_BUDGET."""
    if explicit is not None:
        budget = explicit
    else:
        env = os.environ.get("QRWE_BUDGET")
        budget = int(env) if env else DEFAULT_BUDGET
    if required > budget:
        raise BudgetExceededError(required=required, budget=budget)
