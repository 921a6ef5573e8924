"""Exception hierarchy shared by all modules.

The three subclasses map onto distinct CLI exit codes so that CI can tell
user errors (bad input, exit 2) apart from over-budget requests (exit 3)
and from genuine implementation bugs (exit 4).
"""


class RigidityLabError(Exception):
    """Base class for all toolkit errors."""


class InputError(RigidityLabError):
    """Malformed or inconsistent user input (schema violations, invalid
    type/rank pairs, declared orders not divisible by projective orders)."""


class WorkCapExceeded(RigidityLabError):
    """A requested computation exceeds the configured work bound."""


class InvariantViolation(RigidityLabError):
    """A mathematically guaranteed cross-check failed.

    These checks (e.g. the tangent-rank/coinvariant-span identity) hold for
    every valid input, so a violation always indicates an implementation bug,
    never a user error.  ``repro``, when set, is the input tuple in wire
    format; the CLI sets it for ``rigidity`` and ``coinv``.
    """

    repro: dict | None = None
