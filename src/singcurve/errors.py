"""Exception hierarchy.

InputError covers anything a caller can cause with bad input (CLI exit code 2);
InternalError marks a violated invariant that should never happen on valid input
(CLI exit code 3).
"""


class SingcurveError(Exception):
    pass


class InputError(SingcurveError):
    pass


class InternalError(SingcurveError):
    pass


class ParseError(InputError):
    """Bad polynomial syntax. Carries the offset of the offending token."""

    def __init__(self, message, pos=None):
        if pos is not None:
            message = f"{message} (at position {pos})"
        super().__init__(message)
        self.pos = pos


class DivisionByZero(InputError, ZeroDivisionError):
    pass


class NotAUnit(InputError):
    pass


class ZeroPolynomial(InputError):
    pass


class UnitInput(InputError):
    pass


class NotReduced(InputError):
    pass


class Char0Unsupported(InputError):
    pass


class Char0IrreducibleRemainder(InputError):
    pass


class NotCoprime(InputError):
    pass


class BadOrder(InputError):
    pass


class ZeroRoot(InternalError):
    pass


class OrderMismatch(InternalError):
    pass


class RecursionCapExceeded(InternalError):
    pass


class IndivisibleArrowhead(InternalError):
    pass


class DisconnectedNodes(InternalError):
    pass


class ParityViolation(InternalError):
    pass


class NotIrreducible(InputError):
    pass


class NotIrreducibleBranchShape(InputError):
    pass


class PrecisionExhausted(InputError):
    pass


class TruncationUnstable(InputError):
    pass
