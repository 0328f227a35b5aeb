"""Exception taxonomy shared by all modules."""


class AfcheckError(Exception):
    """Base class; carries an optional structured payload for reports."""

    def __init__(self, message, **payload):
        super().__init__(message)
        self.payload = payload


class NotMonic(AfcheckError):
    pass


class Reducible(AfcheckError):
    """Defining polynomial factors over the rationals; payload carries a factor."""


class DegreeZero(AfcheckError):
    pass


class Unsupported(AfcheckError):
    pass


class DivisionByZero(AfcheckError):
    pass


class ZeroElement(AfcheckError):
    pass


class NotTotallyReal(AfcheckError):
    pass


class IndexDivisor(AfcheckError):
    """The power basis is not maximal at q; re-present the field with a
    different defining polynomial."""

    def __init__(self, q, message=None, **payload):
        super().__init__(
            message or f"{q} divides the index of the power-basis order; "
            f"supply a different defining polynomial", q=q, **payload)
        self.q = q


class SearchExhausted(AfcheckError):
    pass


class MissingUserClassNumber(AfcheckError):
    pass


class BasisUnavailable(AfcheckError):
    pass


class WorkExceeded(AfcheckError):
    pass


class IsSquare(AfcheckError):
    pass


class RelationViolated(AfcheckError):
    pass


class InconsistentDivisibility(AfcheckError):
    pass


class UnsupportedCase(AfcheckError):
    pass


class FactorizationIncomplete(AfcheckError):
    """Integer factorization left a composite cofactor within the work limits."""

    def __init__(self, leftover, partial, message=None):
        super().__init__(message or f"composite leftover {leftover} after bounded factoring",
                         leftover=leftover)
        self.leftover = leftover
        self.partial = partial
