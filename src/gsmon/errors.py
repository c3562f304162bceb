"""Exception hierarchy shared by all gsmon modules."""


class GsmonError(Exception):
    """Base class for all errors raised by gsmon."""


class InvalidMonoid(GsmonError):
    pass


class ElementNotInSet(GsmonError):
    pass


class EmptyCodomain(GsmonError):
    pass


class PayloadInvalid(GsmonError):
    pass


class TypeMismatch(GsmonError):
    pass


class InvariantViolation(GsmonError):
    pass


class NotEnumerable(GsmonError):
    pass


class OutOfBound(GsmonError):
    """A decoded free-abelian-group value has a multiplicity over its bound."""


class NotNormalizable(GsmonError):
    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class InvalidBlock(GsmonError):
    pass


class MethodInapplicable(GsmonError):
    pass


class NoSolverForRandomized(GsmonError):
    pass


class UnknownMonad(GsmonError):
    pass


class MalformedInput(GsmonError):
    pass
