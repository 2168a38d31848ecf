"""Exception hierarchy shared by all qccd modules."""


class QccdError(Exception):
    """Base class for all library errors."""


class InvalidParameter(QccdError):
    """A length, index, worker count or trial count below its allowed range."""


# field
class NonPrimeCharacteristic(QccdError):
    pass


class FieldTooLarge(QccdError):
    pass


class DivisionByZero(QccdError):
    pass


class FieldMismatch(QccdError):
    pass


class NotASubfield(QccdError):
    pass


class CharacteristicDividesM(QccdError):
    pass


class NotSquareOrderField(QccdError):
    pass


# polyring
class NotCoprime(QccdError):
    pass


class ZeroConstantTerm(QccdError):
    pass


# lincode
class LengthMismatch(QccdError):
    pass


class TooLargeToEnumerate(QccdError):
    pass


# cyclic
class NotADivisor(QccdError):
    pass


# qc
class ShapeMismatch(QccdError):
    pass


class SubfieldViolation(QccdError):
    pass


class SlotNotAPair(QccdError):
    pass


class SlotNotSelfReciprocal(QccdError):
    pass


class NotLcd(QccdError):
    pass


class PreconditionViolation(QccdError):
    pass


# construct
class DegreeTooLarge(QccdError):
    pass


class NotSystematic(QccdError):
    pass


class EvenCharacteristic(QccdError):
    pass


class NoSelfDualBasisExists(QccdError):
    pass


class SearchExhausted(QccdError):
    pass


class BasisFieldMismatch(QccdError):
    pass
