"""Exception types shared across the package."""


class GoodsteinError(Exception):
    """Base class for every error raised by this package."""


class DomainError(GoodsteinError):
    """An argument lies outside an operation's domain."""


class InvalidBase(DomainError):
    def __init__(self, base: int):
        super().__init__(f"base must be >= 2, got {base}")
        self.base = base


class DigitOutOfRange(DomainError):
    def __init__(self, index: int, digit: int, base: int):
        super().__init__(
            f"digit {digit} at index {index} is not a valid base-{base} digit"
        )
        self.index = index
        self.digit = digit
        self.base = base


class Underflow(DomainError):
    """Decrement was asked of a zero-valued digit sequence."""


class CoefficientOutOfRange(DomainError):
    def __init__(self, coefficient: int, base: int):
        super().__init__(
            f"coefficient {coefficient} cannot be read in base {base}"
        )
        self.coefficient = coefficient
        self.base = base


class MagnitudeCapExceeded(GoodsteinError):
    """A strong step would materialize a value wider than the bit cap.

    ``bit_length`` is the exact width when it was computed, otherwise a
    lower bound established before the value was materialized.
    """

    def __init__(self, bit_length: int):
        super().__init__(
            f"value needs at least {bit_length} bits, over the configured cap"
        )
        self.bit_length = bit_length


class StepMismatch(GoodsteinError):
    """Two adjacent trace records are not a genuine, descending step of their run's kind."""

    def __init__(self, index: int, reason: str):
        super().__init__(f"step {index}: {reason}")
        self.index = index
        self.reason = reason


class EmptyRun(GoodsteinError):
    """A verifier was handed a trace with no records at all."""


class ArityExceeded(GoodsteinError):
    def __init__(self, length: int, arity: int):
        super().__init__(
            f"digit sequence of length {length} does not fit arity {arity}"
        )
        self.length = length
        self.arity = arity
