"""Exception types shared across the package."""


class SplitfreeError(Exception):
    """Base class for all errors raised by this package."""


# fields
class CompositeCharacteristic(SplitfreeError):
    pass


# graphs
class NotALaxSplit(SplitfreeError):
    pass


class TargetTooLarge(SplitfreeError):
    pass


class InvariantViolation(SplitfreeError):
    pass


class ParseError(SplitfreeError):
    """Malformed input file; carries the 1-based line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


# freeness
class GrammarError(SplitfreeError):
    pass


class PatternTooLarge(SplitfreeError):
    pass


class InstanceTooLarge(SplitfreeError):
    pass


# constructions
class SizeGuard(SplitfreeError):
    pass


class ColoringIncomplete(SplitfreeError):
    pass


# probabilistic / bounds
class ParameterError(SplitfreeError):
    pass


class DegenerateHost(SplitfreeError):
    pass


class UnsupportedFamily(SplitfreeError):
    pass
