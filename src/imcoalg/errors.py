"""Exception hierarchy shared by all modules.

Everything derives from ImcoalgError so callers (notably the CLI) can map
failures to exit codes without enumerating modules. CapExceeded groups the
resource guards; ConstructionError groups bad-input rejections.
"""


class ImcoalgError(Exception):
    pass


class ConstructionError(ImcoalgError):
    """Invalid input to a constructor; the value was rejected, not repaired."""


class DuplicateLabel(ConstructionError):
    pass


class UnknownLabel(ConstructionError):
    pass


class NotAntisymmetric(ConstructionError):
    pass


class NotTransitive(ConstructionError):
    pass


class NotMonotone(ConstructionError):
    pass


class NotPMorphism(ConstructionError):
    pass


class ValueNotUpset(ConstructionError):
    pass


class MixLawViolation(ConstructionError):
    pass


class IncompatibleValuations(ConstructionError):
    pass


class UndeclaredLetter(ConstructionError):
    pass


class ProjectionNotPMorphism(ImcoalgError):
    """A candidate bisimulation whose projection is not a p-morphism."""

    def __init__(self, side):
        self.side = side
        super().__init__(f"{side} projection is not a p-morphism")


class LiftOutsideStage(ImcoalgError):
    """A lifted coordinate value is not a member of the materialized stage.

    Signals an implementation bug: the lifting recursion always produces
    rooted, relatively open subsets.
    """


class CapExceeded(ImcoalgError):
    """A configured resource cap was hit before the computation finished."""


class StageTooLarge(CapExceeded):
    def __init__(self, stage_index, detail):
        self.stage_index = stage_index
        super().__init__(f"stage {stage_index} too large: {detail}")


class EnumerationTooLarge(CapExceeded):
    pass


class TooManyGenerators(CapExceeded):
    """More free-algebra generators than the layer construction supports."""


class FormulaSyntaxError(ImcoalgError):
    """Bad formula text; position is a 0-based offset into the input."""

    def __init__(self, message, position):
        self.position = position
        super().__init__(f"{message} (at position {position})")


class UnknownToken(FormulaSyntaxError):
    pass


class UsageError(ImcoalgError):
    """An unusable command-line value: an environment setting, an input
    file that cannot be read as text or an output path that cannot be
    written."""


class ParseError(ImcoalgError):
    """Bad frame file; line and column are 1-based."""

    def __init__(self, message, line, column=1):
        self.line = line
        self.column = column
        super().__init__(f"line {line}, column {column}: {message}")
