"""Exception types shared across the package."""


class HingeTreeError(Exception):
    """Base class for all package-specific errors."""


class DegenerateSystem(HingeTreeError):
    """Normal-equations matrix stayed numerically singular after the jitter retry."""


class TooFewSamples(HingeTreeError):
    """Node has fewer samples than a split needs."""


class AllFeaturesConstant(HingeTreeError):
    """No feature varies, so no axis split exists."""


class EmptyDataset(HingeTreeError):
    """Training requires at least one sample and one feature."""


class DimensionMismatch(HingeTreeError):
    """Input feature count does not match the model."""


class NonFiniteInput(HingeTreeError):
    """A NaN or infinite value in training data, in rows to predict, or in the CLI's predictions."""


class CorruptModel(HingeTreeError):
    """A model file or document that :mod:`hingetree.serialize` rejects on load."""


class LengthMismatch(HingeTreeError):
    """Paired vectors have different lengths."""


class EmptyInput(HingeTreeError):
    """An operation received zero rows."""


class DegenerateSplit(HingeTreeError):
    """A train/test split would leave one side empty."""


class MissingTarget(HingeTreeError):
    """Requested target column is not present."""


class ParseError(HingeTreeError):
    """Structural problem in an input file.

    Carries 1-based ``row`` and ``col`` file coordinates.
    """

    def __init__(self, row, col, message):
        super().__init__(f"row {row}, col {col}: {message}")
        self.row = row
        self.col = col


class NonNumericCell(ParseError):
    """A data cell is not a finite decimal number."""

    def __init__(self, row, col, text):
        super().__init__(row, col, f"cell {text!r} is not a finite number")
