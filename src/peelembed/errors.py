"""Exception hierarchy shared by all peelembed modules."""


class PeelEmbedError(Exception):
    """Base class for all library errors."""


class MetricError(PeelEmbedError):
    pass


class NonFiniteDistance(MetricError):
    pass


class AsymmetricMatrix(MetricError):
    pass


class NegativeDistance(MetricError):
    pass


class NonzeroDiagonal(MetricError):
    pass


class TriangleViolation(MetricError):
    def __init__(self, i, j, k, slack):
        self.triple = (i, j, k)
        self.slack = slack
        super().__init__(
            f"d[{i}][{j}] > d[{i}][{k}] + d[{k}][{j}] by {slack:g}"
        )


class EmptySubset(MetricError):
    pass


class ZeroDiameter(MetricError):
    pass


class SizeMismatch(PeelEmbedError):
    pass


class MalformedTree(PeelEmbedError):
    pass


class DuplicateLeaf(PeelEmbedError):
    pass


class EmptyInput(PeelEmbedError):
    pass


class SpecInfeasibleTrivially(PeelEmbedError):
    pass


class DepthExceeded(PeelEmbedError):
    pass


class TooLarge(PeelEmbedError):
    pass


class InvalidSpec(PeelEmbedError):
    pass


class FaithfulGridTooLarge(PeelEmbedError):
    pass


class ConfigParse(PeelEmbedError):
    pass


class InputParse(PeelEmbedError):
    """A metric or point-cloud input that cannot be read as one."""
