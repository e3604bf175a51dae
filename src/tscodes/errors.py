"""Exception types shared across the package."""


class TscodesError(Exception):
    """Base class for all package errors."""


class DisconnectedGraph(TscodesError):
    pass


class LoopEdge(TscodesError):
    pass


class MalformedRotation(TscodesError):
    pass


class OddChi(TscodesError):
    pass


class NotBipartite(TscodesError):
    pass


class MissingParentage(TscodesError):
    pass


class BadFaceSize(TscodesError):
    pass


class MixedColorF(TscodesError):
    pass


class UnclassifiedFace(TscodesError):
    pass


class ColorMissing(TscodesError):
    pass


class SizeMismatch(TscodesError):
    pass


class NotACycle(TscodesError):
    pass


class NotThreeEdgeColorable(TscodesError):
    """No proper 3-edge-coloring with monochromatic rank-3 edges exists."""


class GaugeMismatch(TscodesError):
    """Gauge span disagrees with the centralizer of the cycle-operator span."""


class OddDegreeSeed(TscodesError):
    pass


class Degree2Seed(TscodesError):
    pass


class QuotientTooLarge(TscodesError):
    pass


class DependencyViolation(TscodesError):
    """dependency_check on a code without (known) pipeline data."""


class NoValidDecomposition(TscodesError):
    pass


class ScheduleConflict(TscodesError):
    pass


class InconsistentOutcome(TscodesError):
    pass


class BadParams(TscodesError):
    pass


class UnknownFormat(TscodesError):
    pass
