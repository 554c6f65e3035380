"""Exception types shared across the package."""


class BarysubError(Exception):
    """Base class for all package-specific errors."""


class GroundSetTooLarge(BarysubError):
    """Ground set would exceed the 64-element representation cap, or a graph
    read from JSON the vertex cap ``jsonio.MAX_GRAPH_VERTICES``."""


class EmptyInput(BarysubError):
    """Operation needs a nonempty complex or graph."""


class VoidComplex(BarysubError):
    """Operation is undefined on the void complex."""


class SkeletonIndexOutOfRange(BarysubError):
    """Skeleton index outside 0..dim."""


class NotTransitive(BarysubError):
    """An orientation is not transitively closed."""


class NotAFacePoset(BarysubError):
    """Oriented poset fails one of the face-poset conditions."""


class UniverseTooLarge(BarysubError):
    """Exhaustive enumeration requested beyond the supported size."""


class SearchBudgetExceeded(BarysubError):
    """An exponential listing would exceed its documented budget."""
