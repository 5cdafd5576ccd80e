"""Exception taxonomy for the toothalign package.

Validation problems (bad files, bad configs, bad arguments) and computation
problems (infeasible synthesis, unresolved collisions) are kept on separate
branches so callers can map them to distinct exit codes.
"""

from __future__ import annotations


class ToothAlignError(Exception):
    """Base class for every error raised by this package."""


class ValidationError(ToothAlignError):
    """Bad input: schema, configuration, or argument problems."""


class ComputationError(ToothAlignError):
    """Well-formed input that cannot be processed."""


# ---------------------------------------------------------------- validation

class SchemaViolation(ValidationError):
    """A case or config document does not match the published schema.

    ``path`` points at the offending field, e.g. ``upper[3].points``.
    """

    def __init__(self, message: str, path: str = ""):
        self.path = path
        super().__init__(f"{path}: {message}" if path else message)


class WrongPointCount(SchemaViolation):
    """A present tooth does not carry the expected number of points."""


class DuplicateTooth(SchemaViolation):
    """The same tooth id appears twice within a jaw."""


class ConfigError(ValidationError):
    """Unknown keys or out-of-range values in a configuration document."""


class InvalidArgument(ValidationError, ValueError):
    """A count or bound passed by the caller lies outside its range."""


# --------------------------------------------------------------- computation

class EmptyCloud(ComputationError):
    """An operation received a point cloud with no points."""


class InsufficientPoints(ComputationError):
    """More samples were requested than the cloud contains."""


class DegenerateCloud(ComputationError):
    """The cloud has no well-defined rigid registration (collinear or tiny);
    ``row`` is the first such row of a stacked registration."""

    def __init__(self, message: str, row: int = 0):
        super().__init__(message)
        self.row = row


class DegenerateAxis(ComputationError):
    """A tooth's incisal peak coincides with its centroid."""


class TransformForAbsentTooth(ValidationError):
    """A transform was supplied for a tooth that is not present."""


class CorrespondenceMismatch(ValidationError):
    """Two cases or clouds that must correspond index-wise do not."""


class InfeasibleParams(ComputationError):
    """Synthesis parameters admit no collision-free jaw."""


class TooFewTeeth(ComputationError):
    """An arch line needs at least two present teeth."""


class CoincidentKnots(ComputationError):
    """Two consecutive arch knots (tooth centroids) coincide."""


class CollisionUnresolved(ComputationError):
    """The collision-resolution loop hit its iteration cap."""


class ConstraintViolation(ComputationError):
    """Gap and arch-distance constraints could not be satisfied jointly."""


class IndivisibleGrid(ValidationError):
    """Window size does not divide the feature-grid dimensions."""


class OddColumns(ValidationError):
    """Column merging needs an even number of columns."""


class BadHeadCount(ValidationError):
    """Channel count is not divisible by the attention head count."""
