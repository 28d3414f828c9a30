"""Exception hierarchy.

Two base classes matter for callers (and for the CLI's exit codes):

* :class:`ValidationError` -- the input is not acceptable (bad masses,
  unknown nodes, malformed files, ...).  CLI exit code 1.
* :class:`InvariantViolation` -- the input was fine but a numerical
  invariant that the theory guarantees failed to hold (singular common
  block, non-idempotent projector, a NaN or Inf from an overflow inside
  the package, ...).  These signal a bug or a numerically hostile input
  and are never silently swallowed.  CLI exit code 2.
"""

from __future__ import annotations


class LapcoarseError(Exception):
    """Base class for every error raised by this package."""


class ValidationError(LapcoarseError):
    """The input violates a documented precondition."""


class InvariantViolation(LapcoarseError):
    """A numerical invariant guaranteed by the theory failed."""


class InvalidOption(ValidationError, ValueError):
    """An option (a mode, kind or direction) is none of its documented values."""


# -- graph construction ------------------------------------------------------

class NonPositiveMass(ValidationError):
    pass


class NonPositiveWeight(ValidationError):
    pass


class UnknownEndpoint(ValidationError):
    pass


class DuplicateEdge(ValidationError):
    pass


class DuplicateNode(ValidationError):
    pass


class EmptyGraph(ValidationError):
    """A graph needs at least one node."""


class ShapeMismatch(ValidationError):
    """An array lacks the shape its use needs."""


class UnknownNode(ValidationError):
    pass


class NotUndirected(ValidationError):
    """An operation defined for undirected graphs got a directed one."""


# -- connectivity / cluster sets ---------------------------------------------

class NotSymmetricEdgeSet(ValidationError):
    pass


class ClustersShareNodes(ValidationError):
    pass


class ClusterViolation(ValidationError):
    """Pre-grouped clusters differ from the reaches of their edges, or a
    cluster set has the wrong mode for its use."""


class EmptyClusterSet(ValidationError):
    pass


class UnknownEdge(ValidationError):
    """A cluster edge does not reference an existing graph edge."""


# -- numerics ----------------------------------------------------------------

class NonFiniteMatrix(InvariantViolation):
    """NaN or Inf in a matrix: ``Graph`` rejects them, so the package made it."""


class MatrixTooLarge(ValidationError):
    pass


class SingularMatrix(InvariantViolation):
    """A pivot fell below the singularity threshold during LU."""


class NotSymmetrizable(ValidationError):
    """Mass symmetrization did not produce a symmetric matrix."""


# -- kernels / coarsen -------------------------------------------------------

class SingularCommonBlock(SingularMatrix):
    """The common-part block of a cluster Laplacian was singular."""


class KernelDefect(InvariantViolation):
    """A computed kernel vector failed its residual or range checks."""


class ProjectorDefect(InvariantViolation):
    """A Riesz projector failed idempotency, annihilation or rank checks."""


class NegativeAggregateWeight(InvariantViolation):
    """An aggregated reduced-edge weight came out negative."""


class ReductionMismatch(InvariantViolation):
    """J-down L J-up disagreed with the reduced graph's own Laplacian."""


class NotADistribution(ValidationError):
    pass


# -- harness -----------------------------------------------------------------

class BetaLadderTooShort(ValidationError):
    """A sweep needs at least three distinct scaling factors."""


class ZOnSpectrumAxis(ValidationError):
    """z is not finite, or touches the nonnegative real axis or the spectrum."""


class NonPositiveTime(ValidationError):
    pass


# -- io ----------------------------------------------------------------------

class MalformedDocument(ValidationError):
    pass


class UnknownVersion(ValidationError):
    pass
