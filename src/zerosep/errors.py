"""Exception hierarchy shared by all zerosep modules."""

from __future__ import annotations


class ZerosepError(Exception):
    """Base class for all library errors."""


class DomainError(ZerosepError):
    """Arguments outside the mathematical domain of an operation."""


class ArityMismatch(ZerosepError):
    """Polynomial variable count does not match the supplied spec list."""


class SearchFailure(ZerosepError):
    """A grid search did not reach the requested margin.  ``best_margin`` is
    the closest candidate's, whose height the message quotes, so the caller
    can widen the range or lower the margin."""

    def __init__(self, message: str, best_margin: float | None = None):
        super().__init__(message)
        self.best_margin = best_margin


class DegenerateInput(ZerosepError):
    """Zero polynomial or degree-zero input where roots are requested."""


class MonomialDegenerate(ZerosepError):
    """The polynomial is a monomial, so every zero has a vanishing coordinate."""


class SearchExhausted(ZerosepError):
    """Randomized zero search ran out of retries.

    ``diagnostics`` counts how many candidate roots failed each constraint.
    """

    def __init__(self, message: str, diagnostics: dict | None = None):
        super().__init__(message)
        self.diagnostics = diagnostics or {}


class CertificateFailure(ZerosepError):
    """No radius produced certified positive minima at the sampling resolution."""


class ContourTooClose(ZerosepError):
    """A winding scan sampled an exact zero on its contour."""


class RefinementExhausted(ContourTooClose):
    """Adaptive contour refinement hit its sample cap before resolving phases."""


class DriftTooLarge(ZerosepError):
    """Coefficient drift exceeds the stability radius; the message quotes both."""


class Infeasible(ZerosepError):
    """Steering demands exceed the reachability budget of the prime range.

    Lower sigma toward 1 or raise the prime cutoff and retry.
    """

    def __init__(self, message: str, budget: float = 0.0,
                 demand: float = 0.0):
        super().__init__(message)
        self.budget = budget
        self.demand = demand


class NonConvergence(ZerosepError):
    """An iteration stalled (phase solver, LLL); ``result`` holds the best
    attempt when there is one."""

    def __init__(self, message: str, result=None):
        super().__init__(message)
        self.result = result


class MissingPhase(ZerosepError):
    """A prime inside the evaluation cutoff has no assigned vertical shift."""


class ApproxFailure(ZerosepError):
    """Simultaneous approximation missed the accuracy target.

    ``best_error`` is the smallest phase error achieved; the caller can relax
    the accuracy and retry.
    """

    def __init__(self, message: str, best_error: float | None = None, best_t=None):
        super().__init__(message)
        self.best_error = best_error
        self.best_t = best_t


class NoZeroFound(ZerosepError):
    """No circle wound around the best Newton point, so no zero is claimed
    there, however small |H| is.

    The message names where Newton stopped: at a raw step longer than its
    remaining clipped steps can travel (the step, |H| and that distance), at
    a step that would bring the next iterate within the difference step of
    the half-plane boundary Re s = 1 (the raw step and |H|), or stalled after
    its last iteration (the smallest |H| reached).
    """


class MarginFailure(ZerosepError):
    """A certificate margin did not clear its threshold; the message is the
    gap :meth:`zerosep.locate.ZeroCertificate.gap` names."""


class EmptyRecord(ZerosepError):
    """Run record lacks the certificate or the stage result a command reads."""


class StageError(ZerosepError):
    """Pipeline stage failure wrapper: ``stage`` names the failing stage,
    ``record`` holds the run record up to it and ``__cause__`` is its error."""

    def __init__(self, stage: str, cause: Exception, record=None):
        super().__init__(f"stage '{stage}' failed: {cause}")
        self.stage = stage
        self.record = record


class ParseError(ZerosepError):
    """Malformed combination file, config, run record or certificate."""
