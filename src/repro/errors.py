"""Exception hierarchy for the ``repro`` library.

Every error raised by the library derives from :class:`ReproError`, so
callers can catch a single base class.  More specific subclasses
indicate which solver or transformation rejected the input.

The taxonomy splits into three families, and the CLI maps each family
to a distinct exit code (see :mod:`repro.cli`):

*Input errors* — the request itself is malformed: :class:`ParseError`
(and :class:`FormulaTooDeepError`),
:class:`UnsupportedFormulaError` (and its fragment-specific
subclasses), :class:`DomainSizeError`, :class:`WeightError`,
:class:`EncodingError`, :class:`FaultPlanError`.  Retrying the same
call can never succeed; the caller must fix the input.  CLI exit
code 3.

*Resource errors* — the input is fine but the run hit a configured
limit: :class:`BudgetExceededError`.  These are *anytime* failures:
every cache layer only ever stores fully computed values, so a retry
with a larger budget (or none) warm-starts from the work already done
and completes bit-identically to an uninterrupted run.  CLI exit
code 4.

*Internal errors* — anything not derived from :class:`ReproError`
escaping a library call is a bug, never an input problem.  CLI exit
code 70 (BSD ``EX_SOFTWARE``).

Degraded-but-successful execution (a crashed worker retried or served
serially, a persistent store disabled after exhausting retries) is
deliberately *not* an error: results stay bit-identical, and the event
is reported through stats counters instead (``worker_retries``,
``degraded_to_serial`` on ``EngineStats``; ``retries``/``reenables``/
``disk_full`` in ``PersistentStore.stats()``).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the library."""


class ParseError(ReproError):
    """Raised when a formula string cannot be parsed."""

    def __init__(self, message, position=None):
        if position is not None:
            message = "{} (at position {})".format(message, position)
        super().__init__(message)
        self.position = position


class FormulaTooDeepError(ParseError):
    """Raised when a formula string nests deeper than the parser allows.

    The limit is :data:`repro.logic.parser.MAX_NESTING`; it keeps deep
    input a typed input error instead of a ``RecursionError``.
    """


class UnsupportedFormulaError(ReproError):
    """Raised when a solver does not support the given sentence.

    For example the FO2 lifted solver raises this for sentences that use
    three or more logical variables, or predicates of arity above two.
    """


class NotFO2Error(UnsupportedFormulaError):
    """Raised when a sentence is outside the FO2 fragment."""


class NotGammaAcyclicError(UnsupportedFormulaError):
    """Raised when a conjunctive query is not gamma-acyclic."""


class SelfJoinError(UnsupportedFormulaError):
    """Raised when a CQ algorithm requires a self-join-free query."""


class DomainSizeError(ReproError):
    """Raised when a domain size is negative or otherwise invalid."""


class WeightError(ReproError):
    """Raised when weights are missing or inconsistent for a vocabulary."""


class EncodingError(ReproError):
    """Raised when a Turing machine cannot be encoded into FO3."""


class FaultPlanError(ReproError):
    """Raised when a fault-plan spec string cannot be parsed.

    See :class:`repro.resilience.faults.FaultPlan` for the grammar.
    """


class ServiceOverloadedError(ReproError):
    """The serving daemon shed a request under admission control.

    Retriable by contract: the request was rejected *before* any work
    started, so resubmitting it (after ``retry_after`` seconds) is
    always safe.  Maps to HTTP 429 with a ``Retry-After`` header in
    :mod:`repro.serve`.
    """

    def __init__(self, message="service overloaded", retry_after=1):
        super().__init__(message)
        self.retry_after = retry_after


class ServiceDrainingError(ReproError):
    """The serving daemon is shutting down and rejects new work.

    Raised between SIGTERM and process exit; in-flight requests still
    complete.  Maps to HTTP 503 in :mod:`repro.serve`; retriable
    against another replica.
    """


class BudgetExceededError(ReproError):
    """A run hit its :class:`~repro.resilience.limits.Budget`.

    Attributes
    ----------
    reason:
        What tripped: ``"timeout"``, ``"max_conflicts"``,
        ``"max_decisions"``, or ``"cancelled"``.
    elapsed:
        Wall-clock seconds spent inside the budget when it tripped.
    spent:
        ``{"decisions": n, "conflicts": m}`` charged against the budget.
    engine_stats:
        The partial :class:`~repro.propositional.counter.EngineStats` of
        the interrupted engine run, when one was active (``None`` for
        aborts in the FO2/compile layers before any grounded search).

    The exception is safe to retry: caches only ever hold completed
    values, so a follow-up call with a fresh budget resumes from the
    cached partial work and returns the bit-identical final answer.
    """

    def __init__(self, reason, elapsed=None, spent=None, engine_stats=None):
        self.reason = reason
        self.elapsed = elapsed
        self.spent = dict(spent) if spent else {}
        self.engine_stats = engine_stats
        detail = "budget exceeded ({})".format(reason)
        if elapsed is not None:
            detail += " after {:.3f}s".format(elapsed)
        if self.spent:
            detail += " [{}]".format(", ".join(
                "{}={}".format(k, v) for k, v in sorted(self.spent.items())))
        super().__init__(detail)
