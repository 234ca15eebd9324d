"""One options object for every solver entry point: :class:`SolverOptions`.

Every knob that steers *how* a count is computed — never *what* it is —
lives in one frozen dataclass: ``method``, ``workers``, the search knobs
``branching``/``learn``/``max_learned``/``phase_saving``/``restarts``,
``persist``/``cache_dir``, ``compile``/``backend``, and ``budget``.
``options=`` is the only way a knob reaches the engine: every public
entry point takes ``options: SolverOptions | None`` and threads that one
object through dispatch, compilation, worker payloads, and the CLI.
Anything else passed as ``options`` is a :class:`TypeError`, and so is
a knob passed as its own keyword (``wfomc(f, n, method="fo2")``).

>>> SolverOptions(method="lineage", workers=2)
SolverOptions(method='lineage', workers=2)
>>> SolverOptions.resolve(None) == SolverOptions()
True
>>> SolverOptions.resolve("fo2")
Traceback (most recent call last):
    ...
TypeError: options must be a SolverOptions or None, got 'fo2'

``None`` for any field means "the engine's default"; the object never
needs to know what that default is, which keeps it decoupled from the
engine layers it configures.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from .resilience.limits import Budget

__all__ = ["SolverOptions", "METHODS", "BRANCHINGS", "BACKEND_NAMES"]

#: Dispatch methods understood by the solver layer.
METHODS = ("auto", "fo2", "lineage", "enumerate")
#: Decision heuristics of the counting engine.
BRANCHINGS = ("evsids", "moms")
#: Circuit-evaluation backends (see :mod:`repro.compile.backends`).
BACKEND_NAMES = ("exact", "batched", "float", "codegen")


@dataclass(frozen=True)
class SolverOptions:
    """Every knob a solver call accepts, as one immutable value.

    Fields
    ------
    method:
        ``"auto"`` (default), ``"fo2"``, ``"lineage"``, or
        ``"enumerate"`` — pins the counting algorithm.
    workers:
        Process-pool width for parallel component counting (``None`` or
        ``0``/``1`` means serial; results are bit-identical either way).
    branching / learn / max_learned / phase_saving / restarts:
        Conflict-driven-search knobs of the grounded counting engine;
        they steer the search only, never the counted value.  Circuit
        compilation runs the same search, so they steer it the same
        way: ``learn`` turns 1-UIP learning on or off, ``branching``
        picks EVSIDS or MOMS, ``max_learned`` bounds the learned-clause
        database, ``phase_saving`` reorders branches, and ``restarts``
        sets the restart unit, all without changing any value of the
        compiled circuit.
        ``restarts`` enables Luby-sequence restarts in the
        clause-learning engine: a positive int is the Luby unit in
        conflicts (restart after ``unit * luby(i)`` conflicts since the
        last restart), ``None``/``0`` disables them (the default).
        Abandoned partial sums are recomputed through the component
        cache, so counts stay bit-identical with restarts on or off.
    persist / cache_dir:
        Back the in-memory caches with the on-disk store of
        :mod:`repro.cache` (at ``cache_dir``, ``$REPRO_CACHE_DIR``, or
        ``~/.cache/repro``).
    compile:
        Serve sweep/batch/probability calls through the
        knowledge-compilation fast path (:mod:`repro.compile`).
    backend:
        Circuit-evaluation backend for the compiled fast path:
        ``"exact"`` (the row interpreter, the default), ``"batched"``
        (K weight vectors per node pass), ``"float"`` (float64 with
        tracked error bounds and automatic exact fallback), or
        ``"codegen"`` (a specialized compiled Python function per
        circuit).  Setting a backend implies ``compile`` on the entry
        points that support it.
    budget:
        A :class:`~repro.resilience.limits.Budget` bounding the call
        (wall-clock deadline, conflict/decision caps, cooperative
        cancellation).  Tripping raises
        :class:`~repro.errors.BudgetExceededError`; caches stay
        consistent, so a retry warm-starts and completes
        bit-identically.  The budget is mutable and identity-hashed
        (it accumulates spend), and it never rides into worker
        payloads — deadlines are enforced in the parent.

    The dataclass is frozen (hashable, safe to share across threads and
    to pickle into worker payloads) and validates its enumerated fields
    at construction, so a typo fails at the call site instead of deep in
    dispatch.
    """

    method: str = "auto"
    workers: int | None = None
    branching: str | None = None
    learn: bool | None = None
    max_learned: int | None = None
    persist: bool | None = None
    cache_dir: str | None = None
    phase_saving: bool | None = None
    restarts: int | None = None
    compile: bool | None = None
    backend: str | None = None
    budget: object | None = None

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError("unknown method {!r}; expected one of {}".format(
                self.method, METHODS))
        if self.branching is not None and self.branching not in BRANCHINGS:
            raise ValueError(
                "unknown branching {!r}; expected one of {}".format(
                    self.branching, BRANCHINGS))
        if self.backend is not None and self.backend not in BACKEND_NAMES:
            raise ValueError(
                "unknown backend {!r}; expected one of {}".format(
                    self.backend, BACKEND_NAMES))
        if self.workers is not None and (
                not isinstance(self.workers, int) or self.workers < 0):
            raise ValueError(
                "workers must be a non-negative int or None, got {!r}".format(
                    self.workers))
        if self.max_learned is not None and (
                not isinstance(self.max_learned, int) or self.max_learned < 0):
            raise ValueError(
                "max_learned must be a non-negative int or None, "
                "got {!r}".format(self.max_learned))
        if self.restarts is not None and (
                not isinstance(self.restarts, int) or self.restarts < 0):
            raise ValueError(
                "restarts must be a non-negative int (the Luby unit in "
                "conflicts) or None, got {!r}".format(self.restarts))
        if self.budget is not None and not isinstance(self.budget, Budget):
            raise ValueError(
                "budget must be a repro.resilience.limits.Budget or None, "
                "got {!r}".format(self.budget))

    @classmethod
    def resolve(cls, options):
        """``options`` itself, or the all-defaults object for ``None``.

        The one boundary check every entry point makes; any other value
        (a bare method string included) raises :class:`TypeError`.
        """
        if options is None:
            return _DEFAULTS
        if isinstance(options, cls):
            return options
        raise TypeError(
            "options must be a SolverOptions or None, got {!r}".format(
                options))

    def replace(self, **changes):
        """A copy with the given fields replaced (validation re-runs)."""
        return dataclasses.replace(self, **changes)

    @property
    def compiled(self):
        """Whether the compiled fast path is requested.

        ``compile=True`` asks for it explicitly; naming any non-exact
        ``backend`` implies it (there is no circuit to evaluate
        otherwise).
        """
        return bool(self.compile) or self.backend is not None

    def __repr__(self):
        """Non-default fields only: ``SolverOptions(workers=2)``."""
        shown = ", ".join(
            "{}={!r}".format(field.name, getattr(self, field.name))
            for field in dataclasses.fields(self)
            if getattr(self, field.name) != field.default)
        return "SolverOptions({})".format(shown)


_DEFAULTS = SolverOptions()
