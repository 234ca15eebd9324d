"""repro: Symmetric Weighted First-Order Model Counting (PODS 2015).

A complete, exact-arithmetic reproduction of Beame, Van den Broeck,
Gribkoff & Suciu, *Symmetric Weighted First-Order Model Counting*,
PODS 2015.  The library provides:

* an FO logic kernel (:mod:`repro.logic`) with a parser, normal forms,
  Scott's reduction, and finite-model evaluation;
* exact weighted model counting for propositional formulas
  (:mod:`repro.propositional`) and for FO sentences by grounding
  (:mod:`repro.grounding`, :mod:`repro.wfomc.bruteforce`);
* the polynomial-time lifted algorithms: FO2 cell decomposition
  (Appendix C), gamma-acyclic conjunctive queries (Theorem 3.6), the
  Q_S4 dynamic program (Theorem 3.7), and chain queries (Example 3.10);
* the WFOMC-preserving reductions of Lemmas 3.3-3.5
  (:mod:`repro.transforms`);
* Markov Logic Networks and the Example 1.2 reduction (:mod:`repro.mln`),
  including circuit-based weight learning (:func:`repro.mln.mln_weight_learn`);
* the knowledge-compilation subsystem (:mod:`repro.compile`): the
  counting search run once over circuit values, serving any
  number of weight vectors — and their exact gradients — by circuit
  evaluation;
* the paper's complexity-theoretic constructions
  (:mod:`repro.complexity`): the FO3 Turing-machine encoding Theta_1,
  the #SAT gadget of Figure 2, the QBF/PSPACE gadget, the Lemma 3.8
  pairing function, and spectrum decision procedures.

Quick start::

    >>> from repro import parse, fomc
    >>> fomc(parse("forall x. exists y. R(x, y)"), 5)
    28629151
    >>> # == (2**5 - 1)**5
"""

from .errors import (
    BudgetExceededError,
    DomainSizeError,
    EncodingError,
    FaultPlanError,
    FormulaTooDeepError,
    NotFO2Error,
    NotGammaAcyclicError,
    ParseError,
    ReproError,
    SelfJoinError,
    ServiceDrainingError,
    ServiceOverloadedError,
    UnsupportedFormulaError,
    WeightError,
)
from .options import SolverOptions
from .resilience import Budget, FaultPlan
from .weights import WeightPair, ONE_ONE, SKOLEM, from_probability
from .logic import (
    Predicate,
    Vocabulary,
    WeightedVocabulary,
    Var,
    parse,
)
from .wfomc import (
    fomc,
    probability,
    wfomc,
    wfomc_batch,
    wfomc_weight_sweep,
    wfomc_fo2,
    wfomc_qs4,
    chain_probability,
    QS4_SENTENCE,
)
from .cq import (
    CQAtom,
    ConjunctiveQuery,
    Hypergraph,
    gamma_acyclic_probability,
)
from .compile import Circuit, CompiledWFOMC, compile_wfomc
from .mln import (
    HARD,
    MLN,
    mln_probability,
    mln_probability_bruteforce,
    mln_probability_wfomc,
    mln_query_sweep,
    mln_weight_learn,
)
from .lifted import RulesIncompleteError, lifted_wfomc

__version__ = "0.3.0"

__all__ = [
    "ReproError",
    "ParseError",
    "FormulaTooDeepError",
    "UnsupportedFormulaError",
    "NotFO2Error",
    "NotGammaAcyclicError",
    "SelfJoinError",
    "DomainSizeError",
    "WeightError",
    "EncodingError",
    "BudgetExceededError",
    "FaultPlanError",
    "ServiceOverloadedError",
    "ServiceDrainingError",
    "SolverOptions",
    "Budget",
    "FaultPlan",
    "WeightPair",
    "ONE_ONE",
    "SKOLEM",
    "from_probability",
    "Predicate",
    "Vocabulary",
    "WeightedVocabulary",
    "Var",
    "parse",
    "fomc",
    "wfomc",
    "probability",
    "wfomc_batch",
    "wfomc_weight_sweep",
    "wfomc_fo2",
    "wfomc_qs4",
    "chain_probability",
    "QS4_SENTENCE",
    "CQAtom",
    "ConjunctiveQuery",
    "Hypergraph",
    "gamma_acyclic_probability",
    "Circuit",
    "CompiledWFOMC",
    "compile_wfomc",
    "HARD",
    "MLN",
    "mln_probability",
    "mln_query_sweep",
    "mln_probability_bruteforce",
    "mln_probability_wfomc",
    "mln_weight_learn",
    "RulesIncompleteError",
    "lifted_wfomc",
    "__version__",
]
