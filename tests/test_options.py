"""SolverOptions: the one options object behind every entry point.

Pins the contract: the dataclass validates, replaces, pickles and
``repr``-round-trips; ``options=`` is the only way a knob reaches a
solver, so a knob passed as its own keyword, or anything but ``None`` or
a :class:`SolverOptions` passed as ``options``, is a :class:`TypeError`
at every entry point; and no entry point grows a ``**kwargs`` or a
per-knob parameter again.
"""

import dataclasses
import inspect
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.asymptotics import mu_n, mu_sequence
from repro.compile import compile_cnf, compile_formula, compile_lineage, compile_wfomc
from repro.logic.parser import parse
from repro.mln import (
    MLN,
    mln_average_log_likelihood,
    mln_likelihood_gradient,
    mln_probability,
    mln_probability_wfomc,
    mln_query_sweep,
    mln_weight_learn,
)
from repro.mln.reduction import MLNReduction, reduce_to_wfomc
from repro.options import BACKEND_NAMES, BRANCHINGS, METHODS, SolverOptions
from repro.propositional.cnf import to_cnf
from repro.propositional.counter import CountingEngine, wmc_cnf, wmc_formula
from repro.propositional.formula import por, pvar
from repro.wfomc.bruteforce import fomc_lineage, wfomc_lineage
from repro.wfomc.fo2 import wfomc_fo2
from repro.wfomc.solver import (
    fomc,
    probability,
    wfomc,
    wfomc_batch,
    wfomc_weight_sweep,
)


def solver_options():
    """Hypothesis strategy over every valid field combination."""
    return st.builds(
        SolverOptions,
        method=st.sampled_from(METHODS),
        workers=st.one_of(st.none(), st.integers(min_value=0, max_value=4)),
        branching=st.one_of(st.none(), st.sampled_from(BRANCHINGS)),
        learn=st.one_of(st.none(), st.booleans()),
        max_learned=st.one_of(st.none(),
                              st.integers(min_value=0, max_value=1 << 12)),
        persist=st.one_of(st.none(), st.booleans()),
        cache_dir=st.one_of(st.none(), st.just("/tmp/some-cache")),
        phase_saving=st.one_of(st.none(), st.booleans()),
        compile=st.one_of(st.none(), st.booleans()),
        backend=st.one_of(st.none(), st.sampled_from(BACKEND_NAMES)),
    )


class TestRoundTrip:
    @settings(max_examples=120, deadline=None)
    @given(options=solver_options())
    def test_repr_round_trips(self, options):
        assert eval(repr(options), {"SolverOptions": SolverOptions}) == options

    @settings(max_examples=60, deadline=None)
    @given(options=solver_options())
    def test_replace_round_trips_every_field(self, options):
        rebuilt = SolverOptions().replace(
            **{f.name: getattr(options, f.name)
               for f in dataclasses.fields(SolverOptions)})
        assert rebuilt == options

    @settings(max_examples=60, deadline=None)
    @given(options=solver_options())
    def test_pickles_for_worker_payloads(self, options):
        assert pickle.loads(pickle.dumps(options)) == options

    def test_repr_drops_defaults(self):
        assert repr(SolverOptions()) == "SolverOptions()"
        assert repr(SolverOptions(workers=2)) == "SolverOptions(workers=2)"


class TestResolve:
    def test_none_means_defaults(self):
        assert SolverOptions.resolve(None) == SolverOptions()

    @settings(max_examples=60, deadline=None)
    @given(options=solver_options())
    def test_passes_instances_through(self, options):
        assert SolverOptions.resolve(options) is options

    def test_method_string_is_a_type_error(self):
        with pytest.raises(TypeError, match="'fo2'"):
            SolverOptions.resolve("fo2")

    def test_bad_options_value_is_a_type_error(self):
        with pytest.raises(TypeError):
            SolverOptions.resolve(42)
        with pytest.raises(TypeError):
            SolverOptions.resolve({"method": "fo2"})


class TestValidation:
    def test_enumerated_fields_validate(self):
        with pytest.raises(ValueError, match="method"):
            SolverOptions(method="fo3")
        with pytest.raises(ValueError, match="branching"):
            SolverOptions(branching="vsids")
        with pytest.raises(ValueError, match="backend"):
            SolverOptions(backend="gpu")
        with pytest.raises(ValueError, match="workers"):
            SolverOptions(workers=-1)
        with pytest.raises(ValueError, match="max_learned"):
            SolverOptions(max_learned=-5)

    def test_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            SolverOptions().method = "fo2"

    def test_compiled_property(self):
        assert not SolverOptions().compiled
        assert SolverOptions(compile=True).compiled
        assert SolverOptions(backend="codegen").compiled
        assert SolverOptions(backend="exact").compiled


# -- the one-way-to-pass-a-knob contract ---------------------------------------

SENTENCE = parse("exists x. P(x)")
MLN_MODEL = MLN([(2, parse("P(x)"))])
PROP = por(pvar("a"), pvar("b"))

#: Every function that takes solver knobs, paired with a call of it on
#: valid arguments, the given ``options`` value and any extra keywords.
KNOB_TAKERS = [
    (wfomc, lambda o, **kw: wfomc(SENTENCE, 2, options=o, **kw)),
    (fomc, lambda o, **kw: fomc(SENTENCE, 2, options=o, **kw)),
    (probability, lambda o, **kw: probability(SENTENCE, 2, options=o, **kw)),
    (wfomc_batch,
     lambda o, **kw: wfomc_batch(SENTENCE, [1, 2], options=o, **kw)),
    (wfomc_weight_sweep,
     lambda o, **kw: wfomc_weight_sweep(SENTENCE, 2, [], options=o, **kw)),
    (wfomc_lineage,
     lambda o, **kw: wfomc_lineage(SENTENCE, 2, options=o, **kw)),
    (fomc_lineage, lambda o, **kw: fomc_lineage(SENTENCE, 2, options=o, **kw)),
    (wmc_cnf, lambda o, **kw: wmc_cnf(to_cnf(PROP), lambda _l: (1, 1),
                                      options=o, **kw)),
    (wmc_formula, lambda o, **kw: wmc_formula(PROP, lambda _l: (1, 1),
                                              options=o, **kw)),
    (MLNReduction.probability,
     lambda o, **kw: reduce_to_wfomc(MLN_MODEL).probability(
         SENTENCE, 2, options=o, **kw)),
    (mln_probability_wfomc, lambda o, **kw: mln_probability_wfomc(
        MLN_MODEL, SENTENCE, 2, options=o, **kw)),
    (mln_probability, lambda o, **kw: mln_probability(
        MLN_MODEL, SENTENCE, 2, options=o, **kw)),
    (mln_query_sweep, lambda o, **kw: mln_query_sweep(
        [MLN_MODEL], SENTENCE, 2, options=o, **kw)),
    (mln_likelihood_gradient, lambda o, **kw: mln_likelihood_gradient(
        MLN_MODEL, [], 2, options=o, **kw)),
    (mln_average_log_likelihood, lambda o, **kw: mln_average_log_likelihood(
        MLN_MODEL, [], 2, options=o, **kw)),
    (mln_weight_learn, lambda o, **kw: mln_weight_learn(
        MLN_MODEL, [], 2, options=o, **kw)),
    (wfomc_fo2, lambda o, **kw: wfomc_fo2(SENTENCE, 2, options=o, **kw)),
    (compile_wfomc,
     lambda o, **kw: compile_wfomc(SENTENCE, 2, options=o, **kw)),
    (compile_lineage,
     lambda o, **kw: compile_lineage(SENTENCE, 2, options=o, **kw)),
    (compile_formula, lambda o, **kw: compile_formula(PROP, options=o, **kw)),
    (compile_cnf, lambda o, **kw: compile_cnf(to_cnf(PROP), options=o, **kw)),
    (mu_n, lambda o, **kw: mu_n(SENTENCE, 2, options=o, **kw)),
    (mu_sequence,
     lambda o, **kw: mu_sequence(SENTENCE, [1, 2], options=o, **kw)),
    (CountingEngine.__init__,
     lambda o, **kw: CountingEngine({}, {}, options=o, **kw)),
]
CALLS = [call for _fn, call in KNOB_TAKERS]
IDS = [fn.__qualname__ for fn, _call in KNOB_TAKERS]

FIELD_NAMES = {f.name for f in dataclasses.fields(SolverOptions)}


class TestOneWayToPassAKnob:
    @pytest.mark.parametrize("call", CALLS, ids=IDS)
    def test_former_knob_keyword_is_a_type_error(self, call):
        with pytest.raises(TypeError):
            call(None, method="lineage")

    @pytest.mark.parametrize("call", CALLS, ids=IDS)
    def test_method_string_as_options_is_a_type_error(self, call):
        with pytest.raises(TypeError, match="SolverOptions"):
            call("lineage")

    @pytest.mark.parametrize("fn", [fn for fn, _call in KNOB_TAKERS], ids=IDS)
    def test_no_kwargs_spread_and_no_per_knob_parameter(self, fn):
        params = inspect.signature(fn).parameters.values()
        assert not [p.name for p in params
                    if p.kind is inspect.Parameter.VAR_KEYWORD]
        assert "options" in [p.name for p in params]
        assert not [p.name for p in params if p.name in FIELD_NAMES]
