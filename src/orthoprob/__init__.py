"""Conditional probability on orthospaces.

Event algebras (finite Boolean and finite-dimensional quantum), states,
compression conditioning, statistical predictability, compatibility,
interference decompositions, a deterministic chain sampler, a randomized
axiom checker, and a JSON scenario layer with a command line front end.

``import orthoprob`` loads no submodule: each public name is looked up in
its home module on every access (PEP 562), which is imported on first use.
A command line run thus loads only the modules its subcommand runs, and
names rebound in a home module (for tracing, say) are the ones the package
hands out.
"""

import sys
from importlib import import_module

__version__ = "0.1.0"

# Each public submodule with the public names it is home to.
_EXPORTS = {
    "cli": (),
    "errors": ("AlgebraMismatch", "DegenerateDenominator", "DimensionMismatch", "EmptyChain",
               "EmptyInput", "ImpossibleSequence", "NonUniqueConditioningWarning", "NotAtom",
               "NotOrthogonal", "NotPredictable", "OrthoprobError", "ParseError",
               "ValidationError", "ZeroEvent", "ZeroProbabilityCondition"),
    "events": ("AxiomReport", "BooleanAlgebra", "BooleanEvent", "Event", "EventAlgebra",
               "QuantumAlgebra", "QuantumEvent", "SampleSpace", "below", "complement",
               "events_equal", "is_atom", "oplus", "orthogonal", "verify_orthospace_axioms"),
    "interference": ("InterferenceReport", "interference_decomposition", "two_slit"),
    "linalg": ("HermitianOperator", "Projection", "StateVector", "jordan_product",
               "projector_from_span", "quadratic_triple", "triple_product"),
    "presets": ("half_transition_pair", "order_dependence_example"),
    "sampler": ("ChainResult", "SamplerConfig", "StateIndependenceReport", "sample_chain",
                "state_independence_check"),
    "scenario": ("Scenario", "parse_scenario", "run_query", "scenario_from_jsonable",
                 "scenario_to_jsonable", "serialize_scenario"),
    "states": ("ClassicalState", "DensityState", "PredictabilityResult",
               "QubitNonUniquenessReport", "State", "TableState", "atom_state",
               "atom_symmetry_check", "compatibility_residuals", "compatible", "condition",
               "condition_seq", "conditioning_contract_violations", "is_dispersion_free",
               "predictability", "predictability_seq", "prob", "qubit_nonuniqueness_demo",
               "rank_one_transition"),
}
# The full name of each public name's home module; a submodule is its own.
_HOMES = {name: f"{__name__}.{module}" for module, names in _EXPORTS.items()
          for name in (module, *names)}

__all__ = sorted(name for names in _EXPORTS.values() for name in names)


def __getattr__(name: str):
    home = _HOMES.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # sys.modules first: import_module costs several times more, even for a
    # loaded module, and in-process callers resolve names on every access.
    module = sys.modules.get(home) or import_module(home)
    return module if name in _EXPORTS else getattr(module, name)


def __dir__() -> list[str]:
    return sorted({*globals(), *_HOMES})
