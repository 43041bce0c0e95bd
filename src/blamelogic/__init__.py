"""Bimodal logic of distributed knowledge and coalition blameworthiness.

Evaluates formulas over finite strategic games with imperfect information,
checks Hilbert-style proofs in the matching axiom system, and stress-tests
soundness against generated games.

`import blamelogic` loads no submodule: each exported name, and each
submodule read as an attribute, is imported on first use (PEP 562), so a
caller that only model-checks never loads `hilbert` or `generator`.
"""

from importlib import import_module

__version__ = "0.1.0"

_SUBMODULES = ("bundle", "errors", "game", "generator", "hilbert", "semantics", "syntax")

# public name -> the submodule that defines it
_EXPORTS = {
    name: module
    for module, names in {
        "bundle": "asset_path",
        "errors": "AtomBudgetExceededError BlamelogicError FormatError InvalidScriptError"
        " ParseError PhiNotPremiseError PlayNotInGameError UnknownAgentError"
        " UnknownStateError ValidationError",
        "game": "Game Play Strategy ValidationReport dump_game game_from_document"
        " game_to_document indistinguishable load_game load_game_file validate_game",
        "generator": "GenParams SearchBudget SweepReport SweepViolation find_countermodel"
        " gen_formula gen_game soundness_sweep",
        "hilbert": "AXIOM_NAMES Axiom CheckReport MP Nec Premise ProofLine ProofScript Taut"
        " build_axiom check_proof deduction_transform format_proof is_tautology_instance"
        " match_axiom parse_proof parse_proof_file",
        "semantics": "blame_witness evaluate extension is_valid semantic_entailment",
        "syntax": "BOTTOM Blames Formula Implies Knows Neg TOP Var conj disj formula_agents"
        " formula_vars iff modal_atoms parse_formula poss_knows print_formula",
    }.items()
    for name in names.split()
}

__all__ = [*_SUBMODULES, *_EXPORTS]


def __getattr__(name):
    if name in _SUBMODULES or name == "cli":  # cli is an attribute, not star-exported
        return import_module(f".{name}", __name__)
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f".{_EXPORTS[name]}", __name__), name)
    return value


def __dir__():
    return sorted({*globals(), *__all__})
