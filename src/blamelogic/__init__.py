"""Bimodal logic of distributed knowledge and coalition blameworthiness.

Evaluates formulas over finite strategic games with imperfect information,
checks Hilbert-style proofs in the matching axiom system, and stress-tests
soundness against generated games.
"""

from .bundle import asset_path
from .errors import (
    AtomBudgetExceededError,
    BlamelogicError,
    FormatError,
    InvalidScriptError,
    ParseError,
    PhiNotPremiseError,
    PlayNotInGameError,
    UnknownAgentError,
    UnknownStateError,
    ValidationError,
)
from .game import (
    Game,
    Play,
    Strategy,
    ValidationReport,
    dump_game,
    game_from_document,
    game_to_document,
    indistinguishable,
    load_game,
    load_game_file,
    validate_game,
)
from .generator import (
    GenParams,
    SearchBudget,
    SweepReport,
    SweepViolation,
    find_countermodel,
    gen_formula,
    gen_game,
    soundness_sweep,
)
from .hilbert import (
    AXIOM_NAMES,
    Axiom,
    CheckReport,
    MP,
    Nec,
    Premise,
    ProofLine,
    ProofScript,
    Taut,
    build_axiom,
    check_proof,
    deduction_transform,
    format_proof,
    is_tautology_instance,
    match_axiom,
    parse_proof,
    parse_proof_file,
)
from .semantics import (
    blame_witness,
    evaluate,
    extension,
    is_valid,
    semantic_entailment,
)
from .syntax import (
    BOTTOM,
    Blames,
    Formula,
    Implies,
    Knows,
    Neg,
    TOP,
    Var,
    conj,
    disj,
    formula_agents,
    formula_vars,
    iff,
    modal_atoms,
    parse_formula,
    poss_knows,
    print_formula,
)

__version__ = "0.1.0"
