"""The package's export contract and the modules each entry point loads."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import blamelogic

# submodule -> the names `from blamelogic import *` binds from it
EXPORTS = {
    "bundle": ["asset_path"],
    "errors": [
        "AtomBudgetExceededError", "BlamelogicError", "FormatError", "InvalidScriptError",
        "ParseError", "PhiNotPremiseError", "PlayNotInGameError", "UnknownAgentError",
        "UnknownStateError", "ValidationError",
    ],
    "game": [
        "Game", "Play", "Strategy", "ValidationReport", "dump_game", "game_from_document",
        "game_to_document", "indistinguishable", "load_game", "load_game_file",
        "validate_game",
    ],
    "generator": [
        "GenParams", "SearchBudget", "SweepReport", "SweepViolation", "find_countermodel",
        "gen_formula", "gen_game", "soundness_sweep",
    ],
    "hilbert": [
        "AXIOM_NAMES", "Axiom", "CheckReport", "MP", "Nec", "Premise", "ProofLine",
        "ProofScript", "Taut", "build_axiom", "check_proof", "deduction_transform",
        "format_proof", "is_tautology_instance", "match_axiom", "parse_proof",
        "parse_proof_file",
    ],
    "semantics": ["blame_witness", "evaluate", "extension", "is_valid", "semantic_entailment"],
    "syntax": [
        "BOTTOM", "Blames", "Formula", "Implies", "Knows", "Neg", "TOP", "Var", "conj", "disj",
        "formula_agents", "formula_vars", "iff", "modal_atoms", "parse_formula", "poss_knows",
        "print_formula",
    ],
}  # fmt: skip
SRC = str(Path(blamelogic.__file__).resolve().parents[1])
ENV = {**os.environ, "PYTHONPATH": os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")])}


def test_star_import_binds_the_same_76_names():
    namespace = {}
    exec("from blamelogic import *", namespace)
    del namespace["__builtins__"]
    expected = {*EXPORTS, *(name for names in EXPORTS.values() for name in names)}
    assert len(expected) == 76
    assert set(namespace) == expected
    for module, names in EXPORTS.items():
        assert namespace[module] is sys.modules[f"blamelogic.{module}"]
        for name in names:
            assert namespace[name] is getattr(sys.modules[f"blamelogic.{module}"], name)


def test_submodules_and_names_are_attributes():
    for module, names in EXPORTS.items():
        assert getattr(blamelogic, module) is sys.modules[f"blamelogic.{module}"]
        for name in names:
            assert getattr(blamelogic, name) is getattr(getattr(blamelogic, module), name)
    assert blamelogic.cli is sys.modules["blamelogic.cli"]
    assert blamelogic.__version__ == "0.1.0"


def test_dir_lists_every_export():
    listed = dir(blamelogic)
    assert listed == sorted(listed)
    assert set(blamelogic.__all__) <= set(listed)
    assert "__version__" in listed


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        blamelogic.no_such_name  # noqa: B018
    assert not hasattr(blamelogic, "no_such_name")
    with pytest.raises(ImportError):
        exec("from blamelogic import no_such_name", {})
    with pytest.raises(AttributeError):
        blamelogic.cli.no_such_name  # noqa: B018


def _loaded_after(code):
    """The blamelogic modules a fresh interpreter has loaded after `code`
    (pytest itself has imported them all)."""
    report = "import sys; print(' '.join(m for m in sys.modules if m.startswith('blamelogic')))"
    proc = subprocess.run(
        [sys.executable, "-c", f"{code}\n{report}"],
        capture_output=True,
        text=True,
        env=ENV,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.splitlines()[-1].split())


_ENGINE = {"blamelogic.game", "blamelogic.semantics", "blamelogic.syntax"}
_PROOFS, _GENERATOR = "blamelogic.hilbert", "blamelogic.generator"


def test_importing_the_package_loads_no_submodule():
    assert _loaded_after("import blamelogic") == {"blamelogic"}


def test_model_checking_loads_neither_hilbert_nor_generator():
    loaded = _loaded_after("import blamelogic.cli")
    assert _ENGINE <= loaded
    assert not {_PROOFS, _GENERATOR} & loaded
    argv = ["eval", "--game", "truck_manual.game", "--play", "3", "--formula", "B{c}col"]
    loaded = _loaded_after(f"from blamelogic.cli import main\nassert main({argv!r}) == 1")
    assert not {_PROOFS, _GENERATOR} & loaded


def test_proof_checking_loads_hilbert_but_not_generator():
    argv = ["prove", "--script", "lemma8.proof"]
    loaded = _loaded_after(f"from blamelogic.cli import main\nassert main({argv!r}) == 0")
    assert _PROOFS in loaded
    assert _GENERATOR not in loaded


def test_subcommands_run_as_main_reach_their_lazy_names():
    for argv in (
        ["prove", "--script", "lemma8.proof"],
        ["deduce", "--script", "lemma5.proof", "--phi", "p"],
        ["gen", "--seed", "3"],
        ["sweep", "--trials", "1"],
        ["search", "--formula", "K{a}p -> p", "--budget", "20"],
    ):
        proc = subprocess.run(
            [sys.executable, "-m", "blamelogic.cli", *argv],
            capture_output=True,
            text=True,
            env=ENV,
            timeout=60,
        )
        assert (proc.returncode, proc.stderr) == (0, ""), argv
