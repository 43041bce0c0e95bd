import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import blamelogic
from blamelogic import asset_path, cli, load_game
from blamelogic.cli import main
from blamelogic.game import game_from_document
from blamelogic.hilbert import check_proof, parse_proof
from blamelogic.semantics import evaluate
from blamelogic.syntax import parse_formula

MANUAL = str(asset_path("truck_manual.game"))
SELF = str(asset_path("truck_selfdriving.game"))


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--json")
    return code, json.loads(out), err


def test_eval_true_exit_zero(capsys):
    code, out, _ = run(capsys, "eval", "--game", SELF, "--play", "3", "--formula", "B{c}col")
    assert code == 0
    assert out.strip() == "true"


def test_eval_false_exit_one(capsys):
    code, out, _ = run(capsys, "eval", "--game", MANUAL, "--play", "3", "--formula", "B{c}col")
    assert code == 1
    assert out.strip() == "false"


def test_bundled_asset_names_resolve(capsys):
    code, out, _ = run(capsys, "eval", "--game", "truck_manual.game", "--play", "0", "--formula", "col")
    assert code == 0


def test_play_out_of_range_is_input_error(capsys):
    code, out, err = run(capsys, "eval", "--game", MANUAL, "--play", "99", "--formula", "p")
    assert code == 2
    assert "play index out of range" in err


def test_bad_formula_is_input_error(capsys):
    code, _, err = run(capsys, "eval", "--game", MANUAL, "--play", "0", "--formula", "p ->")
    assert code == 2
    assert "error" in err


def test_missing_file_is_input_error(capsys):
    code, _, err = run(capsys, "eval", "--game", "no-such.game", "--play", "0", "--formula", "p")
    assert code == 2


def test_directory_as_game_is_input_error(capsys, tmp_path):
    code, out, err = run(capsys, "eval", "--game", str(tmp_path), "--play", "0", "--formula", "p")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")


@pytest.mark.parametrize("formula", ["~" * 3000 + "p", "(" * 200 + "p" + ")" * 200])
def test_deep_formula_is_input_error(formula):
    src = str(Path(blamelogic.__file__).resolve().parents[1])
    path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    env = {**os.environ, "PYTHONPATH": path}
    argv = ["eval", "--game", MANUAL, "--play", "0", "--formula", formula]
    proc = subprocess.run(
        [sys.executable, "-m", "blamelogic.cli", *argv],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: ")
    assert "Traceback" not in proc.stderr


def test_recursion_past_the_parser_is_input_error(capsys, monkeypatch):
    # a formula just under the parser's limit can still overflow the engine
    def overflow(*args):
        raise RecursionError("maximum recursion depth exceeded")

    monkeypatch.setattr(cli, "evaluate", overflow)
    code, out, err = run(capsys, "eval", "--game", MANUAL, "--play", "0", "--formula", "col")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")


def test_usage_error_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["eval", "--game", MANUAL])
    assert exc.value.code == 2


def test_witness_output(capsys):
    code, out, _ = run(capsys, "witness", "--game", SELF, "--play", "3", "--formula", "B{c}col")
    assert code == 0
    assert "witness: {c: speed-up}" in out


def test_witness_none_exit_one(capsys):
    code, out, _ = run(capsys, "witness", "--game", MANUAL, "--play", "3", "--formula", "B{c}col")
    assert code == 1
    assert out.strip() == "none"


def test_witness_requires_blame_formula(capsys):
    code, _, err = run(capsys, "witness", "--game", SELF, "--play", "3", "--formula", "K{c}col")
    assert code == 2


def test_extension_lists_indices(capsys):
    code, doc, _ = run_json(capsys, "extension", "--game", MANUAL, "--formula", "col")
    assert code == 0
    assert doc["data"]["extension"] == [0, 3]
    assert doc["command"] == "extension"
    assert "timing_ms" in doc


def test_validity(capsys):
    code, out, _ = run(capsys, "validity", "--game", MANUAL, "--formula", "K{c}col -> col")
    assert code == 0 and out.strip() == "valid"
    code, out, _ = run(capsys, "validity", "--game", MANUAL, "--formula", "col")
    assert code == 1 and out.strip() == "invalid"


def test_entail(capsys):
    code, out, _ = run(
        capsys, "entail", "--game", MANUAL, "--premises", "col", "--formula", "K{}col"
    )
    assert code == 1 and out.strip() == "not-entailed"
    code, out, _ = run(capsys, "entail", "--game", MANUAL, "--formula", "B{c}col -> col")
    assert code == 0 and out.strip() == "entailed"


def test_prove_corpus(capsys):
    code, out, _ = run(capsys, "prove", "--script", "lemma8.proof")
    assert code == 0
    assert out.strip().startswith("valid")


def test_prove_invalid_reports_line(capsys, tmp_path):
    bad = tmp_path / "bad.proof"
    bad.write_text("premises: p\ngoal: K{a}p\n1. p ; premise\n2. K{a}p ; nec 1 {a}\n")
    code, out, _ = run(capsys, "prove", "--script", str(bad))
    assert code == 1
    assert "line 2" in out


def test_deduce_output_checks(capsys, tmp_path):
    src = tmp_path / "mp.proof"
    src.write_text(
        "premises: p ; p -> q\ngoal: q\n"
        "1. p ; premise\n2. p -> q ; premise\n3. q ; mp 1 2\n"
    )
    code, out, _ = run(capsys, "deduce", "--script", str(src), "--phi", "p")
    assert code == 0
    transformed = parse_proof(out)
    assert check_proof(transformed).valid
    assert transformed.goal == parse_formula("p -> q")


def test_gen_emits_loadable_game(capsys):
    code, out, _ = run(capsys, "gen", "--seed", "5")
    assert code == 0
    g = load_game(out)
    assert g.agents


def test_sweep_report(capsys):
    code, doc, _ = run_json(capsys, "sweep", "--trials", "5", "--seed", "1")
    assert code == 0
    assert doc["verdict"] == "0 violations / 5 trials"
    assert doc["violations"] == []


def test_search_finds_verified_countermodel(capsys):
    code, doc, _ = run_json(capsys, "search", "--formula", "B{a}p -> K{a}p")
    assert code == 1
    assert doc["verdict"] == "countermodel"
    game = game_from_document(doc["witness"]["game"])
    play = game.plays[doc["witness"]["play"]]
    assert evaluate(game, play, parse_formula("B{a}p & ~K{a}p"))


def test_search_none_for_sound_formula(capsys):
    code, doc, _ = run_json(capsys, "search", "--formula", "K{a}p -> p", "--budget", "400")
    assert code == 0
    assert doc["verdict"] == "none"


def test_json_report_shape(capsys):
    code, doc, _ = run_json(capsys, "eval", "--game", MANUAL, "--play", "0", "--formula", "col")
    assert set(doc) >= {"command", "verdict", "timing_ms"}
    assert doc["command"] == "eval"
    assert doc["verdict"] == "true"


def test_bad_parameter_values_are_input_errors(capsys):
    for argv in (
        ["gen", "--seed", "-1"],
        ["sweep", "--trials", "-3"],
        ["search", "--formula", "p", "--budget", "0"],
    ):
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2, argv
        assert "error" in captured.err
