import copy
import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import blamelogic
from blamelogic import asset_path, cli, load_game
from blamelogic.cli import main
from blamelogic.game import game_from_document
from blamelogic.generator import SweepReport, SweepViolation
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


def _child_env():
    """Environment for a CLI child that imports this checkout's package."""
    src = str(Path(blamelogic.__file__).resolve().parents[1])
    path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    return {**os.environ, "PYTHONPATH": path}


@pytest.mark.parametrize("formula", ["~" * 3000 + "p", "(" * 200 + "p" + ")" * 200])
def test_deep_formula_is_input_error(formula):
    argv = ["eval", "--game", MANUAL, "--play", "0", "--formula", formula]
    proc = subprocess.run(
        [sys.executable, "-m", "blamelogic.cli", *argv],
        capture_output=True,
        text=True,
        env=_child_env(),
        timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: ")
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize(
    "argv",
    [
        ["gen"],
        ["eval", "--game", MANUAL, "--play", "3", "--formula", "B{c}col"],
        ["deduce", "--script", "lemma5.proof", "--phi", "p"],
        ["search", "--formula", "p", "--json"],
    ],
)
def test_closed_stdout_exits_with_the_broken_pipe_code(argv):
    # the read end is closed before the child starts, so its first write
    # fails, whether the output fills a buffer or is flushed only at exit
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "blamelogic.cli", *argv],
            stdout=write_end,
            stderr=subprocess.PIPE,
            text=True,
            env=_child_env(),
            timeout=60,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == cli.EXIT_BROKEN_PIPE == 141
    assert proc.stderr == ""


def test_deeply_nested_game_file_is_input_error(capsys, tmp_path):
    path = tmp_path / "deep.game"
    path.write_text("[" * 100000 + "]" * 100000)
    code, out, err = run(capsys, "eval", "--game", str(path), "--play", "0", "--formula", "p")
    assert (code, out) == (2, "")
    assert err.startswith("error: not valid JSON: ")
    assert err.count("\n") == 1


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


# ---------------------------------------------------------------------------
# Junk input: mutated argv over every subcommand, junk game and proof files

_TRUCK = json.loads(asset_path("truck_manual.game").read_text())
_PROOFS = [asset_path(n).read_text() for n in ("lemma3.proof", "lemma5.proof")]
_FORMULA_CHARS = "pqcolzKB{}(),~-><&| ;"
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 5) | st.text(max_size=5),
    lambda kids: st.lists(kids, max_size=3) | st.dictionaries(st.text(max_size=5), kids, max_size=3),
    max_leaves=6,
)


@st.composite
def _junk_game(draw):
    """The truck game with a few fields replaced or dropped, or raw bytes."""
    if draw(st.integers(0, 4)) == 0:
        return draw(st.binary(max_size=40))
    doc = copy.deepcopy(_TRUCK)
    for _ in range(draw(st.integers(1, 3))):
        node = doc
        while node:  # a dict or list; descend only into nonempty ones
            key = draw(st.sampled_from(list(node) if isinstance(node, dict) else range(len(node))))
            if isinstance(node[key], (dict, list)) and node[key] and draw(st.booleans()):
                node = node[key]
                continue
            if draw(st.booleans()):
                node[key] = draw(_JSON)
            else:
                del node[key]
            break
    return json.dumps(doc).encode()


@st.composite
def _junk_proof(draw):
    """A corpus script with one slice replaced by junk, or raw bytes."""
    if draw(st.integers(0, 4)) == 0:
        return draw(st.binary(max_size=40))
    text = draw(st.sampled_from(_PROOFS))
    i = draw(st.integers(0, len(text)))
    j = draw(st.integers(i, min(len(text), i + 20)))
    junk = draw(st.text(alphabet=_FORMULA_CHARS + ".:#\n0123456789mptaxiomnec", max_size=20))
    return (text[:i] + junk + text[j:]).encode()


def _flag_values(tmp_path):
    game, proof = str(tmp_path / "junk.game"), str(tmp_path / "junk.proof")
    formula = st.sampled_from(["col", "B{c}col", "K{zz}col", "p -> p"]) | st.text(
        _FORMULA_CHARS, max_size=30
    )
    small = st.sampled_from(["-1", "0", "1", "2", "x", "", "1.5"])
    return {
        "--game": st.sampled_from([game, proof, MANUAL, SELF, "no-such.game", str(tmp_path)]),
        "--script": st.sampled_from([proof, game, "lemma5.proof", "no-such.proof", str(tmp_path)]),
        "--play": small | st.integers(-5, 10).map(str),
        "--formula": formula,
        "--phi": formula,
        "--premises": formula,
        "--seed": small | st.integers(-3, 10**9).map(str),
        # never dropped: their defaults make a run take seconds
        "--trials": small,
        "--budget": small,
    }


_SUBCOMMANDS = {
    "eval": ("--game", "--play", "--formula"),
    "extension": ("--game", "--formula"),
    "validity": ("--game", "--formula"),
    "witness": ("--game", "--play", "--formula"),
    "entail": ("--game", "--formula", "--premises"),
    "prove": ("--script",),
    "deduce": ("--script", "--phi"),
    "gen": ("--seed",),
    "sweep": ("--trials", "--seed"),
    "search": ("--formula", "--budget"),
}


@settings(
    max_examples=150,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)
@given(st.data())
def test_junk_input_exits_with_a_code_and_no_traceback(tmp_path, data):
    (tmp_path / "junk.game").write_bytes(data.draw(_junk_game()))
    (tmp_path / "junk.proof").write_bytes(data.draw(_junk_proof()))
    values = _flag_values(tmp_path)
    command = data.draw(st.sampled_from(sorted(_SUBCOMMANDS)))
    argv = [command]
    for flag in _SUBCOMMANDS[command]:
        if flag in ("--trials", "--budget") or data.draw(st.integers(0, 5)):
            argv += [flag, data.draw(values[flag])]
    extra = st.sampled_from(["--json", "--bogus", "--play", "frob", "-h", ""])
    for _ in range(data.draw(st.integers(0, 2))):
        argv.insert(data.draw(st.integers(0, len(argv))), data.draw(extra))
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.run(argv)
        except SystemExit as e:  # argparse: usage errors and --help
            code = e.code
    assert code in (0, 1, 2), (argv, err.getvalue())
    assert "Traceback" not in err.getvalue(), argv


# ---------------------------------------------------------------------------
# Golden table: for each case, the exit code, the exact text-mode stdout and
# the exact --json stdout (timing_ms aside, key order included)

_GEN5 = {
    "agents": ["a", "b"],
    "states": ["s0", "s1", "s2"],
    "indist": {"a": [["s0", "s2"], ["s1"]], "b": [["s0", "s1", "s2"]]},
    "actions": ["d0", "d1"],
    "outcomes": ["o0", "o1"],
    "plays": [
        {"state": s, "profile": {"a": a, "b": b}, "outcome": o}
        for s, a, b, o in [
            ("s0", "d0", "d0", "o0"), ("s0", "d0", "d1", "o0"), ("s0", "d1", "d0", "o0"),
            ("s0", "d1", "d0", "o1"), ("s0", "d1", "d1", "o1"), ("s1", "d0", "d0", "o1"),
            ("s1", "d0", "d1", "o0"), ("s1", "d0", "d1", "o1"), ("s1", "d1", "d0", "o0"),
            ("s1", "d1", "d1", "o0"), ("s2", "d0", "d0", "o1"), ("s2", "d0", "d1", "o0"),
            ("s2", "d0", "d1", "o1"), ("s2", "d1", "d0", "o1"), ("s2", "d1", "d0", "o0"),
            ("s2", "d1", "d1", "o0"),
        ]
    ],
    "valuation": {"p0": [0, 3, 4, 5, 6, 9, 11, 13, 14, 15], "p1": [1, 2, 7, 8, 9, 11, 12, 13, 14]},
}
_COUNTERMODEL = {
    "agents": ["a"],
    "states": ["s0"],
    "indist": {"a": [["s0"]]},
    "actions": ["d0", "d1"],
    "outcomes": ["o0"],
    "plays": [
        {"state": "s0", "profile": {"a": "d0"}, "outcome": "o0"},
        {"state": "s0", "profile": {"a": "d1"}, "outcome": "o0"},
    ],
    "valuation": {"p": [0]},
}
_ONE_PLAY = {
    "agents": ["a"],
    "states": ["s"],
    "indist": {"a": [["s"]]},
    "actions": ["x"],
    "outcomes": ["o"],
    "plays": [{"state": "s", "profile": {"a": "x"}, "outcome": "o"}],
    "valuation": {},
}
_TWO_AGENTS = {
    "agents": ["a", "b"],
    "states": ["s"],
    "indist": {},
    "actions": ["x", "y"],
    "outcomes": ["o"],
    "plays": [
        {"state": "s", "profile": {"a": a, "b": b}, "outcome": "o"}
        for a, b in [("x", "x"), ("x", "y"), ("y", "x"), ("y", "y")]
    ],
    "valuation": {"p": [0, 2]},
}
_DEEP = "~" * 198 + "q"
_TMP_FILES = {
    "two.game": json.dumps(_TWO_AGENTS),
    "bad.proof": "premises: p\ngoal: K{a}p\n1. p ; premise\n2. K{a}p ; nec 1 {a}\n",
    "mp.proof": "premises: p ; p -> q\ngoal: q\n1. p ; premise\n2. p -> q ; premise\n3. q ; mp 1 2\n",
    "bad-formula.proof": "goal: p -> p\n1. p -> ; taut\n",
    "bad-coalition.proof": "goal: K{a}p\n1. p ; premise\n2. K{a}p ; nec 1 {a b}\n",
    # a premise 199 levels deep: discharging p weakens it to a 201-deep line
    "deep.proof": f"premises: p ; {_DEEP}\ngoal: {_DEEP}\n1. {_DEEP} ; premise\n",
}
_DEDUCED = (
    "premises: p -> q\ngoal: p -> q\n1. p -> p ; taut\n2. p -> q ; premise\n"
    "3. (p -> q) -> p -> p -> q ; taut\n4. p -> p -> q ; mp 2 3\n"
    "5. (p -> p) -> (p -> p -> q) -> p -> q ; taut\n6. (p -> p -> q) -> p -> q ; mp 1 5\n"
    "7. p -> q ; mp 4 6\n"
)
_SWEEP_COUNTS = {
    "Truth-K": 96, "Truth-B": 96, "Distributivity": 96, "NegativeIntrospection": 96,
    "Monotonicity-K": 128, "Monotonicity-B": 128, "NoneToBlame": 96,
    "BlamelessnessOfTruth": 96, "JointResponsibility": 96, "BlameForKnownCause": 96,
    "KnowledgeOfFairness": 96, "Necessitation": 64,
}
_NECESSITATION_FAILURE = "necessitation applied to a premise-dependent line"
_TRUCK_3 = ["--play", "3", "--formula", "B{c}col"]

# name -> (argv, exit code, text stdout, --json document without timing_ms);
# "{tmp}" in argv is the directory holding _TMP_FILES
GOLDEN = {
    "eval-true": (
        ["eval", "--game", "truck_selfdriving.game", *_TRUCK_3], 0, "true\n",
        {"command": "eval", "verdict": "true"},
    ),
    "eval-false": (
        ["eval", "--game", "truck_manual.game", *_TRUCK_3], 1, "false\n",
        {"command": "eval", "verdict": "false"},
    ),
    "extension": (
        ["extension", "--game", "truck_manual.game", "--formula", "col"], 0, "ok\n0 3\n",
        {"command": "extension", "verdict": "ok", "data": {"extension": [0, 3]}},
    ),
    "extension-empty": (
        ["extension", "--game", "truck_manual.game", "--formula", "col & ~col"], 0, "ok\n\n",
        {"command": "extension", "verdict": "ok", "data": {"extension": []}},
    ),
    "validity-valid": (
        ["validity", "--game", "truck_manual.game", "--formula", "K{c}col -> col"], 0, "valid\n",
        {"command": "validity", "verdict": "valid"},
    ),
    "validity-invalid": (
        ["validity", "--game", "truck_manual.game", "--formula", "col"], 1, "invalid\n",
        {"command": "validity", "verdict": "invalid"},
    ),
    "witness-found": (
        ["witness", "--game", "truck_selfdriving.game", *_TRUCK_3], 0,
        "witness\nwitness: {c: speed-up}\n",
        {"command": "witness", "verdict": "witness", "witness": {"c": "speed-up"}},
    ),
    "witness-two-agents": (
        ["witness", "--game", "{tmp}/two.game", "--play", "0", "--formula", "B{b,a}p"], 0,
        "witness\nwitness: {a: x, b: y}\n",
        {"command": "witness", "verdict": "witness", "witness": {"a": "x", "b": "y"}},
    ),
    "witness-none": (
        ["witness", "--game", "truck_manual.game", *_TRUCK_3], 1, "none\n",
        {"command": "witness", "verdict": "none"},
    ),
    "entail-entailed": (
        ["entail", "--game", "truck_manual.game", "--formula", "B{c}col -> col"], 0, "entailed\n",
        {"command": "entail", "verdict": "entailed"},
    ),
    "entail-not-entailed": (
        ["entail", "--game", "truck_manual.game", "--premises", "col", "--formula", "K{}col"], 1,
        "not-entailed\n",
        {"command": "entail", "verdict": "not-entailed"},
    ),
    "prove-valid": (
        ["prove", "--script", "lemma8.proof"], 0, "valid\n",
        {"command": "prove", "verdict": "valid"},
    ),
    "prove-invalid": (
        ["prove", "--script", "{tmp}/bad.proof"], 1, f"invalid\nline 2: {_NECESSITATION_FAILURE}\n",
        {"command": "prove", "verdict": "invalid",
         "data": {"line": 2, "reason": _NECESSITATION_FAILURE}},
    ),
    "deduce": (
        ["deduce", "--script", "{tmp}/mp.proof", "--phi", "p"], 0, _DEDUCED,
        {"command": "deduce", "verdict": "ok", "data": {"script": _DEDUCED}},
    ),
    "gen": (
        ["gen", "--seed", "5"], 0, json.dumps(_GEN5, indent=2) + "\n",
        {"command": "gen", "verdict": "ok", "data": {"game": _GEN5}},
    ),
    "sweep": (
        ["sweep", "--trials", "2", "--seed", "1"], 0,
        "0 violations / 2 trials\nchecked: "
        + ", ".join(f"{name}={n}" for name, n in sorted(_SWEEP_COUNTS.items())) + "\n",
        {"command": "sweep", "verdict": "0 violations / 2 trials", "violations": [],
         "data": {"counts": _SWEEP_COUNTS}},
    ),
    "search-found": (
        ["search", "--formula", "B{a}p -> K{a}p"], 1,
        "countermodel\n" + json.dumps(_COUNTERMODEL, indent=2) + "\nplay: 0\n",
        {"command": "search", "verdict": "countermodel",
         "witness": {"game": _COUNTERMODEL, "play": 0}},
    ),
    "search-none": (
        ["search", "--formula", "K{a}p -> p", "--budget", "50"], 0, "none\n",
        {"command": "search", "verdict": "none"},
    ),
    # a budget past sys.maxsize: the search ends with the bounded space
    "search-none-huge-budget": (
        ["search", "--formula", "K{a}p -> p", "--budget", "1" + "0" * 24], 0, "none\n",
        {"command": "search", "verdict": "none"},
    ),
}

# name -> (argv, the stderr line); stdout stays empty in both modes
GOLDEN_ERRORS = {
    "gen-negative-seed": (["gen", "--seed", "-1"], "seed must be an unsigned 64-bit integer"),
    "search-zero-budget": (
        ["search", "--formula", "p", "--budget", "0"], "max_candidates must be at least 1"
    ),
    "sweep-negative-trials": (["sweep", "--trials", "-3"], "trials must be nonnegative"),
    "play-out-of-range": (
        ["eval", "--game", "truck_manual.game", "--play", "99", "--formula", "col"],
        "play index out of range: 99 (game has 4 plays)",
    ),
    "witness-needs-blame": (
        ["witness", "--game", "truck_manual.game", "--play", "3", "--formula", "K{c}col"],
        "witness needs a formula of the form B{...}...",
    ),
    "missing-game": (
        ["eval", "--game", "no-such.game", "--play", "0", "--formula", "col"],
        "no such file or bundled asset: no-such.game",
    ),
    "bad-formula": (
        ["eval", "--game", "truck_manual.game", "--play", "0", "--formula", "p ->"],
        "unexpected 'end of input' at byte 4, expected one of "
        "['IDENT', 'LPAREN', 'NOT', 'POSSK']",
    ),
    # a proof script's formula or coalition error names the script line and
    # counts bytes from that line's start
    "proof-bad-formula": (
        ["prove", "--script", "{tmp}/bad-formula.proof"],
        "line 2: unexpected 'end of input' at byte 8, expected one of "
        "['IDENT', 'LPAREN', 'NOT', 'POSSK']",
    ),
    "proof-bad-coalition": (
        ["prove", "--script", "{tmp}/bad-coalition.proof"],
        "line 3: unexpected 'b' at byte 20, expected one of ['RBRACE']",
    ),
    # deduce prints no script that prove cannot read, and names its first
    # line past the parser's bounds: line 4, `2. D -> p -> D ; taut`
    "deduce-too-deep": (
        ["deduce", "--script", "{tmp}/deep.proof", "--phi", "p"],
        "the deduced script does not parse: line 4: formula nested too deeply",
    ),
}


def _golden_run(capsys, tmp_path, argv):
    for name, text in _TMP_FILES.items():
        (tmp_path / name).write_text(text)
    code = cli.run([a.replace("{tmp}", str(tmp_path)) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _without_timing(out):
    doc = json.loads(out)
    timing = doc.pop("timing_ms")
    assert isinstance(timing, float)
    assert out == json.dumps({**doc, "timing_ms": timing}, indent=2) + "\n"
    return doc


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_report(capsys, tmp_path, name):
    argv, code, text, doc = GOLDEN[name]
    assert _golden_run(capsys, tmp_path, argv) == (code, text, "")
    got_code, out, err = _golden_run(capsys, tmp_path, [*argv, "--json"])
    assert (got_code, err) == (code, "")
    got = _without_timing(out)
    assert json.dumps(got) == json.dumps(doc)  # key order too


@pytest.mark.parametrize("name", sorted(GOLDEN_ERRORS))
@pytest.mark.parametrize("mode", [[], ["--json"]])
def test_golden_error(capsys, tmp_path, name, mode):
    argv, message = GOLDEN_ERRORS[name]
    assert _golden_run(capsys, tmp_path, [*argv, *mode]) == (2, "", f"error: {message}\n")


def test_golden_search_takes_no_seed(capsys, tmp_path):
    # the search draws nothing, so there is no seed to give it: a usage error
    with pytest.raises(SystemExit) as exc:
        _golden_run(capsys, tmp_path, ["search", "--formula", "p", "--seed", "1"])
    captured = capsys.readouterr()
    assert (exc.value.code, captured.out) == (2, "")
    assert captured.err.endswith("error: unrecognized arguments: --seed 1\n")
    assert "Traceback" not in captured.err


def test_golden_sweep_lists_at_most_ten_violations(capsys, tmp_path, monkeypatch):
    game = load_game(json.dumps(_ONE_PLAY))
    formula = parse_formula("K{a}p -> p")
    violations = tuple(SweepViolation("Truth-K", t, game, 0, formula) for t in range(12))

    def twelve_violations(params, trials):
        return SweepReport(trials, {"Truth-K": 12}, violations)

    monkeypatch.setattr("blamelogic.generator.soundness_sweep", twelve_violations)
    argv = ["sweep", "--trials", "12"]
    lines = [f"violation: Truth-K at trial {t} play 0: K{{a}}p -> p" for t in range(10)]
    text = "\n".join(["12 violations / 12 trials", *lines, "checked: Truth-K=12"]) + "\n"
    assert _golden_run(capsys, tmp_path, argv) == (1, text, "")
    code, out, err = _golden_run(capsys, tmp_path, [*argv, "--json"])
    assert (code, err) == (1, "")
    doc = {
        "command": "sweep",
        "verdict": "12 violations / 12 trials",
        "violations": [
            {"schema": "Truth-K", "trial": t, "play": 0, "formula": "K{a}p -> p",
             "game": _ONE_PLAY}
            for t in range(12)
        ],
        "data": {"counts": {"Truth-K": 12}},
    }
    assert json.dumps(_without_timing(out)) == json.dumps(doc)
