"""Command-line front end.

Subcommands: eval, extension, validity, witness, entail, prove, deduce,
gen, sweep, search.  Exit codes: 0 = success/true/valid, 1 =
false/invalid/countermodel-found, 2 = usage or input error.  `--json`
switches to a machine-readable report.

Game and script paths are tried on the filesystem first and then against
the bundled assets, so `--game truck_manual.game` works out of the box.
Plays are addressed by 0-based index into the game file's plays array.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from .bundle import asset_path
from .errors import BlamelogicError
from .game import game_to_document, load_game
from .generator import (
    GenParams,
    SearchBudget,
    find_countermodel,
    gen_game,
    soundness_sweep,
)
from .hilbert import check_proof, deduction_transform, format_proof, parse_proof
from .semantics import (
    blame_witness,
    evaluate,
    extension,
    is_valid,
    semantic_entailment,
)
from .syntax import Blames, parse_formula, print_formula


def _read_input(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except FileNotFoundError:
        bundled = asset_path(path)
        if bundled.is_file():
            return bundled.read_text(encoding="utf-8")
        raise BlamelogicError(f"no such file or bundled asset: {path}") from None


def _load_game_arg(args):
    return load_game(_read_input(args.game))


def _play_arg(game, args):
    if not 0 <= args.play < len(game.plays):
        raise BlamelogicError(
            f"play index out of range: {args.play} (game has {len(game.plays)} plays)"
        )
    return game.plays[args.play]


def _cmd_eval(args):
    game = _load_game_arg(args)
    play = _play_arg(game, args)
    value = evaluate(game, play, parse_formula(args.formula))
    return {"verdict": "true" if value else "false"}, 0 if value else 1


def _cmd_extension(args):
    game = _load_game_arg(args)
    indices = sorted(extension(game, parse_formula(args.formula)))
    return {"verdict": "ok", "data": {"extension": indices}}, 0


def _cmd_validity(args):
    game = _load_game_arg(args)
    value = is_valid(game, parse_formula(args.formula))
    return {"verdict": "valid" if value else "invalid"}, 0 if value else 1


def _cmd_witness(args):
    game = _load_game_arg(args)
    play = _play_arg(game, args)
    formula = parse_formula(args.formula)
    if not isinstance(formula, Blames):
        raise BlamelogicError("witness needs a formula of the form B{...}...")
    strategy = blame_witness(game, play, formula.coalition, formula.inner)
    if strategy is None:
        return {"verdict": "none"}, 1
    return {"verdict": "witness", "witness": dict(strategy.choice)}, 0


def _cmd_entail(args):
    game = _load_game_arg(args)
    hypotheses = [
        parse_formula(part) for part in args.premises.split(";") if part.strip()
    ]
    value = semantic_entailment(game, hypotheses, parse_formula(args.formula))
    return {"verdict": "entailed" if value else "not-entailed"}, 0 if value else 1


def _cmd_prove(args):
    script = parse_proof(_read_input(args.script))
    report = check_proof(script)
    if report.valid:
        return {"verdict": "valid"}, 0
    return {
        "verdict": "invalid",
        "data": {"line": report.error_line, "reason": report.reason},
    }, 1


def _cmd_deduce(args):
    script = parse_proof(_read_input(args.script))
    transformed = deduction_transform(script, parse_formula(args.phi))
    return {"verdict": "ok", "data": {"script": format_proof(transformed)}}, 0


def _cmd_gen(args):
    game = gen_game(GenParams(seed=args.seed))
    return {"verdict": "ok", "data": {"game": game_to_document(game)}}, 0


def _cmd_sweep(args):
    if args.trials < 0:
        raise BlamelogicError("trials must be nonnegative")
    report = soundness_sweep(GenParams(seed=args.seed), args.trials)
    violations = [
        {
            "schema": v.schema,
            "trial": v.trial,
            "play": v.play_index,
            "formula": print_formula(v.formula),
            "game": game_to_document(v.game),
        }
        for v in report.violations
    ]
    doc = {
        "verdict": f"{len(violations)} violations / {report.trials} trials",
        "violations": violations,
        "data": {"counts": report.counts},
    }
    return doc, 0 if report.ok else 1


def _cmd_search(args):
    formula = parse_formula(args.formula)
    budget = SearchBudget(
        max_candidates=args.budget,
        ceiling=GenParams(num_states=2, seed=args.seed),
    )
    found = find_countermodel(formula, budget)
    if found is None:
        return {"verdict": "none"}, 0
    game, idx = found
    witness = {"game": game_to_document(game), "play": idx}
    return {"verdict": "countermodel", "witness": witness}, 1


def format_report(report: dict, as_json: bool = False) -> str:
    """Render a command report for humans, or as one JSON document."""
    if as_json:
        return json.dumps(report, indent=2)
    data = report.get("data", {})
    # deduce and gen emit their payload bare so it can be piped to a file
    if "script" in data:
        return data["script"].rstrip("\n")
    if "game" in data:
        return json.dumps(data["game"], indent=2)
    lines = [report["verdict"]]
    witness = report.get("witness")
    if isinstance(witness, dict) and "game" in witness:
        lines.append(json.dumps(witness["game"], indent=2))
        lines.append(f"play: {witness['play']}")
    elif witness is not None:
        inner = ", ".join(f"{a}: {witness[a]}" for a in sorted(witness))
        lines.append("witness: {" + inner + "}")
    for violation in report.get("violations", ())[:10]:
        lines.append(
            f"violation: {violation['schema']} at trial {violation['trial']} "
            f"play {violation['play']}: {violation['formula']}"
        )
    if "extension" in data:
        lines.append(" ".join(str(i) for i in data["extension"]))
    if "line" in data:
        lines.append(f"line {data['line']}: {data['reason']}")
    if "counts" in data:
        lines.append(
            "checked: "
            + ", ".join(f"{name}={n}" for name, n in sorted(data["counts"].items()))
        )
    return "\n".join(lines)


_COMMANDS = {
    "eval": _cmd_eval,
    "extension": _cmd_extension,
    "validity": _cmd_validity,
    "witness": _cmd_witness,
    "entail": _cmd_entail,
    "prove": _cmd_prove,
    "deduce": _cmd_deduce,
    "gen": _cmd_gen,
    "sweep": _cmd_sweep,
    "search": _cmd_search,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="blamelogic",
        description="Model checking and proof checking for the knowledge/"
        "blameworthiness logic over finite strategic games.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_, *specs):
        p = sub.add_parser(name, help=help_)
        for flags, opts in specs:
            p.add_argument(flags, **opts)
        p.add_argument("--json", action="store_true", help="machine-readable output")
        return p

    game_flag = ("--game", {"required": True, "metavar": "PATH"})
    play_flag = ("--play", {"required": True, "type": int, "metavar": "N"})
    formula_flag = ("--formula", {"required": True, "metavar": "TEXT"})
    script_flag = ("--script", {"required": True, "metavar": "PATH"})

    add("eval", "truth of a formula at one play", game_flag, play_flag, formula_flag)
    add("extension", "play indices where a formula holds", game_flag, formula_flag)
    add("validity", "truth of a formula at every play", game_flag, formula_flag)
    add("witness", "preventing strategy behind B{...}", game_flag, play_flag, formula_flag)
    add(
        "entail",
        "playwise consequence from hypotheses",
        game_flag,
        formula_flag,
        ("--premises", {"default": "", "metavar": "TEXT", "help": "';'-separated"}),
    )
    add("prove", "check a proof script", script_flag)
    add(
        "deduce",
        "discharge a premise via the deduction transform",
        script_flag,
        ("--phi", {"required": True, "metavar": "TEXT"}),
    )
    add("gen", "generate a random game", ("--seed", {"type": int, "default": 0}))
    add(
        "sweep",
        "axiom soundness sweep over random games",
        ("--trials", {"type": int, "default": 1000, "metavar": "N"}),
        ("--seed", {"type": int, "default": 0}),
    )
    add(
        "search",
        "bounded countermodel search",
        formula_flag,
        ("--budget", {"type": int, "default": 5000, "metavar": "N"}),
        ("--seed", {"type": int, "default": 0}),
    )
    return parser


def run(argv) -> int:
    """Dispatch one command; returns the exit code."""
    args = build_parser().parse_args(argv)
    started = time.perf_counter()
    try:
        report, code = _COMMANDS[args.command](args)
    except (BlamelogicError, ValueError, OSError, RecursionError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    report = {"command": args.command, **report}
    report["timing_ms"] = round((time.perf_counter() - started) * 1000, 3)
    print(format_report(report, args.json))
    return code


def main(argv=None) -> int:
    return run(sys.argv[1:] if argv is None else argv)


if __name__ == "__main__":
    sys.exit(main())
