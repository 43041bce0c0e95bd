"""Command-line front end.

Subcommands: eval, extension, validity, witness, entail, prove, deduce,
gen, sweep, search.  Exit codes: 0 = success/true/valid, 1 =
false/invalid/countermodel-found, 2 = usage or input error, 141 =
stdout closed before the output was written (128 + SIGPIPE).  Each
subcommand is registered once in build_parser with its handler, which
returns its report, exit code and human-readable text; `--json` prints
the report as one JSON document instead of the text.

Game and script paths are tried on the filesystem first and then against
the bundled assets, so `--game truck_manual.game` works out of the box.
Plays are addressed by 0-based index into the game file's plays array.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from .bundle import asset_path
from .errors import BlamelogicError
from .game import game_to_document, load_game
from .semantics import blame_witness, evaluate, extension, is_valid, semantic_entailment
from .syntax import Blames, parse_formula, print_formula

# Only prove and deduce need hilbert, and only gen, sweep and search need
# generator: their names are read from the package on first use, and the
# handlers reach them through this module object (`_cli.name`), so that a
# patched attribute is seen, also when the module runs as __main__.
_LAZY = frozenset(
    "check_proof deduction_transform format_proof parse_proof"
    " GenParams SearchBudget find_countermodel gen_game soundness_sweep".split()
)
_cli = sys.modules[__name__]

EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE, as a shell reports a process killed by it


def __getattr__(name):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(sys.modules[__package__], name)


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


def _verdict(value, yes, no):
    """Report, exit code and text for a yes/no answer: yes exits 0, no exits 1."""
    verdict = yes if value else no
    return {"verdict": verdict}, 0 if value else 1, verdict


def _cmd_eval(args):
    game = _load_game_arg(args)
    play = _play_arg(game, args)
    return _verdict(evaluate(game, play, parse_formula(args.formula)), "true", "false")


def _cmd_extension(args):
    game = _load_game_arg(args)
    indices = sorted(extension(game, parse_formula(args.formula)))
    text = "ok\n" + " ".join(str(i) for i in indices)
    return {"verdict": "ok", "data": {"extension": indices}}, 0, text


def _cmd_validity(args):
    game = _load_game_arg(args)
    return _verdict(is_valid(game, parse_formula(args.formula)), "valid", "invalid")


def _cmd_witness(args):
    game = _load_game_arg(args)
    play = _play_arg(game, args)
    formula = parse_formula(args.formula)
    if not isinstance(formula, Blames):
        raise BlamelogicError("witness needs a formula of the form B{...}...")
    strategy = blame_witness(game, play, formula.coalition, formula.inner)
    if strategy is None:
        return {"verdict": "none"}, 1, "none"
    report = {"verdict": "witness", "witness": dict(strategy.choice)}
    return report, 0, f"witness\nwitness: {strategy.describe()}"


def _cmd_entail(args):
    game = _load_game_arg(args)
    hypotheses = [
        parse_formula(part) for part in args.premises.split(";") if part.strip()
    ]
    value = semantic_entailment(game, hypotheses, parse_formula(args.formula))
    return _verdict(value, "entailed", "not-entailed")


def _cmd_prove(args):
    script = _cli.parse_proof(_read_input(args.script))
    report = _cli.check_proof(script)
    if report.valid:
        return {"verdict": "valid"}, 0, "valid"
    data = {"line": report.error_line, "reason": report.reason}
    text = f"invalid\nline {report.error_line}: {report.reason}"
    return {"verdict": "invalid", "data": data}, 1, text


# deduce and gen print their payload bare, so it can be piped to a file
def _cmd_deduce(args):
    script = _cli.parse_proof(_read_input(args.script))
    text = _cli.format_proof(_cli.deduction_transform(script, parse_formula(args.phi)))
    return {"verdict": "ok", "data": {"script": text}}, 0, text.rstrip("\n")


def _cmd_gen(args):
    doc = game_to_document(_cli.gen_game(_cli.GenParams(seed=args.seed)))
    return {"verdict": "ok", "data": {"game": doc}}, 0, json.dumps(doc, indent=2)


def _cmd_sweep(args):
    if args.trials < 0:
        raise BlamelogicError("trials must be nonnegative")
    report = _cli.soundness_sweep(_cli.GenParams(seed=args.seed), args.trials)
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
    verdict = f"{len(violations)} violations / {report.trials} trials"
    lines = [verdict] + [
        f"violation: {v['schema']} at trial {v['trial']} play {v['play']}: {v['formula']}"
        for v in violations[:10]
    ]
    counts = ", ".join(f"{name}={n}" for name, n in sorted(report.counts.items()))
    lines.append(f"checked: {counts}")
    doc = {"verdict": verdict, "violations": violations, "data": {"counts": report.counts}}
    return doc, 0 if report.ok else 1, "\n".join(lines)


def _cmd_search(args):
    formula = parse_formula(args.formula)
    found = _cli.find_countermodel(formula, _cli.SearchBudget(args.budget, args.seed))
    if found is None:
        return {"verdict": "none"}, 0, "none"
    game, idx = found
    doc = game_to_document(game)
    report = {"verdict": "countermodel", "witness": {"game": doc, "play": idx}}
    return report, 1, f"countermodel\n{json.dumps(doc, indent=2)}\nplay: {idx}"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="blamelogic",
        description="Model checking and proof checking for the knowledge/"
        "blameworthiness logic over finite strategic games.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, handler, help_, *specs):
        p = sub.add_parser(name, help=help_)
        for flags, opts in specs:
            p.add_argument(flags, **opts)
        p.add_argument("--json", action="store_true", help="machine-readable output")
        p.set_defaults(handler=handler)

    game_flag = ("--game", {"required": True, "metavar": "PATH"})
    play_flag = ("--play", {"required": True, "type": int, "metavar": "N"})
    formula_flag = ("--formula", {"required": True, "metavar": "TEXT"})
    script_flag = ("--script", {"required": True, "metavar": "PATH"})
    seed_flag = ("--seed", {"type": int, "default": 0})

    add("eval", _cmd_eval, "truth of a formula at one play", game_flag, play_flag, formula_flag)
    add("extension", _cmd_extension, "play indices where a formula holds", game_flag, formula_flag)
    add("validity", _cmd_validity, "truth of a formula at every play", game_flag, formula_flag)
    add("witness", _cmd_witness, "preventing strategy behind B{...}",
        game_flag, play_flag, formula_flag)
    add("entail", _cmd_entail, "playwise consequence from hypotheses", game_flag, formula_flag,
        ("--premises", {"default": "", "metavar": "TEXT", "help": "';'-separated"}))
    add("prove", _cmd_prove, "check a proof script", script_flag)
    add("deduce", _cmd_deduce, "discharge a premise via the deduction transform",
        script_flag, ("--phi", {"required": True, "metavar": "TEXT"}))
    add("gen", _cmd_gen, "generate a random game", seed_flag)
    add("sweep", _cmd_sweep, "axiom soundness sweep over random games",
        ("--trials", {"type": int, "default": 1000, "metavar": "N"}), seed_flag)
    add("search", _cmd_search, "bounded countermodel search", formula_flag,
        ("--budget", {"type": int, "default": 5000, "metavar": "N"}), seed_flag)
    return parser


def run(argv) -> int:
    """Dispatch one command; returns the exit code."""
    args = build_parser().parse_args(argv)
    started = time.perf_counter()
    try:
        report, code, text = args.handler(args)
    except (BlamelogicError, ValueError, OSError, RecursionError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    report = {"command": args.command, **report}
    report["timing_ms"] = round((time.perf_counter() - started) * 1000, 3)
    try:
        print(json.dumps(report, indent=2) if args.json else text)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader is gone: send what is still buffered to the null
        # device, so that the flush at interpreter exit cannot fail again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_BROKEN_PIPE
    return code


def main(argv=None) -> int:
    return run(sys.argv[1:] if argv is None else argv)


if __name__ == "__main__":
    sys.exit(main())
