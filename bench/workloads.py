"""The four workloads: seeded inputs, expected answers, and one op each.

Each workload builds its inputs from the seed in `generate` (benchmark
code only), warms the freshly imported program up with fixed calls in
`warm_up`, computes the answer every op must give in `expect` (from
reference.py, or from the structure of the inputs), and runs one op in
`run`, which returns whether the op gave its expected answer.  Ops come in
cycles of fixed composition; a run stops only at a cycle boundary, so every
run measures the same mix.  The program is reached only through module
attributes looked up at call time, so that the traced run sees every call.
"""

import json
import os
import random
import subprocess
import sys
from time import perf_counter

import inputs
from inputs import axiom, from_program, show
from reference import Model, is_total

# A query is drawn only if its naive work (reference.Model.naive_work) is
# at most this.  Above it, today's engine takes seconds per query on the
# 2450-play game, and a handful of draws would decide a run's numbers.
WORK_CAP = 25 * 10**4
# ...and only if it has at most this many nodes (the 98th percentile of
# depth-5 draws).  The program keeps a memo entry per (subformula, play),
# so the largest formula a run happens to draw would set its peak RSS.
SIZE_CAP = 20


def _rng(workload, seed, *salt):
    return random.Random("/".join(["blamelogic-bench", workload, str(seed), *map(str, salt)]))


class Workload:
    name = ""
    cycle = 1  # ops per cycle

    def __init__(self, root, seed):
        self.root = root
        self.seed = seed
        self.ops = []
        self.shape = {}

    def warm_up(self, bl):
        self.syntax = bl.syntax
        self.game = bl.game
        self.semantics = bl.semantics
        self.hilbert = bl.hilbert
        self.generator = bl.generator

    def finish_shape(self):
        """Add shape counts that the run itself produced."""


# ---------------------------------------------------------------------------
# modelcheck


class ModelCheck(Workload):
    """Library users asking point and global questions about big games."""

    name = "modelcheck"
    # (agents, states, actions, outcomes, variables, branching): the generator
    # ceiling, a middle size, and 4 agents x 4 actions x 8 states
    SHAPES = ((3, 4, 3, 3, 4, 0.15), (4, 6, 3, 3, 4, 0.1), (4, 8, 4, 3, 4, 0.1))
    CYCLES = 40  # distinct cycles; a run that gets through more repeats them
    cycle = len(SHAPES) * 21  # per game: one load, 12 point and 8 global queries

    def generate(self):
        self.plays = []  # per round, the plays of its game
        for c in range(self.CYCLES):
            for s, shape in enumerate(self.SHAPES):
                self._round(_rng(self.name, self.seed, c, s), shape)
        self.loaded = None  # the game of the current round

    def warm_up(self, bl):
        super().warm_up(bl)
        rng = _rng(self.name, "warm-up")
        doc = inputs.game_doc(rng, *self.SHAPES[0])
        g = self.game.load_game(inputs.game_text(doc))
        f = self.syntax.parse_formula(show(inputs.formula(rng, 5, ["p0"], doc["agents"])))
        self.semantics.evaluate(g, g.plays[0], f)
        self.semantics.extension(g, f)

    def _round(self, rng, shape):
        doc = inputs.game_doc(rng, *shape)
        model = Model(doc)
        self.plays.append(model.n)
        agents, variables = doc["agents"], sorted(doc["valuation"])
        first = len(self.ops)
        self.ops.append({"kind": "load", "text": inputs.game_text(doc)})

        def bounded(depth=5, plays=None, cap=SIZE_CAP):
            """A formula within the caps; naive work at `plays` (default all)."""
            while True:
                f = inputs.formula(rng, depth, variables, agents)
                if inputs.size(f) <= cap and model.naive_work(f, plays) <= WORK_CAP:
                    return f

        kinds = ["evaluate"] * 6 + ["blame_witness"] * 6
        kinds += ["extension"] * 3 + ["is_valid"] * 3 + ["semantic_entailment"] * 2
        rng.shuffle(kinds)
        for kind in kinds:
            op = {"kind": kind}
            if kind == "evaluate":
                op["play"] = rng.randrange(model.n)
                op["tree"] = bounded(5, [op["play"]])
            elif kind == "blame_witness":
                op["play"] = rng.randrange(model.n)
                op["coalition"] = inputs.coalition(rng, agents)
                while True:
                    op["tree"] = inputs.formula(rng, 4, variables, agents)
                    blame = ("B", op["coalition"], op["tree"])
                    if (
                        inputs.size(blame) <= SIZE_CAP
                        and model.naive_work(blame, [op["play"]]) <= WORK_CAP
                    ):
                        break
            elif kind == "extension":
                op["tree"] = bounded()
            elif kind == "is_valid":
                # half are axiom instances, which hold at every play
                op["tree"] = bounded()
                if rng.random() < 0.5:
                    op["tree"] = self._valid_instance(rng, model, variables, agents)
                    if op["tree"] is None:  # f -> f holds at every play too
                        f = bounded(cap=(SIZE_CAP - 1) // 2)
                        op["tree"] = ("i", f, f)
            else:
                op["premises"] = [bounded() for _ in range(rng.randint(1, 2))]
                op["premise_texts"] = [show(p) for p in op["premises"]]
                # half weaken a premise, so that entailment holds
                if rng.random() < 0.5:
                    p = rng.choice(op["premises"])
                    rest = max(1, SIZE_CAP - 1 - inputs.size(p))
                    op["tree"] = ("o", p, bounded(cap=rest))
                else:
                    op["tree"] = bounded()
            op["text"] = show(op["tree"])
            self.ops.append(op)
        # answers now, so that the round's reference model, several times
        # the size of the game, is freed before the next round: the run's
        # peak RSS is then mostly the program's
        for op in self.ops[first:]:
            op["expected"] = self._answer(model, op)

    @staticmethod
    def _valid_instance(rng, model, variables, agents, tries=100):
        """An axiom instance within the caps, or None."""
        for _ in range(tries):
            name = rng.choice(inputs.AXIOM_NAMES)
            phi = inputs.formula(rng, 1, variables, agents)
            psi = inputs.formula(rng, 1, variables, agents)
            c = inputs.coalition(rng, agents)
            d = tuple(a for a in agents if a not in c and rng.random() < 0.5)
            if name.startswith("Monotonicity"):
                c, d = tuple(a for a in c if rng.random() < 0.5), c
            f = axiom(name, phi, psi, c, d)
            if inputs.size(f) <= SIZE_CAP and model.naive_work(f) <= WORK_CAP:
                return f
        return None

    @staticmethod
    def _answer(model, op):
        kind = op["kind"]
        if kind == "load":
            return model.n
        if kind == "evaluate":
            return model.holds(op["tree"], op["play"])
        if kind == "blame_witness":
            return model.witness(op["coalition"], op["tree"], op["play"])
        if kind == "extension":
            return model.extension(op["tree"])
        if kind == "is_valid":
            return model.is_valid(op["tree"])
        return model.entails(op["premises"], op["tree"])

    def expect(self):
        """Answers were computed with the inputs; only the shape is left."""
        queries = [op for op in self.ops if op["kind"] != "load"]
        plays = self.plays
        self.shape = {
            "plays_per_game_mean": _mean(plays),
            "plays_per_game_max": max(plays),
            "subformulas_mean": _mean(inputs.size(op["tree"]) for op in queries),
            "blame_coalition_max": max(
                max(inputs.max_blame_coalition(op["tree"]), len(op.get("coalition", ())))
                for op in queries
            ),
            "point_share": _mean(op["kind"] in ("evaluate", "blame_witness") for op in queries),
        }

    def run(self, op):
        kind = op["kind"]
        if kind == "load":
            game = self.game.load_game(op["text"])
            # replacing the previous round's game frees it inside this op,
            # the same way in every round
            self.loaded = game
            return len(game.plays) == op["expected"]
        game = self.loaded
        parse = self.syntax.parse_formula
        sem = self.semantics
        if kind == "evaluate":
            got = sem.evaluate(game, game.plays[op["play"]], parse(op["text"]))
        elif kind == "blame_witness":
            strategy = sem.blame_witness(
                game, game.plays[op["play"]], set(op["coalition"]), parse(op["text"])
            )
            got = None if strategy is None else dict(strategy.choice)
        elif kind == "extension":
            got = sem.extension(game, parse(op["text"]))
        elif kind == "is_valid":
            got = sem.is_valid(game, parse(op["text"]))
        else:
            premises = [parse(t) for t in op["premise_texts"]]
            got = sem.semantic_entailment(game, premises, parse(op["text"]))
        return got == op["expected"]


# ---------------------------------------------------------------------------
# sweep


def _nontheorems(rng):
    """Formulas with a small countermodel, which the search finds at once."""
    p, q = rng.sample([("v", "p"), ("v", "q"), ("v", "r")], 2)
    x, y = rng.sample(["a", "b"], 2)
    return [
        ("i", ("B", (x,), p), ("K", (x,), p)),
        ("i", p, ("K", (x,), p)),
        ("i", ("K", tuple(sorted((x, y))), p), ("K", (x,), p)),
        ("i", p, ("B", (x,), p)),
        ("i", ("B", (x,), p), ("B", (y,), p)),
        ("i", ("n", ("K", (x,), p)), ("K", (x,), ("n", p))),
        ("i", ("K", (x,), p), ("K", (x,), q)),
        ("i", ("B", tuple(sorted((x, y))), p), ("B", (x,), p)),
    ]


class Sweep(Workload):
    """The axiom-testing loops: soundness sweep trials and countermodel search."""

    name = "sweep"
    # per cycle: 12 one-trial sweeps, 7 searches that find a countermodel and
    # one on a Truth-K or Truth-B instance, which exhausts the budget; other
    # schemas exhaust it too, but at costs up to 3x apart, which would make
    # a run's numbers depend on which schemas it reached
    SWEEPS, FOUND, SOUND = 12, 7, 1
    CYCLES = 40
    cycle = SWEEPS + FOUND + SOUND

    def generate(self):
        for c in range(self.CYCLES):
            rng = _rng(self.name, self.seed, c)
            kinds = ["sweep"] * self.SWEEPS + ["found"] * self.FOUND + ["sound"] * self.SOUND
            rng.shuffle(kinds)
            candidates = _nontheorems(rng)
            for kind in kinds:
                if kind == "sweep":
                    self.ops.append({"kind": "sweep", "seed": rng.getrandbits(63)})
                    continue
                if kind == "found":
                    tree = rng.choice(candidates)
                else:
                    name = rng.choice(("Truth-K", "Truth-B"))
                    tree = axiom(name, ("v", rng.choice("pq")), None, ("a",), ())
                self.ops.append({"kind": kind, "tree": tree, "text": show(tree)})

    def warm_up(self, bl):
        super().warm_up(bl)
        gen = self.generator
        gen.soundness_sweep(gen.GenParams(seed=0), 1)
        gen.find_countermodel(self.syntax.parse_formula("B{a}p -> K{a}p"))

    def expect(self):
        gen = self.generator
        # instances per schema in one sweep trial, from the sweep's design
        per_schema = {name: 3 for name in inputs.AXIOM_NAMES}
        per_schema["Monotonicity-K"] = per_schema["Monotonicity-B"] = 4
        plays = []
        for op in self.ops:
            if op["kind"] != "sweep":
                continue
            # trial 0 of the sweep draws its game and phi from these seeds
            game = gen.gen_game(gen.GenParams(seed=gen.derive_seed(op["seed"], 0, 0)))
            phi = gen.gen_formula(
                gen.GenParams(seed=gen.derive_seed(op["seed"], 0, 1)), game.agents
            )
            n = len(game.plays)
            counts = {name: k * n for name, k in per_schema.items()}
            valid = Model(inputs.doc_from_program(game)).is_valid(from_program(phi))
            counts["Necessitation"] = (1 << len(game.agents)) * n if valid else 0
            op["expected"] = counts
            plays.append(n)
        searched = [op["tree"] for op in self.ops if op["kind"] != "sweep"]
        self.shape = {
            "plays_per_game_mean": _mean(plays),
            "plays_per_game_max": max(plays),
            "subformulas_mean": _mean(map(inputs.size, searched)),
            "blame_coalition_max": max(map(inputs.max_blame_coalition, searched)),
            "point_share": 1.0,  # the sweep and search evaluate one play at a time
        }

    def run(self, op):
        gen = self.generator
        if op["kind"] == "sweep":
            report = gen.soundness_sweep(gen.GenParams(seed=op["seed"]), 1)
            return not report.violations and report.counts == op["expected"]
        found = gen.find_countermodel(self.syntax.parse_formula(op["text"]))
        if op["kind"] == "sound":
            return found is None
        if found is None:
            return False
        game, idx = found
        doc = inputs.doc_from_program(game)
        return is_total(doc) and not Model(doc).holds(op["tree"], idx)


# ---------------------------------------------------------------------------
# proofs


class Proofs(Workload):
    """Proof text in, verdict out: parse, check, discharge, print, re-check."""

    name = "proofs"
    CORPUS = (
        "lemma3.proof",
        "lemma4_inst.proof",
        "lemma5.proof",
        "lemma6_n2.proof",
        "lemma8.proof",
        "lemma9_n2.proof",
    )
    # random premise-mode scripts per cycle, after the corpus; each has two
    # premises, since every discharged premise triples the script and a
    # varying count would decide which ops are slow
    RANDOM = 60
    # random scripts longer than this (about the 94th percentile of draws)
    # are drawn again: lengths have a long tail, up to ~10 kB, and the few
    # largest of a seed would set its p90 latency; the corpus has the
    # large scripts
    SCRIPT_CAP = 900
    CYCLES = 6
    cycle = len(CORPUS) + RANDOM

    def generate(self):
        assets = self.root / "src" / "blamelogic" / "assets"
        corpus = [(n, (assets / n).read_text(encoding="utf-8")) for n in self.CORPUS]
        for c in range(self.CYCLES):
            rng = _rng(self.name, self.seed, c)
            texts = list(corpus)
            for k in range(self.RANDOM):
                text = inputs.script_text(*inputs.premise_script(rng, 2))
                while len(text) > self.SCRIPT_CAP:
                    text = inputs.script_text(*inputs.premise_script(rng, 2))
                texts.append((f"random-{c}-{k}", text))
            for name, text in texts:
                _, _, lines = inputs.split_script(text)
                # no premise is the negation of another, so a negated line
                # is rejected at that line whatever its justification
                bad = rng.randint(1, len(lines))
                mutant = inputs.negate_line(text, bad)
                self.ops.append({"name": name, "text": text, "mutant": mutant, "bad_line": bad})
        self.out_lines = {}
        self.out_bytes = {}

    def warm_up(self, bl):
        super().warm_up(bl)
        h = self.hilbert
        h.check_proof(h.parse_proof(self.ops[0]["text"]))

    def expect(self):
        parse = self.syntax.parse_formula
        atoms, lines = 0, []
        for op in self.ops:
            premises, goal, script = inputs.split_script(op["text"])
            discharged = goal
            for p in premises:
                discharged = f"({p}) -> ({discharged})"
            op["goal"] = parse(discharged)
            op["max_lines"] = len(script) * 3 ** len(premises)
            for _, text, just in script:
                if just == "taut":
                    tree = from_program(parse(text))
                    atoms = max(atoms, len(inputs.modal_atoms(tree)))
            lines.append(len(script))
        self.shape = {"script_lines_mean": _mean(lines), "taut_atoms_max": atoms}

    def run(self, op):
        h = self.hilbert
        script = h.parse_proof(op["text"])
        if not h.check_proof(script).valid:
            return False
        for premise in script.premises:
            script = h.deduction_transform(script, premise)
        text = h.format_proof(script)
        again = h.parse_proof(text)
        report = h.check_proof(again)
        mutant = h.check_proof(h.parse_proof(op["mutant"]))
        self.out_lines[op["name"]] = len(again.lines)
        self.out_bytes[op["name"]] = len(text.encode("utf-8"))
        return (
            report.valid
            and not again.premises
            and again.goal == op["goal"]
            and len(again.lines) <= op["max_lines"]
            and not mutant.valid
            and mutant.error_line == op["bad_line"]
        )

    def finish_shape(self):
        self.shape["script_lines_max"] = max(self.out_lines.values(), default=0)
        self.shape["script_bytes_max"] = max(self.out_bytes.values(), default=0)


# ---------------------------------------------------------------------------
# cli


class Cli(Workload):
    """One `python -m blamelogic.cli ... --json` child process per op."""

    name = "cli"
    CYCLES = 12
    TIMEOUT_S = 60
    # per cycle: every subcommand once or more, plus three bad inputs whose
    # documented answer is exit 2
    MIX = (
        "eval", "eval", "eval", "extension", "extension", "validity",
        "validity", "witness", "witness", "entail", "entail", "prove",
        "prove", "deduce", "gen", "sweep", "search", "missing-file",
        "bad-formula", "play-out-of-range",
    )  # fmt: skip
    cycle = len(MIX)
    # documented as exit 2 (input error) but exits 1 with a traceback at
    # the commit this benchmark was written for; run as a probe outside
    # the timed mix and reported as cli.known_defect_failures
    PROBE = ("eval", "--game", ".", "--play", "0", "--formula", "p")

    def generate(self):
        self.workdir = self.root / ".bench_out" / "cli"
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.env = dict(os.environ)
        src = str(self.root / "src")
        old = self.env.get("PYTHONPATH")
        self.env["PYTHONPATH"] = src + (os.pathsep + old if old else "")
        ceiling = inputs.game_doc(_rng(self.name, self.seed, "game"), 3, 4, 3, 3, 4, 0.15)
        (self.workdir / "ceiling.game").write_text(inputs.game_text(ceiling))
        assets = self.root / "src" / "blamelogic" / "assets"
        self.docs = {
            name: json.loads((assets / name).read_text(encoding="utf-8"))
            for name in ("truck_manual.game", "truck_selfdriving.game")
        }
        self.docs[str(self.workdir / "ceiling.game")] = ceiling
        for c in range(self.CYCLES):
            rng = _rng(self.name, self.seed, c)
            kinds = list(self.MIX)
            rng.shuffle(kinds)
            for kind in kinds:
                self.ops.append(self._op(rng, kind))
        self.child_ms = self.reported_ms = 0.0

    def warm_up(self, bl):
        super().warm_up(bl)
        self.child(("eval", "--game", "truck_manual.game", "--play", "0", "--formula", "col"))

    def _op(self, rng, kind):
        game = rng.choice(sorted(self.docs))
        doc = self.docs[game]
        variables = sorted(doc["valuation"])
        agents = doc["agents"]
        op = {"kind": kind, "game": game}
        if kind in ("eval", "extension", "validity", "entail"):
            op["tree"] = inputs.formula(rng, 4, variables, agents)
            op["argv"] = [kind, "--game", game, "--formula", show(op["tree"])]
            if kind == "eval":
                op["play"] = rng.randrange(len(doc["plays"]))
                op["argv"] += ["--play", str(op["play"])]
            if kind == "entail":
                op["premises"] = [inputs.formula(rng, 3, variables, agents)]
                op["argv"] += ["--premises", show(op["premises"][0])]
        elif kind == "witness":
            op["coalition"] = inputs.coalition(rng, agents)
            op["tree"] = inputs.formula(rng, 3, variables, agents)
            op["play"] = rng.randrange(len(doc["plays"]))
            formula = show(("B", op["coalition"], op["tree"]))
            op["argv"] = [kind, "--game", game, "--play", str(op["play"]), "--formula", formula]
        elif kind == "prove":
            op["argv"] = [kind, "--script", rng.choice(Proofs.CORPUS)]
        elif kind == "deduce":
            op["argv"] = [kind, "--script", "lemma5.proof", "--phi", "p"]
        elif kind == "gen":
            op["argv"] = [kind, "--seed", str(rng.getrandbits(31))]
        elif kind == "sweep":
            op["argv"] = [kind, "--trials", "2", "--seed", str(rng.getrandbits(31))]
        elif kind == "search":
            op["tree"] = rng.choice(_nontheorems(rng))
            op["argv"] = [kind, "--formula", show(op["tree"])]
        elif kind == "missing-file":
            op["argv"] = ["eval", "--game", str(self.workdir / "missing.game"),
                          "--play", "0", "--formula", "p0"]  # fmt: skip
        elif kind == "bad-formula":
            op["argv"] = ["validity", "--game", game, "--formula", "(p0 -> "]
        else:
            n = len(doc["plays"])
            op["argv"] = ["eval", "--game", game, "--play", str(n + rng.randrange(5)),
                          "--formula", variables[0]]  # fmt: skip
        return op

    def expect(self):
        models = {name: Model(doc) for name, doc in self.docs.items()}
        verdicts = {
            "eval": ("true", "false"),
            "validity": ("valid", "invalid"),
            "entail": ("entailed", "not-entailed"),
        }
        for op in self.ops:
            kind, model = op["kind"], models[op["game"]]
            if kind in verdicts:
                if kind == "eval":
                    value = model.holds(op["tree"], op["play"])
                elif kind == "validity":
                    value = model.is_valid(op["tree"])
                else:
                    value = model.entails(op["premises"], op["tree"])
                op["expected"] = (0, verdicts[kind][0]) if value else (1, verdicts[kind][1])
            elif kind == "extension":
                op["expected"] = (0, "ok")
                op["extension"] = sorted(model.extension(op["tree"]))
            elif kind == "witness":
                op["witness"] = model.witness(op["coalition"], op["tree"], op["play"])
                op["expected"] = (1, "none") if op["witness"] is None else (0, "witness")
            elif kind == "prove":
                op["expected"] = (0, "valid")
            elif kind in ("deduce", "gen"):
                op["expected"] = (0, "ok")
            elif kind == "sweep":
                op["expected"] = (0, "0 violations / 2 trials")
            elif kind == "search":
                op["expected"] = (1, "countermodel")
            else:
                op["expected"] = (2, None)
        checked = [op for op in self.ops if op["kind"] in ("eval", "witness", "extension", "validity", "entail")]  # fmt: skip
        self.shape = {
            "plays_per_game_mean": _mean(m.n for m in models.values()),
            "plays_per_game_max": max(m.n for m in models.values()),
            "subformulas_mean": _mean(inputs.size(op["tree"]) for op in self.ops if "tree" in op),
            "blame_coalition_max": max(
                max(inputs.max_blame_coalition(op["tree"]), len(op.get("coalition", ())))
                for op in checked
            ),
            "point_share": _mean(op["kind"] in ("eval", "witness") for op in checked),
        }

    def child(self, argv):
        """Run one CLI child; (exit code, stdout, stderr)."""
        t0 = perf_counter()
        done = subprocess.run(
            [sys.executable, "-m", "blamelogic.cli", *argv, "--json"],
            cwd=self.root,
            env=self.env,
            capture_output=True,
            text=True,
            timeout=self.TIMEOUT_S,
        )
        self.child_ms += (perf_counter() - t0) * 1000
        return done.returncode, done.stdout, done.stderr

    def run(self, op):
        code, out, err = self.child(op["argv"])
        want_code, want_verdict = op["expected"]
        if code != want_code:
            return False
        if code == 2:
            return err.startswith("error:") and "Traceback" not in err and not out
        report = json.loads(out)
        self.reported_ms += report["timing_ms"]
        if report["verdict"] != want_verdict:
            return False
        kind = op["kind"]
        if kind == "extension":
            return report["data"]["extension"] == op["extension"]
        if kind == "witness" and op["witness"] is not None:
            return report["witness"] == op["witness"]
        if kind == "gen":
            return is_total(report["data"]["game"])
        if kind == "search":
            doc = report["witness"]["game"]
            return is_total(doc) and not Model(doc).holds(op["tree"], report["witness"]["play"])
        return True

    def probe(self):
        """Does the known-defect input give its documented answer (exit 2)?"""
        code, _, err = self.child(self.PROBE)
        return code == 2 and "Traceback" not in err


def _mean(values):
    values = list(values)
    return sum(values) / len(values) if values else 0


WORKLOADS = {w.name: w for w in (ModelCheck, Sweep, Proofs, Cli)}
