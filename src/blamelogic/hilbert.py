"""Syntactic engine: axiom schemas, tautology instances, proof checking.

Proofs are numbered lines, each justified as a tautology instance, an axiom
instance, a premise, modus ponens from two earlier lines, or necessitation
of an earlier line.  Necessitation is only legal on lines that do not
depend on any premise, which realizes the split between plain theorems and
derivations from hypotheses in one checker: hypothesis-mode reasoning is
exactly modus ponens over premises and theorems.

Tautology checking reads a formula as a Boolean combination of its modal
atoms (maximal Var/Knows/Blames subformulas) and decides truth under all
assignments with bitmask truth tables.

SCHEMAS is the single source of the eleven axiom schemas: a builder over
the metavariables (phi, psi, C, D) and a side condition on (C, D) for each.
build_axiom calls the builder; match_schema unifies a formula against the
builder's output on placeholders; the table's order is match_axiom's
first-match order, so ~B{}true is NoneToBlame, not BlamelessnessOfTruth.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .errors import (
    AtomBudgetExceededError,
    InvalidScriptError,
    ParseError,
    PhiNotPremiseError,
)
from .syntax import (
    Blames,
    Formula,
    Implies,
    Knows,
    Neg,
    TOP,
    atom_list,
    conj,
    disj,
    format_coalition,
    parse_formula,
    poss_knows,
    print_formula,
)

# Side conditions on the coalitions (C, D): a predicate, and the message of
# the ValueError that build_axiom raises when it fails.
SUBSET = (lambda c, d: c <= d, "Monotonicity needs C to be a subset of D")
DISJOINT = (
    lambda c, d: not c & d, "Joint Responsibility needs disjoint coalitions"
)

# name -> (builder (phi, psi, C, D) -> Formula, side condition or None),
# in first-match order
SCHEMAS = {
    "Truth-K": (lambda phi, psi, c, d: Implies(Knows(c, phi), phi), None),
    "Truth-B": (lambda phi, psi, c, d: Implies(Blames(c, phi), phi), None),
    "Distributivity": (
        lambda phi, psi, c, d: Implies(
            Knows(c, Implies(phi, psi)), Implies(Knows(c, phi), Knows(c, psi))
        ),
        None,
    ),
    "NegativeIntrospection": (
        lambda phi, psi, c, d: Implies(
            Neg(Knows(c, phi)), Knows(c, Neg(Knows(c, phi)))
        ),
        None,
    ),
    "Monotonicity-K": (
        lambda phi, psi, c, d: Implies(Knows(c, phi), Knows(d, phi)),
        SUBSET,
    ),
    "Monotonicity-B": (
        lambda phi, psi, c, d: Implies(Blames(c, phi), Blames(d, phi)),
        SUBSET,
    ),
    "NoneToBlame": (lambda phi, psi, c, d: Neg(Blames(frozenset(), phi)), None),
    "BlamelessnessOfTruth": (lambda phi, psi, c, d: Neg(Blames(c, TOP)), None),
    "JointResponsibility": (
        lambda phi, psi, c, d: Implies(
            conj(poss_knows(c, Blames(c, phi)), poss_knows(d, Blames(d, psi))),
            Implies(disj(phi, psi), Blames(c | d, disj(phi, psi))),
        ),
        DISJOINT,
    ),
    "BlameForKnownCause": (
        lambda phi, psi, c, d: Implies(
            Knows(c, Implies(phi, psi)),
            Implies(Blames(c, psi), Implies(phi, Blames(c, phi))),
        ),
        None,
    ),
    "KnowledgeOfFairness": (
        lambda phi, psi, c, d: Implies(
            Blames(c, phi), Knows(c, Implies(phi, Blames(c, phi)))
        ),
        None,
    ),
}

AXIOM_NAMES = tuple(SCHEMAS)

DEFAULT_ATOM_BUDGET = 20


def build_axiom(name, phi=None, psi=None, c=frozenset(), d=frozenset()) -> Formula:
    """Instantiate an axiom schema; raises ValueError on a bad side condition."""
    if name not in SCHEMAS:
        raise ValueError(f"unknown axiom name: {name}")
    builder, side = SCHEMAS[name]
    c, d = frozenset(c), frozenset(d)
    if side is not None and not side[0](c, d):
        raise ValueError(side[1])
    return builder(phi, psi, c, d)


class _Meta:
    """A metavariable of a schema template, or the union C | D of two."""

    def __init__(self, *names):
        self.names = names

    def __or__(self, other):
        return _Meta(*self.names, *other.names)


# each builder applied to placeholders once gives its schema's template
_TEMPLATES = {
    name: builder(_Meta("phi"), _Meta("psi"), _Meta("C"), _Meta("D"))
    for name, (builder, _) in SCHEMAS.items()
}


def _unify(template, f, env) -> bool:
    """Match f against template, binding metavariables in env."""
    if isinstance(template, _Meta):
        if len(template.names) > 1:  # a union; its parts are bound earlier
            return f == frozenset().union(*(env[n] for n in template.names))
        bound = env.setdefault(template.names[0], f)
        return bound is f or bound == f
    if type(template) is not type(f):
        return False
    match template:
        case Neg(inner):
            return _unify(inner, f.inner, env)
        case Implies(lhs, rhs):
            return _unify(lhs, f.lhs, env) and _unify(rhs, f.rhs, env)
        case Knows(c, inner) | Blames(c, inner):
            return _unify(c, f.coalition, env) and _unify(inner, f.inner, env)
    return template == f  # a constant: a coalition literal or a variable


def match_schema(name: str, f: Formula):
    """Bindings if f instantiates the named schema (side conditions checked)."""
    if name not in SCHEMAS:
        raise ValueError(f"unknown axiom name: {name}")
    env = {}
    if not _unify(_TEMPLATES[name], f, env):
        return None
    side = SCHEMAS[name][1]
    if side is not None and not side[0](env["C"], env["D"]):
        return None
    return env


def match_axiom(f: Formula):
    """First schema (in AXIOM_NAMES order) that f instantiates, with bindings."""
    for name in AXIOM_NAMES:
        bindings = match_schema(name, f)
        if bindings is not None:
            return name, bindings
    return None


def is_tautology_instance(f: Formula, max_atoms: int = DEFAULT_ATOM_BUDGET) -> bool:
    """True iff f is true under every assignment to its modal atoms."""
    atoms = atom_list(f)
    n = len(atoms)
    if n > max_atoms:
        raise AtomBudgetExceededError(
            f"{n} modal atoms exceeds the budget of {max_atoms}"
        )
    rows = 1 << n
    full = (1 << rows) - 1

    # Truth-table bitmask per atom: atom i alternates in runs of 2^i rows.
    masks = [0] * n
    width = 1
    for i in range(n):
        for j in range(i):
            masks[j] |= masks[j] << width
        masks[i] = ((1 << width) - 1) << width
        width <<= 1
    env = dict(zip(atoms, masks))

    memo = {}

    def table(node):
        key = id(node)
        if key in memo:
            return memo[key]
        if node in env:
            value = env[node]
        else:
            match node:
                case Neg(inner):
                    value = full & ~table(inner)
                case Implies(lhs, rhs):
                    value = full & (~table(lhs) | table(rhs))
                case _:
                    raise TypeError(f"not a formula node: {node!r}")
        memo[key] = value
        return value

    return table(f) == full


# ---------------------------------------------------------------------------
# Proof scripts


@dataclass(frozen=True)
class Taut:
    pass


@dataclass(frozen=True)
class Axiom:
    name: str


@dataclass(frozen=True)
class Premise:
    pass


@dataclass(frozen=True)
class MP:
    i: int
    j: int


@dataclass(frozen=True)
class Nec:
    i: int
    coalition: frozenset


@dataclass(frozen=True)
class ProofLine:
    index: int
    formula: Formula
    justification: object


@dataclass(frozen=True)
class ProofScript:
    premises: tuple
    lines: tuple
    goal: Formula


@dataclass(frozen=True)
class CheckReport:
    valid: bool
    error_line: int = None
    reason: str = None
    depends_on_premise: tuple = ()


def check_proof(script: ProofScript, max_atoms: int = DEFAULT_ATOM_BUDGET) -> CheckReport:
    """Validate every line; reports the first invalid line and why.

    A line depends on a premise iff it is a premise or any line it
    references does; necessitation is rejected on premise-dependent lines.
    """
    depends = []

    def invalid(k, reason):
        return CheckReport(False, k, reason, tuple(depends))

    if not script.lines:
        return invalid(0, "script has no lines")

    for k, line in enumerate(script.lines, start=1):
        if line.index != k:
            return invalid(k, f"line numbering must be consecutive (got {line.index})")
        match line.justification:
            case Taut():
                if not is_tautology_instance(line.formula, max_atoms):
                    return invalid(k, "not a tautology instance")
                dep = False
            case Axiom(name):
                if name not in AXIOM_NAMES:
                    return invalid(k, f"unknown axiom name: {name}")
                if match_schema(name, line.formula) is None:
                    return invalid(k, f"not an instance of {name}")
                dep = False
            case Premise():
                if line.formula not in script.premises:
                    return invalid(k, "formula is not among the premises")
                dep = True
            case MP(i, j):
                if not (1 <= i < k and 1 <= j < k):
                    return invalid(k, "modus ponens must reference earlier lines")
                wanted = Implies(script.lines[i - 1].formula, line.formula)
                if script.lines[j - 1].formula != wanted:
                    return invalid(
                        k, f"line {j} is not (line {i} -> line {k})"
                    )
                dep = depends[i - 1] or depends[j - 1]
            case Nec(i, c):
                if not 1 <= i < k:
                    return invalid(k, "necessitation must reference an earlier line")
                if line.formula != Knows(c, script.lines[i - 1].formula):
                    return invalid(
                        k, f"formula is not K{format_coalition(c)} of line {i}"
                    )
                if depends[i - 1]:
                    return invalid(
                        k, "necessitation applied to a premise-dependent line"
                    )
                dep = False
            case other:
                return invalid(k, f"unknown justification: {other!r}")
        depends.append(dep)

    if script.lines[-1].formula != script.goal:
        return invalid(len(script.lines), "last line does not conclude the goal")
    return CheckReport(True, depends_on_premise=tuple(depends))


def deduction_transform(script: ProofScript, phi: Formula) -> ProofScript:
    """Discharge the premise phi, rebuilding the proof to conclude phi -> goal.

    Works line by line: premise-independent lines are kept and weakened
    with the tautology f -> (phi -> f); the phi line becomes the tautology
    phi -> phi; other premises are weakened the same way; modus ponens
    steps are replayed through the distribution tautology
    (phi -> a) -> ((phi -> (a -> b)) -> (phi -> b)).  Output length is at
    most three times the input length.
    """
    report = check_proof(script)
    if not report.valid:
        raise InvalidScriptError(
            f"input script invalid at line {report.error_line}: {report.reason}"
        )
    if phi not in script.premises:
        raise PhiNotPremiseError(f"not a premise: {print_formula(phi)}")

    out = []
    imp_of = {}  # input line index -> output index proving (phi -> that formula)
    kept_of = {}  # input line index -> output index of its kept copy

    def emit(formula, justification):
        out.append(ProofLine(len(out) + 1, formula, justification))
        return len(out)

    for k, line in enumerate(script.lines, start=1):
        psi = line.formula
        target = Implies(phi, psi)
        if not report.depends_on_premise[k - 1]:
            match line.justification:
                case MP(i, j):
                    kept_just = MP(kept_of[i], kept_of[j])
                case Nec(i, c):
                    kept_just = Nec(kept_of[i], c)
                case other:
                    kept_just = other
            kept = emit(psi, kept_just)
            kept_of[k] = kept
            weaken = emit(Implies(psi, target), Taut())
            imp_of[k] = emit(target, MP(kept, weaken))
        elif isinstance(line.justification, Premise) and psi == phi:
            imp_of[k] = emit(Implies(phi, phi), Taut())
        elif isinstance(line.justification, Premise):
            restated = emit(psi, Premise())
            weaken = emit(Implies(psi, target), Taut())
            imp_of[k] = emit(target, MP(restated, weaken))
        else:
            mp = line.justification
            assert isinstance(mp, MP), "premise-dependent lines are premises or MP"
            a = imp_of[mp.i]
            b = imp_of[mp.j]
            dist = emit(
                Implies(out[a - 1].formula, Implies(out[b - 1].formula, target)),
                Taut(),
            )
            step = emit(Implies(out[b - 1].formula, target), MP(a, dist))
            imp_of[k] = emit(target, MP(b, step))

    premises = tuple(p for p in script.premises if p != phi)
    return ProofScript(premises, tuple(out), Implies(phi, script.goal))


# ---------------------------------------------------------------------------
# Proof file format

_LINE_RE = re.compile(r"^(\d+)\.\s*(.*)$")
_COAL_RE = re.compile(r"^\{\s*([A-Za-z][A-Za-z0-9_]*(\s*,\s*[A-Za-z][A-Za-z0-9_]*)*)?\s*\}$")


def _parse_coalition_literal(text: str) -> frozenset:
    m = _COAL_RE.match(text.strip())
    if not m:
        raise ParseError(f"bad coalition literal: {text!r}")
    body = m.group(1)
    if not body:
        return frozenset()
    return frozenset(name.strip() for name in body.split(","))


def _parse_justification(text: str):
    text = text.strip()
    if text == "taut":
        return Taut()
    if text == "premise":
        return Premise()
    if text.startswith("axiom:"):
        name = text[len("axiom:") :].strip()
        if name not in AXIOM_NAMES:
            raise ParseError(f"unknown axiom name: {name!r}")
        return Axiom(name)
    parts = text.split(None, 2)
    if parts and parts[0] == "mp" and len(parts) == 3:
        try:
            return MP(int(parts[1]), int(parts[2]))
        except ValueError:
            raise ParseError(f"bad modus ponens reference: {text!r}") from None
    if parts and parts[0] == "nec" and len(parts) == 3:
        try:
            i = int(parts[1])
        except ValueError:
            raise ParseError(f"bad necessitation reference: {text!r}") from None
        return Nec(i, _parse_coalition_literal(parts[2]))
    raise ParseError(f"bad justification: {text!r}")


def parse_proof(text: str) -> ProofScript:
    """Parse the line-based proof format.

    Layout: an optional `premises:` line, a `goal:` line, then numbered
    lines `N. <formula> ; <justification>`.  `#` starts a comment.
    """
    premises = ()
    goal = None
    lines = []
    for raw in text.splitlines():
        stripped = raw.split("#", 1)[0].strip()
        if not stripped:
            continue
        if stripped.startswith("premises:"):
            body = stripped[len("premises:") :].strip()
            if body:
                premises = tuple(parse_formula(p) for p in body.split(";"))
            continue
        if stripped.startswith("goal:"):
            goal = parse_formula(stripped[len("goal:") :])
            continue
        m = _LINE_RE.match(stripped)
        if not m:
            raise ParseError(f"bad proof line: {stripped!r}")
        body = m.group(2)
        if ";" not in body:
            raise ParseError(f"missing justification on line {m.group(1)}")
        formula_text, just_text = body.rsplit(";", 1)
        lines.append(
            ProofLine(
                int(m.group(1)),
                parse_formula(formula_text),
                _parse_justification(just_text),
            )
        )
    if goal is None:
        raise ParseError("proof has no goal: line")
    return ProofScript(premises, tuple(lines), goal)


def format_justification(j) -> str:
    match j:
        case Taut():
            return "taut"
        case Premise():
            return "premise"
        case Axiom(name):
            return f"axiom:{name}"
        case MP(i, jj):
            return f"mp {i} {jj}"
        case Nec(i, c):
            return f"nec {i} {format_coalition(c)}"
    raise TypeError(f"unknown justification: {j!r}")


def format_proof(script: ProofScript) -> str:
    """Serialize a script in the parse_proof format."""
    out = []
    if script.premises:
        out.append("premises: " + " ; ".join(print_formula(p) for p in script.premises))
    out.append("goal: " + print_formula(script.goal))
    for line in script.lines:
        out.append(
            f"{line.index}. {print_formula(line.formula)} ; "
            f"{format_justification(line.justification)}"
        )
    return "\n".join(out) + "\n"


def parse_proof_file(path) -> ProofScript:
    with open(path, encoding="utf-8") as fh:
        return parse_proof(fh.read())
