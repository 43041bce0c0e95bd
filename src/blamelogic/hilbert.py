"""Syntactic engine: axiom schemas, tautology instances, proof checking.

Proofs are numbered lines, each justified as a tautology instance, an axiom
instance, a premise, modus ponens from two earlier lines, or necessitation
of an earlier line.  Necessitation is only legal on lines that do not
depend on any premise, which realizes the split between plain theorems and
derivations from hypotheses in one checker: hypothesis-mode reasoning is
exactly modus ponens over premises and theorems.  A discharged script
repeats lines inside later ones, so parse_proof and format_proof keep one
memo per call, of the formula texts parsed and the subformulas printed.

Tautology checking reads a formula as a Boolean combination of its modal
atoms (maximal Var/Knows/Blames subformulas), settled by unit propagation
from the formula false if it can be, else by a bitmask truth table: bit r
of an atom's mask is its value in row r (semantics._rows), and the engine's
`_ext` reads the 2^n rows as one slot of points, as it reads a game's plays.

SCHEMAS holds the only encoding of the eleven axiom schemas: a builder over
the metavariables (phi, psi, C, D) and a side condition on (C, D) for each.
build_axiom calls the builder.  match_schema binds, rebuilds and compares:
it reads each metavariable's first counterpart off the formula along the
builder's own output on the metavariables, calls build_axiom on those
bindings, and accepts exactly when that returns the formula itself, which
interning makes one identity test.  The table's order is match_axiom's
first-match order, so ~B{}true is NoneToBlame, not BlamelessnessOfTruth.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import partial
from itertools import islice

from .errors import (
    AtomBudgetExceededError,
    FormulaDepthError,
    InvalidScriptError,
    ParseError,
    PhiNotPremiseError,
)
from .semantics import _ext, _Masks, _rows
from .syntax import (
    MAX_DEPTH,
    MAX_NODES,
    Blames,
    Formula,
    Implies,
    Knows,
    Neg,
    TOP,
    Var,
    _parse_formula,
    _render,
    atom_list,
    conj,
    disj,
    format_coalition,
    parse_coalition,
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

MAX_ATOMS = 20  # most modal atoms a taut line may have; its truth table has 2^n rows


def build_axiom(name, phi=None, psi=None, c=frozenset(), d=frozenset()) -> Formula:
    """Instantiate an axiom schema; raises ValueError on a bad side condition."""
    if name not in SCHEMAS:
        raise ValueError(f"unknown axiom name: {name}")
    builder, side = SCHEMAS[name]
    c, d = frozenset(c), frozenset(d)
    if side is not None and not side[0](c, d):
        raise ValueError(side[1])
    return builder(phi, psi, c, d)


# each builder applied once to the metavariables gives its schema's template:
# phi and psi are variables of those names, C and D the coalitions {C} and
# {D}, so C | D is {C, D}
_TEMPLATES = {
    name: builder(Var("phi"), Var("psi"), frozenset({"C"}), frozenset({"D"}))
    for name, (builder, _) in SCHEMAS.items()
}


def _bind(template, f, env) -> bool:
    """Walk f along template, binding each metavariable to its first
    counterpart in f; False if f lacks the template's shape."""
    match template:
        case Var("phi" | "psi" as name):
            env.setdefault(name, f)
        case _ if type(f) is not type(template):
            return False
        case Neg(inner):
            return _bind(inner, f.inner, env)
        case Implies(lhs, rhs):
            return _bind(lhs, f.lhs, env) and _bind(rhs, f.rhs, env)
        case Knows(c, inner) | Blames(c, inner):
            if len(c) == 1:  # C or D; the rebuild checks {} and C | D
                env.setdefault(next(iter(c)), f.coalition)
            return _bind(inner, f.inner, env)
    return True  # a metavariable, or a variable of TOP, which the rebuild checks


def match_schema(name: str, f: Formula):
    """Bindings if f instantiates the named schema, that is, if the builder
    given the bindings read off f (side condition checked) returns f."""
    if name not in SCHEMAS:
        raise ValueError(f"unknown axiom name: {name}")
    env = {}
    if not _bind(_TEMPLATES[name], f, env):
        return None
    try:
        rebuilt = build_axiom(
            name, env.get("phi"), env.get("psi"), env.get("C", ()), env.get("D", ())
        )
    except ValueError:  # a failed side condition, or a rebuild too deep
        return None
    return env if rebuilt is f else None


def match_axiom(f: Formula):
    """First schema (in AXIOM_NAMES order) that f instantiates, with bindings."""
    for name in AXIOM_NAMES:
        bindings = match_schema(name, f)
        if bindings is not None:
            return name, bindings
    return None


def _atom_set(node, memo: dict) -> frozenset:
    """The modal atoms below node, or MAX_ATOMS + 1 of them if it has more."""
    got = memo.get(node)
    if got is None:
        if type(node) is Implies:
            got, right = _atom_set(node.lhs, memo), _atom_set(node.rhs, memo)
            if not right <= got:
                got = right if got <= right else frozenset(islice(got | right, MAX_ATOMS + 1))
        elif type(node) is Neg:
            got = _atom_set(node.inner, memo)
        else:
            got = frozenset((node,))
        memo[node] = got
    return got


def _literal(node, v) -> tuple:
    """The node below node's Negs, and the value it needs for node to be v."""
    while type(node) is Neg:
        node, v = node.inner, not v
    return node, v


def _refuted(f) -> bool:
    """Unit propagation from f false, values kept on non-Neg nodes and set on
    push: True if it forces a node both ways, which proves f a tautology.  A
    true implication with both ends unknown waits on their watch lists."""
    value, watch, todo, forced = {}, {}, [], [_literal(f, False)]
    while True:
        for node, v in forced:
            if node not in value:
                value[node] = v
                todo.append(node)
            elif value[node] is not v:
                return True
        if not todo:
            return False
        node = todo.pop()
        forced, wake = [], watch.pop(node, [])  # wake: true implications with node as an end
        if type(node) is Implies and not value[node]:
            forced += _literal(node.lhs, True), _literal(node.rhs, False)
        elif type(node) is Implies:
            wake.append(node)
        for imp in wake:  # lv and rv: the values that make each end true
            (lhs, lv), (rhs, rv) = _literal(imp.lhs, True), _literal(imp.rhs, True)
            if value.get(lhs) is lv:
                forced.append((rhs, rv))
            elif value.get(rhs) is (not rv):
                forced.append((lhs, not lv))
            elif lhs not in value and rhs not in value:
                watch.setdefault(lhs, []).append(imp)
                watch.setdefault(rhs, []).append(imp)


def is_tautology_instance(f: Formula, *, _memo=None) -> bool:
    """True iff f holds under every assignment to its modal atoms.  More than
    MAX_ATOMS of them is an AtomBudgetExceededError, checked first; then unit
    propagation settles f if it can, and only otherwise does _ext over a truth
    table, one slot of 2^n rows.  check_proof shares one atom memo as _memo."""
    if len(_atom_set(f, {} if _memo is None else _memo)) > MAX_ATOMS:
        n = len(atom_list(f))
        raise AtomBudgetExceededError(f"{n} modal atoms exceeds the budget of {MAX_ATOMS}")
    if _refuted(f):
        return True
    atoms = atom_list(f)
    _, patterns = _rows(len(atoms), 1)  # atom i alternates in runs of 2^i rows
    table = _Masks(1 << len(atoms), (), (), {}, {}, {})  # one slot, a point per row
    return _ext(f, table, dict(zip(atoms, patterns))) == table.full


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


def check_proof(script: ProofScript) -> CheckReport:
    """Validate every line; reports the first invalid line and why.

    A line depends on a premise iff it is a premise or any line it
    references does; necessitation is rejected on premise-dependent lines.
    A line reference must be an int (not a bool) naming an earlier line.
    """
    depends = []
    atoms = {}  # one atom memo for every taut line

    def invalid(k, reason):
        return CheckReport(False, k, reason, tuple(depends))

    if not script.lines:
        return invalid(0, "script has no lines")

    for k, line in enumerate(script.lines, start=1):
        if line.index != k:
            return invalid(k, f"line numbering must be consecutive (got {line.index})")
        match line.justification:
            case Taut():
                formula = line.formula
                if not (isinstance(formula, Formula) and is_tautology_instance(formula, _memo=atoms)):
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
                if not (type(i) is type(j) is int and 1 <= i < k and 1 <= j < k):
                    return invalid(k, "modus ponens must reference earlier lines")
                wanted = Implies(script.lines[i - 1].formula, line.formula)
                if script.lines[j - 1].formula != wanted:
                    return invalid(
                        k, f"line {j} is not (line {i} -> line {k})"
                    )
                dep = depends[i - 1] or depends[j - 1]
            case Nec(i, c):
                if type(i) is not int or not 1 <= i < k:
                    return invalid(k, "necessitation must reference an earlier line")
                if not isinstance(c, frozenset) or not all(isinstance(agent, str) for agent in c):
                    return invalid(k, "necessitation coalition must be a frozenset of agent names")
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

    Works line by line: the phi line becomes the tautology phi -> phi;
    other premises and premise-independent lines are restated and weakened
    with the tautology f -> (phi -> f); premise-dependent modus ponens
    steps are replayed through the distribution tautology
    (phi -> a) -> ((phi -> (a -> b)) -> (phi -> b)).  Output length is at
    most three times the input length.  An output formula past parse_formula's
    bounds (more than MAX_NODES nodes or MAX_DEPTH levels) is a
    FormulaDepthError naming, as parse_proof would, the first text line of
    format_proof's output that holds one.
    """
    report = check_proof(script)
    if not report.valid:
        raise InvalidScriptError(
            f"input script invalid at line {report.error_line}: {report.reason}"
        )
    if phi not in script.premises:
        raise PhiNotPremiseError(f"not a premise: {print_formula(phi)}")

    premises = tuple(p for p in script.premises if p != phi)
    goal = Implies(phi, script.goal)
    header = 1 + bool(premises)  # text lines before the proof lines
    for f in premises:
        _check_bounds(f, 1)
    _check_bounds(goal, header)
    out = []
    imp_of = {}  # input line index -> output index proving (phi -> that formula)
    kept_of = {}  # input line index -> output index of its restated copy

    def emit(formula, justification):
        _check_bounds(formula, header + len(out) + 1)
        out.append(ProofLine(len(out) + 1, formula, justification))
        return len(out)

    for k, line in enumerate(script.lines, start=1):
        psi, just = line.formula, line.justification
        target = Implies(phi, psi)
        if isinstance(just, Premise) and psi == phi:
            imp_of[k] = emit(Implies(phi, phi), Taut())
        elif isinstance(just, Premise) or not report.depends_on_premise[k - 1]:
            match just:
                case MP(i, j):
                    just = MP(kept_of[i], kept_of[j])
                case Nec(i, c):
                    just = Nec(kept_of[i], c)
            kept_of[k] = emit(psi, just)
            weaken = emit(Implies(psi, target), Taut())
            imp_of[k] = emit(target, MP(kept_of[k], weaken))
        else:  # modus ponens on a premise-dependent line
            a, b = imp_of[just.i], imp_of[just.j]
            dist = emit(
                Implies(out[a - 1].formula, Implies(out[b - 1].formula, target)),
                Taut(),
            )
            step = emit(Implies(out[b - 1].formula, target), MP(a, dist))
            imp_of[k] = emit(target, MP(b, step))

    return ProofScript(premises, tuple(out), goal)


def _check_bounds(f: Formula, line: int):
    """Raise FormulaDepthError, naming the text line, if parse_formula would
    refuse f's printed text for its size or depth."""
    if f.size > MAX_NODES:
        raise FormulaDepthError(f"line {line}: formula too large")
    if f.depth > MAX_DEPTH:
        raise FormulaDepthError(f"line {line}: formula nested too deeply")


# ---------------------------------------------------------------------------
# Proof file format

_LINE_RE = re.compile(r"\s*(\d+)\.\s*(.*)$")


def _parse_at(parse, line: str, number: int, start: int, end=None):
    """parse(line[start:end]).  On a ParseError the part is parsed again
    with the text before it blanked, so that the error's byte offset counts
    from the start of the line, and its message names the 1-based line."""
    try:
        return parse(line[start:end])
    except ParseError:
        try:
            parse(" " * len(line[:start].encode("utf-8")) + line[start:end])
        except ParseError as e:
            raise ParseError(f"line {number}: {e}", e.offset, e.expected) from None
        raise


def _reference(part: str, number: int, what: str, text: str) -> int:
    """int(part), else a ParseError; one that names only the digit count if too long for int()."""
    try:
        return int(part)
    except ValueError:
        if part.isdecimal():
            raise ParseError(f"line {number}: {what} has {len(part)} digits") from None
        raise ParseError(f"line {number}: bad {what}: {text!r}") from None


def _parse_justification(line: str, number: int, start: int):
    text = line[start:].strip()
    if text == "taut":
        return Taut()
    if text == "premise":
        return Premise()
    if text.startswith("axiom:"):
        name = text[len("axiom:") :].strip()
        if name not in AXIOM_NAMES:
            raise ParseError(f"line {number}: unknown axiom name: {name!r}")
        return Axiom(name)
    parts = text.split(None, 2)
    if parts and parts[0] == "mp" and len(parts) == 3:
        return MP(*(_reference(part, number, "modus ponens reference", text) for part in parts[1:]))
    if parts and parts[0] == "nec" and len(parts) == 3:
        i = _reference(parts[1], number, "necessitation reference", text)
        # the literal is the rest of the line, so it ends where the line does
        return Nec(i, _parse_at(parse_coalition, line, number, len(line.rstrip()) - len(parts[2])))
    raise ParseError(f"line {number}: bad justification: {text!r}")


def parse_proof(text: str) -> ProofScript:
    """Parse the line-based proof format.

    Layout: an optional `premises:` line, a `goal:` line, then numbered
    lines `N. <formula> ; <justification>`.  `#` starts a comment.  Every
    error but a missing `goal:` line is reported as `line L: ...`, with L
    the 1-based line of the text; a bad formula or coalition has its byte
    offset counted from that line's start.
    """
    heads = {}  # "premises" and "goal" -> what their one line gives
    lines = []
    parse = partial(_parse_formula, memo={})  # one formula-text memo for the script
    for number, raw in enumerate(text.splitlines(), 1):
        code = raw.split("#", 1)[0]
        stripped = code.strip()
        if not stripped:
            continue
        head, colon, _ = stripped.partition(":")
        if colon and head in ("premises", "goal"):
            if head in heads:
                raise ParseError(f"line {number}: second {head}: line")
            start = code.index(":") + 1
            if head == "goal":
                heads[head] = _parse_at(parse, code, number, start)
                continue
            parts = []
            if code[start:].strip():
                for part in code[start:].split(";"):
                    parts.append(_parse_at(parse, code, number, start, start + len(part)))
                    start += len(part) + 1
            heads[head] = tuple(parts)
            continue
        m = _LINE_RE.match(code)
        if not m:
            raise ParseError(f"line {number}: bad proof line: {stripped!r}")
        index = _reference(m.group(1), number, "proof line number", stripped)
        if ";" not in m.group(2):
            raise ParseError(f"line {number}: missing justification on line {m.group(1)}")
        end = code.rindex(";")
        lines.append(
            ProofLine(
                index,
                _parse_at(parse, code, number, m.start(2), end),
                _parse_justification(code, number, end + 1),
            )
        )
    if "goal" not in heads:
        raise ParseError("proof has no goal: line")
    return ProofScript(heads.get("premises", ()), tuple(lines), heads["goal"])


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
    """Serialize a script in the parse_proof format, rendering each distinct
    subformula once for the whole script."""
    show = partial(_render, parenthesize_implies=False, memo={})
    out = ["premises: " + " ; ".join(map(show, script.premises))] if script.premises else []
    out.append("goal: " + show(script.goal))
    for line in script.lines:
        just = format_justification(line.justification)
        out.append(f"{line.index}. {show(line.formula)} ; {just}")
    return "\n".join(out) + "\n"


def parse_proof_file(path) -> ProofScript:
    with open(path, encoding="utf-8") as fh:
        return parse_proof(fh.read())
