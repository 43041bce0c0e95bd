"""Test-side oracles and generators, kept independent of library internals.

naive_evaluate reimplements the satisfaction relation directly from its
definition: no caching, indistinguishability by scanning partition blocks,
and the blame clause as a literal exists/forall double loop (naive_witness).  It is the
reference the fast evaluator is compared against.
"""

import random
from itertools import product

from blamelogic.hilbert import (
    AXIOM_NAMES,
    Axiom,
    MP,
    Premise,
    ProofLine,
    ProofScript,
    Taut,
    build_axiom,
    check_proof,
)
from blamelogic.syntax import Blames, Implies, Knows, Neg, Var


def same_block(game, agent, s1, s2):
    return any(s1 in block and s2 in block for block in game.indist[agent])


def naive_indist(game, coalition, s1, s2):
    return all(same_block(game, agent, s1, s2) for agent in coalition)


def naive_evaluate(game, play, formula):
    match formula:
        case Var(name):
            idx = next(i for i, p in enumerate(game.plays) if p == play)
            return idx in game.valuation.get(name, frozenset())
        case Neg(inner):
            return not naive_evaluate(game, play, inner)
        case Implies(lhs, rhs):
            return (not naive_evaluate(game, play, lhs)) or naive_evaluate(
                game, play, rhs
            )
        case Knows(c, inner):
            for other in game.plays:
                if naive_indist(game, c, play.state, other.state):
                    if not naive_evaluate(game, other, inner):
                        return False
            return True
        case Blames(c, inner):
            return naive_witness(game, play, c, inner) is not None
    raise TypeError(f"not a formula node: {formula!r}")


def naive_witness(game, play, coalition, formula):
    """First choice, in product order over sorted members, that prevents formula.

    None unless formula holds at the play; a choice prevents it when every
    coalition-indistinguishable play agreeing with it falsifies formula.
    """
    if not naive_evaluate(game, play, formula):
        return None
    members = sorted(coalition)
    for combo in product(game.actions, repeat=len(members)):
        choice = dict(zip(members, combo))
        prevents = True
        for other in game.plays:
            if naive_indist(game, coalition, play.state, other.state) and all(
                other.profile[m] == choice[m] for m in members
            ):
                if naive_evaluate(game, other, formula):
                    prevents = False
                    break
        if prevents:
            return choice
    return None


# ---------------------------------------------------------------------------
# Random proof material

VARS = ("p", "q", "r")
AGENTS = ("a", "b")

TAUT_TEMPLATES = (
    lambda A, B, C: Implies(A, A),
    lambda A, B, C: Implies(A, Implies(B, A)),
    lambda A, B, C: Implies(
        Implies(A, Implies(B, C)), Implies(Implies(A, B), Implies(A, C))
    ),
    lambda A, B, C: Implies(Neg(Neg(A)), A),
    lambda A, B, C: Implies(A, Neg(Neg(A))),
    lambda A, B, C: Implies(Neg(A), Implies(A, B)),
    lambda A, B, C: Implies(Implies(Neg(A), Neg(B)), Implies(B, A)),
)


def rand_coalition(rng):
    return frozenset(x for x in AGENTS if rng.random() < 0.5)


def rand_formula(rng, depth):
    if depth <= 0 or rng.random() < 0.3:
        return Var(rng.choice(VARS))
    roll = rng.random()
    if roll < 0.35:
        return Neg(rand_formula(rng, depth - 1))
    if roll < 0.7:
        return Implies(rand_formula(rng, depth - 1), rand_formula(rng, depth - 1))
    node = Knows if roll < 0.85 else Blames
    return node(rand_coalition(rng), rand_formula(rng, depth - 1))


def rand_axiom_line(rng):
    name = rng.choice(AXIOM_NAMES)
    phi = rand_formula(rng, 1)
    psi = rand_formula(rng, 1)
    if name in ("Monotonicity-K", "Monotonicity-B"):
        c = rand_coalition(rng)
        d = c | rand_coalition(rng)
    elif name == "JointResponsibility":
        c = frozenset({"a"}) if rng.random() < 0.7 else frozenset()
        d = frozenset({"b"}) if rng.random() < 0.7 else frozenset()
    else:
        c, d = rand_coalition(rng), frozenset()
    return build_axiom(name, phi, psi, c, d), Axiom(name)


def random_premise_script(rng):
    """A random valid premise-mode script (no necessitation) plus a premise.

    Returns (script, phi) where phi is one of the script's premises; the
    script is asserted valid before being handed to the caller.
    """
    premises = []
    while len(premises) < rng.randint(2, 4):
        f = rand_formula(rng, rng.randint(0, 2))
        if f not in premises:
            premises.append(f)

    lines = []

    def emit(formula, justification):
        lines.append(ProofLine(len(lines) + 1, formula, justification))

    def from_pool(pool_bias=0.6):
        if lines and rng.random() < pool_bias:
            return rng.choice(lines).formula
        return rand_formula(rng, 1)

    emit(rng.choice(premises), Premise())
    for _ in range(rng.randint(3, 14)):
        roll = rng.random()
        if roll < 0.25:
            emit(rng.choice(premises), Premise())
        elif roll < 0.55:
            template = rng.choice(TAUT_TEMPLATES)
            emit(template(from_pool(), from_pool(), from_pool()), Taut())
        elif roll < 0.7:
            emit(*rand_axiom_line(rng))
        else:
            options = [
                (i, j)
                for j, lj in enumerate(lines, start=1)
                if isinstance(lj.formula, Implies)
                for i, li in enumerate(lines, start=1)
                if li.formula == lj.formula.lhs
            ]
            if options:
                i, j = rng.choice(options)
                emit(lines[j - 1].formula.rhs, MP(i, j))

    script = ProofScript(tuple(premises), tuple(lines), lines[-1].formula)
    report = check_proof(script)
    assert report.valid, (report.error_line, report.reason)
    return script, rng.choice(premises)


def negate_line(script, k):
    """Mutate line k (1-based) by negating its formula; breaks any valid script."""
    line = script.lines[k - 1]
    mutated = ProofLine(line.index, Neg(line.formula), line.justification)
    lines = script.lines[: k - 1] + (mutated,) + script.lines[k:]
    return ProofScript(script.premises, lines, script.goal)


def identity_empty_classes(real):
    """Mutant of semantics._classes: the empty coalition gets one class per
    state, so it relates only equal states."""

    def mutant(game, masks, coalition):
        if not coalition:
            return tuple(m for m in masks.state.values() if m)
        return real(game, masks, coalition)

    return mutant


def make_rng(seed):
    return random.Random(seed)
