"""Test-side oracles and generators, kept independent of library internals.

naive_evaluate reimplements the satisfaction relation directly from its
definition: no caching, indistinguishability by scanning partition blocks,
and the blame clause as a literal exists/forall double loop (naive_witness).  It is the
reference the fast evaluator is compared against.  reference_find_countermodel
is the countermodel search as first written, building and evaluating one Game
per candidate; the frame-by-frame search must return exactly its results.
"""

import random
from itertools import islice, product

from blamelogic.game import Game, Play
from blamelogic.generator import derive_seed
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
from blamelogic.semantics import extension_mask
from blamelogic.syntax import Blames, Implies, Knows, Neg, Var, formula_agents, formula_vars


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


# ---------------------------------------------------------------------------
# Reference countermodel search

_REFERENCE_RANDOM_SHAPE = (2, 2, 2, 0.15)

_REFERENCE_TINY_SHAPES = (
    (1, 1, 1),
    (1, 2, 1),
    (1, 1, 2),
    (2, 1, 1),
    (1, 2, 2),
    (2, 2, 1),
    (2, 1, 2),
    (2, 2, 2),
)


def _reference_random_partition(rng, states):
    if len(states) == 1:
        return (frozenset(states),)
    count = rng.randint(1, len(states))
    labels = [rng.randrange(count) for _ in states]
    blocks = {}
    for state, label in zip(states, labels):
        blocks.setdefault(label, set()).add(state)
    return tuple(frozenset(b) for _, b in sorted(blocks.items()))


def _reference_profiles(agents, actions):
    return [dict(zip(agents, combo)) for combo in product(actions, repeat=len(agents))]


def _reference_random_game(rng, agents, states, actions, outcomes, variables, branching):
    indist = {agent: _reference_random_partition(rng, states) for agent in agents}
    profiles = _reference_profiles(agents, actions)
    plays = []
    for state in states:
        for profile in profiles:
            first = rng.choice(outcomes)
            plays.append(Play(state, profile, first))
            for extra in outcomes:
                if extra != first and rng.random() < branching:
                    plays.append(Play(state, profile, extra))
    valuation = {
        var: frozenset(i for i in range(len(plays)) if rng.random() < 0.5)
        for var in variables
    }
    return Game(
        tuple(agents),
        tuple(states),
        indist,
        tuple(actions),
        tuple(outcomes),
        tuple(plays),
        valuation,
    )


def _reference_partitions(states):
    if len(states) <= 1:
        return [(frozenset(states),)]
    a, b = states
    return [(frozenset([a, b]),), (frozenset([a]), frozenset([b]))]


def _reference_tiny_games(agents, variables):
    """Exhaustive minimal-play games over one- and two-element components."""
    for n_states, n_actions, n_outcomes in _REFERENCE_TINY_SHAPES:
        states = tuple(f"s{i}" for i in range(n_states))
        actions = tuple(f"d{i}" for i in range(n_actions))
        outcomes = tuple(f"o{i}" for i in range(n_outcomes))
        pairs = [
            (state, profile)
            for state in states
            for profile in _reference_profiles(agents, actions)
        ]
        partition_choices = list(product(*[_reference_partitions(states) for _ in agents]))
        for assignment in product(outcomes, repeat=len(pairs)):
            plays = tuple(
                Play(state, profile, outcome)
                for (state, profile), outcome in zip(pairs, assignment)
            )
            n = len(plays)
            for parts in partition_choices:
                indist = dict(zip(agents, parts))
                for val_masks in product(range(1 << n), repeat=len(variables)):
                    valuation = {
                        var: frozenset(i for i in range(n) if mask >> i & 1)
                        for var, mask in zip(variables, val_masks)
                    }
                    yield Game(
                        tuple(agents),
                        states,
                        dict(indist),
                        actions,
                        outcomes,
                        plays,
                        valuation,
                    )


def reference_candidates(agents, variables, budget):
    """Every candidate Game of the search, in order: the tiny games, then
    one seeded random game per draw."""
    yield from _reference_tiny_games(agents, variables)
    num_states, num_actions, num_outcomes, branching = _REFERENCE_RANDOM_SHAPE
    for k in range(budget.max_candidates):
        rng = random.Random(derive_seed(budget.seed, 7, k))
        yield _reference_random_game(
            rng,
            agents,
            tuple(f"s{i}" for i in range(1 + rng.randrange(num_states))),
            tuple(f"d{i}" for i in range(1 + rng.randrange(num_actions))),
            tuple(f"o{i}" for i in range(1 + rng.randrange(num_outcomes))),
            variables,
            branching,
        )


def reference_find_countermodel(formula, budget):
    """(game, lowest falsifying play index) of the first candidate that
    falsifies the formula, building and evaluating a Game per candidate."""
    agents = tuple(sorted(formula_agents(formula))) or ("a",)
    variables = tuple(sorted(formula_vars(formula))) or ("p0",)
    for game in islice(reference_candidates(agents, variables, budget), budget.max_candidates):
        missing = ((1 << len(game.plays)) - 1) & ~extension_mask(game, formula)
        if missing:
            return game, next(i for i in range(len(game.plays)) if missing >> i & 1)
    return None
