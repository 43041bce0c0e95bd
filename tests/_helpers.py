"""Test-side oracles and generators, kept independent of library internals.

naive_evaluate reimplements the satisfaction relation directly from its
definition: no caching, indistinguishability by scanning partition blocks,
and the blame clause as a literal exists/forall double loop (naive_witness).  It is the
reference the fast evaluator is compared against.  reference_find_countermodel
is the countermodel search written plainly, building and evaluating one Game
per candidate in the search's order; the search, which checks each frame's
valuations side by side in slots, must return exactly its results.
reference_validate_game is the validator as first written, one pass over the
plays with a duplicate key and a totality key per play; the count-based
validator must report exactly its violations and warnings, in its order.
reference_soundness_sweep is the sweep as first written, each axiom instance
and necessitation check built over the trial's phi and psi and decided by
one fresh extension_mask call; the sweep, which checks templates over
placeholders in one memo per trial, must return an equal report.
reference_layout and reference_truth_table build the search's slot layout
and the tautology check's truth table as each was first written, by string
formatting and by its own doubling loop; both now come from one row
builder (semantics._rows), which must give exactly these masks.
"""

import random
from collections import Counter
from dataclasses import replace
from itertools import combinations, count, product
from types import MappingProxyType

from blamelogic.game import Game, Play, ValidationReport
from blamelogic.generator import (
    SweepReport,
    SweepViolation,
    _all_coalitions,
    _sweep_instances,
    derive_seed,
    gen_formula,
    gen_game,
)
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
from blamelogic.syntax import (
    Blames,
    Implies,
    Knows,
    Neg,
    Var,
    atom_list,
    formula_agents,
    formula_vars,
)


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


def rand_coalition(rng, agents=AGENTS):
    return frozenset(x for x in agents if rng.random() < 0.5)


def rand_formula(rng, depth, vocab=(VARS, AGENTS)):
    """A random formula over vocab, a pair (variable names, agent names)."""
    if depth <= 0 or rng.random() < 0.3:
        return Var(rng.choice(vocab[0]))
    roll = rng.random()
    if roll < 0.35:
        return Neg(rand_formula(rng, depth - 1, vocab))
    if roll < 0.7:
        return Implies(rand_formula(rng, depth - 1, vocab), rand_formula(rng, depth - 1, vocab))
    node = Knows if roll < 0.85 else Blames
    return node(rand_coalition(rng, vocab[1]), rand_formula(rng, depth - 1, vocab))


# tautologies over metavariables A, B and P, each occurrence given by m(name):
# the lines deduction_transform emits, then two of the propositional calculus
TAUT_SHAPES = {
    "identity": lambda m: Implies(m("A"), m("A")),
    "weakening": lambda m: Implies(m("A"), Implies(m("B"), m("A"))),
    "distribution": lambda m: Implies(
        Implies(m("P"), m("A")),
        Implies(Implies(m("P"), Implies(m("A"), m("B"))), Implies(m("P"), m("B"))),
    ),
    "contraposition": lambda m: Implies(Implies(Neg(m("A")), Neg(m("B"))), Implies(m("B"), m("A"))),
    "peirce": lambda m: Implies(Implies(Implies(m("A"), m("B")), m("A")), m("A")),
}


def rand_taut_line(rng, max_atoms=12):
    """(kind, formula) with at most max_atoms modal atoms over up to
    max_atoms variables: a TAUT_SHAPES instance over random subformulas
    (kind is its shape), one with an occurrence replaced by a fresh random
    subformula (kind "broken <shape>"), or a random formula ("random")."""
    vocab = (tuple(f"x{i}" for i in range(rng.randint(1, max_atoms))), AGENTS)

    def sub():
        return rand_formula(rng, rng.randint(1, 5), vocab)

    while True:
        if rng.random() < 0.3:
            shape, f = "random", rand_formula(rng, rng.randint(3, 9), vocab)
        else:
            shape = rng.choice(sorted(TAUT_SHAPES))
            terms = {x: sub() for x in "ABP"}
            hit, occurrence = rng.randrange(8) if rng.random() < 0.35 else -1, count()
            f = TAUT_SHAPES[shape](lambda x: sub() if next(occurrence) == hit else terms[x])
            if 0 <= hit < next(occurrence):
                shape = "broken " + shape
        if len(atom_list(f)) <= max_atoms:
            return shape, f


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

    def mutant(masks, coalition):
        if not coalition:
            return tuple(m for m in masks.state.values() if m)
        return real(masks, coalition)

    return mutant


def converse_implication(real):
    """Mutant of semantics._ext that reads each implication backwards, rhs ->
    lhs; the engine's own recursion reaches it through the patched name.
    Unlike identity_empty_classes, it falsifies instances of the schemas that
    pair phi with psi, at plays that depend on psi's mask."""

    def mutant(formula, index, memo):
        if type(formula) is Implies and formula not in memo:
            rhs, lhs = mutant(formula.rhs, index, memo), mutant(formula.lhs, index, memo)
            memo[formula] = index.full ^ rhs | lhs
        return real(formula, index, memo)

    return mutant


def make_rng(seed):
    return random.Random(seed)


# ---------------------------------------------------------------------------
# Reference validator


def _reference_profile_facts(profile, order, agents, actions):
    """(duplicate key, actions in agent order or None, unknown actions or None)."""
    in_order = tuple(profile.get(a) for a in order)
    covering = in_order if actions.issuperset(in_order) else None
    if set(profile) != agents:
        return frozenset(profile.items()), covering, None
    return in_order, covering, tuple(a for a in profile.values() if a not in actions)


def reference_validate_game(game):
    bad = []
    warn = []
    for key in ("agents", "states", "actions", "outcomes"):
        values = getattr(game, key)
        if not values:
            bad.append(f"{key} must be nonempty")
        if len(set(values)) != len(values):
            bad.append(f"duplicate entries in {key}")

    states = set(game.states)
    for agent in game.indist:
        if agent not in game.agents:
            bad.append(f"indist references unknown agent: {agent}")
    for agent in game.agents:
        blocks = game.indist.get(agent)
        if blocks is None:
            bad.append(f"missing partition for agent {agent}")
            continue
        seen = set()
        for block in blocks:
            if not block:
                bad.append(f"empty partition block for agent {agent}")
            overlap = seen & set(block)
            if overlap:
                bad.append(
                    f"not a partition for agent {agent}: state "
                    f"{sorted(overlap)[0]} appears in two blocks"
                )
            for state in block:
                if state not in states:
                    bad.append(f"partition for agent {agent} references unknown state: {state}")
            seen |= set(block)
        missing = states - seen
        if missing:
            bad.append(f"partition for agent {agent} does not cover state {sorted(missing)[0]}")

    agents = set(game.agents)
    actions = set(game.actions)
    outcomes = set(game.outcomes)
    seen_plays = set()
    covered = set()
    for i, play in enumerate(game.plays):
        profile_key, in_order, unknown = _reference_profile_facts(
            play.profile, game.agents, agents, actions
        )
        if in_order is not None:
            covered.add((play.state, in_order))
        if play.state not in states:
            bad.append(f"play {i} references unknown state: {play.state}")
        if play.outcome not in outcomes:
            bad.append(f"play {i} references unknown outcome: {play.outcome}")
        if unknown is None:
            bad.append(f"play {i} profile domain is not exactly the agent set")
        elif unknown:
            bad.extend(f"play {i} references unknown action: {a}" for a in unknown)
        key = (play.state, profile_key, play.outcome)
        if key in seen_plays:
            bad.append(f"duplicate play at index {i}")
        seen_plays.add(key)

    counts = Counter(s for s, _ in covered)
    for state in game.states:
        missing = len(actions) ** len(game.agents) - counts[state]
        if missing:
            profiles = product(game.actions, repeat=len(game.agents))
            first = next(pr for pr in profiles if (state, pr) not in covered)
            shown = {a: act for a, act in zip(game.agents, first)}
            more = f" ({missing} profiles missing)" if missing > 1 else ""
            bad.append(f"totality violated at ({state}, {shown}){more}")

    n = len(game.plays)
    for var, indices in game.valuation.items():
        for idx in indices:
            if not (isinstance(idx, int) and 0 <= idx < n):
                bad.append(f"valuation index out of range: {var} -> {idx}")

    played = {p.outcome for p in game.plays}
    for outcome in game.outcomes:
        if outcome not in played:
            warn.append(f"outcome {outcome} appears in no play")

    return ValidationReport(tuple(bad), tuple(warn))


# ---------------------------------------------------------------------------
# Reference countermodel search

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


def _reference_games(agents, variables, branching):
    """Every game of the shapes, one Game per candidate, in search order.

    Without branching, each (state, profile) pair has one outcome; with it,
    a nonempty set of outcomes, sets by size and then in order, and only
    the games where some pair has more than one."""
    for n_states, n_actions, n_outcomes in _REFERENCE_TINY_SHAPES:
        states = tuple(f"s{i}" for i in range(n_states))
        actions = tuple(f"d{i}" for i in range(n_actions))
        outcomes = tuple(f"o{i}" for i in range(n_outcomes))
        pairs = [
            (state, profile)
            for state in states
            for profile in _reference_profiles(agents, actions)
        ]
        sizes = range(1, len(outcomes) + 1) if branching else (1,)
        sets = [chosen for k in sizes for chosen in combinations(outcomes, k)]
        partition_choices = list(product(*[_reference_partitions(states) for _ in agents]))
        for assignment in product(sets, repeat=len(pairs)):
            if branching and all(len(chosen) == 1 for chosen in assignment):
                continue
            plays = tuple(
                Play(state, profile, outcome)
                for (state, profile), chosen in zip(pairs, assignment)
                for outcome in chosen
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


def reference_candidates(agents, variables, one_outcome=True):
    """Every candidate Game of the search, in order: the games with one
    outcome per (state, profile) pair (unless one_outcome is false), then
    the branching games of the same shapes."""
    if one_outcome:
        yield from _reference_games(agents, variables, False)
    yield from _reference_games(agents, variables, True)


def reference_find_countermodel(formula, budget, one_outcome=True):
    """(game, lowest falsifying play index) of the first candidate within
    the budget that falsifies the formula, building and evaluating a Game
    per candidate."""
    agents = tuple(sorted(formula_agents(formula))) or ("a",)
    variables = tuple(sorted(formula_vars(formula))) or ("p0",)
    candidates = reference_candidates(agents, variables, one_outcome)
    for _, game in zip(range(budget.max_candidates), candidates):
        missing = ((1 << len(game.plays)) - 1) & ~extension_mask(game, formula)
        if missing:
            return game, next(i for i in range(len(game.plays)) if missing >> i & 1)
    return None


# ---------------------------------------------------------------------------
# Reference soundness sweep


def _reference_falsified(game, formula):
    missing = ((1 << len(game.plays)) - 1) & ~extension_mask(game, formula)
    return [i for i in range(len(game.plays)) if missing >> i & 1]


def reference_soundness_sweep(params, trials):
    """The sweep's report, each instance decided by its own extension_mask
    call (a fresh memo per instance)."""
    counts = {name: 0 for name in AXIOM_NAMES}
    counts["Necessitation"] = 0
    violations = []
    for trial in range(trials):
        game = gen_game(replace(params, seed=derive_seed(params.seed, trial, 0)))
        phi, psi = (
            gen_formula(replace(params, seed=derive_seed(params.seed, trial, k)), game.agents)
            for k in (1, 2)
        )
        rng = random.Random(derive_seed(params.seed, trial, 3))
        n = len(game.plays)
        for name, c, d in _sweep_instances(rng, game.agents):
            instance = build_axiom(name, phi, psi, c, d)
            counts[name] += n
            for idx in _reference_falsified(game, instance):
                violations.append(SweepViolation(name, trial, game, idx, instance))
        if not _reference_falsified(game, phi):
            for coalition in _all_coalitions(game.agents):
                lifted = Knows(coalition, phi)
                counts["Necessitation"] += n
                for idx in _reference_falsified(game, lifted):
                    violations.append(SweepViolation("Necessitation", trial, game, idx, lifted))
    return SweepReport(trials, MappingProxyType(counts), tuple(violations))


# ---------------------------------------------------------------------------
# Reference row layouts


def reference_layout(n, n_vars, count):
    """(rep, one mask per variable) of valuations 0..count-1 of frames of n
    plays, slot j at bits j*(n+1) up, each slot's masks written as binary
    text, the last slot first."""
    fmt, low = f"0{n + 1}b", (1 << n) - 1
    slots = range(count - 1, -1, -1)  # the last slot first, as int(text, 2) reads
    rep = int(("0" * n + "1") * count, 2)
    shifts = range(n * (n_vars - 1), -1, -n)  # generator._valuation's, variable by variable
    return rep, [int("".join([format(v >> k & low, fmt) for v in slots]), 2) for k in shifts]


def reference_truth_table(n):
    """The truth-table mask of each of n atoms over 2^n rows: atom i
    alternates in runs of 2^i rows."""
    masks = [0] * n
    width = 1
    for i in range(n):
        for j in range(i):
            masks[j] |= masks[j] << width
        masks[i] = ((1 << width) - 1) << width
        width <<= 1
    return masks
