"""Seeded random games and formulas, the axiom soundness sweep, and
bounded countermodel search.

Everything here is a pure function of its parameters: the same GenParams
(seed included) always yields the same game or formula.  The sweep
instantiates every axiom schema over generated games and computes each
instance's extension over all plays; any falsifying play is reported as a
violation witness that can be replayed.  Countermodel search enumerates tiny game
shapes exhaustively (smallest first) and then falls back to seeded random
games until the candidate budget runs out.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from itertools import islice, product

from . import semantics
from .game import Game, Play
from .hilbert import AXIOM_NAMES, DISJOINT, SCHEMAS, SUBSET, build_axiom
from .syntax import (
    Blames,
    Formula,
    Implies,
    Knows,
    Neg,
    Var,
    formula_agents,
    formula_vars,
)

AGENT_POOL = ("a", "b", "c")

_BOUNDS = {
    "num_agents": (1, 3),
    "num_states": (1, 4),
    "num_actions": (1, 3),
    "num_outcomes": (1, 3),
    "num_variables": (1, 4),
    "formula_depth": (0, 5),
}

_SEED_MASK = (1 << 64) - 1
_MIX = 0x9E3779B97F4A7C15


@dataclass(frozen=True)
class GenParams:
    num_agents: int = 2
    num_states: int = 3
    num_actions: int = 2
    num_outcomes: int = 2
    num_variables: int = 2
    branching: float = 0.15
    formula_depth: int = 2
    seed: int = 0

    def __post_init__(self):
        for name, (lo, hi) in _BOUNDS.items():
            value = getattr(self, name)
            if not (isinstance(value, int) and lo <= value <= hi):
                raise ValueError(f"{name} must be an integer in {lo}..{hi}")
        if not 0.0 <= self.branching <= 1.0:
            raise ValueError("branching must be a probability in [0, 1]")
        _check_seed(self.seed)


def _check_seed(seed):
    if not (isinstance(seed, int) and 0 <= seed <= _SEED_MASK):
        raise ValueError("seed must be an unsigned 64-bit integer")


def derive_seed(seed: int, *salts: int) -> int:
    """Mix extra indices into a seed, staying in unsigned 64-bit range."""
    value = seed
    for salt in salts:
        value = (value * _MIX + salt + 1) & _SEED_MASK
    return value


def _random_partition(rng, states):
    if len(states) == 1:
        return (frozenset(states),)
    count = rng.randint(1, len(states))
    labels = [rng.randrange(count) for _ in states]
    blocks = {}
    for state, label in zip(states, labels):
        blocks.setdefault(label, set()).add(state)
    return tuple(frozenset(b) for _, b in sorted(blocks.items()))


def _profiles(agents, actions):
    """Every complete profile, in product order, one dict each.

    Plays share these dicts, as loaded plays share their profiles, so the
    semantics module builds its action masks once per profile, not per play.
    """
    return [dict(zip(agents, combo)) for combo in product(actions, repeat=len(agents))]


def _random_game(rng, agents, states, actions, outcomes, variables, branching):
    indist = {agent: _random_partition(rng, states) for agent in agents}
    profiles = _profiles(agents, actions)
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


def gen_game(params: GenParams) -> Game:
    """Random game honoring the size bounds; totality holds by construction."""
    rng = random.Random(params.seed)
    return _random_game(
        rng,
        AGENT_POOL[: params.num_agents],
        tuple(f"s{i}" for i in range(params.num_states)),
        tuple(f"d{i}" for i in range(params.num_actions)),
        tuple(f"o{i}" for i in range(params.num_outcomes)),
        tuple(f"p{i}" for i in range(params.num_variables)),
        params.branching,
    )


def _random_coalition(rng, agents):
    return frozenset(a for a in agents if rng.random() < 0.5)


def _random_formula(rng, depth, variables, agents):
    if depth <= 0:
        return Var(rng.choice(variables))
    pick = rng.random()
    if pick < 0.2:
        return Var(rng.choice(variables))
    if pick < 0.4:
        return Neg(_random_formula(rng, depth - 1, variables, agents))
    if pick < 0.65:
        return Implies(
            _random_formula(rng, depth - 1, variables, agents),
            _random_formula(rng, depth - 1, variables, agents),
        )
    node = Knows if pick < 0.85 else Blames
    return node(
        _random_coalition(rng, agents),
        _random_formula(rng, depth - 1, variables, agents),
    )


def gen_formula(params: GenParams, agents) -> Formula:
    """Random formula of depth <= formula_depth over the declared variables."""
    if not agents:
        raise ValueError("agents must be nonempty")
    rng = random.Random(params.seed)
    variables = tuple(f"p{i}" for i in range(params.num_variables))
    return _random_formula(rng, params.formula_depth, variables, tuple(sorted(agents)))


# ---------------------------------------------------------------------------
# Soundness sweep


@dataclass(frozen=True)
class SweepViolation:
    schema: str
    trial: int
    game: Game
    play_index: int
    formula: Formula


@dataclass(frozen=True)
class SweepReport:
    trials: int
    counts: dict
    violations: tuple

    @property
    def ok(self) -> bool:
        return not self.violations


def _all_coalitions(agents):
    out = []
    for mask in range(1 << len(agents)):
        out.append(frozenset(a for i, a in enumerate(agents) if mask >> i & 1))
    return out


def _sweep_instances(rng, agents, phi, psi):
    """Every axiom schema instantiated at random and boundary coalitions."""
    empty = frozenset()
    everyone = frozenset(agents)
    c = _random_coalition(rng, agents)
    extra = _random_coalition(rng, agents)
    d = c | extra
    # sorted so the draw is reproducible across processes (set iteration
    # order of strings varies with hash randomization)
    rest = tuple(sorted(everyone - c))
    disj_d = frozenset(a for a in rest if rng.random() < 0.5)
    # (C, D) pairs that meet each side condition of the schema table
    pairs = {
        None: [(c, empty), (empty, empty), (everyone, empty)],
        SUBSET: [(c, d), (empty, c), (c, everyone), (empty, everyone)],
        DISJOINT: [(c, disj_d), (empty, c), (c, empty)],
    }
    return [
        (name, build_axiom(name, phi, psi, one, two))
        for name, (_, side) in SCHEMAS.items()
        for one, two in pairs[side]
    ]


def _falsified(game: Game, formula: Formula) -> list:
    """Indices of the plays at which the formula fails, ascending."""
    missing = ((1 << len(game.plays)) - 1) & ~semantics.extension_mask(game, formula)
    if not missing:
        return []
    return [i for i in range(len(game.plays)) if missing >> i & 1]


def soundness_sweep(params: GenParams, trials: int) -> SweepReport:
    """Instantiate every axiom over generated games; report any falsifying play.

    Also checks that validity is preserved under prefixing a knowledge
    modality (the necessitation rule read semantically).
    """
    counts = {name: 0 for name in AXIOM_NAMES}
    counts["Necessitation"] = 0
    violations = []
    for trial in range(trials):
        game = gen_game(replace(params, seed=derive_seed(params.seed, trial, 0)))
        phi = gen_formula(
            replace(params, seed=derive_seed(params.seed, trial, 1)), game.agents
        )
        psi = gen_formula(
            replace(params, seed=derive_seed(params.seed, trial, 2)), game.agents
        )
        rng = random.Random(derive_seed(params.seed, trial, 3))
        n = len(game.plays)
        for name, instance in _sweep_instances(rng, game.agents, phi, psi):
            counts[name] += n
            for idx in _falsified(game, instance):
                violations.append(SweepViolation(name, trial, game, idx, instance))
        if not _falsified(game, phi):
            for coalition in _all_coalitions(game.agents):
                lifted = Knows(coalition, phi)
                counts["Necessitation"] += n
                for idx in _falsified(game, lifted):
                    violations.append(
                        SweepViolation("Necessitation", trial, game, idx, lifted)
                    )
    return SweepReport(trials, counts, tuple(violations))


# ---------------------------------------------------------------------------
# Countermodel search


@dataclass(frozen=True)
class SearchBudget:
    """Limits of find_countermodel: max_candidates counts every game it
    checks (the exhaustive tiny games, then random games of at most two
    states, actions and outcomes), and seed fixes the random games."""

    max_candidates: int = 5000
    seed: int = 0

    def __post_init__(self):
        _check_seed(self.seed)
        if self.max_candidates < 1:
            raise ValueError("max_candidates must be at least 1")


_RANDOM_SHAPE = (2, 2, 2, 0.15)  # most states, actions, outcomes; branching


_TINY_SHAPES = (
    (1, 1, 1),
    (1, 2, 1),
    (1, 1, 2),
    (2, 1, 1),
    (1, 2, 2),
    (2, 2, 1),
    (2, 1, 2),
    (2, 2, 2),
)


def _partitions(states):
    if len(states) <= 1:
        return [(frozenset(states),)]
    a, b = states
    return [(frozenset([a, b]),), (frozenset([a]), frozenset([b]))]


def _tiny_games(agents, variables):
    """Exhaustive minimal-play games over one- and two-element components."""
    for n_states, n_actions, n_outcomes in _TINY_SHAPES:
        states = tuple(f"s{i}" for i in range(n_states))
        actions = tuple(f"d{i}" for i in range(n_actions))
        outcomes = tuple(f"o{i}" for i in range(n_outcomes))
        pairs = [
            (state, profile)
            for state in states
            for profile in _profiles(agents, actions)
        ]
        partition_choices = list(product(*[_partitions(states) for _ in agents]))
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


def find_countermodel(formula: Formula, budget: SearchBudget = None):
    """Search for (game, play index) falsifying the formula, within budget.

    Candidate games use exactly the formula's agents and variables (with
    placeholders when it has none).  Returns None when the budget is
    exhausted; a returned play index is the lowest falsifying one.
    """
    if budget is None:
        budget = SearchBudget()
    agents = tuple(sorted(formula_agents(formula))) or ("a",)
    variables = tuple(sorted(formula_vars(formula))) or ("p0",)

    def candidates():
        yield from _tiny_games(agents, variables)
        num_states, num_actions, num_outcomes, branching = _RANDOM_SHAPE
        for k in range(budget.max_candidates):
            rng = random.Random(derive_seed(budget.seed, 7, k))
            yield _random_game(
                rng,
                agents,
                tuple(f"s{i}" for i in range(1 + rng.randrange(num_states))),
                tuple(f"d{i}" for i in range(1 + rng.randrange(num_actions))),
                tuple(f"o{i}" for i in range(1 + rng.randrange(num_outcomes))),
                variables,
                branching,
            )

    for game in islice(candidates(), budget.max_candidates):
        falsified = _falsified(game, formula)
        if falsified:
            return game, falsified[0]
    return None
