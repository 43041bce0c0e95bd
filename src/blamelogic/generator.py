"""Seeded random games and formulas, the axiom soundness sweep, and
bounded countermodel search.

Everything here is a pure function of its parameters: the same GenParams
(seed included) always yields the same game or formula.  The sweep
instantiates every axiom schema over generated games and computes each
instance's extension over all plays; any falsifying play is reported as a
violation witness that can be replayed.  Countermodel search enumerates tiny game
shapes exhaustively (smallest first) and then falls back to seeded random
games until the candidate budget runs out.

A random game is drawn as small ints (_draw) and then built (_build);
gen_game does both, and the search only draws.  The search works frame by
frame: a frame is a game without its valuation, and each distinct frame gets
one valuation-free Game and its play masks for the call.  Each distinct
candidate (frame, one mask per variable) is evaluated once against them;
a duplicate still counts against the budget.  Only the countermodel
returned is built as a Game of its own.
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


def _draw_partition(rng, n_states):
    """Block label of each state in a random partition, numbered by first
    appearance, so that equal partitions get equal labels."""
    if n_states == 1:
        return (0,)
    count = rng.randint(1, n_states)
    first = {}
    return tuple(first.setdefault(rng.randrange(count), len(first)) for _ in range(n_states))


def _profiles(agents, actions):
    """Every complete profile, in product order, one dict each.

    Plays share these dicts, as loaded plays share their profiles, so the
    semantics module builds its action masks once per profile, not per play.
    """
    return [dict(zip(agents, combo)) for combo in product(actions, repeat=len(agents))]


def _draw(rng, n_agents, shape, n_vars, branching):
    """The draws of one random game as small ints: (frame, valuation masks).

    shape is (states, actions, outcomes).  The frame is (shape, each
    agent's block labels, each play's (state, profile, outcome) ids), where
    profile ids count in _profiles order; bit i of a valuation mask is play i.
    """
    n_states, n_actions, n_outcomes = shape
    outcomes = range(n_outcomes)
    parts = tuple(_draw_partition(rng, n_states) for _ in range(n_agents))
    plays = []
    for state in range(n_states):
        for profile in range(n_actions**n_agents):
            first = rng.choice(outcomes)
            plays.append((state, profile, first))
            for extra in outcomes:
                if extra != first and rng.random() < branching:
                    plays.append((state, profile, extra))
    n = len(plays)
    masks = tuple(sum(1 << i for i in range(n) if rng.random() < 0.5) for _ in range(n_vars))
    return (shape, parts, tuple(plays)), masks


def _build(agents, frame, valuation):
    """The Game of a frame; valuation maps each variable to its play mask."""
    (n_states, n_actions, n_outcomes), parts, ids = frame
    states = tuple(f"s{i}" for i in range(n_states))
    actions = tuple(f"d{i}" for i in range(n_actions))
    outcomes = tuple(f"o{i}" for i in range(n_outcomes))
    indist = {}
    for agent, labels in zip(agents, parts):
        blocks = {}
        for state, label in zip(states, labels):
            blocks.setdefault(label, set()).add(state)
        indist[agent] = tuple(map(frozenset, blocks.values()))
    profiles = _profiles(agents, actions)
    plays = tuple(Play(states[s], profiles[p], outcomes[o]) for s, p, o in ids)
    valuation = {
        var: frozenset(i for i in range(len(plays)) if mask >> i & 1)
        for var, mask in valuation.items()
    }
    return Game(tuple(agents), states, indist, actions, outcomes, plays, valuation)


def gen_game(params: GenParams) -> Game:
    """Random game honoring the size bounds; totality holds by construction."""
    agents = AGENT_POOL[: params.num_agents]
    shape = (params.num_states, params.num_actions, params.num_outcomes)
    frame, masks = _draw(
        random.Random(params.seed), len(agents), shape, params.num_variables, params.branching
    )
    variables = (f"p{i}" for i in range(params.num_variables))
    return _build(agents, frame, dict(zip(variables, masks)))


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
# (states, actions, outcomes) of the exhaustive tiny games, smallest first
_TINY_SHAPES = (
    (1, 1, 1), (1, 2, 1), (1, 1, 2), (2, 1, 1), (1, 2, 2), (2, 2, 1), (2, 1, 2), (2, 2, 2)
)


def _candidates(n_agents, n_vars, budget):
    """(frame, valuation masks) of each candidate, in search order: the tiny
    frames with every valuation, then one seeded random game per draw."""
    for shape in _TINY_SHAPES:
        n_states, n_actions, n_outcomes = shape
        pairs = [(s, p) for s in range(n_states) for p in range(n_actions**n_agents)]
        # per agent, one block or two
        labels = [(0,)] if n_states == 1 else [(0, 0), (0, 1)]
        part_choices = list(product(labels, repeat=n_agents))
        for assignment in product(range(n_outcomes), repeat=len(pairs)):
            plays = tuple((s, p, o) for (s, p), o in zip(pairs, assignment))
            for parts in part_choices:
                frame = (shape, parts, plays)
                for masks in product(range(1 << len(plays)), repeat=n_vars):
                    yield frame, masks
    num_states, num_actions, num_outcomes, branching = _RANDOM_SHAPE
    for k in range(budget.max_candidates):
        rng = random.Random(derive_seed(budget.seed, 7, k))
        shape = (
            1 + rng.randrange(num_states),
            1 + rng.randrange(num_actions),
            1 + rng.randrange(num_outcomes),
        )
        yield _draw(rng, n_agents, shape, n_vars, branching)


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
    atoms = tuple(map(Var, variables))
    frames = {}  # frame -> (its number, its Game with no valuation, that Game's masks)
    checked = set()  # (frame number, valuation) of candidates that hold everywhere
    stream = _candidates(len(agents), len(variables), budget)
    for frame, valuation in islice(stream, budget.max_candidates):
        entry = frames.get(frame)
        if entry is None:
            game = _build(agents, frame, {})
            entry = frames[frame] = (len(frames), game, semantics._masks_of(game))
        number, game, masks = entry
        key = (number, valuation)
        if key in checked:
            continue
        checked.add(key)
        memo = dict(zip(atoms, valuation))
        missing = masks.full & ~semantics._ext(formula, masks.full, game, masks, memo)
        if missing:
            countermodel = _build(agents, frame, dict(zip(variables, valuation)))
            return countermodel, (missing & -missing).bit_length() - 1
    return None
