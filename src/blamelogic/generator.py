"""Seeded random games and formulas, the axiom soundness sweep, and
bounded countermodel search.

Everything here is a pure function of its parameters: the same GenParams
(seed included) always yields the same game or formula.  A random game is
drawn as small ints, frame then valuation, in one call (_draw), which
gen_game builds (_build).  The sweep instantiates every axiom schema over
such draws; any falsifying play is reported as a violation witness that
can be replayed.  The truth definition reads a subformula only through its
extension, so a substitution instance has the extension of its template,
the same schema over the placeholders _PHI and _PSI, given phi's and psi's
masks.  A trial evaluates its frame's index (game._frame_index), as the
search does, with one memo that its checks share, seeded with the
variables' masks and then phi's and psi's.  Templates are built once per
(schema, C, D) and kept (_TEMPLATES); only a falsified template has its
real instance built, and only a trial with a violation its Game, once.

Countermodel search draws nothing: it walks one bounded space of games, of
at most two states, actions and outcomes, in a fixed order until the
candidate budget or the space runs out, so None means that no candidate
within the budget falsifies the formula.  A frame is a game without its
valuation (_frames gives them in walk order, smallest shape first), and a
candidate is a frame under one valuation.  A frame's valuations are
evaluated side by side, in batches of slots (_layout), one _ext pass per
batch, over an index built from the frame's small ints in those slots
(game._frame_index).  Only the countermodel returned is built as a Game.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations, product
from types import MappingProxyType

from . import semantics
from .game import Game, Play, _coalition, _frame_index, _indices
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
            if not (type(value) is int and lo <= value <= hi):  # bool is no count
                raise ValueError(f"{name} must be an integer in {lo}..{hi}")
        if not (type(self.branching) in (int, float) and 0.0 <= self.branching <= 1.0):
            raise ValueError("branching must be a probability in [0, 1]")
        if not (type(self.seed) is int and 0 <= self.seed <= _SEED_MASK):
            raise ValueError("seed must be an unsigned 64-bit integer")


def derive_seed(seed: int, *salts: int) -> int:
    """Mix extra indices into a seed, staying in unsigned 64-bit range."""
    value = seed
    for salt in salts:
        value = (value * _MIX + salt + 1) & _SEED_MASK
    return value


def _check_params(params):
    if not isinstance(params, GenParams):
        raise TypeError(f"params must be a GenParams, not {type(params).__name__}")


def _draw(rng, n_agents, shape, branching, n_vars):
    """One random game as small ints: (frame, one valuation mask per variable).

    shape is (states, actions, outcomes).  The frame is (shape, each agent's
    block labels, each play's (state, profile, outcome) ids).  An agent's
    partition's labels number its blocks by first appearance, so that equal
    partitions get equal labels; profile ids count in _build's order; bit i
    of a mask is play i.  The draws are partitions, then plays, then masks.
    """
    randint, randrange, random = rng.randint, rng.randrange, rng.random
    n_states, n_actions, n_outcomes = shape
    if n_states == 1:  # no draw: randint(1, 1) would still read a bit
        parts = ((0,),) * n_agents
    else:
        parts = []
        for _ in range(n_agents):
            count, first = randint(1, n_states), {}
            labels = [first.setdefault(randrange(count), len(first)) for _ in range(n_states)]
            parts.append(tuple(labels))
        parts = tuple(parts)
    plays = []
    for state in range(n_states):
        for profile in range(n_actions**n_agents):
            outcome = randrange(n_outcomes)
            plays.append((state, profile, outcome))
            for extra in range(n_outcomes):
                if extra != outcome and random() < branching:
                    plays.append((state, profile, extra))
    masks = []
    for _ in range(n_vars):
        mask = 0
        for i in range(len(plays)):
            if random() < 0.5:
                mask |= 1 << i
        masks.append(mask)
    return (shape, parts, tuple(plays)), tuple(masks)


def _build(agents, frame, valuation):
    """The Game of a frame; valuation maps each variable to its play mask."""
    (n_states, n_actions, n_outcomes), parts, ids = frame
    states = tuple(f"s{i}" for i in range(n_states))
    actions = tuple(f"d{i}" for i in range(n_actions))
    outcomes = tuple(f"o{i}" for i in range(n_outcomes))
    indist = {  # an agent's labels number its blocks
        agent: tuple(frozenset(s for s, b in zip(states, labels) if b == k) for k in set(labels))
        for agent, labels in zip(agents, parts)
    }
    # one dict per profile, in product order, shared by its plays as loaded
    # plays share theirs, so the index builds its action masks once per profile
    profiles = [dict(zip(agents, combo)) for combo in product(actions, repeat=len(agents))]
    plays = tuple([tuple.__new__(Play, (states[s], profiles[p], outcomes[o])) for s, p, o in ids])
    valuation = {var: frozenset(_indices(mask)) for var, mask in valuation.items()}
    return Game(tuple(agents), states, indist, actions, outcomes, plays, valuation)


def _drawn(params, rng):
    """(agents, frame, variable -> mask) of the game that params draw from rng."""
    agents = AGENT_POOL[: params.num_agents]
    shape = (params.num_states, params.num_actions, params.num_outcomes)
    frame, masks = _draw(rng, len(agents), shape, params.branching, params.num_variables)
    variables = (f"p{i}" for i in range(params.num_variables))
    return agents, frame, dict(zip(variables, masks))


def gen_game(params: GenParams) -> Game:
    """Random game honoring the size bounds; totality holds by construction."""
    _check_params(params)
    return _build(*_drawn(params, random.Random(params.seed)))


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
    _check_params(params)
    agents = _coalition(agents)
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
    counts: dict  # read-only: schema name -> (instance, play) pairs checked
    violations: tuple

    def __hash__(self):  # agrees with ==, which compares the counts by their items
        return hash((self.trials, frozenset(self.counts.items()), self.violations))

    @property
    def ok(self) -> bool:
        return not self.violations


# the placeholders of the sweep's templates: no parsed variable has a "#"
_PHI, _PSI = Var("#phi"), Var("#psi")
_TEMPLATES = {}  # (schema, C, D) -> its instance over _PHI and _PSI, built on first use


def _all_coalitions(agents):
    out = []
    for mask in range(1 << len(agents)):
        out.append(frozenset(a for i, a in enumerate(agents) if mask >> i & 1))
    return out


def _sweep_instances(rng, agents):
    """(schema, C, D) of every axiom schema at random and boundary coalitions."""
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
    return [(name, one, two) for name, (_, side) in SCHEMAS.items() for one, two in pairs[side]]


def _instance(name, phi, psi, c, d):
    """The instance of an axiom schema at (phi, psi, C, D), or Necessitation's
    lift K{C}phi."""
    return Knows(c, phi) if name == "Necessitation" else build_axiom(name, phi, psi, c, d)


def soundness_sweep(params: GenParams, trials: int) -> SweepReport:
    """Instantiate every axiom over generated games; report any falsifying play.

    Also checks that validity is preserved under prefixing a knowledge
    modality (the necessitation rule read semantically).  A trial draws
    gen_game's game at its seed as a frame and evaluates over the frame's
    index, with one memo that its checks share, seeded with the variables'
    masks and then phi's and psi's.  Each check evaluates a template over
    _PHI and _PSI; only a falsified template has its real instance built,
    and only a trial with a violation its Game, once, for all its violations.
    """
    _check_params(params)
    if type(trials) is not int:  # bool is no count
        raise ValueError(f"trials must be an integer, not {type(trials).__name__}")
    if trials < 0:
        raise ValueError("trials must be nonnegative")
    counts = {name: 0 for name in AXIOM_NAMES}
    counts["Necessitation"] = 0
    violations = []
    for trial in range(trials):
        agents, frame, valuation = _drawn(params, random.Random(derive_seed(params.seed, trial, 0)))
        phi, psi = (
            _random_formula(random.Random(derive_seed(params.seed, trial, k)),
                            params.formula_depth, tuple(valuation), agents)
            for k in (1, 2)
        )
        index, game = _frame_index(agents, frame), None  # the Game only for a violation
        memo = {Var(x): mask for x, mask in valuation.items()}  # as the search seeds it
        memo[_PHI], memo[_PSI] = semantics._ext(phi, index, memo), semantics._ext(psi, index, memo)
        checks = _sweep_instances(random.Random(derive_seed(params.seed, trial, 3)), agents)
        if not index.full & ~memo[_PHI]:  # phi is valid: so must each K{C}phi be
            checks += [("Necessitation", c, None) for c in _all_coalitions(agents)]
        for key in checks:
            name, c, d = key
            counts[name] += index.n
            template = _TEMPLATES.get(key)
            if template is None:
                template = _TEMPLATES[key] = _instance(name, _PHI, _PSI, c, d)
            missing = index.full & ~semantics._ext(template, index, memo)
            if missing:  # valid is the usual case: build the instance only for the report
                instance = _instance(name, phi, psi, c, d)
                game = game or _build(agents, frame, valuation)  # one per trial
                for i in _indices(missing):
                    violations.append(SweepViolation(name, trial, game, i, instance))
    return SweepReport(trials, MappingProxyType(counts), tuple(violations))


# ---------------------------------------------------------------------------
# Countermodel search


@dataclass(frozen=True)
class SearchBudget:
    """Limits of find_countermodel: max_candidates counts every game it
    checks, each candidate of the bounded space at most once."""

    max_candidates: int = 5000

    def __post_init__(self):
        if type(self.max_candidates) is not int:
            raise ValueError("max_candidates must be an integer")
        if self.max_candidates < 1:
            raise ValueError("max_candidates must be at least 1")


# (states, actions, outcomes) of the searched games, smallest first
_TINY_SHAPES = (
    (1, 1, 1), (1, 2, 1), (1, 1, 2), (2, 1, 1), (1, 2, 2), (2, 2, 1), (2, 1, 2), (2, 2, 2)
)
# bound on the bits of one _ext pass: a frame of n plays takes batches of
# max(1, _BITS >> n.bit_length()) slots of n + 1 bits, a power of two, so
# a frame of more valuations splits into whole batches, each at a multiple
_BITS = 1 << 16


def _frames(n_agents):
    """Each frame of the search, in walk order: the frames of every shape
    with one outcome per (state, profile) pair, then those where some pair
    has more, shape by shape both times.  A shape's pairs take their
    outcome sets in product order, sets by size and then in order, the
    plays of a pair in ascending outcome order; then come the partitions,
    each agent's one block or two."""
    for branching in (False, True):
        for shape in _TINY_SHAPES:
            n_states, n_actions, n_outcomes = shape
            pairs = [(s, p) for s in range(n_states) for p in range(n_actions**n_agents)]
            sizes = range(1, n_outcomes + 1 if branching else 2)
            sets = [c for k in sizes for c in combinations(range(n_outcomes), k)]
            labels = [(0,)] if n_states == 1 else [(0, 0), (0, 1)]
            part_choices = list(product(labels, repeat=n_agents))
            for chosen in product(sets, repeat=len(pairs)):
                plays = tuple([(s, p, o) for (s, p), outs in zip(pairs, chosen) for o in outs])
                if branching and len(plays) == len(pairs):
                    continue  # one outcome per pair: the first pass walked it
                for parts in part_choices:
                    yield shape, parts, plays


def _valuation(v, n, n_vars):
    """The masks of valuation v of a frame of n plays, one per variable, in
    the product order of the masks: the last variable's mask is v's lowest
    n bits."""
    return [v >> n * k & (1 << n) - 1 for k in range(n_vars - 1, -1, -1)]


def _layout(n, n_vars, count):
    """(rep, one mask per variable) of valuations 0..count-1 of frames of n
    plays: slot j, row j of semantics._rows, holds valuation j in its n play
    bits, then a clear guard bit, and rep has each slot's lowest bit.  Play
    bit b of the variable of _valuation shift k is bit k + b of j."""
    rep, patterns = semantics._rows((count - 1).bit_length(), n + 1)
    cut, shifts = (1 << count * (n + 1)) - 1, range(n * (n_vars - 1), -1, -n)
    return rep & cut, [sum(p << b for b, p in enumerate(patterns[k : k + n])) & cut for k in shifts]


def find_countermodel(formula: Formula, budget: SearchBudget = None):
    """Search for (game, play index) falsifying the formula, within budget,
    a SearchBudget (None means the default one).

    Candidate games use exactly the formula's agents and variables (with
    placeholders when it has none).  The search checks the candidates of
    _frames in order, each frame's valuations in product order, and stops
    after budget.max_candidates of them or at the end of the bounded space.
    It returns the first candidate that falsifies the formula, with its
    lowest falsifying play, or None when no candidate checked does.
    """
    if budget is None:
        budget = SearchBudget()
    elif not isinstance(budget, SearchBudget):
        raise TypeError(f"budget must be a SearchBudget or None, not {type(budget).__name__}")
    agents = tuple(sorted(formula_agents(formula))) or ("a",)
    variables = tuple(sorted(formula_vars(formula))) or ("p0",)
    n_vars, left = len(variables), budget.max_candidates
    layouts = {}  # (plays per frame, slots) -> (rep, Var node -> mask) of its _layout
    for frame in _frames(len(agents)):
        n, index = len(frame[2]), None
        total, size = 1 << n * n_vars, max(1, _BITS >> n.bit_length())
        for start in range(0, total, size):
            count = min(total, size, left)
            if (n, count) not in layouts:
                rep, patterns = _layout(n, n_vars, count)
                layouts[n, count] = rep, dict(zip(map(Var, variables), patterns))
            rep, var = layouts[n, count]
            if index is None or index.rep != rep:  # a first batch, or one the budget cut short
                index = _frame_index(agents, frame, rep)
            if start:  # a multiple of size: valuation start + j is start's masks OR'd with j's
                high = _valuation(start, n, n_vars)
                var = {x: pattern | mask * rep for (x, pattern), mask in zip(var.items(), high)}
            # the memo starts with the variables' masks, as in a tautology check
            missing = index.full & ~semantics._ext(formula, index, dict(var))
            if missing:
                j, play = divmod((missing & -missing).bit_length() - 1, n + 1)
                valuation = _valuation(start + j, n, n_vars)
                return _build(agents, frame, dict(zip(variables, valuation))), play
            left -= count
            if not left:
                return None
    return None
