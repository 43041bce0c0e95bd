"""Finite strategic games with imperfect information: model, loader, validator.

A game bundles initial states, one indistinguishability partition per agent,
actions, outcomes, a set of plays (state, complete action profile, outcome),
and a valuation from propositional variables to sets of play indices.
Totality is required: every (state, profile) pair must appear in at least
one play.  Games are treated as immutable after construction; every
operation here is a pure read.

The on-disk format is a single JSON document; see load_game / dump_game.
Agents absent from the "indist" map get the identity partition (perfect
information by default).
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field
from itertools import product

from .errors import (
    FormatError,
    UnknownAgentError,
    UnknownStateError,
    ValidationError,
)

IDENT_KEYS = ("agents", "states", "actions", "outcomes")


@dataclass(frozen=True)
class Play:
    state: str
    profile: dict  # agent name -> action name, total over the game's agents
    outcome: str


@dataclass(frozen=True)
class Strategy:
    """Action choice for each member of a coalition."""

    coalition: frozenset
    choice: dict  # agent name -> action name, domain == coalition

    def describe(self) -> str:
        inner = ", ".join(f"{a}: {self.choice[a]}" for a in sorted(self.coalition))
        return "{" + inner + "}"


@dataclass(frozen=True)
class Game:
    agents: tuple
    states: tuple
    indist: dict  # agent -> tuple of frozenset blocks partitioning states
    actions: tuple
    outcomes: tuple
    plays: tuple  # of Play
    valuation: dict  # variable name -> frozenset of play indices
    _block_of: dict = field(init=False, compare=False, repr=False, default=None)
    # play-set bitmasks, built on first use by the semantics module
    _masks: object = field(init=False, compare=False, repr=False, default=None)

    def __post_init__(self):
        # canonical block order makes structural equality and the
        # serialization round trip independent of construction order
        canonical = {
            agent: tuple(sorted(blocks, key=lambda b: tuple(sorted(b))))
            for agent, blocks in self.indist.items()
        }
        object.__setattr__(self, "indist", canonical)
        block_of = {}
        for agent, blocks in self.indist.items():
            lookup = {}
            for i, block in enumerate(blocks):
                for state in block:
                    lookup.setdefault(state, i)
            block_of[agent] = lookup
        object.__setattr__(self, "_block_of", block_of)


def identity_partition(states) -> tuple:
    return tuple(frozenset([s]) for s in states)


def indistinguishable(game: Game, coalition, s1: str, s2: str) -> bool:
    """True iff s1 and s2 fall in the same block for every coalition member.

    The empty coalition relates any two states.
    """
    for s in (s1, s2):
        if s not in game.states:
            raise UnknownStateError(f"unknown state: {s}")
    for agent in coalition:
        lookup = game._block_of.get(agent)
        if lookup is None:
            raise UnknownAgentError(f"unknown agent: {agent}")
        if lookup.get(s1) != lookup.get(s2):
            return False
    return True


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple
    warnings: tuple = ()

    @property
    def ok(self) -> bool:
        return not self.violations


def validate_game(game: Game) -> ValidationReport:
    """Check every model invariant; violations are data, not faults.

    Each violation message names its witness (agent, state pair, profile,
    or index).  Outcomes that appear in no play only warn.
    """
    bad = []
    warn = []

    for key in IDENT_KEYS:
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
                    bad.append(
                        f"partition for agent {agent} references unknown state: {state}"
                    )
            seen |= set(block)
        missing = states - seen
        if missing:
            bad.append(
                f"partition for agent {agent} does not cover state {sorted(missing)[0]}"
            )

    agents = set(game.agents)
    actions = set(game.actions)
    outcomes = set(game.outcomes)
    seen_plays = set()
    for i, play in enumerate(game.plays):
        if play.state not in states:
            bad.append(f"play {i} references unknown state: {play.state}")
        if play.outcome not in outcomes:
            bad.append(f"play {i} references unknown outcome: {play.outcome}")
        if set(play.profile) != agents:
            bad.append(f"play {i} profile domain is not exactly the agent set")
        else:
            for agent, action in play.profile.items():
                if action not in actions:
                    bad.append(f"play {i} references unknown action: {action}")
        key = (play.state, tuple(sorted(play.profile.items())), play.outcome)
        if key in seen_plays:
            bad.append(f"duplicate play at index {i}")
        seen_plays.add(key)

    covered = {
        (p.state, tuple(p.profile.get(a) for a in game.agents)) for p in game.plays
    }
    # counting keeps this linear in the plays; the profile space, which grows
    # as actions ** agents, is walked only up to a state's first missing profile
    counts = Counter(s for s, profile in covered if actions.issuperset(profile))
    for state in game.states:
        missing = len(actions) ** len(game.agents) - counts[state]
        if missing:
            profiles = product(game.actions, repeat=len(game.agents))
            first = next(pr for pr in profiles if (state, pr) not in covered)
            shown = {a: act for a, act in zip(game.agents, first)}
            more = f" ({missing} profiles missing)" if missing > 1 else ""
            bad.append(f"totality violated at ({state}, {shown}){more}")

    for var, indices in game.valuation.items():
        for idx in indices:
            if not (isinstance(idx, int) and 0 <= idx < len(game.plays)):
                bad.append(f"valuation index out of range: {var} -> {idx}")

    played = {p.outcome for p in game.plays}
    for outcome in game.outcomes:
        if outcome not in played:
            warn.append(f"outcome {outcome} appears in no play")

    return ValidationReport(tuple(bad), tuple(warn))


# ---------------------------------------------------------------------------
# Document loading / dumping


def _require(doc, key, typ, where="game document"):
    if key not in doc:
        raise FormatError(f"{where}: missing field {key!r}")
    value = doc[key]
    if not isinstance(value, typ):
        raise FormatError(f"{where}: field {key!r} must be a {typ.__name__}")
    return value


def _string_list(doc, key):
    values = _require(doc, key, list)
    for v in values:
        if not isinstance(v, str):
            raise FormatError(f"field {key!r} must contain only strings")
    return tuple(values)


def game_from_document(doc: dict) -> Game:
    """Build a Game from a parsed document; raises FormatError/ValidationError."""
    if not isinstance(doc, dict):
        raise FormatError("game document must be a JSON object")
    agents = _string_list(doc, "agents")
    states = _string_list(doc, "states")
    actions = _string_list(doc, "actions")
    outcomes = _string_list(doc, "outcomes")

    indist_doc = doc.get("indist", {})
    if not isinstance(indist_doc, dict):
        raise FormatError("field 'indist' must be an object")
    indist = {}
    for agent, blocks in indist_doc.items():
        if not isinstance(blocks, list) or not all(
            isinstance(b, list) and all(isinstance(s, str) for s in b) for b in blocks
        ):
            raise FormatError(f"indist for {agent!r} must be a list of string lists")
        indist[agent] = tuple(frozenset(b) for b in blocks)
    for agent in agents:
        indist.setdefault(agent, identity_partition(states))

    plays_doc = _require(doc, "plays", list)
    plays = []
    for i, entry in enumerate(plays_doc):
        if not isinstance(entry, dict):
            raise FormatError(f"play {i} must be an object")
        state = _require(entry, "state", str, where=f"play {i}")
        outcome = _require(entry, "outcome", str, where=f"play {i}")
        profile = _require(entry, "profile", dict, where=f"play {i}")
        for k, v in profile.items():
            if not isinstance(k, str) or not isinstance(v, str):
                raise FormatError(f"play {i}: profile entries must be strings")
        plays.append(Play(state, dict(profile), outcome))

    valuation_doc = doc.get("valuation", {})
    if not isinstance(valuation_doc, dict):
        raise FormatError("field 'valuation' must be an object")
    valuation = {}
    for var, indices in valuation_doc.items():
        if not isinstance(indices, list) or not all(
            isinstance(i, int) and not isinstance(i, bool) for i in indices
        ):
            raise FormatError(f"valuation for {var!r} must be a list of integers")
        valuation[var] = frozenset(indices)

    game = Game(agents, states, indist, actions, outcomes, tuple(plays), valuation)
    report = validate_game(game)
    if not report.ok:
        raise ValidationError(report.violations)
    return game


def load_game(text: str) -> Game:
    """Parse and validate the JSON game format; never returns an invalid Game."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise FormatError(f"not valid JSON: {e}") from e
    return game_from_document(doc)


def load_game_file(path) -> Game:
    with open(path, encoding="utf-8") as fh:
        return load_game(fh.read())


def game_to_document(game: Game) -> dict:
    return {
        "agents": list(game.agents),
        "states": list(game.states),
        "indist": {
            agent: sorted([sorted(block) for block in game.indist[agent]])
            for agent in game.agents
        },
        "actions": list(game.actions),
        "outcomes": list(game.outcomes),
        "plays": [
            {
                "state": p.state,
                "profile": {a: p.profile[a] for a in game.agents},
                "outcome": p.outcome,
            }
            for p in game.plays
        ],
        "valuation": {
            var: sorted(game.valuation[var]) for var in sorted(game.valuation)
        },
    }


def dump_game(game: Game) -> str:
    """Serialize to the load_game format; round-trips to an equal Game."""
    return json.dumps(game_to_document(game), indent=2)
