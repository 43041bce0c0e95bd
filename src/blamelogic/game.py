"""Finite strategic games with imperfect information: model, loader, index, validator.

A game bundles initial states, one indistinguishability partition per agent,
actions, outcomes, a set of plays (state, complete action profile, outcome),
and a valuation from propositional variables to sets of play indices.
Totality is required: every (state, profile) pair must appear in at least
one play.  Games are immutable after construction: a `Play` is a tuple,
`indist` and `valuation` are read-only mappings, and every operation here
is a pure read.

The loader's pass over the JSON plays is the one walk of a loaded game's
plays: for each it checks the three fields, gives all plays with equal
profile entries one shared, read-only profile, builds the Play and ORs its
bit into its state's mask and its profile's group.  Plays built in code
keep the profiles they were given.

Each game's index (`_Masks`), built by `Game.__post_init__`, holds all
that the validator and the semantics engine read: the play sets as
bitmasks, with plays grouped by profile object so per-profile work is done
once per distinct profile.  It takes the masks the loader gathered
(`_indexed_game`), else walks the plays; the countermodel search builds a
frame's index from its small ints (`_frame_index`), with no Game.  A state's
key under a coalition is its tuple of first-block indices under the members.

The validator counts in C: used states and outcomes must be declared, each
profile complete over declared actions, the (state, profile, outcome) keys
distinct and the (state, profile) pairs |states|*|actions|^|agents| in
number, each key a small int made of a state's position, its profile's
index-group id and an outcome's position.
Only when a count is off does it walk the plays (`_play_faults`), reading
each play's own profile to name its faults.

The on-disk format is a single JSON document; see load_game / dump_game.
Agents absent from the "indist" map get the identity partition (perfect
information by default).
"""

from __future__ import annotations

import json
from collections import Counter, namedtuple
from dataclasses import dataclass, field
from itertools import product, repeat
from operator import add
from types import MappingProxyType

from .errors import (
    FormatError,
    UnknownAgentError,
    UnknownStateError,
    ValidationError,
)

IDENT_KEYS = ("agents", "states", "actions", "outcomes")


class Play(namedtuple("Play", "state profile outcome")):
    """A read-only (state, profile, outcome) tuple, equal only to plays.

    profile maps each of the game's agents to an action; in a loaded game it
    is one read-only mapping shared by all plays with that profile.
    """

    __slots__ = ()

    def __eq__(self, other):
        return other.__class__ is self.__class__ and tuple.__eq__(self, other)

    def __ne__(self, other):
        return not self == other

    def __hash__(self):  # agrees with ==
        return hash((self.state, frozenset(self.profile.items()), self.outcome))


@dataclass(frozen=True)
class Strategy:
    """Action choice for each member of a coalition."""

    coalition: frozenset
    choice: dict  # agent name -> action name, domain == coalition; read-only copy

    def __post_init__(self):
        object.__setattr__(self, "choice", MappingProxyType(dict(self.choice)))

    def __hash__(self):  # agrees with ==, which compares the choice by its items
        return hash((self.coalition, frozenset(self.choice.items())))

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
    _masks: _Masks = field(init=False, compare=False, repr=False)

    def __post_init__(self, walked=None):  # walked: see _indexed_game
        # canonical block order makes structural equality and the
        # serialization round trip independent of construction order
        canonical = {
            agent: tuple(sorted(blocks, key=lambda b: tuple(sorted(b))))
            for agent, blocks in self.indist.items()
        }
        object.__setattr__(self, "indist", MappingProxyType(canonical))
        object.__setattr__(self, "valuation", MappingProxyType(dict(self.valuation)))
        object.__setattr__(self, "_masks", _game_index(self, walked))

    def __hash__(self):  # as for Play: the two mappings hash by their items
        mappings = frozenset(self.indist.items()), frozenset(self.valuation.items())
        return hash((self.agents, self.states, self.actions, self.outcomes, self.plays, mappings))


def _indexed_game(fields: tuple, walked: tuple) -> Game:
    """Game(*fields), its index taking walked, the (state masks, profile groups)
    that the caller gathered as it built the plays, in place of walking them."""
    game = object.__new__(Game)
    vars(game).update(zip(Game.__match_args__, fields))  # as the frozen __init__ sets them
    game.__post_init__(walked)
    return game


class _Masks:
    """A game's index, all that the engine reads of it: n plays, the declared
    states and actions, blocks (state -> first-block maps of the agents in
    both agents and indist), and each state's and (agent, action)'s plays as
    an int bitmask (bit i is play i).  A Game's index adds the profile
    groups, each play object's first position and the variable masks.
    Classes fill in on first use (_classes).  A Game's index is _ext's
    one-slot layout; a search frame's may have many slots (_frame_index)."""

    __slots__ = ("full", "state", "groups", "index", "act", "var", "classes", "n", "rep",
                 "states", "actions", "blocks")

    def __init__(self, n, states, actions, blocks, state, act, rep=1):
        self.n, self.full, self.rep, self.var, self.classes = n, ((1 << n) - 1) * rep, rep, {}, {}
        self.states, self.actions, self.blocks = states, actions, blocks
        self.state, self.act = state, act


def _game_index(game: Game, walked=None) -> _Masks:
    """The game's index; its state masks and profile groups (id(profile) ->
    `[profile, mask]`), both in first-play order, from walked or one pass."""
    state, groups = walked or ({}, {})
    if walked is None:
        bit = 1
        for s, profile, _ in game.plays:
            state[s] = state.get(s, 0) | bit
            groups.setdefault(id(profile), [profile, 0])[1] |= bit
            bit <<= 1
    act = {}  # (agent, action) -> plays where agent took action
    try:
        for profile, mask in groups.values():
            for key in profile.items():
                act[key] = act.get(key, 0) | mask
    except AttributeError:  # the group's first play is its lowest bit
        i = (mask & -mask).bit_length() - 1
        raise TypeError(f"play {i}: profile is not a mapping: {profile!r}") from None
    blocks = {  # built from the last block back, so a state's first block wins
        agent: {s: i for i, block in reversed(tuple(enumerate(part))) for s in block}
        for agent, part in game.indist.items() if agent in game.agents
    }
    n = len(game.plays)
    masks = _Masks(n, game.states, game.actions, blocks, state, act)
    masks.groups = groups
    # id(play) -> position, zipped from the back so an object's first one wins
    masks.index = dict(zip(map(id, reversed(game.plays)), range(n - 1, -1, -1)))
    for name, indices in game.valuation.items():
        digits = bytearray(b"0" * (n + 1))  # base 2 after a leading 0: play i is digits[~i]
        for i in indices:
            if isinstance(i, int) and 0 <= i < n:  # the validator names any other
                digits[~i] = 49  # "1"
        masks.var[name] = int(digits, 2)
    return masks


def _frame_index(agents, frame, rep=1) -> _Masks:
    """The index of generator._build(agents, frame, {}), each name read as
    its int, less the groups and play positions, built straight from the
    frame's small ints (see generator._draw): no Game, no mask per profile.
    Its play masks lie in every slot of rep (see semantics._ext)."""
    (n_states, n_actions, _), parts, ids = frame
    actions = tuple(range(n_actions))
    # each profile id's (agent, action) entries, in generator._build's order
    entries = list(product(*([(agent, d) for d in actions] for agent in agents)))
    state, act, bit = {}, {}, rep
    for s, p, _ in ids:
        state[s] = state.get(s, 0) | bit
        for key in entries[p]:
            act[key] = act.get(key, 0) | bit
        bit <<= 1
    blocks = {agent: dict(enumerate(labels)) for agent, labels in zip(agents, parts)}
    return _Masks(len(ids), tuple(range(n_states)), actions, blocks, state, act, rep)


def _indices(mask: int) -> list:
    """Positions of the set bits of a nonnegative mask, ascending."""
    return [i for i, bit in enumerate(bin(mask)[:1:-1]) if bit == "1"]


def identity_partition(states) -> tuple:
    return tuple(frozenset([s]) for s in states)


def _member_blocks(masks: _Masks, coalition) -> list:
    """The sorted members' state -> first-block maps; UnknownAgentError names
    the first member that is not in both the game's agents and indist."""
    try:
        return [masks.blocks[agent] for agent in sorted(coalition)]
    except KeyError as e:
        raise UnknownAgentError(f"unknown agent: {e.args[0]}") from None


def _classes(masks: _Masks, coalition) -> tuple:
    """Play masks of the coalition's indistinguishability classes, the
    declared states grouped by their keys; cached per coalition in the index."""
    classes = masks.classes.get(coalition)
    if classes is None:
        maps = _member_blocks(masks, coalition)
        groups = {}
        for s in masks.states:
            key = tuple([m.get(s) for m in maps])
            groups[key] = groups.get(key, 0) | masks.state.get(s, 0)
        classes = masks.classes[coalition] = tuple(b for b in groups.values() if b)
    return classes


def _coalition(coalition) -> frozenset:
    """The coalition, any iterable of agent names, as a frozenset.  A str or
    bytes is a TypeError: it would read as the set of its characters; so is
    a member that is not a str, as in Knows and Blames."""
    if isinstance(coalition, (str, bytes)):
        raise TypeError(f"coalition must be a collection of agent names, not {coalition!r}")
    coalition = frozenset(coalition)
    if not all(isinstance(agent, str) for agent in coalition):
        raise TypeError(f"coalition members must be str agent names: {coalition!r}")
    return coalition


def indistinguishable(game: Game, coalition, s1: str, s2: str) -> bool:
    """True iff s1 and s2 have the same key under the coalition.

    The empty coalition relates any two states.
    """
    coalition = _coalition(coalition)
    for s in (s1, s2):
        if s not in game.states:
            raise UnknownStateError(f"unknown state: {s}")
    return all(m.get(s1) == m.get(s2) for m in _member_blocks(game._masks, coalition))


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
    masks = game._masks
    ids = {}  # complete profile over declared actions, in agent order -> its id
    id_of = {}  # id(profile) -> that id, None unless complete over declared actions
    for pid, (profile, _) in masks.groups.items():
        in_order = tuple(map(profile.get, game.agents))
        complete = actions.issuperset(in_order) and profile.keys() == agents
        id_of[pid] = ids.setdefault(in_order, len(ids)) if complete else None
    n = len(game.plays)
    used_states, profiles, used_outcomes = zip(*game.plays) if n else ((),) * 3
    # counted in C over small ints: pair = state position * len(ids) + profile id,
    # key = pair + outcome position * len(game.states) * len(ids), so none collide
    counted = (None not in id_of.values() and states.issuperset(used_states)
               and outcomes.issuperset(used_outcomes))
    if counted:
        base = {s: i * len(ids) for i, s in enumerate(game.states)}
        out = {o: i * len(game.states) * len(ids) for i, o in enumerate(game.outcomes)}
        gids = map(id_of.__getitem__, map(id, profiles))
        pairs = list(map(add, map(base.__getitem__, used_states), gids))
        keys = set(map(add, pairs, map(out.__getitem__, used_outcomes)))
        counted = len(keys) == n and len(set(pairs)) == len(states) * len(actions) ** len(game.agents)
    if not counted:  # only when a count is off are the plays walked
        bad += _play_faults(game, agents, states, actions, outcomes)

    for var, indices in game.valuation.items():
        # the index's mask has a bit for each int index in range; when it
        # has one per index, every index is fine; else name each bad one
        if masks.var[var].bit_count() == len(indices):
            continue
        for idx in indices:
            if not (isinstance(idx, int) and 0 <= idx < n):
                bad.append(f"valuation index out of range: {var} -> {idx}")

    played = set(used_outcomes)
    for outcome in game.outcomes:
        if outcome not in played:
            warn.append(f"outcome {outcome} appears in no play")

    return ValidationReport(tuple(bad), tuple(warn))


def _play_faults(game: Game, agents, states, actions, outcomes) -> list:
    """Each play's faults in play order, then each state's totality gap."""
    bad = []
    seen_plays = set()
    covered = set()  # (state, profile in agent order) over declared actions
    for i, (state, profile, outcome) in enumerate(game.plays):
        in_order = tuple(map(profile.get, game.agents))
        if actions.issuperset(in_order):
            covered.add((state, in_order))
        if state not in states:
            bad.append(f"play {i} references unknown state: {state}")
        if outcome not in outcomes:
            bad.append(f"play {i} references unknown outcome: {outcome}")
        if profile.keys() == agents:
            unknown = [a for a in profile.values() if a not in actions]
            bad.extend(f"play {i} references unknown action: {a}" for a in unknown)
            key = (state, in_order, outcome)
        else:
            bad.append(f"play {i} profile domain is not exactly the agent set")
            key = (state, frozenset(profile.items()), outcome)
        if key in seen_plays:
            bad.append(f"duplicate play at index {i}")
        seen_plays.add(key)

    # counting keeps this linear in the plays; the profile space, which grows
    # as actions ** agents, is walked only up to a state's first missing profile
    counts = Counter(s for s, _ in covered)
    for state in game.states:
        missing = len(actions) ** len(game.agents) - counts[state]
        if missing:
            profiles = product(game.actions, repeat=len(game.agents))
            first = next(pr for pr in profiles if (state, pr) not in covered)
            shown = {a: act for a, act in zip(game.agents, first)}
            more = f" ({missing} profiles missing)" if missing > 1 else ""
            bad.append(f"totality violated at ({state}, {shown}){more}")
    return bad


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
    plays, masks = [], {}  # masks: state -> its plays' mask
    shared = {}  # profile entries -> [the one read-only copy of that profile, its plays' mask]
    new, bit = tuple.__new__, 1
    for i, entry in enumerate(plays_doc):
        if not isinstance(entry, dict):
            raise FormatError(f"play {i} must be an object")
        state, outcome, profile = entry.get("state"), entry.get("outcome"), entry.get("profile")
        if not (isinstance(state, str) and isinstance(outcome, str)
                and isinstance(profile, dict)):
            # raises, naming the first bad field in this order
            for name, typ in (("state", str), ("outcome", str), ("profile", dict)):
                _require(entry, name, typ, where=f"play {i}")
        key = (*profile, *profile.values())  # one tuple: agents, then actions
        try:
            group = shared.get(key)
        except TypeError:  # an unhashable entry, rejected below
            group = None
        if group is None:
            if not all(map(isinstance, key, repeat(str))):
                raise FormatError(f"play {i}: profile entries must be strings")
            group = shared[key] = [MappingProxyType(dict(profile)), 0]
        group[1] |= bit
        masks[state] = masks.get(state, 0) | bit
        plays.append(new(Play, (state, group[0], outcome)))
        bit <<= 1

    valuation_doc = doc.get("valuation", {})
    if not isinstance(valuation_doc, dict):
        raise FormatError("field 'valuation' must be an object")
    valuation = {}
    for var, indices in valuation_doc.items():
        if not isinstance(indices, list) or not (
            {int}.issuperset(map(type, indices))  # the usual case, checked in C
            or all(isinstance(i, int) and not isinstance(i, bool) for i in indices)
        ):
            raise FormatError(f"valuation for {var!r} must be a list of integers")
        valuation[var] = frozenset(indices)
        if len(valuation[var]) < len(indices):
            raise FormatError(f"valuation for {var!r} lists an index twice")

    fields = agents, states, indist, actions, outcomes, tuple(plays), valuation
    game = _indexed_game(fields, (masks, {id(g[0]): g for g in shared.values()}))
    report = validate_game(game)
    if not report.ok:
        raise ValidationError(report.violations)
    return game


def load_game(text: str) -> Game:
    """Parse and validate the JSON game format; never returns an invalid Game."""
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as e:  # JSONDecodeError, a huge int; nested too deeply
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
