"""The bitmask engine against the definitional oracle on random games.

Two families: generated games at the GenParams ceiling (3 agents, 4
states, 3 actions), checked for every coalition in K and B, and hand-built
games that break totality, so that some profiles have no play and prevent
vacuously.  Every play is compared: evaluate, extension, and blame_witness
against the oracle's first preventing profile in product order.

Each game is checked in two forms that build the engine's action masks
differently: with one profile object shared by all plays with that
profile, as loaded and generated games have, and with one dict per play,
as games built in code usually have.  Generated games are also checked
after a dump and load round trip.

The count-based validator is checked against the per-play one it replaced
(_helpers.reference_validate_game) on seeded random documents and on
single-site mutants of each, both as loaded and as built in code.
"""

import json
import random
from dataclasses import replace
from itertools import product

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from _helpers import naive_evaluate, naive_witness, reference_validate_game
from blamelogic.errors import ValidationError
from blamelogic.game import (
    Game,
    Play,
    dump_game,
    identity_partition,
    load_game,
    validate_game,
)
from blamelogic.generator import GenParams, gen_game
from blamelogic.semantics import blame_witness, evaluate, extension
from blamelogic.syntax import Blames, Implies, Knows, Neg, Var


def slow(max_examples):
    return settings(
        max_examples=max_examples,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
        derandomize=True,
    )


def _coalitions(agents):
    return [
        frozenset(a for a, keep in zip(agents, bits) if keep)
        for bits in product((False, True), repeat=len(agents))
    ]


def formulas(variables, agents, max_leaves):
    coalitions = st.sets(st.sampled_from(agents)).map(frozenset)
    return st.recursive(
        st.sampled_from(variables).map(Var),
        lambda sub: st.one_of(
            sub.map(Neg),
            st.builds(Implies, sub, sub),
            st.builds(Knows, coalitions, sub),
            st.builds(Blames, coalitions, sub),
        ),
        max_leaves=max_leaves,
    )


def propositional(variables):
    return st.recursive(
        st.sampled_from(variables).map(Var),
        lambda sub: st.one_of(sub.map(Neg), st.builds(Implies, sub, sub)),
        max_leaves=3,
    )


@st.composite
def ceiling_games(draw):
    return gen_game(
        GenParams(
            num_agents=3,
            num_states=4,
            num_actions=3,
            num_outcomes=draw(st.integers(1, 3)),
            num_variables=2,
            branching=draw(st.sampled_from((0.0, 0.15))),
            seed=draw(st.integers(0, 2**32)),
        )
    )


@st.composite
def non_total_games(draw):
    agents = ("a", "b", "c")[: draw(st.integers(1, 3))]
    states = tuple(f"s{i}" for i in range(draw(st.integers(1, 3))))
    actions = tuple(f"d{i}" for i in range(draw(st.integers(1, 3))))
    pairs = [(s, c) for s in states for c in product(actions, repeat=len(agents))]
    # per (state, profile): no play, an o0 play, an o1 play, or both
    n = len(pairs)
    kinds = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    plays = tuple(
        Play(state, dict(zip(agents, combo)), outcome)
        for (state, combo), kind in zip(pairs, kinds)
        for bit, outcome in ((1, "o0"), (2, "o1"))
        if kind & bit
    )
    indist = {}
    for agent in agents:
        k = len(states)
        labels = draw(st.lists(st.integers(0, 2), min_size=k, max_size=k))
        blocks = {}
        for state, label in zip(states, labels):
            blocks.setdefault(label, set()).add(state)
        indist[agent] = tuple(frozenset(b) for b in blocks.values())
    valuation = {
        var: frozenset(
            draw(st.sets(st.integers(0, len(plays) - 1))) if plays else ()
        )
        for var in ("p", "q")
    }
    return Game(agents, states, indist, actions, ("o0", "o1"), plays, valuation)


def _unshared(game):
    """The same game with one fresh profile dict per play."""
    plays = tuple(Play(p.state, dict(p.profile), p.outcome) for p in game.plays)
    return replace(game, plays=plays)


def _shared(game):
    """The same game with one profile object per distinct profile."""
    one = {}
    plays = tuple(
        Play(p.state, one.setdefault(tuple(sorted(p.profile.items())), p.profile), p.outcome)
        for p in game.plays
    )
    return replace(game, plays=plays)


def _agree(games, formula):
    expected = {
        i for i, p in enumerate(games[0].plays) if naive_evaluate(games[0], p, formula)
    }
    for game in games:
        assert extension(game, formula) == expected
        for i, play in enumerate(game.plays):
            assert evaluate(game, play, formula) == (i in expected)


def _witnesses_agree(games, coalition, formula):
    for i, play in enumerate(games[0].plays):
        expected = naive_witness(games[0], play, coalition, formula)
        for game in games:
            play = game.plays[i]
            w = blame_witness(game, play, coalition, formula)
            assert (None if w is None else w.choice) == expected
            blamed = evaluate(game, play, Blames(coalition, formula))
            assert blamed == (expected is not None)


@slow(max_examples=6)
@given(st.data())
def test_engine_matches_oracle_at_generator_ceiling(data):
    generated = data.draw(ceiling_games())
    games = [generated, _unshared(generated), load_game(dump_game(generated))]
    assert games[1] == generated and games[2] == generated
    psi = data.draw(propositional(("p0", "p1")))
    _agree(games, psi)
    for c in _coalitions(generated.agents):
        _agree(games, Knows(c, psi))
        _witnesses_agree(games, c, psi)


@slow(max_examples=100)
@given(st.data())
def test_engine_matches_oracle_on_non_total_games(data):
    built = data.draw(non_total_games())
    games = [built, _shared(built)]
    f = data.draw(formulas(("p", "q"), built.agents, max_leaves=3))
    _agree(games, f)
    for c in _coalitions(built.agents):
        _witnesses_agree(games, c, f)


# ---------------------------------------------------------------------------
# The validator against the per-play reference


def _random_document(rng, n_agents, n_states, n_actions, n_outcomes, branching):
    """A total game document with random partitions, extra outcomes and valuation."""
    agents = ["a", "b", "c", "e"][:n_agents]
    states = [f"s{i}" for i in range(n_states)]
    actions = [f"d{i}" for i in range(n_actions)]
    outcomes = [f"o{i}" for i in range(n_outcomes)]
    indist = {}
    for agent in agents:
        labels = [rng.randrange(n_states) for _ in states]
        indist[agent] = [
            [s for s, label in zip(states, labels) if label == k] for k in sorted(set(labels))
        ]
    plays = []
    for state in states:
        for combo in product(actions, repeat=n_agents):
            chosen = [o for o in outcomes if rng.random() < branching] or [rng.choice(outcomes)]
            for outcome in chosen:
                plays.append({"state": state, "profile": dict(zip(agents, combo)), "outcome": outcome})
    valuation = {
        v: [i for i in range(len(plays)) if rng.random() < 0.5] for v in ("p", "q")
    }
    return {
        "agents": agents,
        "states": states,
        "indist": indist,
        "actions": actions,
        "outcomes": outcomes,
        "plays": plays,
        "valuation": valuation,
    }


def _mutants(rng, doc):
    """(name, document) for each single-site change of the document."""
    plays = doc["plays"]
    i = rng.randrange(len(plays))
    agents = doc["agents"]

    def with_plays(new):
        return {**doc, "plays": new}

    def with_play(**fields):
        return with_plays(plays[:i] + [{**plays[i], **fields}] + plays[i + 1:])

    profile = plays[i]["profile"]
    keys = list(profile)
    rng.shuffle(keys)
    dropped = dict(profile)
    del dropped[rng.choice(agents)]
    wrong_action = {**profile, rng.choice(agents): "dz"}
    var = rng.choice(sorted(doc["valuation"]))
    yield "unchanged", doc
    yield "drop a play", with_plays(plays[:i] + plays[i + 1:])
    yield "duplicate a play", with_plays(plays + [plays[i]])
    yield "duplicate a play, keys reordered", with_plays(
        plays + [{**plays[i], "profile": {k: profile[k] for k in keys}}]
    )
    yield "reorder a profile's keys", with_play(profile={k: profile[k] for k in keys})
    yield "unknown state", with_play(state="sz")
    yield "unknown outcome", with_play(outcome="oz")
    yield "unknown action", with_play(profile=wrong_action)
    yield "agent added to a profile", with_play(profile={**profile, "zz": doc["actions"][0]})
    yield "agent removed from a profile", with_play(profile=dropped)
    yield "valuation index out of range", {
        **doc,
        "valuation": {**doc["valuation"], var: doc["valuation"][var] + [rng.choice((-1, len(plays)))]},
    }
    yield "state repeated", {**doc, "states": doc["states"] + [rng.choice(doc["states"])]}


def _built(doc):
    """The document's game built in code, one profile dict per play."""
    states = tuple(doc["states"])
    indist = {a: tuple(map(frozenset, blocks)) for a, blocks in doc["indist"].items()}
    for agent in doc["agents"]:
        indist.setdefault(agent, identity_partition(states))
    return Game(
        agents=tuple(doc["agents"]),
        states=states,
        indist=indist,
        actions=tuple(doc["actions"]),
        outcomes=tuple(doc["outcomes"]),
        plays=tuple(Play(p["state"], dict(p["profile"]), p["outcome"]) for p in doc["plays"]),
        valuation={v: frozenset(ix) for v, ix in doc["valuation"].items()},
    )


def _check_validators_agree(doc):
    built = _built(doc)
    expected = reference_validate_game(built)
    assert validate_game(built) == expected
    try:
        loaded = load_game(json.dumps(doc))
    except ValidationError as err:
        assert err.violations == expected.violations
        assert expected.violations
    else:
        assert not expected.violations
        assert loaded == built
        assert validate_game(loaded) == expected
    return expected


# (agents, states, actions, outcomes, branching): one to three agents, then
# the benchmark's three game shapes with fewer states and actions
_SMALL_SHAPES = [(1, 2, 2, 2, 0.3), (2, 2, 2, 2, 0.2), (3, 2, 2, 3, 0.15), (2, 3, 3, 2, 0.1)]
_SCALED_SHAPES = [(3, 4, 3, 3, 0.15), (4, 3, 2, 3, 0.1), (4, 4, 3, 3, 0.1)]


@pytest.mark.parametrize("shape", _SMALL_SHAPES + _SCALED_SHAPES)
def test_validator_matches_the_per_play_reference_on_mutants(shape):
    seeds = range(25) if shape in _SMALL_SHAPES else range(3)
    faults = set()
    for seed in seeds:
        rng = random.Random(f"validator/{shape}/{seed}")
        doc = _random_document(rng, *shape)
        for name, mutant in _mutants(rng, doc):
            if _check_validators_agree(mutant).violations:
                faults.add(name)
    # every mutant that breaks an invariant was caught at least once
    assert faults >= {
        "drop a play",
        "duplicate a play",
        "duplicate a play, keys reordered",
        "unknown state",
        "unknown outcome",
        "unknown action",
        "agent added to a profile",
        "agent removed from a profile",
        "valuation index out of range",
        "state repeated",
    }
    assert "unchanged" not in faults and "reorder a profile's keys" not in faults
