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
"""

from dataclasses import replace
from itertools import product

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from _helpers import naive_evaluate, naive_witness
from blamelogic.game import Game, Play, dump_game, load_game
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
