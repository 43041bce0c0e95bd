import gc
import json

import pytest
from hypothesis import given, settings, strategies as st

from itertools import product

from _helpers import naive_evaluate, naive_indist
from blamelogic.errors import PlayNotInGameError, UnknownAgentError
from blamelogic.game import Game, Play, dump_game, identity_partition, indistinguishable, load_game
from blamelogic.generator import GenParams, gen_formula, gen_game
from blamelogic import asset_path
from blamelogic.hilbert import deduction_transform, format_proof, is_tautology_instance, parse_proof
from blamelogic.semantics import (
    _classes,
    blame_witness,
    evaluate,
    extension,
    extension_mask,
    is_valid,
    semantic_entailment,
)
from blamelogic.syntax import Blames, Knows, conj, parse_formula, print_formula


def test_blame_false_under_imperfect_information(truck_manual):
    play = truck_manual.plays[3]
    assert play == Play("low", {"c": "slow-down"}, "collision")
    assert evaluate(truck_manual, play, parse_formula("col"))
    assert not evaluate(truck_manual, play, parse_formula("B{c}col"))


def test_blame_true_for_selfdriving(truck_selfdriving):
    play = truck_selfdriving.plays[3]
    assert evaluate(truck_selfdriving, play, parse_formula("B{c}col"))


def test_top_known_everywhere(truck_manual):
    for play in truck_manual.plays:
        assert evaluate(truck_manual, play, parse_formula("K{}true"))


def test_knowledge_fails_when_indistinguishable_play_differs(truck_manual):
    # oracle: scanning all four plays, (high, slow-down, no-collision)
    # is c-indistinguishable from low and falsifies col
    assert not evaluate(truck_manual, truck_manual.plays[3], parse_formula("K{c}col"))


def test_extension_examples(truck_manual):
    assert extension(truck_manual, parse_formula("col")) == {0, 3}
    assert extension(truck_manual, parse_formula("true")) == {0, 1, 2, 3}
    assert extension(truck_manual, parse_formula("false")) == frozenset()


def test_validity_examples(truck_manual):
    assert is_valid(truck_manual, parse_formula("K{c}col -> col"))
    assert not is_valid(truck_manual, parse_formula("col"))
    assert is_valid(truck_manual, parse_formula("~B{}p"))


def test_blame_witness_selfdriving(truck_selfdriving):
    w = blame_witness(
        truck_selfdriving, truck_selfdriving.plays[3], {"c"}, parse_formula("col")
    )
    assert w is not None
    assert w.choice == {"c": "speed-up"}
    assert w.describe() == "{c: speed-up}"


def test_blame_witness_none_under_imperfect_information(truck_manual):
    w = blame_witness(truck_manual, truck_manual.plays[3], {"c"}, parse_formula("col"))
    assert w is None


@pytest.mark.parametrize("coalition", ["c", "cc", b"c"])
def test_coalition_given_as_a_string_is_a_type_error(truck_selfdriving, coalition):
    # a str would read as the set of its characters: "cc" as {"c"}
    g = truck_selfdriving
    with pytest.raises(TypeError, match="^coalition must be a collection of agent names"):
        blame_witness(g, g.plays[3], coalition, parse_formula("col"))
    with pytest.raises(TypeError, match="^coalition must be a collection of agent names"):
        indistinguishable(g, coalition, "high", "low")


@pytest.mark.parametrize("coalition", [{1, "c"}, ["c", None], (b"c",), frozenset({("c",)})])
def test_coalition_member_that_is_no_str_is_a_type_error(truck_selfdriving, coalition):
    # the message Knows and Blames give, not a failure inside sorted
    g = truck_selfdriving
    with pytest.raises(TypeError, match="^coalition members must be str agent names"):
        blame_witness(g, g.plays[3], coalition, parse_formula("col"))
    with pytest.raises(TypeError, match="^coalition members must be str agent names"):
        indistinguishable(g, coalition, "high", "low")


@pytest.mark.parametrize("coalition", [{"c"}, ["c"], ("c",), frozenset({"c"})])
def test_coalition_of_any_collection_of_names(truck_selfdriving, coalition):
    g = truck_selfdriving
    w = blame_witness(g, g.plays[3], coalition, parse_formula("col"))
    assert w.coalition == frozenset({"c"})
    assert w.choice == {"c": "speed-up"}
    assert not indistinguishable(g, coalition, "high", "low")


def test_blame_witness_empty_coalition_never(truck_manual):
    play = truck_manual.plays[3]
    assert evaluate(truck_manual, play, parse_formula("col"))
    assert blame_witness(truck_manual, play, frozenset(), parse_formula("col")) is None


def test_entailment_examples(truck_manual):
    f = parse_formula("B{c}col -> col")
    assert semantic_entailment(truck_manual, [f], f)
    assert semantic_entailment(truck_manual, [], f)
    assert not semantic_entailment(
        truck_manual, [parse_formula("col")], parse_formula("K{}col")
    )


@pytest.mark.parametrize(
    "hypotheses, kind",
    [
        (parse_formula("col"), "Var"),
        (parse_formula("~col"), "Neg"),
        ("col", "str"),
        (b"col", "bytes"),
    ],
)
def test_entailment_hypotheses_that_are_no_collection(truck_manual, hypotheses, kind):
    # one formula or a str would be iterated as its parts or its characters
    message = f"^hypotheses must be a collection of formulas, not {kind}$"
    with pytest.raises(TypeError, match=message):
        semantic_entailment(truck_manual, hypotheses, parse_formula("col"))


def test_unknown_agent_rejected(truck_manual):
    g = truck_manual
    with pytest.raises(UnknownAgentError):
        evaluate(g, g.plays[0], parse_formula("K{zz}col"))
    with pytest.raises(UnknownAgentError):
        extension(g, parse_formula("B{zz}col"))
    with pytest.raises(UnknownAgentError):
        blame_witness(g, g.plays[0], {"zz"}, parse_formula("col"))
    # nested under another modality
    with pytest.raises(UnknownAgentError):
        evaluate(g, g.plays[0], parse_formula("K{c}~B{c,zz}col"))
    # only in a premise
    with pytest.raises(UnknownAgentError):
        semantic_entailment(g, [parse_formula("K{zz}col")], parse_formula("col"))
    with pytest.raises(UnknownAgentError):
        is_valid(g, parse_formula("K{zz}col -> col"))
    # the formula is false at the play, so no class is needed for the answer
    assert evaluate(g, g.plays[3], parse_formula("col"))
    with pytest.raises(UnknownAgentError):
        blame_witness(g, g.plays[3], {"c", "zz"}, parse_formula("~col"))


def test_unknown_agent_rejected_in_one_state_game():
    # a hand-built game whose only agent has no partition: with one state
    # there is no pair of states to compare, yet the agent is still unknown
    play = Play("s", {"a": "d"}, "o")
    g = Game(("a",), ("s",), {}, ("d",), ("o",), (play,), {"p": frozenset({0})})
    with pytest.raises(UnknownAgentError):
        evaluate(g, play, parse_formula("K{a}p"))
    with pytest.raises(UnknownAgentError):
        blame_witness(g, play, {"a"}, parse_formula("p"))


@st.composite
def _loose_partition_games(draw):
    """Hand-built games whose blocks may overlap, be empty or miss states;
    one play per state."""
    states = tuple(f"s{i}" for i in range(draw(st.integers(1, 5))))
    agents = ("a", "b", "c")[: draw(st.integers(1, 3))]
    blocks = st.frozensets(st.sampled_from(states))
    indist = {a: tuple(draw(st.lists(blocks, max_size=4))) for a in agents}
    plays = tuple(Play(s, {a: "d" for a in agents}, "o") for s in states)
    return Game(agents, states, indist, ("d",), ("o",), plays, {})


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_loose_partition_games())
def test_classes_group_states_as_indistinguishable(g):
    masks = g._masks

    def first_block(agent, s):
        return next((i for i, b in enumerate(g.indist[agent]) if s in b), None)

    for c in _coalitions(g.agents):
        classes = _classes(masks, c)
        for i, s1 in enumerate(g.states):
            (home,) = [b for b in classes if b >> i & 1]  # play i is in one class
            for j, s2 in enumerate(g.states):
                same = indistinguishable(g, c, s1, s2)
                assert same == all(first_block(a, s1) == first_block(a, s2) for a in c)
                assert bool(home >> j & 1) == same


def test_classes_group_the_declared_states_only():
    # play 1 is at x, a state the game does not declare: it is in no class
    # of any coalition, so K fails there, ~K{a}~p holds there and B has no
    # witness there, while plays 0 and 2 keep their class {s}
    plays = (Play("s", {"a": "d"}, "o"), Play("x", {"a": "d"}, "o"), Play("s", {"a": "e"}, "o"))
    g = Game(("a",), ("s",), {"a": (frozenset({"s"}),)}, ("d", "e"), ("o",), plays,
             {"p": frozenset({0, 1})})
    for text, expected in (("K{a}p", []), ("K{}p", []), ("B{a}p", [0]), ("~K{a}~p", [0, 1, 2])):
        assert sorted(extension(g, parse_formula(text))) == expected, text
    assert blame_witness(g, g.plays[1], {"a"}, parse_formula("p")) is None


def test_play_not_in_game(truck_manual):
    stranger = Play("low", {"c": "speed-up"}, "collision")
    with pytest.raises(PlayNotInGameError):
        evaluate(truck_manual, stranger, parse_formula("col"))


def test_a_play_equal_to_one_of_the_game_is_found_by_equality(truck_selfdriving):
    # a reloaded copy's play equals plays[3] but is another object
    twin = load_game(dump_game(truck_selfdriving)).plays[3]
    assert twin == truck_selfdriving.plays[3] and twin is not truck_selfdriving.plays[3]
    assert evaluate(truck_selfdriving, twin, parse_formula("B{c}col"))
    w = blame_witness(truck_selfdriving, twin, {"c"}, parse_formula("col"))
    assert w.choice == {"c": "speed-up"}


def test_blame_beyond_old_strategy_cap():
    # 7 agents x 8 actions: 8^7 > 10^6 strategies for the grand coalition.
    # The game is hand-built and not total, so most profiles have no play.
    agents = tuple("abcdefg")
    actions = tuple(f"d{i}" for i in range(8))

    def play(**moves):
        return Play("s", {a: moves.get(a, "d0") for a in agents}, "o")

    game = Game(
        agents,
        ("s",),
        {a: identity_partition(("s",)) for a in agents},
        actions,
        ("o",),
        (play(), play(a="d1"), play(g="d1")),
        {"p": frozenset({0, 2})},
    )
    assert len(game.plays) < len(actions) ** len(agents)
    everyone = frozenset(agents)
    # all-d0 meets play 0 and (d0,...,d0,d1) meets play 2, both p-plays;
    # (d0,...,d0,d2) meets no play at all, so it prevents p vacuously
    expected = {a: "d0" for a in agents} | {"g": "d2"}
    for idx in (0, 2):
        w = blame_witness(game, game.plays[idx], everyone, parse_formula("p"))
        assert w.choice == expected
    assert blame_witness(game, game.plays[1], everyone, parse_formula("p")) is None
    # a alone: d0 meets plays 0 and 2, d1 meets only play 1, where p fails
    w = blame_witness(game, game.plays[0], {"a"}, parse_formula("p"))
    assert w.choice == {"a": "d1"}
    f = Blames(everyone, parse_formula("p"))
    assert extension(game, f) == {0, 2}
    for p in game.plays:
        assert evaluate(game, p, f) == naive_evaluate(game, p, f)


def _coalitions(agents):
    out = [frozenset()]
    for agent in agents:
        out += [c | {agent} for c in out]
    return out


def _sample(seed, n_formulas=8, depth=2):
    params = GenParams(seed=seed, formula_depth=depth)
    game = gen_game(params)
    formulas = [
        gen_formula(GenParams(seed=seed * 1000 + i, formula_depth=depth), game.agents)
        for i in range(n_formulas)
    ]
    return game, formulas


def test_empty_coalition_knowledge_is_universal_modality():
    for seed in range(30):
        game, formulas = _sample(seed)
        for f in formulas:
            valid = is_valid(game, f)
            for play in game.plays:
                assert evaluate(game, play, Knows(frozenset(), f)) == valid


def test_s5_closure_of_knowledge():
    for seed in range(30):
        game, formulas = _sample(seed, n_formulas=4)
        for f in formulas:
            for c in _coalitions(game.agents):
                inst = Knows(c, f)
                for play in game.plays:
                    if evaluate(game, play, inst):
                        assert evaluate(game, play, Knows(c, inst))


def test_monotone_blame():
    for seed in range(40):
        game, formulas = _sample(seed, n_formulas=5)
        coalitions = _coalitions(game.agents)
        for f in formulas:
            for c in coalitions:
                for d in coalitions:
                    if c <= d:
                        for play in game.plays:
                            if evaluate(game, play, Blames(c, f)):
                                assert evaluate(game, play, Blames(d, f))


def test_witness_coherence_against_definition():
    for seed in range(40):
        game, formulas = _sample(seed, n_formulas=5, depth=1)
        for f in formulas:
            for c in _coalitions(game.agents):
                for play in game.plays:
                    w = blame_witness(game, play, c, f)
                    assert (w is not None) == evaluate(game, play, Blames(c, f))
                    if w is not None:
                        # replay the returned strategy against the raw clause
                        assert naive_evaluate(game, play, f)
                        for other in game.plays:
                            if naive_indist(game, c, play.state, other.state) and all(
                                other.profile[m] == w.choice[m] for m in sorted(c)
                            ):
                                assert not naive_evaluate(game, other, f)


def test_witness_is_lexicographically_smallest():
    for seed in range(25):
        game, formulas = _sample(seed, n_formulas=4, depth=1)
        members_all = sorted(game.agents)
        for f in formulas:
            for c in _coalitions(game.agents):
                w = blame_witness(game, game.plays[0], c, f)
                if w is None:
                    continue
                members = sorted(c)
                order = {act: i for i, act in enumerate(game.actions)}
                mine = tuple(order[w.choice[m]] for m in members)
                for combo in product(range(len(game.actions)), repeat=len(members)):
                    if combo == mine:
                        break
                    choice = {
                        m: game.actions[i] for m, i in zip(members, combo)
                    }
                    holds = True
                    for other in game.plays:
                        if naive_indist(
                            game, c, game.plays[0].state, other.state
                        ) and all(other.profile[m] == choice[m] for m in members):
                            if naive_evaluate(game, other, f):
                                holds = False
                                break
                    assert not holds, "a smaller strategy also works"


def test_evaluator_agrees_with_naive_oracle_spot():
    for seed in range(25):
        game, formulas = _sample(seed, n_formulas=6, depth=2)
        for f in formulas:
            for play in game.plays:
                assert evaluate(game, play, f) == naive_evaluate(game, play, f)


def test_nested_blame_of_conjunction(truck_selfdriving):
    # blame transfers to a conjunction the coalition could prevent the same way
    play = truck_selfdriving.plays[3]
    f = conj(parse_formula("col"), parse_formula("col"))
    assert evaluate(truck_selfdriving, play, Blames(frozenset({"c"}), f))


def _one_state_game(plays, valuation):
    return load_game(
        json.dumps(
            {
                "agents": ["a"],
                "states": ["s"],
                "actions": ["stay", "move"],
                "outcomes": ["bad", "good"],
                "plays": plays,
                "valuation": valuation,
            }
        )
    )


def test_nondeterministic_outcomes_all_must_falsify():
    # one state, one agent, two actions; the alternative action is
    # nondeterministic and only sometimes avoids p, so it does not count
    # as a preventing strategy
    nondet = _one_state_game(
        plays=[
            {"state": "s", "profile": {"a": "stay"}, "outcome": "bad"},
            {"state": "s", "profile": {"a": "move"}, "outcome": "good"},
            {"state": "s", "profile": {"a": "move"}, "outcome": "bad"},
        ],
        valuation={"p": [0, 2]},
    )
    play = nondet.plays[0]
    assert evaluate(nondet, play, parse_formula("p"))
    assert not evaluate(nondet, play, parse_formula("B{a}p"))

    determined = _one_state_game(
        plays=[
            {"state": "s", "profile": {"a": "stay"}, "outcome": "bad"},
            {"state": "s", "profile": {"a": "move"}, "outcome": "good"},
        ],
        valuation={"p": [0]},
    )
    assert evaluate(determined, determined.plays[0], parse_formula("B{a}p"))


@pytest.mark.parametrize(
    "name",
    ["extension_mask", "print_formula", "is_tautology_instance", "parse_proof", "format_proof"],
)
def test_hot_calls_leave_no_reference_cycles(truck_selfdriving, name):
    # garbage in reference cycles waits for the cyclic collector, whose
    # passes rescan every live object; these run thousands of times per
    # proof check or sweep, so they must leave none
    f = parse_formula("B{c}col -> K{c}(col | ~col) & (K{}col <-> ~B{c}~col)")
    script = parse_proof(asset_path("lemma5.proof").read_text())
    for phi in script.premises:
        script = deduction_transform(script, phi)
    text = format_proof(script)
    call = {
        "extension_mask": lambda: extension_mask(truck_selfdriving, f),
        "print_formula": lambda: print_formula(f),
        "is_tautology_instance": lambda: is_tautology_instance(f),
        "parse_proof": lambda: parse_proof(text),
        "format_proof": lambda: format_proof(script),
    }[name]
    call()  # first-use caches are not garbage
    gc.collect()
    gc.disable()
    try:
        for _ in range(100):
            call()
        assert gc.collect() == 0
    finally:
        gc.enable()
