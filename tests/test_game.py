import json
import time

import pytest
from hypothesis import given, strategies as st

from blamelogic.errors import (
    FormatError,
    UnknownAgentError,
    UnknownStateError,
    ValidationError,
)
from blamelogic.game import (
    Game,
    game_from_document,
    Play,
    dump_game,
    game_to_document,
    indistinguishable,
    load_game,
    validate_game,
)
from blamelogic.generator import GenParams, gen_game

BASE = {
    "agents": ["c"],
    "states": ["high", "low"],
    "indist": {"c": [["high", "low"]]},
    "actions": ["speed-up", "slow-down"],
    "outcomes": ["collision", "no-collision"],
    "plays": [
        {"state": "high", "profile": {"c": "speed-up"}, "outcome": "collision"},
        {"state": "high", "profile": {"c": "slow-down"}, "outcome": "no-collision"},
        {"state": "low", "profile": {"c": "speed-up"}, "outcome": "no-collision"},
        {"state": "low", "profile": {"c": "slow-down"}, "outcome": "collision"},
    ],
    "valuation": {"col": [0, 3]},
}


def doc(**overrides):
    out = {k: json.loads(json.dumps(v)) for k, v in BASE.items()}
    out.update(overrides)
    return json.dumps(out)


def test_load_truck_manual(truck_manual):
    g = truck_manual
    assert len(g.states) == 2
    assert len(g.agents) == 1
    assert len(g.actions) == 2
    assert len(g.outcomes) == 2
    assert len(g.plays) == 4
    assert g.valuation["col"] == frozenset({0, 3})
    assert validate_game(g).ok


def test_totality_violation_reports_witness():
    plays = [p for p in BASE["plays"] if not (p["state"] == "high" and p["profile"]["c"] == "speed-up")]
    with pytest.raises(ValidationError) as err:
        load_game(doc(plays=plays, valuation={"col": [2]}))
    assert any("totality violated" in v and "speed-up" in v for v in err.value.violations)


def test_totality_check_does_not_walk_the_profile_space():
    # 8 agents x 8 actions: 8**8 profiles per state, one play in all
    agents = [f"a{i}" for i in range(8)]
    actions = [f"x{i}" for i in range(8)]
    play = {"state": "high", "profile": {a: "x0" for a in agents}, "outcome": "collision"}
    started = time.perf_counter()
    with pytest.raises(ValidationError) as err:
        load_game(doc(agents=agents, indist={}, actions=actions, plays=[play], valuation={}))
    assert time.perf_counter() - started < 1.0
    totality = [v for v in err.value.violations if "totality violated" in v]
    assert len(totality) == 2  # at most one per state
    high, low = totality
    assert high.startswith("totality violated at (high, {'a0': 'x0'")
    assert "'a7': 'x1'}) (16777215 profiles missing)" in high
    assert low.endswith("'a7': 'x0'}) (16777216 profiles missing)")


def test_overlapping_blocks_are_not_a_partition():
    with pytest.raises(ValidationError) as err:
        load_game(doc(indist={"c": [["high", "low"], ["low"]]}))
    assert any("not a partition" in v for v in err.value.violations)


def test_empty_actions_rejected():
    with pytest.raises(ValidationError) as err:
        load_game(doc(actions=[], plays=[]))
    assert any("actions must be nonempty" in v for v in err.value.violations)


def test_valuation_index_out_of_range():
    with pytest.raises(ValidationError) as err:
        load_game(doc(valuation={"col": [99]}))
    assert any("valuation index out of range" in v for v in err.value.violations)


def test_partition_must_cover_states():
    with pytest.raises(ValidationError) as err:
        load_game(doc(indist={"c": [["high"]]}))
    assert any("does not cover" in v for v in err.value.violations)


def test_unknown_agent_in_indist():
    with pytest.raises(ValidationError) as err:
        load_game(doc(indist={"c": [["high", "low"]], "zz": [["high", "low"]]}))
    assert any("unknown agent" in v for v in err.value.violations)


def test_duplicate_play_rejected():
    plays = BASE["plays"] + [BASE["plays"][0]]
    with pytest.raises(ValidationError) as err:
        load_game(doc(plays=plays))
    assert any("duplicate play" in v for v in err.value.violations)


def test_profile_domain_must_match_agents():
    plays = json.loads(json.dumps(BASE["plays"]))
    plays[0]["profile"] = {}
    with pytest.raises(ValidationError) as err:
        load_game(doc(plays=plays))
    assert any("profile domain" in v for v in err.value.violations)


def test_unplayed_outcome_only_warns():
    g = load_game(doc(outcomes=["collision", "no-collision", "fire"]))
    report = validate_game(g)
    assert report.ok
    assert any("appears in no play" in w for w in report.warnings)


def test_missing_indist_defaults_to_identity():
    raw = json.loads(doc())
    del raw["indist"]
    g = load_game(json.dumps(raw))
    assert g.indist["c"] == (frozenset({"high"}), frozenset({"low"}))
    assert not indistinguishable(g, {"c"}, "high", "low")


@pytest.mark.parametrize(
    "broken",
    [
        "not json at all {",
        '{"agents": "c"}',
        '{"agents": ["c"], "states": ["s"], "actions": ["d"], "outcomes": ["o"]}',
        '{"agents": ["c"], "states": ["s"], "actions": ["d"], "outcomes": ["o"], "plays": [{"state": "s"}]}',
        '{"agents": ["c"], "states": ["s"], "actions": ["d"], "outcomes": ["o"], "plays": [], "valuation": {"p": "x"}}',
        '{"agents": ["c"], "states": ["s"], "actions": ["d"], "outcomes": ["o"], "plays": [{"state": "s", "profile": {"c": "d"}, "outcome": "o"}], "valuation": {"p": [0, 0]}}',
    ],
)
def test_malformed_documents_raise_format_error(broken):
    with pytest.raises(FormatError):
        load_game(broken)


def test_indistinguishable_truck_examples(truck_manual, truck_selfdriving):
    assert indistinguishable(truck_manual, {"c"}, "high", "low")
    assert not indistinguishable(truck_selfdriving, {"c"}, "high", "low")
    assert indistinguishable(truck_selfdriving, frozenset(), "high", "low")


def test_indistinguishable_errors(truck_manual):
    with pytest.raises(UnknownStateError):
        indistinguishable(truck_manual, {"c"}, "nowhere", "low")
    with pytest.raises(UnknownAgentError):
        indistinguishable(truck_manual, {"zz"}, "high", "low")


def _coalitions(agents):
    out = [frozenset()]
    for agent in agents:
        out += [c | {agent} for c in out]
    return out


def test_indistinguishability_is_an_equivalence_and_antitone():
    for seed in range(40):
        g = gen_game(GenParams(num_states=4, num_agents=2, seed=seed))
        for c in _coalitions(g.agents):
            for s1 in g.states:
                assert indistinguishable(g, c, s1, s1)
                for s2 in g.states:
                    assert indistinguishable(g, c, s1, s2) == indistinguishable(
                        g, c, s2, s1
                    )
                    for s3 in g.states:
                        if indistinguishable(g, c, s1, s2) and indistinguishable(
                            g, c, s2, s3
                        ):
                            assert indistinguishable(g, c, s1, s3)
        for c in _coalitions(g.agents):
            for d in _coalitions(g.agents):
                if c <= d:
                    for s1 in g.states:
                        for s2 in g.states:
                            if indistinguishable(g, d, s1, s2):
                                assert indistinguishable(g, c, s1, s2)


def test_serialization_round_trip(truck_manual, truck_selfdriving):
    for g in (truck_manual, truck_selfdriving):
        assert load_game(dump_game(g)) == g
    for seed in range(100):
        g = gen_game(GenParams(num_states=3, num_agents=3, num_actions=2, seed=seed))
        assert load_game(dump_game(g)) == g


def test_document_shape_is_stable(truck_manual):
    document = game_to_document(truck_manual)
    assert list(document) == [
        "agents",
        "states",
        "indist",
        "actions",
        "outcomes",
        "plays",
        "valuation",
    ]


def test_direct_game_construction_validates():
    g = Game(
        agents=("a",),
        states=("s",),
        indist={"a": (frozenset({"s"}),)},
        actions=(),
        outcomes=("o",),
        plays=(),
        valuation={},
    )
    report = validate_game(g)
    assert not report.ok
    assert any("actions must be nonempty" in v for v in report.violations)


def test_play_equality_is_structural():
    assert Play("s", {"a": "d"}, "o") == Play("s", {"a": "d"}, "o")
    assert Play("s", {"a": "d"}, "o") != Play("s", {"a": "e"}, "o")


@given(st.text(max_size=60))
def test_loader_is_total_over_junk(text):
    try:
        load_game(text)
    except (FormatError, ValidationError):
        pass


@pytest.mark.parametrize(
    "doc",
    [
        {},
        {"agents": []},
        {"agents": ["a"], "states": [], "actions": [], "outcomes": [], "plays": []},
        {"agents": ["a"], "states": ["s"], "actions": ["d"], "outcomes": ["o"],
         "plays": [], "valuation": {"p": [0]}},
        {"agents": ["a", "a"], "states": ["s"], "actions": ["d"], "outcomes": ["o"],
         "plays": [{"state": "s", "profile": {"a": "d"}, "outcome": "o"}]},
    ],
)
def test_loader_rejects_bad_documents_with_declared_errors(doc):
    with pytest.raises((FormatError, ValidationError)):
        game_from_document(doc)
