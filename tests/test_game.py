import json
import random
import sys
import time
from itertools import combinations, islice, product
from types import MappingProxyType
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from blamelogic import game as game_module

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
    Strategy,
    _classes,
    _frame_index,
    dump_game,
    game_to_document,
    indistinguishable,
    load_game,
    load_game_file,
    validate_game,
)
from blamelogic.generator import AGENT_POOL, GenParams, _build, _draw, _frames, gen_game

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
        "[]",
        doc(agents=["c", 1]),
        doc(indist={"c": ["high", "low"]}),
        doc(valuation=[]),
        # integers past json's digit limit (they raised a bare ValueError)
        *(
            pytest.param(text, id=name, marks=pytest.mark.skipif(
                not hasattr(sys, "get_int_max_str_digits"), reason="no int-string digit limit"))
            for name, text in (
                ("huge-index", doc().replace('"col": [0, 3]', '"col": [0, ' + "9" * 5000 + "]")),
                ("huge-field", doc()[:-1] + ', "extra": ' + "9" * 5001 + "}"),
            )
        ),
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


@pytest.mark.parametrize("coalition", [["c", "zz"], ["zz", "c"], {"c", "zz"}])
def test_indistinguishable_checks_every_member(truck_selfdriving, coalition):
    # "c" alone separates high from low; the unknown "zz" must still raise,
    # whatever the member order (or set iteration order), as in the engine
    with pytest.raises(UnknownAgentError, match="zz"):
        indistinguishable(truck_selfdriving, coalition, "high", "low")


DEEP_JSON = "[" * 100000 + "]" * 100000


def test_deeply_nested_json_is_a_format_error(tmp_path):
    with pytest.raises(FormatError, match="not valid JSON"):
        load_game(DEEP_JSON)
    path = tmp_path / "deep.game"
    path.write_text(DEEP_JSON)
    with pytest.raises(FormatError, match="not valid JSON"):
        load_game_file(path)


def test_building_a_bad_game_raises_nothing():
    # the index is built with the Game; what is wrong is left to the validator
    g = Game(
        agents=("a", "b"),
        states=("s",),
        indist={"a": (frozenset({"s", "t"}), frozenset()), "zz": ()},
        actions=("d",),
        outcomes=("o",),
        plays=(Play("s", {"a": "d"}, "o"), Play("t", {"a": "x", "b": "d"}, "?")),
        valuation={"p": frozenset({0, 2, -1, "1", 1.0, None})},
    )
    assert g._masks.var == {"p": 0b1}
    violations = validate_game(g).violations
    for expected in (
        "indist references unknown agent: zz",
        "missing partition for agent b",
        "empty partition block for agent a",
        "partition for agent a references unknown state: t",
        "play 0 profile domain is not exactly the agent set",
        "play 1 references unknown state: t",
        "play 1 references unknown outcome: ?",
        "play 1 references unknown action: x",
        "valuation index out of range: p -> 2",
        "valuation index out of range: p -> 1.0",
    ):
        assert expected in violations


@pytest.mark.parametrize("profile", [None, ["d"]])
def test_a_built_play_whose_profile_is_not_a_mapping_is_a_type_error(profile):
    good = {"a": "d"}
    plays = tuple(Play("s", prof, o) for prof in (good, profile) for o in ("o", "p"))
    with pytest.raises(TypeError, match="^play 2: profile is not a mapping"):
        Game(("a",), ("s",), {}, ("d",), ("o", "p"), plays, {})


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


def test_plays_are_read_only_and_equal_only_to_plays():
    play = Play("s", {"a": "d"}, "o")
    triple = ("s", {"a": "d"}, "o")
    assert (play == triple, triple == play, play != triple, triple != play) == (
        False, False, True, True
    )
    assert (play.state, play.profile, play.outcome) == triple
    assert repr(play) == "Play(state='s', profile={'a': 'd'}, outcome='o')"
    assert hash(play) == hash(("s", frozenset({"a": "d"}.items()), "o"))
    for name in ("state", "profile", "outcome", "extra"):
        with pytest.raises(AttributeError):
            setattr(play, name, "t")
    assert play == Play("s", {"a": "d"}, "o")


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


# ---------------------------------------------------------------------------
# Golden table: the loader's exact verdict on malformed documents


def _total_plays():
    return [
        {"state": s, "profile": {"a": x, "b": y}, "outcome": "o"}
        for s in ("s", "t")
        for x, y in product(("x", "y"), repeat=2)
    ]


def _golden_doc(**overrides):
    out = {
        "agents": ["a", "b"],
        "states": ["s", "t"],
        "actions": ["x", "y"],
        "outcomes": ["o", "p"],
        "plays": _total_plays(),
        "valuation": {"v": [0, 7]},
    }
    out.update(overrides)
    return out


def _with_play(i, **fields):
    plays = _total_plays()
    plays[i] = {**plays[i], **fields}
    return plays


_EXTRA = {"a": "x", "b": "x", "c": "x"}

GOLDEN_DOCUMENTS = {
    "unknown state": _golden_doc(plays=_with_play(1, state="u")),
    "unknown outcome": _golden_doc(plays=_with_play(2, outcome="q")),
    "unknown action": _golden_doc(plays=_with_play(3, profile={"a": "x", "b": "z"})),
    "unknown action for two agents": _golden_doc(
        plays=_with_play(0, profile={"b": "w", "a": "z"})
    ),
    "profile missing an agent": _golden_doc(plays=_with_play(0, profile={"a": "x"})),
    "profile with an extra agent": _golden_doc(plays=_with_play(0, profile=_EXTRA)),
    "duplicate play": _golden_doc(plays=_total_plays() + [_total_plays()[5]]),
    "duplicate play, profile keys reordered": _golden_doc(
        plays=_total_plays()
        + [{"state": "t", "profile": {"b": "y", "a": "x"}, "outcome": "o"}]
    ),
    "plays differing only in an extra agent's action": _golden_doc(
        plays=_total_plays()
        + [
            {"state": "s", "profile": _EXTRA, "outcome": "o"},
            {"state": "s", "profile": {**_EXTRA, "c": "y"}, "outcome": "o"},
        ]
    ),
    "same extra-agent play twice": _golden_doc(
        plays=_total_plays() + [{"state": "s", "profile": _EXTRA, "outcome": "p"}] * 2
    ),
    "totality, one profile missing": _golden_doc(plays=_total_plays()[:-1], valuation={}),
    "totality, three profiles missing": _golden_doc(plays=_total_plays()[:5], valuation={}),
    "totality, extra agent still covers": _golden_doc(
        plays=_total_plays()[:-1]
        + [{"state": "t", "profile": {"a": "y", "b": "y", "c": "x"}, "outcome": "o"}],
        valuation={},
    ),
    "everything wrong in one play, twice": _golden_doc(
        plays=_total_plays()
        + [{"state": "u", "profile": {"a": "z", "b": "x"}, "outcome": "q"}] * 2
    ),
    "valuation index out of range": _golden_doc(valuation={"v": [0, 8], "w": [-1, 3]}),
    "valuation bool index": _golden_doc(valuation={"v": [True]}),
    "valuation float index": _golden_doc(valuation={"v": [1.0]}),
    "non-string profile value": _golden_doc(plays=_with_play(2, profile={"a": "x", "b": 1})),
    "list as a profile value": _golden_doc(
        plays=_with_play(2, profile={"a": "x", "b": ["y"]})
    ),
    "list as a profile value, after a good copy": _golden_doc(
        plays=_total_plays()
        + [{"state": "s", "profile": {"a": "x", "b": ["x"]}, "outcome": "o"}]
    ),
    "play not an object": _golden_doc(plays=_total_plays()[:3] + [["s", {"a": "x"}, "o"]]),
    "play missing its state": _golden_doc(
        plays=_total_plays()[:1] + [{"profile": {"a": "x", "b": "x"}, "outcome": "o"}]
    ),
    "play missing its outcome": _golden_doc(
        plays=[{"state": "s", "profile": {"a": "x", "b": "x"}}]
    ),
    "play missing its profile": _golden_doc(plays=[{"state": "s", "outcome": "o"}]),
    "state not a string": _golden_doc(plays=_with_play(4, state=4)),
    "outcome null": _golden_doc(plays=_with_play(4, outcome=None)),
    "profile a list": _golden_doc(plays=_with_play(6, profile=["x", "y"])),
}

GOLDEN_VERDICTS = {
    "unknown state": ("ValidationError", (
        "play 1 references unknown state: u",
        "totality violated at (s, {'a': 'x', 'b': 'y'})",
    )),
    "unknown outcome": ("ValidationError", ("play 2 references unknown outcome: q",)),
    "unknown action": ("ValidationError", (
        "play 3 references unknown action: z",
        "totality violated at (s, {'a': 'y', 'b': 'y'})",
    )),
    "unknown action for two agents": ("ValidationError", (
        "play 0 references unknown action: w",
        "play 0 references unknown action: z",
        "totality violated at (s, {'a': 'x', 'b': 'x'})",
    )),
    "profile missing an agent": ("ValidationError", (
        "play 0 profile domain is not exactly the agent set",
        "totality violated at (s, {'a': 'x', 'b': 'x'})",
    )),
    "profile with an extra agent": ("ValidationError", (
        "play 0 profile domain is not exactly the agent set",
    )),
    "duplicate play": ("ValidationError", ("duplicate play at index 8",)),
    "duplicate play, profile keys reordered": ("ValidationError", (
        "duplicate play at index 8",
    )),
    "plays differing only in an extra agent's action": ("ValidationError", (
        "play 8 profile domain is not exactly the agent set",
        "play 9 profile domain is not exactly the agent set",
    )),
    "same extra-agent play twice": ("ValidationError", (
        "play 8 profile domain is not exactly the agent set",
        "play 9 profile domain is not exactly the agent set",
        "duplicate play at index 9",
    )),
    "totality, one profile missing": ("ValidationError", (
        "totality violated at (t, {'a': 'y', 'b': 'y'})",
    )),
    "totality, three profiles missing": ("ValidationError", (
        "totality violated at (t, {'a': 'x', 'b': 'y'}) (3 profiles missing)",
    )),
    "totality, extra agent still covers": ("ValidationError", (
        "play 7 profile domain is not exactly the agent set",
    )),
    "everything wrong in one play, twice": ("ValidationError", (
        "play 8 references unknown state: u",
        "play 8 references unknown outcome: q",
        "play 8 references unknown action: z",
        "play 9 references unknown state: u",
        "play 9 references unknown outcome: q",
        "play 9 references unknown action: z",
        "duplicate play at index 9",
    )),
    "valuation index out of range": ("ValidationError", (
        "valuation index out of range: v -> 8",
        "valuation index out of range: w -> -1",
    )),
    "valuation bool index": ("FormatError", "valuation for 'v' must be a list of integers"),
    "valuation float index": ("FormatError", "valuation for 'v' must be a list of integers"),
    "non-string profile value": ("FormatError", "play 2: profile entries must be strings"),
    "list as a profile value": ("FormatError", "play 2: profile entries must be strings"),
    "list as a profile value, after a good copy": (
        "FormatError", "play 8: profile entries must be strings"
    ),
    "play not an object": ("FormatError", "play 3 must be an object"),
    "play missing its state": ("FormatError", "play 1: missing field 'state'"),
    "play missing its outcome": ("FormatError", "play 0: missing field 'outcome'"),
    "play missing its profile": ("FormatError", "play 0: missing field 'profile'"),
    "state not a string": ("FormatError", "play 4: field 'state' must be a str"),
    "outcome null": ("FormatError", "play 4: field 'outcome' must be a str"),
    "profile a list": ("FormatError", "play 6: field 'profile' must be a dict"),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_DOCUMENTS))
def test_loader_golden_table(name):
    text = json.dumps(GOLDEN_DOCUMENTS[name])
    kind, expected = GOLDEN_VERDICTS[name]
    if kind == "FormatError":
        with pytest.raises(FormatError) as err:
            load_game(text)
        assert str(err.value) == expected
    else:
        with pytest.raises(ValidationError) as err:
            load_game(text)
        assert err.value.violations == expected


@pytest.mark.parametrize(
    "name", sorted(n for n, (kind, _) in GOLDEN_VERDICTS.items() if kind == "ValidationError")
)
def test_validator_verdict_does_not_depend_on_shared_profiles(name):
    # the loader shares one profile object among equal profiles; a game
    # built in code, one dict per play, must get the same violations
    raw = GOLDEN_DOCUMENTS[name]
    game = Game(
        agents=tuple(raw["agents"]),
        states=tuple(raw["states"]),
        indist={a: (frozenset({"s"}), frozenset({"t"})) for a in raw["agents"]},
        actions=tuple(raw["actions"]),
        outcomes=tuple(raw["outcomes"]),
        plays=tuple(Play(p["state"], dict(p["profile"]), p["outcome"]) for p in raw["plays"]),
        valuation={v: frozenset(ix) for v, ix in raw["valuation"].items()},
    )
    assert validate_game(game).violations == GOLDEN_VERDICTS[name][1]


# ---------------------------------------------------------------------------
# The index's two paths: masks gathered by the loader and the generator while
# they build the plays, and the walk over the plays of a Game(...) built in code


def _groups_by_profile(masks):
    """The index's play groups, merged by their profiles' entries."""
    out = {}
    for profile, mask in masks.groups.values():
        key = tuple(profile.items())
        out[key] = out.get(key, 0) | mask
    return out


def _same_index(game, built):
    m, b = game._masks, built._masks
    assert list(m.state.items()) == list(b.state.items())  # in first-play order
    assert (m.full, m.act, m.var) == (b.full, b.act, b.var)
    assert [m.index[id(p)] for p in game.plays] == [b.index[id(p)] for p in built.plays]
    assert _groups_by_profile(m) == _groups_by_profile(b)
    report = validate_game(game)
    assert report == validate_game(built)
    if report.ok:  # the counts pass a valid game without walking its plays
        with mock.patch.object(game_module, "_play_faults", side_effect=AssertionError):
            assert validate_game(game) == validate_game(built) == report


def _index_paths_agree(game):
    """game's index and report against those of Game(...) built in code from
    its plays, and from copies of them with one profile dict per play."""
    fields = game.agents, game.states, game.indist, game.actions, game.outcomes
    same = Game(*fields, game.plays, game.valuation)
    assert list(game._masks.groups.items()) == list(same._masks.groups.items())
    assert game._masks.index == same._masks.index
    _same_index(game, same)
    copies = tuple(Play(s, dict(profile), o) for s, profile, o in game.plays)
    _same_index(game, Game(*fields, copies, game.valuation))


def _loaded_unvalidated(doc):
    """The Game load_game builds from doc and hands to the validator, or
    None when the document is a FormatError before that."""
    seen = []
    validate = game_module.validate_game
    with mock.patch.object(game_module, "validate_game", lambda g: seen.append(g) or validate(g)):
        try:
            load_game(json.dumps(doc))
        except (FormatError, ValidationError):
            pass
    return seen[0] if seen else None


@st.composite
def _documents(draw):
    """Game documents, total over their declared names or nearly so, with the
    plays shuffled, profile keys in varied order, and a few plays off the model."""
    agents = draw(st.lists(st.sampled_from("abc"), min_size=1, max_size=3, unique=True))
    states = draw(st.lists(st.sampled_from("stu"), min_size=1, max_size=3, unique=True))
    actions = ["x", "y"][: draw(st.integers(1, 2))]
    outcomes = ["o", "p"][: draw(st.integers(1, 2))]
    plays = [
        (s, list(zip(agents, combo)), draw(st.sampled_from(outcomes)))
        for s in states
        for combo in product(actions, repeat=len(agents))
    ]
    odd = st.tuples(
        st.sampled_from(states + ["z"]),
        st.lists(st.tuples(st.sampled_from(agents + ["d"]), st.sampled_from(actions + ["w"]))),
        st.sampled_from(outcomes + ["q"]),
    )
    plays = draw(st.permutations(plays + draw(st.lists(odd, max_size=3))))
    plays = plays[draw(st.integers(0, 1)):]  # perhaps one play short of total
    docs = [
        {"state": s, "profile": dict(entries[::-1] if draw(st.booleans()) else entries),
         "outcome": o}
        for s, entries, o in plays
    ]
    indices = st.lists(st.integers(-1, len(docs)), unique=True)
    valuation = draw(st.dictionaries(st.sampled_from(["v", "w"]), indices))
    return {"agents": agents, "states": states, "actions": actions, "outcomes": outcomes,
            "plays": docs, "valuation": valuation}


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_documents())
def test_loaded_index_matches_the_walk_on_random_documents(doc):
    _index_paths_agree(_loaded_unvalidated(doc))


@pytest.mark.parametrize("name", sorted(GOLDEN_DOCUMENTS))
def test_loaded_index_matches_the_walk_on_the_golden_documents(name):
    game = _loaded_unvalidated(GOLDEN_DOCUMENTS[name])
    assert (game is None) == (GOLDEN_VERDICTS[name][0] == "FormatError")
    if game is not None:
        _index_paths_agree(game)


def test_generated_index_matches_the_walk():
    for seed in range(60):
        sizes = [1 + seed % 3, 1 + seed % 4, 1 + seed // 4 % 3, 1 + seed // 12 % 3]
        _index_paths_agree(gen_game(GenParams(*sizes, branching=0.4, seed=seed)))


def _frame_index_agrees(agents, frame):
    """The frame's index, built from its small ints, against the index of the
    Game that _build makes of it, each int read as the name _build gives it."""
    index, built = _frame_index(agents, frame), _build(agents, frame, {})._masks
    assert (index.n, index.full, index.rep, index.var) == (built.n, built.full, 1, {})
    assert [f"s{s}" for s in index.states] == list(built.states)
    assert [f"d{d}" for d in index.actions] == list(built.actions)
    assert [(f"s{s}", mask) for s, mask in index.state.items()] == list(built.state.items())
    assert {(a, f"d{d}"): mask for (a, d), mask in index.act.items()} == built.act
    members = [frozenset(c) for k in range(len(agents) + 1) for c in combinations(agents, k)]
    for coalition in members:
        assert _classes(index, coalition) == _classes(built, coalition), (frame, coalition)


def test_frame_index_matches_the_built_game():
    # all 198 frames of one agent; of two agents' 26,374 and of the first
    # 20,000 of three agents', the first 60 (the one-state shapes) and a
    # seeded sample of the rest, from every shape that they reach
    for frame in _frames(1):
        _frame_index_agrees(("a",), frame)
    rng = random.Random(27)
    for agents, stop in ((("a", "b"), None), (("a", "b", "c"), 20000)):
        for i, frame in enumerate(islice(_frames(len(agents)), stop)):
            if i < 60 or rng.random() < 0.02:
                _frame_index_agrees(agents, frame)


def test_frame_index_matches_the_built_game_on_drawn_frames():
    # the sweep evaluates the frames that _draw draws across the GenParams
    # bounds, which _frames (two states, actions, outcomes and blocks at
    # most) never reaches: one seeded draw per agent count, shape and
    # branching, 324 frames of up to 4 states and 3 actions and outcomes
    rng = random.Random(30)
    for agents in (AGENT_POOL[:1], AGENT_POOL[:2], AGENT_POOL):
        for shape in product(range(1, 5), range(1, 4), range(1, 4)):
            for branching in (0.0, 0.15, 0.4):
                frame, _ = _draw(rng, len(agents), shape, branching, 1)
                _frame_index_agrees(agents, frame)


# ---------------------------------------------------------------------------
# Read-only game data


def test_loaded_games_are_read_only(truck_manual):
    with pytest.raises(TypeError):
        truck_manual.plays[0].profile["c"] = "slow-down"
    with pytest.raises(TypeError):
        truck_manual.indist["c"] = ()
    with pytest.raises(TypeError):
        truck_manual.valuation["col"] = frozenset()
    assert truck_manual.plays[0].profile == {"c": "speed-up"}
    assert truck_manual.valuation["col"] == frozenset({0, 3})


def test_built_games_get_read_only_copies_of_their_mappings():
    indist = {"c": (frozenset({"high", "low"}),)}
    valuation = {"col": frozenset({0})}
    game = Game(("c",), ("high", "low"), indist, ("d",), ("o",), (), valuation)
    valuation["col"] = frozenset({1})
    indist["c"] = ()
    assert game.valuation == {"col": frozenset({0})}
    assert game.indist == {"c": (frozenset({"high", "low"}),)}
    with pytest.raises(TypeError):
        game.valuation["col"] = frozenset()
    with pytest.raises(TypeError):
        game.indist["c"] = ()


def test_strategies_get_a_read_only_copy_of_their_choice():
    choice = {"c": "speed-up"}
    strategy = Strategy(frozenset({"c"}), choice)
    choice["c"] = "slow-down"
    assert strategy.choice == {"c": "speed-up"}
    with pytest.raises(TypeError):
        strategy.choice["c"] = "slow-down"


def test_loaded_plays_share_one_profile_per_distinct_profile():
    g = load_game(json.dumps(_golden_doc()))
    profiles = {id(p.profile) for p in g.plays}
    assert len(profiles) == 4  # two states, four profiles
    assert g.plays[0].profile is g.plays[4].profile


def test_loaded_profiles_equal_the_documents():
    # agent order varies between plays; equal values in another order are
    # a different profile, and no play may get another play's profile
    plays = _total_plays()
    for play in plays[4:]:
        play["profile"] = dict(reversed(play["profile"].items()))
    g = load_game(json.dumps(_golden_doc(plays=plays)))
    assert [p.profile for p in g.plays] == [p["profile"] for p in plays]
    assert [list(p.profile) for p in g.plays] == [list(p["profile"]) for p in plays]


def test_built_and_loaded_games_compare_equal(truck_manual):
    built = Game(
        agents=("c",),
        states=("high", "low"),
        indist={"c": (frozenset({"high", "low"}),)},
        actions=("speed-up", "slow-down"),
        outcomes=("collision", "no-collision"),
        plays=tuple(
            Play(p.state, dict(p.profile), p.outcome) for p in truck_manual.plays
        ),
        valuation={"col": frozenset({0, 3})},
    )
    assert built == truck_manual
    assert truck_manual == built
    assert load_game(dump_game(built)) == built
    assert dump_game(load_game(dump_game(truck_manual))) == dump_game(truck_manual)


def test_equal_plays_hash_equal():
    a = Play("s", {"a": "d", "b": "e"}, "o")
    b = Play("s", MappingProxyType({"b": "e", "a": "d"}), "o")
    assert a == b
    assert hash(a) == hash(b)
    assert len({a, b, Play("s", {"a": "d", "b": "f"}, "o")}) == 2


def test_equal_built_and_loaded_games_hash_equal(truck_manual):
    built = Game(
        agents=("c",),
        states=("high", "low"),
        indist={"c": (frozenset({"high", "low"}),)},
        actions=("speed-up", "slow-down"),
        outcomes=("collision", "no-collision"),
        plays=tuple(Play(p.state, dict(p.profile), p.outcome) for p in truck_manual.plays),
        valuation={"col": frozenset({0, 3})},
    )
    loaded = load_game(dump_game(built))
    assert built == truck_manual == loaded
    assert hash(built) == hash(truck_manual) == hash(loaded)
    assert len({built, truck_manual, loaded}) == 1
    assert {*built.plays, *loaded.plays} == set(truck_manual.plays)
    assert len({*built.plays, *loaded.plays}) == len(truck_manual.plays)
    for seed in range(30):
        g = gen_game(GenParams(seed=seed))
        assert hash(load_game(dump_game(g))) == hash(g)


def test_equal_strategies_hash_equal():
    a = Strategy(frozenset({"a", "b"}), {"a": "d", "b": "e"})
    b = Strategy(frozenset({"b", "a"}), MappingProxyType({"b": "e", "a": "d"}))
    assert a == b
    assert hash(a) == hash(b)
    assert len({a, b, Strategy(frozenset({"a", "b"}), {"a": "d", "b": "f"})}) == 2
