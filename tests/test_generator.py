import random
from dataclasses import replace
from itertools import islice

import pytest

import _helpers
from _helpers import (
    identity_empty_classes,
    naive_evaluate,
    reference_candidates,
    reference_find_countermodel,
)
from blamelogic import generator, semantics
from blamelogic.game import game_to_document, validate_game
from blamelogic.generator import (
    AGENT_POOL,
    GenParams,
    SearchBudget,
    _sweep_instances,
    derive_seed,
    find_countermodel,
    gen_formula,
    gen_game,
    soundness_sweep,
)
from blamelogic.hilbert import AXIOM_NAMES, match_schema
from blamelogic.syntax import parse_formula, print_formula


def test_params_bounds_enforced():
    with pytest.raises(ValueError):
        GenParams(num_agents=0)
    with pytest.raises(ValueError):
        GenParams(num_states=5)
    with pytest.raises(ValueError):
        GenParams(branching=1.5)
    with pytest.raises(ValueError):
        GenParams(formula_depth=9)
    with pytest.raises(ValueError):
        GenParams(seed=-1)
    with pytest.raises(ValueError):
        SearchBudget(max_candidates=0)


def test_minimal_params_give_the_unique_one_play_game():
    g = gen_game(GenParams(1, 1, 1, 1, 1, 0.0, 0, 123))
    assert g.states == ("s0",)
    assert g.agents == ("a",)
    assert g.actions == ("d0",)
    assert g.outcomes == ("o0",)
    assert len(g.plays) == 1


def test_generation_is_deterministic():
    params = GenParams(seed=99, branching=0.4)
    assert gen_game(params) == gen_game(params)
    assert gen_formula(params, ("a", "b")) == gen_formula(params, ("a", "b"))
    assert gen_game(params) != gen_game(GenParams(seed=100, branching=0.4))


def test_generated_games_validate():
    for seed in range(500):
        g = gen_game(
            GenParams(
                num_agents=1 + seed % 3,
                num_states=1 + seed % 4,
                num_actions=1 + seed % 3,
                num_outcomes=1 + (seed // 2) % 3,
                branching=0.3,
                seed=seed,
            )
        )
        assert validate_game(g).ok


def test_generated_formulas_round_trip():
    for seed in range(300):
        f = gen_formula(GenParams(formula_depth=5, seed=seed), ("a", "b", "c"))
        assert parse_formula(print_formula(f)) == f


def test_depth_zero_formula_is_a_variable():
    f = gen_formula(GenParams(formula_depth=0, seed=3), ("a",))
    assert print_formula(f).startswith("p")


def test_sweep_zero_trials_is_empty():
    report = soundness_sweep(GenParams(seed=1), 0)
    assert report.trials == 0
    assert not report.violations
    assert all(count == 0 for count in report.counts.values())


def test_sweep_counts_every_schema_and_finds_no_violation():
    report = soundness_sweep(GenParams(seed=11), 60)
    assert report.ok
    for name in AXIOM_NAMES:
        assert report.counts[name] > 0, name
    assert report.counts["Necessitation"] >= 0


def test_sweep_instances_match_their_schemas():
    for seed in range(60):
        agents = AGENT_POOL[: 1 + seed % 3]
        phi = gen_formula(GenParams(formula_depth=3, seed=seed), agents)
        psi = gen_formula(GenParams(formula_depth=3, seed=seed + 1000), agents)
        for name, instance in _sweep_instances(random.Random(seed), agents, phi, psi):
            assert match_schema(name, instance) is not None, (seed, name)


def test_one_trial_checks_each_instance_at_every_play():
    # three coalition choices per schema, four for the Monotonicity schemas
    for seed in (0, 7, 19):
        params = GenParams(seed=seed)
        report = soundness_sweep(params, 1)
        game = gen_game(replace(params, seed=derive_seed(seed, 0, 0)))
        n = len(game.plays)
        for name in AXIOM_NAMES:
            instances = 4 if name in ("Monotonicity-K", "Monotonicity-B") else 3
            assert report.counts[name] == instances * n, name


def test_sweep_detects_a_corrupted_evaluator(monkeypatch):
    mutant = identity_empty_classes(semantics._classes)
    monkeypatch.setattr(semantics, "_classes", mutant)
    report = soundness_sweep(GenParams(seed=2), 120)
    assert report.violations, "mutated empty-coalition relation went unnoticed"
    # witnesses replay under the same (mutated) evaluator
    for v in report.violations[:5]:
        assert not semantics.evaluate(v.game, v.game.plays[v.play_index], v.formula)


def test_countermodel_for_blame_without_knowledge():
    res = find_countermodel(parse_formula("B{a}p -> K{a}p"))
    assert res is not None
    game, idx = res
    play = game.plays[idx]
    assert semantics.evaluate(game, play, parse_formula("B{a}p & ~K{a}p"))
    assert not semantics.evaluate(game, play, parse_formula("B{a}p -> K{a}p"))


def test_no_countermodel_for_truth_axiom():
    assert find_countermodel(parse_formula("K{a}p -> p"), SearchBudget(1500)) is None


def test_countermodel_for_bare_variable_is_among_first_candidates():
    res = find_countermodel(parse_formula("p"), SearchBudget(max_candidates=5))
    assert res is not None
    game, idx = res
    assert len(game.plays) == 1


def test_countermodel_search_is_deterministic():
    f = parse_formula("B{a}p -> K{a}p")
    assert find_countermodel(f) == find_countermodel(f)


def test_countermodel_games_are_valid():
    for text in ("p", "B{a}p -> K{a}p", "K{a}p & ~p"):
        res = find_countermodel(parse_formula(text))
        assert res is not None
        game, _ = res
        assert validate_game(game).ok


def test_sweep_reads_the_engine_mask(monkeypatch):
    # every instance is decided by one extension mask over the game's plays
    calls = []

    def full(game, formula):
        calls.append(formula)
        return (1 << len(game.plays)) - 1

    monkeypatch.setattr(semantics, "extension_mask", full)
    report = soundness_sweep(GenParams(seed=4), 2)
    assert report.ok
    assert calls

    monkeypatch.setattr(semantics, "extension_mask", lambda game, formula: 0)
    broken = soundness_sweep(GenParams(seed=4), 1)
    # phi is no longer valid, so necessitation is skipped and every other
    # checked play is a violation
    assert broken.counts["Necessitation"] == 0
    assert len(broken.violations) == sum(broken.counts.values()) > 0


# The searched formulas: the sweep workload's eight non-theorem shapes;
# Truth-K and Truth-B, whose one agent and one variable give 610 tiny games
# before the random draws; a two-variable Truth-K instance (8,956 tiny
# games); and a two-agent one, whose 263,526 tiny games outlast every budget.
_SEARCHED = [
    "B{a}p -> K{a}p",
    "p -> K{a}p",
    "K{a,b}p -> K{a}p",
    "p -> B{a}p",
    "B{a}p -> B{b}p",
    "~K{a}p -> K{a}~p",
    "K{a}p -> K{a}q",
    "B{a,b}p -> B{a}p",
    "K{a}p -> p",
    "B{a}p -> p",
    "K{a}(p -> q) -> (p -> q)",
    "K{a,b}p -> p",
]
_BUDGETS = (1, 2, 609, 610, 611, 1500, 5000)
_UNKNOWN = object()  # no reference result yet: compute it


def _assert_same_search(formula, budget, expected=_UNKNOWN):
    found = find_countermodel(formula, budget)
    if expected is _UNKNOWN:
        expected = reference_find_countermodel(formula, budget)
    assert found == expected, (print_formula(formula), budget)
    if found is None:
        return
    game, idx = found
    assert game_to_document(game) == game_to_document(expected[0])
    truth = [naive_evaluate(game, play, formula) for play in game.plays[: idx + 1]]
    assert truth == [True] * idx + [False]


@pytest.mark.parametrize("text", _SEARCHED)
def test_search_returns_what_a_game_per_candidate_search_returns(text):
    formula = parse_formula(text)
    for seed in (0, 7):
        # a budget's candidates are a prefix of a larger budget's, so where the
        # reference finds nothing, it finds nothing with less; and no formula
        # has fewer than 610 tiny games, which take no seed
        expected = _UNKNOWN
        for max_candidates in sorted(_BUDGETS, reverse=True):
            if seed and max_candidates <= 610:
                break
            budget = SearchBudget(max_candidates, seed)
            if expected is not None:
                expected = reference_find_countermodel(formula, budget)
            _assert_same_search(formula, budget, expected)


def test_search_on_random_formulas_returns_what_a_game_per_candidate_search_returns():
    rng = random.Random(2024)
    for k in range(60):
        params = GenParams(num_variables=1 + k % 2, formula_depth=3, seed=rng.getrandbits(64))
        formula = gen_formula(params, AGENT_POOL[: 1 + k // 2 % 2])
        budget = SearchBudget(rng.choice(_BUDGETS), rng.getrandbits(64))
        _assert_same_search(formula, budget)


def test_random_phase_alone_returns_what_a_game_per_candidate_search_returns(monkeypatch):
    # the fixed formulas all fall to a tiny game; with no tiny phase, every
    # countermodel is a seeded random draw, so equal results mean equal draws
    monkeypatch.setattr(generator, "_TINY_SHAPES", ())
    monkeypatch.setattr(_helpers, "_REFERENCE_TINY_SHAPES", ())
    # some of these fall at once, others only after 100 or more draws
    for text in _SEARCHED[:8] + [
        "K{a}p -> p",
        "B{a}p -> B{a}(p & q)",
        "K{a}p & K{a}q -> K{}(p | q)",
        "~(B{a}p & K{b}~q & ~K{}(p | q))",
    ]:
        for seed in (0, 1, 7, 11, 2**64 - 1):
            _assert_same_search(parse_formula(text), SearchBudget(300, seed))


@pytest.mark.parametrize("tiny", [True, False])
@pytest.mark.parametrize("agents, variables", [(("a",), ("p",)), (("a", "b"), ("p", "q"))])
def test_candidates_build_the_reference_games_in_order(agents, variables, tiny, monkeypatch):
    # one agent and one variable: the 610 tiny games, then 890 random draws
    if not tiny:
        monkeypatch.setattr(generator, "_TINY_SHAPES", ())
        monkeypatch.setattr(_helpers, "_REFERENCE_TINY_SHAPES", ())
    budget = SearchBudget(1500, 3)
    drawn = generator._candidates(len(agents), len(variables), budget)
    expected = reference_candidates(agents, variables, budget)
    for (frame, masks), game in islice(zip(drawn, expected), budget.max_candidates):
        assert generator._build(agents, frame, dict(zip(variables, masks))) == game
