import os
import random
import subprocess
import sys
from dataclasses import replace
from itertools import product
from pathlib import Path

import pytest

import _helpers
from _helpers import (
    converse_implication,
    identity_empty_classes,
    naive_evaluate,
    rand_formula,
    reference_candidates,
    reference_find_countermodel,
    reference_layout,
    reference_truth_table,
)
from blamelogic import asset_path, generator, semantics
from blamelogic.game import _frame_index, game_to_document, validate_game
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
from blamelogic.hilbert import (
    AXIOM_NAMES,
    build_axiom,
    check_proof,
    deduction_transform,
    match_schema,
    parse_proof_file,
)
from blamelogic.syntax import Knows, Var, formula_vars, parse_formula, print_formula


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


@pytest.mark.parametrize(
    "cls, field, value",
    [
        (SearchBudget, "max_candidates", 1.5),
        (SearchBudget, "max_candidates", "5"),
        (SearchBudget, "max_candidates", True),
        (GenParams, "num_agents", True),
        (GenParams, "num_states", 2.0),
        (GenParams, "formula_depth", "2"),
        (GenParams, "branching", "x"),
        (GenParams, "branching", None),
        (GenParams, "branching", False),
        (GenParams, "seed", True),
        (GenParams, "seed", "0"),
    ],
)
def test_params_reject_wrong_types_when_built(cls, field, value):
    with pytest.raises(ValueError, match=f"^{field} "):
        cls(**{field: value})


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


def test_gen_formula_takes_agents_as_a_coalition():
    # a str would read as the set of its characters, and a non-str member
    # must be refused whether or not a coalition happens to be drawn
    params = GenParams(formula_depth=3, seed=0)
    for agents in ("ab", b"ab", ["a", 1], [2]):
        with pytest.raises(TypeError):
            gen_formula(params, agents)
    for agents in ((), [], set(), frozenset()):
        with pytest.raises(ValueError, match="nonempty"):
            gen_formula(params, agents)
    assert gen_formula(params, ["b", "a"]) == gen_formula(params, ("a", "b"))
    assert gen_formula(params, {"a", "b"}) == gen_formula(params, ("a", "b"))


def test_gen_game_draws_the_reference_game():
    # gen_game(p) is the game that an independent reference, one rng call per
    # draw, takes from random.Random(p.seed), over every bound of GenParams
    rng = random.Random(2024)
    for n_agents, n_states, n_actions, n_outcomes, branching in product(
        (1, 2, 3), (1, 2, 3, 4), (1, 2, 3), (1, 2, 3), (0, 0.15, 0.5, 1)
    ):
        params = GenParams(
            num_agents=n_agents,
            num_states=n_states,
            num_actions=n_actions,
            num_outcomes=n_outcomes,
            num_variables=rng.randint(1, 4),
            branching=branching,
            seed=rng.choice((0, 2**64 - 1, rng.getrandbits(64))),
        )
        states, actions, outcomes, variables = (
            tuple(f"{c}{i}" for i in range(n))
            for c, n in zip("sdop", (n_states, n_actions, n_outcomes, params.num_variables))
        )
        expected = _helpers._reference_random_game(
            random.Random(params.seed),
            AGENT_POOL[:n_agents],
            states,
            actions,
            outcomes,
            variables,
            branching,
        )
        assert gen_game(params) == expected, params


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


@pytest.mark.parametrize(
    "trials, message",
    [
        (-3, "^trials must be nonnegative$"),
        (-1, "^trials must be nonnegative$"),
        (True, "^trials must be an integer"),
        (False, "^trials must be an integer"),
        (1.5, "^trials must be an integer"),
        (2.0, "^trials must be an integer"),
        ("2", "^trials must be an integer"),
        (None, "^trials must be an integer"),
    ],
)
def test_sweep_rejects_trials_that_are_no_count(trials, message):
    with pytest.raises(ValueError, match=message):
        soundness_sweep(GenParams(), trials)


def test_sweep_counts_are_read_only():
    report = soundness_sweep(GenParams(seed=1), 1)
    with pytest.raises(TypeError):
        report.counts["Truth-K"] = 0


def test_equal_sweep_reports_hash_equal():
    a, b = (soundness_sweep(GenParams(seed=1), 1) for _ in range(2))
    assert a == b
    assert hash(a) == hash(b)
    assert len({a, b, soundness_sweep(GenParams(seed=1), 2)}) == 2


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
        for name, c, d in _sweep_instances(random.Random(seed), agents):
            instance = build_axiom(name, phi, psi, c, d)
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


# one, two and three agents; deeper formulas share more subformulas
_SWEPT = [
    GenParams(num_agents=k, formula_depth=depth, seed=seed)
    for k in (1, 2, 3)
    for depth, seed in ((2, 3), (3, 17), (4, 2024))
]


@pytest.mark.parametrize(
    "name, mutant",
    [(None, None), ("_classes", identity_empty_classes), ("_ext", converse_implication)],
    ids=["engine", "identity_empty_classes", "converse_implication"],
)
def test_sweep_returns_what_a_memo_per_instance_sweep_returns(name, mutant, monkeypatch):
    # the trial's shared memo must change no count and no violation (schema,
    # trial, play, formula, game); a memo kept across trials would read one
    # game's masks on the next.  identity_empty_classes breaks only schemas of
    # phi alone; converse_implication also breaks those that pair phi with
    # psi, so a template's psi placeholder must hold psi's mask, not phi's
    if mutant:
        monkeypatch.setattr(semantics, name, mutant(getattr(semantics, name)))
    violations, schemas = 0, set()
    for params in _SWEPT:
        report = soundness_sweep(params, 25)
        assert report == _helpers.reference_soundness_sweep(params, 25), params
        violations += len(report.violations)
        schemas |= {v.schema for v in report.violations}
    assert bool(violations) == bool(mutant)
    if name == "_ext":
        assert {"Distributivity", "JointResponsibility", "BlameForKnownCause"} <= schemas


@pytest.mark.parametrize(
    "name, mutant",
    [("_classes", identity_empty_classes), ("_ext", converse_implication)],
    ids=["identity_empty_classes", "converse_implication"],
)
def test_sweep_violations_are_real_instances_under_a_mutant(name, mutant, monkeypatch):
    # a violation found on a template over the placeholders must report the
    # instance over the trial's own phi and psi, which fails at its play
    monkeypatch.setattr(semantics, name, mutant(getattr(semantics, name)))
    violations = 0
    for params in _SWEPT:
        report = soundness_sweep(params, 25 if name == "_classes" else 5)
        for v in report.violations:
            phi, psi = (
                gen_formula(replace(params, seed=derive_seed(params.seed, v.trial, k)), v.game.agents)
                for k in (1, 2)
            )
            rng = random.Random(derive_seed(params.seed, v.trial, 3))
            if v.schema == "Necessitation":
                assert any(v.formula is Knows(c, phi) for c in generator._all_coalitions(v.game.agents))
            else:
                built = {
                    build_axiom(schema, phi, psi, c, d)
                    for schema, c, d in _sweep_instances(rng, v.game.agents)
                    if schema == v.schema
                }
                assert v.formula in built, (params, v.trial, v.schema)
                assert match_schema(v.schema, v.formula) is not None
            assert not {"#phi", "#psi"} & formula_vars(v.formula)
            assert not semantics.evaluate(v.game, v.game.plays[v.play_index], v.formula)
        violations += len(report.violations)
    assert violations


def test_sweep_builds_a_game_only_for_a_trial_with_a_violation(monkeypatch):
    # a trial evaluates its drawn frame; its Game, gen_game's at the trial's
    # seed, is built at its first violation and shared by the rest
    real, built = generator._build, []

    def counted(agents, frame, valuation):
        built.append(real(agents, frame, valuation))
        return built[-1]

    monkeypatch.setattr(generator, "_build", counted)
    for params in _SWEPT:
        assert soundness_sweep(params, 25).ok
    assert not built
    monkeypatch.setattr(semantics, "_classes", identity_empty_classes(semantics._classes))
    shared = 0
    for params in _SWEPT:
        built.clear()
        report = soundness_sweep(params, 25)
        games, trials = list(built), sorted({v.trial for v in report.violations})
        assert len(games) == len(trials), params
        for trial, game in zip(trials, games):
            assert {id(v.game) for v in report.violations if v.trial == trial} == {id(game)}
            assert game == gen_game(replace(params, seed=derive_seed(params.seed, trial, 0)))
            shared += sum(v.trial == trial for v in report.violations) > 1
    assert shared


def test_sweep_templates_stay_within_the_schemas_and_coalition_pairs():
    # one template per (schema, C, D) drawn, C and D subsets of AGENT_POOL
    for agents in (1, 2, 3):
        for depth in (0, 3, 5):
            soundness_sweep(GenParams(num_agents=agents, formula_depth=depth, seed=agents), 40)
        assert len(generator._TEMPLATES) <= len(AXIOM_NAMES) * 64
    pool, phi, psi = frozenset(AGENT_POOL), Var("#phi"), Var("#psi")
    for (name, c, d), template in generator._TEMPLATES.items():
        assert c <= pool and (d is None or d <= pool), name
        if name == "Necessitation":
            assert template is Knows(c, phi)
        else:
            assert template is build_axiom(name, phi, psi, c, d)


@pytest.mark.parametrize(
    "call, kind",
    [
        (lambda: soundness_sweep(None, 1), "NoneType"),
        (lambda: soundness_sweep(None, 0), "NoneType"),
        (lambda: soundness_sweep({"seed": 1}, 1), "dict"),
        (lambda: gen_game(None), "NoneType"),
        (lambda: gen_formula({"seed": 1}, ("a",)), "dict"),
        (lambda: gen_formula(None, ("a",)), "NoneType"),
    ],
)
def test_generator_rejects_params_that_are_no_gen_params(call, kind):
    with pytest.raises(TypeError, match=f"^params must be a GenParams, not {kind}$"):
        call()


def test_countermodel_for_blame_without_knowledge():
    res = find_countermodel(parse_formula("B{a}p -> K{a}p"))
    assert res is not None
    game, idx = res
    play = game.plays[idx]
    assert semantics.evaluate(game, play, parse_formula("B{a}p & ~K{a}p"))
    assert not semantics.evaluate(game, play, parse_formula("B{a}p -> K{a}p"))


def test_no_countermodel_for_truth_axiom():
    assert find_countermodel(parse_formula("K{a}p -> p"), SearchBudget(1500)) is None


@pytest.mark.parametrize("budget", [5, 1.5, "5000", (5000, 0), {"max_candidates": 5}])
def test_search_rejects_a_budget_that_is_no_search_budget(budget):
    with pytest.raises(TypeError, match="^budget must be a SearchBudget or None, not "):
        find_countermodel(Var("p"), budget)


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


def test_no_line_of_a_discharged_corpus_script_has_a_countermodel():
    # soundness: each line of a checked proof with no premises holds in every
    # game, so the search finds no countermodel for it.  One would mean that
    # check_proof or the engine is wrong.  Six scripts, 1,488 lines distinct
    # per script
    lines = 0
    for path in sorted(asset_path("").glob("*.proof")):
        script = parse_proof_file(path)
        for phi in script.premises:
            script = deduction_transform(script, phi)
        assert not script.premises and check_proof(script).valid, path.name
        seen = set()
        for line in script.lines:
            if line.formula not in seen:
                seen.add(line.formula)
                found = find_countermodel(line.formula)
                assert found is None, f"{path.name} line {line.index}: {print_formula(line.formula)}"
        lines += len(seen)
    assert lines == 1488


def test_sweep_reads_the_engine_mask(monkeypatch):
    # every instance is decided by the engine's mask (_ext) over the game's plays
    calls = []

    def full(formula, index, memo):
        calls.append(formula)
        return index.full

    monkeypatch.setattr(semantics, "_ext", full)
    report = soundness_sweep(GenParams(seed=4), 2)
    assert report.ok
    assert calls

    monkeypatch.setattr(semantics, "_ext", lambda formula, index, memo: 0)
    broken = soundness_sweep(GenParams(seed=4), 1)
    # phi is no longer valid, so necessitation is skipped and every other
    # checked play is a violation
    assert broken.counts["Necessitation"] == 0
    assert len(broken.violations) == sum(broken.counts.values()) > 0


# The searched formulas: the sweep workload's eight non-theorem shapes;
# Truth-K and Truth-B, whose one agent and one variable give 610 games with
# one outcome per (state, profile) pair and 8,438 in all; a two-variable
# Truth-K instance (8,956 games with one outcome per pair); and a two-agent
# one, whose 263,526 such games outlast every budget.
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


def _assert_same_search(formula, budget, expected=_UNKNOWN, one_outcome=True):
    found = find_countermodel(formula, budget)
    if expected is _UNKNOWN:
        expected = reference_find_countermodel(formula, budget, one_outcome)
    assert found == expected, (print_formula(formula), budget)
    if found is None:
        return
    game, idx = found
    assert game_to_document(game) == game_to_document(expected[0])
    truth = [naive_evaluate(game, play, formula) for play in game.plays[: idx + 1]]
    assert truth == [True] * idx + [False]


def _valuation_index(game):
    """The index of a game's valuation among its frame's, in product order."""
    v = 0
    for var in sorted(game.valuation):
        v = v << len(game.plays) | sum(1 << i for i in game.valuation[var])
    return v


def _branching_only(monkeypatch):
    """Switch off the search's pass over the frames with one outcome per
    (state, profile) pair, so that every candidate branches."""
    frames = generator._frames

    def branching(n_agents):
        for frame in frames(n_agents):
            (n_states, n_actions, _), _, plays = frame
            if len(plays) > n_states * n_actions**n_agents:
                yield frame

    monkeypatch.setattr(generator, "_frames", branching)


@pytest.mark.parametrize("text", _SEARCHED)
def test_search_returns_what_a_game_per_candidate_search_returns(text):
    formula = parse_formula(text)
    # a budget's candidates are a prefix of a larger budget's, so where the
    # reference finds nothing, it finds nothing with less
    expected = _UNKNOWN
    for max_candidates in sorted(_BUDGETS, reverse=True):
        budget = SearchBudget(max_candidates)
        if expected is not None:
            expected = reference_find_countermodel(formula, budget)
        _assert_same_search(formula, budget, expected)


def test_search_on_random_formulas_returns_what_a_game_per_candidate_search_returns():
    rng = random.Random(2024)
    for k in range(60):
        params = GenParams(num_variables=1 + k % 2, formula_depth=3, seed=rng.getrandbits(64))
        formula = gen_formula(params, AGENT_POOL[: 1 + k // 2 % 2])
        _assert_same_search(formula, SearchBudget(rng.choice(_BUDGETS)))


@pytest.mark.parametrize(
    "text", ["~K{a}p", "~B{a}p", "~(p & q)", "B{a}p -> B{a}q", "~(B{a}p & q)"]
)
def test_a_budget_that_ends_inside_a_batch_checks_only_its_candidates(text):
    # the first countermodel is candidate c, in a later slot of its frame's
    # batch than the first: a budget of c stops one slot short of it
    formula = parse_formula(text)
    game, _ = reference_find_countermodel(formula, SearchBudget(5000))
    agents, variables = tuple(sorted(game.agents)), tuple(sorted(game.valuation))
    c = next(i for i, g in enumerate(reference_candidates(agents, variables)) if g == game)
    assert _valuation_index(game) > 0
    for max_candidates in (c, c + 1, c + 2):
        _assert_same_search(formula, SearchBudget(max_candidates))
    assert find_countermodel(formula, SearchBudget(c)) is None


def test_search_checks_each_of_the_8438_one_agent_candidates_once(monkeypatch):
    # one agent and one variable: the whole bounded space, in slots, counted
    # by the slots of each _ext pass over the searched formula itself
    checked = []
    ext = semantics._ext

    def counted(f, index, memo):
        if f is formula:
            checked.append(bin(index.rep).count("1"))
        return ext(f, index, memo)

    monkeypatch.setattr(semantics, "_ext", counted)
    for text in ("K{a}p -> p", "B{a}p -> p", "K{}p -> B{}p -> p"):
        formula = parse_formula(text)
        for max_candidates in (8437, 8438, 10**30):
            checked.clear()
            _assert_same_search(formula, SearchBudget(max_candidates), None)
            assert sum(checked) == min(max_candidates, 8438), (text, max_candidates)
        assert reference_find_countermodel(formula, SearchBudget(8438)) is None


def test_a_budget_past_sys_maxsize_ends_with_the_bounded_space():
    assert find_countermodel(parse_formula("K{a}p -> p"), SearchBudget(10**30)) is None
    found = find_countermodel(parse_formula("p -> K{a}p"), SearchBudget(10**30))
    assert found == find_countermodel(parse_formula("p -> K{a}p"))


@pytest.mark.parametrize("slots", [1, 2, 4])
def test_countermodels_past_the_first_batch_of_their_frame(slots, monkeypatch):
    # with batches of a few slots, frames of more valuations than that take
    # several passes, each from a later first valuation; a bound of 4 * slots
    # bits gives frames of two and three plays batches of `slots` slots; the
    # last two fixed formulas fall to valuations 4 and 5 of a two-play frame
    monkeypatch.setattr(generator, "_BITS", slots << 2)
    rng = random.Random(slots)
    late = 0
    texts = _SEARCHED[:8] + ["B{a}p -> B{a}q", "~(B{a}p & q)"]
    formulas = [parse_formula(text) for text in texts]
    formulas += [rand_formula(rng, 3, (("p", "q"), ("a", "b"))) for _ in range(30)]
    for formula in formulas:
        _assert_same_search(formula, SearchBudget(rng.choice(_BUDGETS[2:])))
        found = find_countermodel(formula, SearchBudget(5000))
        late += found is not None and _valuation_index(found[0]) >= slots
    assert late


def test_branching_pass_alone_returns_what_a_game_per_candidate_search_returns(monkeypatch):
    # the fixed formulas all fall to a game with one outcome per (state,
    # profile) pair; with that pass switched off, every countermodel is a
    # branching game
    _branching_only(monkeypatch)
    for text in _SEARCHED[:8] + [
        "K{a}p -> p",
        "~K{a}p",
        "~K{}p",
        "B{a}p -> B{a}(p & q)",
        "K{a}p & K{a}q -> K{}(p | q)",
        "~(B{a}p & K{b}~q & ~K{}(p | q))",
    ]:
        formula = parse_formula(text)
        for max_candidates in (1, 300, 3000):
            _assert_same_search(formula, SearchBudget(max_candidates), one_outcome=False)
        found = find_countermodel(formula, SearchBudget(3000))
        if found is not None:
            game, _ = found
            assert len(game.plays) > len({(p.state, id(p.profile)) for p in game.plays})


@pytest.mark.parametrize("tiny", [True, False])
@pytest.mark.parametrize("agents, variables", [(("a",), ("p",)), (("a", "b"), ("p", "q"))])
def test_candidates_build_the_reference_games_in_order(agents, variables, tiny, monkeypatch):
    # the walk's frames under each valuation, in product order, against the
    # reference's games; without tiny, the branching pass alone.  One agent
    # and one variable: 610 games with one outcome per pair, then 890 of the
    # 7,828 that branch
    if not tiny:
        _branching_only(monkeypatch)
    walk = (
        (frame, generator._valuation(v, len(frame[2]), len(variables)))
        for frame in generator._frames(len(agents))
        for v in range(1 << len(frame[2]) * len(variables))
    )
    expected = reference_candidates(agents, variables, tiny)
    for _, (frame, masks), game in zip(range(1500), walk, expected):
        assert generator._build(agents, frame, dict(zip(variables, masks))) == game


def test_valuations_come_in_product_order_one_at_a_time():
    for n, n_vars in ((1, 1), (3, 1), (2, 2), (1, 3)):
        expected = list(product(range(1 << n), repeat=n_vars))
        assert [tuple(generator._valuation(v, n, n_vars)) for v in range(len(expected))] == expected
        for count in (1, 3, len(expected)):
            rep, patterns = generator._layout(n, n_vars, count)
            for j, masks in enumerate(expected[:count]):
                assert rep >> j * (n + 1) & ((1 << n + 1) - 1) == 1
                assert [m >> j * (n + 1) & ((1 << n + 1) - 1) for m in patterns] == list(masks)
            assert rep < 1 << count * (n + 1)
    # each valuation comes from its index alone, with none of the 2**80 before it
    assert generator._valuation((1 << 80) - 2, 40, 2) == [(1 << 40) - 1, (1 << 40) - 2]


def test_layout_matches_the_string_built_reference():
    # the slot layouts of every batch the search can ask for, against the
    # layout built as binary text: counts of every size up to 64, each
    # power of two near 4096 and its neighbours, and each frame's full
    # batch (the budget cuts a batch to any count below it)
    counts = set(range(1, 65)) | {127, 128, 129, 1000, 2047, 2048, 2049, 4095, 4096}
    for n in range(1, 17):
        size = max(1, generator._BITS >> n.bit_length())
        for n_vars in (1, 2, 3):
            for count in sorted(c for c in counts | {size} if c <= min(size, 1 << n * n_vars)):
                assert generator._layout(n, n_vars, count) == reference_layout(n, n_vars, count), (
                    n, n_vars, count,
                )


def test_rows_give_the_truth_table_of_the_reference_loop():
    for k in range(13):
        rep, patterns = semantics._rows(k, 1)
        assert rep == (1 << (1 << k)) - 1
        assert patterns == reference_truth_table(k), k


@pytest.mark.parametrize("agents, variables", [(1, 1), (1, 2), (2, 1)])
def test_space_counts_the_candidates_of_the_bounded_frames(agents, variables):
    # the walk gives each frame of the bounded space once: per shape, the
    # partitions times, per (state, profile) pair, its valuations summed
    # over its nonempty outcome sets
    frames = list(generator._frames(agents))
    assert len(set(frames)) == len(frames)
    count = sum(1 << len(plays) * variables for _, _, plays in frames)
    expected = sum(
        (1 + (s > 1)) ** agents * ((1 + 2**variables) ** o - 1) ** (s * a**agents)
        for s, a, o in product((1, 2), repeat=3)
    )
    assert count == expected
    assert (agents, variables) != (1, 1) or count == 8438


def _child(code, limit=2 << 30):
    """Run code in a child Python limited to limit bytes (2 GB) of address
    space, so that a search that asks for an astronomically large tuple or
    string fails there."""
    resource = pytest.importorskip("resource")

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    src = str(Path(generator.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    return subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env,
        preexec_fn=cap, timeout=120,
    )


def test_search_over_five_agents_enumerates_valuations_lazily():
    # the tiny frame of one state and two actions has 32 plays, so 2**32
    # valuations, which the default budget leaves mostly unvisited
    proc = _child(
        "from blamelogic.generator import find_countermodel\n"
        "from blamelogic.syntax import parse_formula\n"
        "print(find_countermodel(parse_formula('K{a,b,c,d,e}p -> p')))\n"
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "None\n", "")


def test_cli_search_over_five_agents_says_none():
    proc = _child(
        "import sys\n"
        "from blamelogic.cli import main\n"
        "sys.exit(main(['search', '--formula', 'K{a,b,c,d,e}p -> p']))\n"
    )
    assert (proc.returncode, proc.stdout) == (0, "none\n")
    assert "Traceback" not in proc.stderr


# the (1, 2, 1) frame of 15 agents has 2**15 plays: batches of 4096 slots of
# 2**15 + 1 bits lay out strings of 134 million characters, which with their
# parts do not fit in 512 MB; batches of at most 2**16 bits, one slot here, do
_FIFTEEN = "K{" + ",".join(f"a{i}" for i in range(15)) + "}p -> p"


def test_search_over_fifteen_agents_fits_in_512_mb():
    proc = _child(
        "from blamelogic.generator import find_countermodel\n"
        "from blamelogic.syntax import parse_formula\n"
        f"print(find_countermodel(parse_formula({_FIFTEEN!r})))\n",
        limit=1 << 29,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "None\n", "")


def test_cli_search_over_fifteen_agents_says_none_in_512_mb():
    proc = _child(
        "import sys\n"
        "from blamelogic.cli import main\n"
        f"sys.exit(main(['search', '--formula', {_FIFTEEN!r}]))\n",
        limit=1 << 29,
    )
    assert (proc.returncode, proc.stdout) == (0, "none\n")
    assert "Traceback" not in proc.stderr


def test_cli_search_out_of_memory_is_an_input_error():
    # 26 agents: the (1, 2, 1) shape has 2**26 (state, profile) pairs, more
    # than 512 MB holds; the CLI says so on stderr and exits 2, not with a
    # traceback and the countermodel code 1
    formula = "K{" + ",".join(f"a{i}" for i in range(26)) + "}p -> p"
    proc = _child(
        "import sys\n"
        "from blamelogic.cli import main\n"
        f"sys.exit(main(['search', '--formula', {formula!r}]))\n",
        limit=1 << 29,
    )
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: out of memory")
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""


def _brute_prevent(rest, pending, members, masks):
    # the walk of one slot, written as a loop over every choice
    for choice in product(masks.actions, repeat=len(members)):
        plays = rest
        for agent, action in zip(members, choice):
            plays &= masks.act.get((agent, action), 0)
        if not plays:
            return pending
    return 0


@pytest.mark.parametrize(
    "agents, shapes",
    [(("a",), generator._TINY_SHAPES), (("a", "b"), ((2, 2, 1), (1, 2, 2)))],
    ids=["one-agent-space", "two-agents"],
)
def test_slot_pass_matches_an_ext_call_per_candidate(agents, shapes, monkeypatch):
    # every frame of the shapes, under every valuation of one variable: the
    # slot pass of each frame (the engine's walk over the frame's index in
    # slots) against one _ext call per candidate on its own _build Game,
    # whose B tries every choice in turn; for one agent that is all 8,438
    # games of the bounded space.  The fixed formulas take K and B over the
    # empty, a single and the full coalition
    rng = random.Random(25)
    texts = ["K{a}p -> p", "B{a}p -> p", "B{a}p -> K{a}p", "p -> B{a}p", "~B{}p", "K{}p"]
    if len(agents) == 2:
        texts += ["B{a,b}p -> B{a}p", "B{a,b}~p | K{a,b}p", "B{b}(p -> B{a,b}p)"]
    formulas = [parse_formula(text) for text in texts]
    formulas += [rand_formula(rng, 3, (("p",), agents)) for _ in texts]
    layouts = {}
    cases = []
    for frame in generator._frames(len(agents)):
        n = len(frame[2])
        if frame[0] not in shapes:
            continue
        if n not in layouts:
            layouts[n] = generator._layout(n, 1, 1 << n)
        rep, (pattern,) = layouts[n]
        slots = _frame_index(agents, frame, rep)
        masks = [semantics._ext(f, slots, {Var("p"): pattern}) for f in formulas]
        assert not any(mask & ~slots.full for mask in masks)  # the guard bits stay clear
        cases.append((frame, n, masks))
    monkeypatch.setattr(semantics, "_prevent", _brute_prevent)
    for frame, n, masks in cases:
        for j in range(1 << n):
            game = generator._build(agents, frame, {"p": j})
            for f, mask in zip(formulas, masks):
                one = semantics._ext(f, game._masks, {})
                assert mask >> j * (n + 1) & game._masks.full == one, (game, j, print_formula(f))


