import os
import random
import subprocess
import sys
from dataclasses import replace
from itertools import islice, product
from pathlib import Path

import pytest

import _helpers
from _helpers import (
    identity_empty_classes,
    naive_evaluate,
    rand_formula,
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
from blamelogic.syntax import Var, parse_formula, print_formula


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
        (SearchBudget, "seed", 1.0),
        (SearchBudget, "seed", True),
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


# one, two and three agents; deeper formulas share more subformulas
_SWEPT = [
    GenParams(num_agents=k, formula_depth=depth, seed=seed)
    for k in (1, 2, 3)
    for depth, seed in ((2, 3), (3, 17), (4, 2024))
]


@pytest.mark.parametrize("mutated", [False, True], ids=["engine", "identity_empty_classes"])
def test_sweep_returns_what_a_memo_per_instance_sweep_returns(mutated, monkeypatch):
    # the trial's shared memo must change no count and no violation (schema,
    # trial, play, formula, game); a memo kept across trials would read one
    # game's masks on the next
    if mutated:
        monkeypatch.setattr(semantics, "_classes", identity_empty_classes(semantics._classes))
    violations = 0
    for params in _SWEPT:
        report = soundness_sweep(params, 25)
        assert report == _helpers.reference_soundness_sweep(params, 25), params
        violations += len(report.violations)
    assert bool(violations) == mutated


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


def test_sweep_reads_the_engine_mask(monkeypatch):
    # every instance is decided by the engine's mask (_ext) over the game's plays
    calls = []

    def full(formula, full, game, masks, memo):
        calls.append(formula)
        return full

    monkeypatch.setattr(semantics, "_ext", full)
    report = soundness_sweep(GenParams(seed=4), 2)
    assert report.ok
    assert calls

    monkeypatch.setattr(semantics, "_ext", lambda formula, full, game, masks, memo: 0)
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


def test_below_takes_the_draws_of_randrange_choice_and_randint():
    # the search's shapes read getrandbits through _below, and _draw writes
    # its loop out; a CPython whose randrange, choice or randint draw
    # otherwise would change every game
    for seed in range(200):
        ours, theirs = random.Random(seed), random.Random(seed)
        for n in range(1, 10):
            assert generator._below(ours.getrandbits, n) == theirs.randrange(n)
            assert generator._below(ours.getrandbits, n) == theirs.choice(range(n))
            assert 1 + generator._below(ours.getrandbits, n) == theirs.randint(1, n)
        assert ours.getstate() == theirs.getstate(), seed


def test_truth_search_draws_a_valuation_for_every_random_candidate(monkeypatch):
    # Truth-K with one agent and one variable: 610 tiny games, then at a
    # budget of 1500, 890 random candidates, each drawn whole, since the
    # 8,438 games that a draw may give are more than four per draw.  At the
    # default budget they are fewer than four per draw (4,390), so the search
    # checks them all before drawing, finds no countermodel and draws none
    drawn = []
    draw = generator._draw

    def counted(*args):
        drawn.append(args)
        return draw(*args)

    monkeypatch.setattr(generator, "_draw", counted)
    formula = parse_formula("K{a}p -> p")
    for budget, draws in ((SearchBudget(1500), 890), (SearchBudget(), 0)):
        drawn.clear()
        assert find_countermodel(formula, budget) is None
        assert len(drawn) == draws, budget
        assert reference_find_countermodel(formula, budget) is None


def test_random_frames_come_from_one_generator_whatever_the_formula(monkeypatch):
    # two sound formulas over one agent and one variable meet the same
    # frames, in the order in which one generator, seeded once, draws them
    # along with their shapes and valuations
    monkeypatch.setattr(generator, "_TINY_SHAPES", ())
    met = []
    draw = generator._draw

    def recorded(*args):
        met[-1].append(draw(*args))
        return met[-1][-1]

    monkeypatch.setattr(generator, "_draw", recorded)
    for seed in (0, 5):
        budget = SearchBudget(300, seed)
        for text in ("K{a}p -> p", "B{a}p -> p"):
            met.append([])
            assert find_countermodel(parse_formula(text), budget) is None
        assert met[-2] == met[-1], seed
        rng = random.Random(derive_seed(seed, 7))
        expected = []
        for _ in range(budget.max_candidates):
            shape = [rng.randint(1, 2) for _ in range(3)]
            names = [tuple(f"{c}{i}" for i in range(n)) for c, n in zip("sdo", shape)]
            expected.append(_helpers._reference_random_game(rng, ("a",), *names, ("p",), 0.15))
        built = [generator._build(("a",), frame, {"p": mask}) for frame, (mask,) in met[-1]]
        assert built == expected, seed


def test_random_phase_with_repeated_frames_returns_what_a_game_per_candidate_search_returns(
    monkeypatch,
):
    # a one-play frame has two valuations and comes about once in eight
    # draws, so these countermodels often come after its other valuation
    # was checked: only a candidate already checked may be skipped
    monkeypatch.setattr(generator, "_TINY_SHAPES", ())
    monkeypatch.setattr(_helpers, "_REFERENCE_TINY_SHAPES", ())
    for text in ("~K{a}p", "~K{}p"):
        for seed in range(40):
            _assert_same_search(parse_formula(text), SearchBudget(300, seed))


def test_valuations_come_in_product_order_one_at_a_time():
    for n, n_vars in ((1, 1), (3, 1), (2, 2), (1, 3)):
        expected = list(product(range(1 << n), repeat=n_vars))
        assert list(generator._valuations(n, n_vars)) == expected
    # product would first copy 2**40 masks into a tuple
    assert next(generator._valuations(40, 2)) == (0, 0)


@pytest.mark.parametrize("agents, variables", [(1, 1), (1, 2), (2, 1)])
def test_space_counts_the_candidates_of_the_bounded_frames(agents, variables):
    frames = generator._frames(agents, generator._BOUNDED_SHAPES, True)
    count = sum(1 << len(plays) * variables for _, _, plays in frames)
    assert generator._space(agents, variables, count) == count
    assert generator._space(agents, variables, count - 1) == count


def test_space_stops_at_its_limit():
    assert generator._space(1, 1, 10**9) == 8438
    # 200 agents give 2**200 profiles per state: the count stops past 5000
    assert generator._space(200, 3, 5000) == 5001


def _child(code):
    """Run code in a child Python limited to 2 GB of address space, so that a
    search that asks for an astronomically large tuple fails there."""
    resource = pytest.importorskip("resource")
    limit = 2 << 30

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


def _brute_prevent(rest, pending, members, actions, masks):
    # the walk of one slot, written as a loop over every choice
    for choice in product(actions, repeat=len(members)):
        plays = rest
        for agent, action in zip(members, choice):
            plays &= masks.act.get((agent, action), 0)
        if not plays:
            return pending
    return 0


@pytest.mark.parametrize(
    "agents, shapes",
    [(("a",), generator._BOUNDED_SHAPES), (("a", "b"), ((2, 2, 1), (1, 2, 2)))],
    ids=["one-agent-space", "two-agents"],
)
def test_slot_pass_matches_an_ext_call_per_candidate(agents, shapes, monkeypatch):
    # every frame of the shapes, under every valuation of one variable: the
    # slot pass of each frame (the engine's walk) against one _ext call per
    # candidate, whose B tries every choice in turn; for one agent that is
    # all 8,438 games that a random draw may give.  The fixed formulas take
    # K and B over the empty, a single and the full coalition
    rng = random.Random(25)
    texts = ["K{a}p -> p", "B{a}p -> p", "B{a}p -> K{a}p", "p -> B{a}p", "~B{}p", "K{}p"]
    if len(agents) == 2:
        texts += ["B{a,b}p -> B{a}p", "B{a,b}~p | K{a,b}p", "B{b}(p -> B{a,b}p)"]
    formulas = [parse_formula(text) for text in texts]
    formulas += [rand_formula(rng, 3, (("p",), agents)) for _ in texts]
    p = Var("p")
    layouts = {}
    cases = []
    for frame in generator._frames(len(agents), shapes, True):
        n = len(frame[2])
        if n not in layouts:
            layouts[n] = generator._layout(n, 1)
        rep, (pattern,) = layouts[n]
        game = generator._build(agents, frame, {})
        slots = game._masks.spread(rep, {"p": pattern})
        for f in formulas:
            mask = semantics._ext(f, slots.full, game, slots, {})
            assert not mask & ~slots.full  # the guard bits stay clear
            cases.append((game, f, n, mask))
    monkeypatch.setattr(semantics, "_prevent", _brute_prevent)
    for game, f, n, mask in cases:
        masks = game._masks
        for j in range(1 << n):
            one = semantics._ext(f, masks.full, game, masks, {p: j})
            assert mask >> j * (n + 1) & masks.full == one, (game, j, print_formula(f))


def test_random_phase_after_the_bounded_check_returns_what_a_game_per_candidate_search_returns(
    monkeypatch,
):
    # with no tiny phase, a budget of 3000 leaves 3000 draws, against which
    # the 8,438 one-agent, one-variable games are few: the search checks
    # them all first and draws only when one falsifies the formula, so the
    # countermodels below still come from the random draws
    monkeypatch.setattr(generator, "_TINY_SHAPES", ())
    monkeypatch.setattr(_helpers, "_REFERENCE_TINY_SHAPES", ())
    checked = []
    check = generator._falsifiable

    def spied(*args):
        checked.append(check(*args))
        return checked[-1]

    monkeypatch.setattr(generator, "_falsifiable", spied)
    texts = ["B{a}p -> K{a}p", "p -> K{a}p", "p -> B{a}p", "~K{a}p", "~K{}p", "K{a}p -> p"]
    for text in texts:
        _assert_same_search(parse_formula(text), SearchBudget(3000, 5))
    assert checked == [True] * 5 + [False]
