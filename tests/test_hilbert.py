from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from _helpers import make_rng, negate_line, rand_coalition, rand_formula
from blamelogic import asset_path
from blamelogic.errors import AtomBudgetExceededError, ParseError
from blamelogic.hilbert import (
    AXIOM_NAMES,
    Axiom,
    MP,
    Nec,
    Premise,
    ProofLine,
    ProofScript,
    Taut,
    build_axiom,
    check_proof,
    format_proof,
    is_tautology_instance,
    match_axiom,
    match_schema,
    parse_proof,
    parse_proof_file,
)
from blamelogic.syntax import (
    Blames,
    Implies,
    Knows,
    Neg,
    Var,
    atom_list,
    parse_formula,
)

p, q = Var("p"), Var("q")
a = frozenset({"a"})
ab = frozenset({"a", "b"})

CORPUS = (
    "lemma3.proof",
    "lemma4_inst.proof",
    "lemma5.proof",
    "lemma6_n2.proof",
    "lemma8.proof",
    "lemma9_n2.proof",
)


def corpus_script(name):
    return parse_proof(asset_path(name).read_text())


# ---------------------------------------------------------------------------
# Axiom matching


def test_match_distributivity():
    name, bindings = match_axiom(parse_formula("K{a,b}(p->q) -> (K{a,b}p -> K{a,b}q)"))
    assert name == "Distributivity"
    assert bindings == {"C": ab, "phi": p, "psi": q}


def test_match_monotonicity_with_side_condition():
    name, bindings = match_axiom(parse_formula("K{a}p -> K{a,b}p"))
    assert name == "Monotonicity-K"
    assert bindings["C"] == a and bindings["D"] == ab


def test_monotonicity_side_condition_fails():
    assert match_axiom(parse_formula("K{a,b}p -> K{a}p")) is None


def test_match_none_to_blame():
    name, bindings = match_axiom(parse_formula("~B{}(p->q)"))
    assert name == "NoneToBlame"
    assert bindings == {"phi": Implies(p, q)}


def test_match_every_schema_roundtrips_through_builder():
    cases = {
        "Truth-K": dict(phi=p, c=a),
        "Truth-B": dict(phi=p, c=a),
        "Distributivity": dict(phi=p, psi=q, c=ab),
        "NegativeIntrospection": dict(phi=p, c=a),
        "Monotonicity-K": dict(phi=p, c=a, d=ab),
        "Monotonicity-B": dict(phi=p, c=a, d=ab),
        "NoneToBlame": dict(phi=p),
        "BlamelessnessOfTruth": dict(c=a),
        "JointResponsibility": dict(phi=p, psi=q, c=a, d=frozenset({"b"})),
        "BlameForKnownCause": dict(phi=p, psi=q, c=a),
        "KnowledgeOfFairness": dict(phi=p, c=a),
    }
    assert set(cases) == set(AXIOM_NAMES)
    for name, kwargs in cases.items():
        instance = build_axiom(name, **kwargs)
        got = match_axiom(instance)
        assert got is not None
        assert got[0] == name, f"{name} instance matched {got[0]}"


def test_blamelessness_with_empty_coalition_matches_none_to_blame_first():
    instance = build_axiom("BlamelessnessOfTruth", c=frozenset())
    assert match_axiom(instance)[0] == "NoneToBlame"
    assert match_schema("BlamelessnessOfTruth", instance) is not None


def test_joint_responsibility_requires_disjointness():
    good = build_axiom("JointResponsibility", p, q, a, frozenset({"b"}))
    assert match_axiom(good)[0] == "JointResponsibility"
    with pytest.raises(ValueError):
        build_axiom("JointResponsibility", p, q, a, a)


def test_monotonicity_builder_checks_subset():
    with pytest.raises(ValueError):
        build_axiom("Monotonicity-K", p, c=ab, d=a)


def test_truth_axiom_with_equal_sides_still_matches():
    assert match_axiom(Implies(Knows(a, p), Knows(a, p)))[0] == "Monotonicity-K"


# metavariables of each schema, as match_schema names them
METAVARS = {
    "Truth-K": {"C", "phi"},
    "Truth-B": {"C", "phi"},
    "Distributivity": {"C", "phi", "psi"},
    "NegativeIntrospection": {"C", "phi"},
    "Monotonicity-K": {"C", "D", "phi"},
    "Monotonicity-B": {"C", "D", "phi"},
    "NoneToBlame": {"phi"},
    "BlamelessnessOfTruth": {"C"},
    "JointResponsibility": {"C", "D", "phi", "psi"},
    "BlameForKnownCause": {"C", "phi", "psi"},
    "KnowledgeOfFairness": {"C", "phi"},
}
KEYWORD = {"C": "c", "D": "d", "phi": "phi", "psi": "psi"}


def _mutants(f, rng):
    """f with one subformula or one coalition replaced, once per site."""
    yield rand_formula(rng, 1)
    match f:
        case Neg(inner):
            yield from map(Neg, _mutants(inner, rng))
        case Implies(lhs, rhs):
            yield from (Implies(m, rhs) for m in _mutants(lhs, rng))
            yield from (Implies(lhs, m) for m in _mutants(rhs, rng))
        case Knows(c, inner) | Blames(c, inner):
            yield type(f)(rand_coalition(rng), inner)
            yield from (type(f)(c, m) for m in _mutants(inner, rng))


@settings(max_examples=100, derandomize=True, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_schema_table_builds_what_it_matches(seed):
    rng = make_rng(seed)
    phi, psi = rand_formula(rng, 2), rand_formula(rng, 2)
    c, extra = rand_coalition(rng), rand_coalition(rng)
    rebuilt = 0
    for name in AXIOM_NAMES:
        # bindings meeting the side condition: C subset of D for
        # Monotonicity, C and D disjoint for Joint Responsibility
        d = extra - c if name == "JointResponsibility" else c | extra
        chosen = {"C": c, "D": d, "phi": phi, "psi": psi}
        instance = build_axiom(name, phi, psi, c, d)
        bindings = match_schema(name, instance)
        assert bindings == {k: chosen[k] for k in METAVARS[name]}, name
        # whatever matches, the builder rebuilds from the bindings exactly
        for f in (instance, *_mutants(instance, rng)):
            for other in AXIOM_NAMES:
                got = match_schema(other, f)
                if got is not None:
                    assert set(got) == METAVARS[other]
                    kwargs = {KEYWORD[k]: v for k, v in got.items()}
                    assert build_axiom(other, **kwargs) == f, (other, f)
                    rebuilt += 1
    assert rebuilt > len(AXIOM_NAMES)


# ---------------------------------------------------------------------------
# Tautology decision


def test_tautology_examples():
    assert is_tautology_instance(parse_formula("p -> q -> p"))
    assert is_tautology_instance(parse_formula("K{a}p | ~K{a}p"))
    assert not is_tautology_instance(parse_formula("K{a}p -> p"))


def test_atom_budget():
    f = parse_formula("p -> q")
    with pytest.raises(AtomBudgetExceededError):
        is_tautology_instance(f, max_atoms=1)


def _naive_tautology(f):
    atoms = atom_list(f)

    def value(node, env):
        if node in env:
            return env[node]
        if isinstance(node, Neg):
            return not value(node.inner, env)
        if isinstance(node, Implies):
            return (not value(node.lhs, env)) or value(node.rhs, env)
        raise TypeError(node)

    for bits in product([False, True], repeat=len(atoms)):
        if not value(f, dict(zip(atoms, bits))):
            return False
    return True


def test_tautology_against_naive_truth_tables():
    rng = make_rng(7)
    for _ in range(300):
        f = rand_formula(rng, 3)
        assert is_tautology_instance(f) == _naive_tautology(f)
    # a couple of shapes with many atoms
    chain = parse_formula("p -> q -> r -> s -> t -> p")
    assert is_tautology_instance(chain) == _naive_tautology(chain)


# ---------------------------------------------------------------------------
# Proof checking


def test_modus_ponens_script_valid():
    script = ProofScript(
        (p, Implies(p, q)),
        (
            ProofLine(1, p, Premise()),
            ProofLine(2, Implies(p, q), Premise()),
            ProofLine(3, q, MP(1, 2)),
        ),
        q,
    )
    report = check_proof(script)
    assert report.valid
    assert report.depends_on_premise == (True, True, True)


def test_necessitation_rejected_on_premise_dependent_line():
    script = ProofScript(
        (p,),
        (
            ProofLine(1, p, Premise()),
            ProofLine(2, Knows(a, p), Nec(1, a)),
        ),
        Knows(a, p),
    )
    report = check_proof(script)
    assert not report.valid
    assert report.error_line == 2
    assert "premise-dependent" in report.reason


def test_contrapositive_is_not_a_single_tautology_step():
    # oracle: truth table over atoms {K{a}~K{a}p, ~K{a}p, K{a}p} falsifies it
    line2 = parse_formula("K{a}p -> ~K{a}~K{a}p")
    assert not _naive_tautology(line2)
    script = ProofScript(
        (),
        (
            ProofLine(1, parse_formula("K{a}~K{a}p -> ~K{a}p"), Axiom("Truth-K")),
            ProofLine(2, line2, Taut()),
        ),
        line2,
    )
    report = check_proof(script)
    assert not report.valid
    assert report.error_line == 2
    assert "tautology" in report.reason


def test_axiom_line_must_match_named_schema():
    script = ProofScript(
        (),
        (ProofLine(1, build_axiom("Truth-K", p, c=a), Axiom("Distributivity")),),
        build_axiom("Truth-K", p, c=a),
    )
    report = check_proof(script)
    assert not report.valid
    assert "not an instance of Distributivity" in report.reason


def test_goal_must_be_concluded():
    script = ProofScript((p,), (ProofLine(1, p, Premise()),), q)
    report = check_proof(script)
    assert not report.valid
    assert "goal" in report.reason


def test_line_numbering_enforced():
    script = ProofScript((p,), (ProofLine(5, p, Premise()),), p)
    assert not check_proof(script).valid


def test_premise_list_order_is_irrelevant():
    lines = (
        ProofLine(1, p, Premise()),
        ProofLine(2, Implies(p, q), Premise()),
        ProofLine(3, q, MP(1, 2)),
    )
    one = check_proof(ProofScript((p, Implies(p, q)), lines, q))
    two = check_proof(ProofScript((Implies(p, q), p), lines, q))
    assert one.valid and two.valid


def test_mp_shape_checked():
    script = ProofScript(
        (p, Implies(q, q)),
        (
            ProofLine(1, p, Premise()),
            ProofLine(2, Implies(q, q), Premise()),
            ProofLine(3, q, MP(1, 2)),
        ),
        q,
    )
    report = check_proof(script)
    assert not report.valid and report.error_line == 3


# ---------------------------------------------------------------------------
# Bundled corpus


@pytest.mark.parametrize("name", CORPUS)
def test_corpus_scripts_pass(name):
    assert check_proof(corpus_script(name)).valid


def test_corpus_goals():
    assert corpus_script("lemma3.proof").goal == parse_formula(
        "~K{a}~B{a}p -> (p -> B{a}p)"
    )
    assert corpus_script("lemma4_inst.proof").goal == parse_formula("B{a}p -> B{a}~~p")
    assert corpus_script("lemma5.proof").goal == parse_formula("~K{a}~p")
    assert corpus_script("lemma6_n2.proof").goal == parse_formula("B{a,b}(p | q)")
    assert corpus_script("lemma8.proof").goal == parse_formula("K{a}p -> K{a}K{a}p")
    assert corpus_script("lemma9_n2.proof").goal == parse_formula(
        "K{a,b,c}(r -> B{a,b,c}r)"
    )


@pytest.mark.parametrize("name", CORPUS)
def test_corpus_mutants_fail(name):
    rng = make_rng(sum(map(ord, name)))
    script = corpus_script(name)
    for _ in range(4):
        k = rng.randint(1, len(script.lines))
        mutant = negate_line(script, k)
        assert not check_proof(mutant).valid, f"{name} line {k} mutant passed"


def test_proof_format_round_trip():
    for name in CORPUS:
        script = corpus_script(name)
        assert parse_proof(format_proof(script)) == script


def test_parse_proof_file_matches_text():
    assert parse_proof_file(str(asset_path("lemma5.proof"))) == corpus_script(
        "lemma5.proof"
    )


# ---------------------------------------------------------------------------
# Bridges to the semantics


def test_schema_and_tautology_acceptance_implies_semantic_truth():
    # anything the syntactic side accepts must hold at every play
    from blamelogic.generator import GenParams, gen_formula, gen_game
    from blamelogic.semantics import evaluate

    games = [gen_game(GenParams(num_agents=3, seed=s)) for s in (1, 2, 3)]
    rng = make_rng(99)
    accepted = []
    for _ in range(400):
        f = rand_formula(rng, 3)
        if is_tautology_instance(f):
            accepted.append(f)
    for s in range(40):
        f = gen_formula(GenParams(formula_depth=3, num_agents=3, seed=s), ("a", "b"))
        hit = match_axiom(f)
        if hit is not None:
            accepted.append(f)
    rng2 = make_rng(123)
    from _helpers import rand_axiom_line

    accepted.extend(rand_axiom_line(rng2)[0] for _ in range(60))
    assert len(accepted) > 60
    for game in games:
        for f in accepted:
            for play in game.plays:
                assert evaluate(game, play, f), f


def test_modus_ponens_preserves_validity():
    from _helpers import rand_axiom_line
    from blamelogic.generator import GenParams, gen_formula, gen_game
    from blamelogic.semantics import is_valid

    checked = 0
    rng = make_rng(5)
    for seed in range(60):
        game = gen_game(GenParams(seed=seed))
        f = gen_formula(GenParams(seed=seed * 31, formula_depth=2), game.agents)
        h = gen_formula(GenParams(seed=seed * 37, formula_depth=2), game.agents)
        if seed % 3 == 0:
            # axiom instances are valid, so these pairs always fire
            f, _ = rand_axiom_line(rng)
            h, _ = rand_axiom_line(rng)
        if is_valid(game, f) and is_valid(game, Implies(f, h)):
            checked += 1
            assert is_valid(game, h)
    assert checked > 0


def test_proof_comments_and_blank_lines_ignored():
    text = """
# a comment
premises: p  # trailing comment
goal: p

1. p ; premise
"""
    script = parse_proof(text)
    assert script.premises == (p,)
    assert check_proof(script).valid


@given(st.text(alphabet="pq.;:#{}()~-> 0123456789\nmptauxiomnec", max_size=80))
def test_proof_parser_is_total_over_junk(text):
    try:
        parse_proof(text)
    except ParseError:
        pass
