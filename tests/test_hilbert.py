import collections
import random
import re
import sys
import weakref
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from _helpers import (
    AGENTS,
    TAUT_SHAPES,
    VARS,
    make_rng,
    negate_line,
    rand_coalition,
    rand_formula,
    rand_taut_line,
    random_premise_script,
)
from blamelogic import asset_path
from blamelogic.errors import AtomBudgetExceededError, ParseError
from blamelogic.hilbert import (
    AXIOM_NAMES,
    MAX_ATOMS,
    Axiom,
    CheckReport,
    MP,
    Nec,
    Premise,
    ProofLine,
    ProofScript,
    Taut,
    _refuted,
    build_axiom,
    check_proof,
    deduction_transform,
    format_justification,
    format_proof,
    is_tautology_instance,
    match_axiom,
    match_schema,
    parse_proof,
    parse_proof_file,
)
from blamelogic.syntax import (
    MAX_DEPTH,
    TOP,
    Blames,
    Implies,
    Knows,
    Neg,
    Var,
    _parse_formula,
    atom_list,
    parse_formula,
    print_formula,
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
    # some draws use the names the templates give the metavariables
    vocab = (("phi", "psi") if seed % 2 else VARS, ("C", "D") if seed % 3 == 0 else AGENTS)
    phi, psi = rand_formula(rng, 2, vocab), rand_formula(rng, 2, vocab)
    c, extra = rand_coalition(rng, vocab[1]), rand_coalition(rng, vocab[1])
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


def test_a_rebuild_deeper_than_the_node_bound_is_no_match():
    x = p
    for _ in range(296):
        x = Neg(x)
    f = Implies(Blames(a, x), Knows(a, Implies(q, Blames(a, q))))
    assert (x.depth, f.depth) == (297, 299)
    # binds phi to x; the rebuild's K{a}(x -> B{a}x) would be 301 levels deep
    assert match_schema("KnowledgeOfFairness", f) is None
    assert match_axiom(f) is None


# ---------------------------------------------------------------------------
# Tautology decision


def test_tautology_examples():
    assert is_tautology_instance(parse_formula("p -> q -> p"))
    assert is_tautology_instance(parse_formula("K{a}p | ~K{a}p"))
    assert not is_tautology_instance(parse_formula("K{a}p -> p"))


def _implication_chain(n):
    """p0 -> p1 -> ... -> p(n-1) -> p0: a tautology over n distinct atoms."""
    return " -> ".join(f"p{i}" for i in range(n)) + " -> p0"


def test_atom_budget():
    assert is_tautology_instance(parse_formula(_implication_chain(MAX_ATOMS)))
    with pytest.raises(AtomBudgetExceededError, match="21 modal atoms exceeds the budget of 20"):
        is_tautology_instance(parse_formula(_implication_chain(MAX_ATOMS + 1)))
    text = _implication_chain(MAX_ATOMS + 1)
    with pytest.raises(AtomBudgetExceededError):
        check_proof(parse_proof(f"goal: {text}\n1. {text} ; taut\n"))


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


def test_tautology_against_naive_truth_tables_on_shaped_lines():
    # identity, weakening and distribution lines as deduction_transform
    # emits them, contraposition and Peirce's law, each over random
    # subformulas and also broken by one replaced occurrence, and random
    # formulas; at most 12 modal atoms each
    rng = make_rng(23)
    seen = collections.Counter()
    for _ in range(4000):
        kind, f = rand_taut_line(rng)
        verdict = is_tautology_instance(f)
        assert verdict == _naive_tautology(f), (kind, print_formula(f))
        seen[kind.split()[-1], verdict] += 1
        if kind in TAUT_SHAPES:  # propagation alone settles every unbroken shape
            assert _refuted(f), (kind, print_formula(f))
    assert {kind for kind, _ in seen} == {*TAUT_SHAPES, "random"}
    assert all(seen[kind, verdict] for kind, _ in seen for verdict in (False, True)), seen


def test_propagation_reports_no_clash_for_a_non_tautology():
    # a clash must prove the line a tautology: this fails for propagation
    # that forces the right end of a true implication whose left end is
    # unknown, and for propagation that gives a negation's inner node the
    # negation's own value
    rng = make_rng(29)
    refuted = non_tautologies = 0
    for _ in range(20_000):
        kind, f = rand_taut_line(rng)
        if _refuted(f):
            refuted += 1
            assert _naive_tautology(f), (kind, print_formula(f))
        else:
            non_tautologies += not _naive_tautology(f)
    assert refuted > 8000 and non_tautologies > 6000, (refuted, non_tautologies)


def test_atom_memo_sets_stop_past_the_budget():
    # a balanced implication tree over 4096 distinct variables: the budget
    # error names the exact count, and no memo entry holds more than
    # MAX_ATOMS + 1 atoms, so the count costs O(nodes * MAX_ATOMS)
    level = [Var(f"v{i}") for i in range(4096)]
    while len(level) > 1:
        level = [Implies(level[i], level[i + 1]) for i in range(0, len(level), 2)]
    memo = {}
    with pytest.raises(AtomBudgetExceededError, match="^4096 modal atoms exceeds the budget of 20$"):
        is_tautology_instance(level[0], _memo=memo)
    assert len(memo) == 2 * 4096 - 1
    assert max(map(len, memo.values())) == MAX_ATOMS + 1
    script = ProofScript((), (ProofLine(1, level[0], Taut()),), level[0])
    with pytest.raises(AtomBudgetExceededError, match="^4096 modal atoms"):
        check_proof(script)


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


MP_REF = "modus ponens must reference earlier lines"
NEC_REF = "necessitation must reference an earlier line"
NEC_COALITION = "necessitation coalition must be a frozenset of agent names"


@pytest.mark.parametrize(
    "justification, reason",
    [
        (MP(1, 2), None),
        (MP("1", 2), MP_REF),
        (MP(None, 2), MP_REF),
        (MP(True, 2), MP_REF),
        (MP(1, 2.0), MP_REF),
        (Nec(1, a), None),
        (Nec("1", a), NEC_REF),
        (Nec(True, a), NEC_REF),
        (Nec(1, {"a"}), NEC_COALITION),
        (Nec(1, ("a",)), NEC_COALITION),
        (Nec(1, "a"), NEC_COALITION),
        (Nec(1, frozenset({1})), NEC_COALITION),
        (Axiom("Nope"), "unknown axiom name: Nope"),
        ("mp 1 2", "unknown justification: 'mp 1 2'"),
    ],
)
def test_hand_built_justifications_are_checked_not_raised(justification, reason):
    # line 3 is q -> q by modus ponens from lines 1 and 2, or K{a} of line 1
    formula = Implies(q, q) if isinstance(justification, MP) else Knows(a, TOP)
    lines = (
        ProofLine(1, TOP, Taut()),
        ProofLine(2, Implies(TOP, Implies(q, q)), Taut()),
        ProofLine(3, formula, justification),
    )
    report = check_proof(ProofScript((), lines, formula))
    assert (report.valid, report.reason) == (reason is None, reason)
    assert report.error_line == (None if reason is None else 3)


def test_script_with_no_lines_is_invalid():
    report = check_proof(ProofScript((), (), p))
    assert (report.valid, report.error_line, report.reason) == (False, 0, "script has no lines")


@pytest.mark.parametrize("formula", ["p", None, 3, (), [], {}])
def test_a_taut_line_that_is_not_a_formula_is_invalid(formula):
    # reported as the other justifications report a non-formula line, while
    # is_tautology_instance itself keeps its TypeError
    report = check_proof(ProofScript((), (ProofLine(1, formula, Taut()),), p))
    assert report == CheckReport(False, 1, "not a tautology instance", ())
    for just in (Axiom("Truth-K"), Premise()):
        assert not check_proof(ProofScript((), (ProofLine(1, formula, just),), p)).valid
    with pytest.raises(TypeError):
        is_tautology_instance(formula)


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


def _coalition_or_error(read):
    try:
        return read()
    except ParseError:
        return ParseError


@pytest.mark.parametrize(
    "literal",
    ["{a,b}", "{ a , b }", "{}", "{ }", "{a,,b}", "{1a}", "{a b}", "{a}x", "{a"],
)
def test_nec_coalitions_read_as_in_formulas(literal):
    script = f"goal: K{{a}}p\n1. p ; premise\n2. K{{a}}p ; nec 1 {literal}\n"
    in_proof = _coalition_or_error(lambda: parse_proof(script).lines[1].justification.coalition)
    in_formula = _coalition_or_error(lambda: parse_formula(f"K{literal} p").coalition)
    assert in_proof == in_formula


@pytest.mark.parametrize(
    "text, number",
    [
        ("goal: p -> p\ngoal: q -> q\n1. q -> q ; taut\n", 2),
        ("premises: p\ngoal: p\n# a comment\npremises: q\n1. p ; premise\n", 4),
        ("premises:\ngoal: p\npremises: p\n1. p ; premise\n", 3),
    ],
)
def test_a_second_goal_or_premises_line_is_a_parse_error(text, number):
    # the last such line used to win silently
    with pytest.raises(ParseError, match=rf"^line {number}: second (goal|premises): line$"):
        parse_proof(text)


@pytest.mark.parametrize(
    "line, message",
    [
        ("1. p ; tuat", "bad justification: 'tuat'"),
        ("1. p ; axiom:Nope", "unknown axiom name: 'Nope'"),
        ("1. p ; mp 1 x", "bad modus ponens reference: 'mp 1 x'"),
        ("1. p ; nec x {a}", "bad necessitation reference: 'nec x {a}'"),
        ("one. p ; taut", "bad proof line: 'one. p ; taut'"),
        ("1. p", "missing justification on line 1"),
        # a head with no colon is not a goal: line (it raised ValueError)
        ("goal", "bad proof line: 'goal'"),
        ("premises", "bad proof line: 'premises'"),
        ("1. p -> ; taut", "unexpected 'end of input' at byte 8, "
         "expected one of ['IDENT', 'LPAREN', 'NOT', 'POSSK']"),
        # past int()'s digit limit (it raised a bare ValueError)
        pytest.param(
            "9" * 5000 + ". p ; taut", "proof line number has 5000 digits", id="huge-line-number",
            marks=pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                                     reason="no int-string digit limit"),
        ),
    ],
)
def test_every_parse_error_names_its_text_line(line, message):
    # a comment and a blank line put the script's line 1 on line 4 of the text
    with pytest.raises(ParseError, match=rf"^line 4: {re.escape(message)}$"):
        parse_proof(f"goal: p\n# c\n\n{line}\n")


@pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
                    reason="no int-string digit limit")
@pytest.mark.parametrize(
    "line",
    ["9" * 5000 + ". p", "1. p ; mp " + "9" * 5000 + " 1", "1. p ; nec " + "9" * 5000 + " {a}"],
    ids=["line-number-no-justification", "mp-reference", "nec-reference"],
)
def test_a_number_too_long_for_int_is_named_by_its_digit_count(line):
    # the message names the digit count, not the 5000 digits
    with pytest.raises(ParseError) as caught:
        parse_proof(f"goal: p\n{line}\n")
    message = str(caught.value)
    assert message.startswith("line 2: ") and "5000 digits" in message and len(message) < 120


# ---------------------------------------------------------------------------
# Per-script memos: parse_proof reads each repeated parenthesised group once,
# format_proof renders each repeated subformula once.  The references below
# read and print every formula on its own.


def _reference_format(script):
    out = []
    if script.premises:
        out.append("premises: " + " ; ".join(print_formula(f) for f in script.premises))
    out.append("goal: " + print_formula(script.goal))
    for line in script.lines:
        just = format_justification(line.justification)
        out.append(f"{line.index}. {print_formula(line.formula)} ; {just}")
    return "\n".join(out) + "\n"


def _reference_parse(text):
    """(premises, line formulas, goal) of a _reference_format text, each
    formula text parsed by its own parse_formula call."""
    premises, formulas, goal = (), [], None
    for raw in text.splitlines():
        head, _, rest = raw.partition(":")
        if head == "premises":
            premises = tuple(parse_formula(part) for part in rest.split(";"))
        elif head == "goal":
            goal = parse_formula(rest)
        else:
            formulas.append(parse_formula(raw.partition(". ")[2].rpartition(" ; ")[0]))
    return premises, formulas, goal


def _discharged(script, phis):
    for phi in phis:
        script = deduction_transform(script, phi)
    return script


def _memo_scripts():
    """The corpus fully discharged, then 100 seeded random premise scripts
    with one premise discharged."""
    for name in CORPUS:
        script = corpus_script(name)
        yield name, _discharged(script, script.premises)
    rng = make_rng(1616)
    for k in range(100):
        script, phi = random_premise_script(rng)
        yield f"random-{k}", _discharged(script, [phi])


def test_script_memos_match_parsing_and_printing_each_formula_alone():
    for name, script in _memo_scripts():
        text = _reference_format(script)
        assert format_proof(script) == text, name
        parsed = parse_proof(text)
        premises, formulas, goal = _reference_parse(text)
        # nodes are interned, so == on them (and on lists of them) is `is`
        assert parsed.premises == premises == script.premises, name
        assert [line.formula for line in parsed.lines] == formulas, name
        assert formulas == [line.formula for line in script.lines], name
        assert parsed.goal is goal is script.goal, name
        assert parsed == script, name


@pytest.mark.parametrize("extra", [48, 49, 50])
def test_a_memo_hit_counts_the_parentheses_it_nests(extra):
    # line 3 reads the 150-deep group of line 2 from the memo, inside
    # `extra` more pairs: 199 open at once parse, and the 200th is refused
    group = "(" * 150 + "p -> q" + ")" * 150
    deeper = "(" * extra + group + ")" * extra
    text = f"goal: p\n1. {group} -> p ; taut\n2. {deeper} -> p ; taut\n"
    if extra + 150 < MAX_DEPTH:
        assert parse_proof(text).lines[1].formula is parse_formula(f"{deeper} -> p")
    else:
        with pytest.raises(ParseError, match="^line 3: formula nested too deeply$"):
            parse_proof(text)


def test_a_bad_group_around_memo_hits_keeps_its_message_and_offset():
    # line 3 repeats line 2's group three times, the last inside a group
    # that does not parse; the error is the one parse_formula gives alone
    line = "2. ~(p -> q) -> ((p -> q) -> (p -> q q)) ; taut"
    offset = line.index("q q") + 2
    with pytest.raises(ParseError) as err:
        parse_proof(f"goal: p\n1. (p -> q) -> p ; taut\n{line}\n")
    message = f"unexpected 'q' at byte {offset}, expected one of ['RPAREN']"
    assert (str(err.value), err.value.offset) == (f"line 3: {message}", offset)
    with pytest.raises(ParseError, match=rf"^{re.escape(message)}$"):
        parse_formula(" " * 3 + line[3 : line.rindex(";")])
    # the memo keys tokens apart: `p q` is two names, not line 2's `pq`
    with pytest.raises(ParseError, match=r"^line 3: unexpected 'q' at byte 6,"):
        parse_proof("goal: p\n1. (pq -> r) ; taut\n2. (p q -> r) ; taut\n")


def test_no_script_memo_outlives_its_call():
    # a node that only the parsed script holds dies with the script, so
    # neither parse_proof nor format_proof keeps a memo past its call
    script = parse_proof("goal: memo_only -> memo_only\n1. (memo_only -> memo_only) ; taut\n")
    ref = weakref.ref(script.goal)
    assert format_proof(script).endswith("1. memo_only -> memo_only ; taut\n")
    del script
    assert ref() is None


# ---------------------------------------------------------------------------
# The memo is keyed by formula text: parse_proof looks up each line, group
# inside and right operand of `->` by its stripped text before scanning it.
# Whatever it hits, each formula must parse as parse_formula parses it alone.


def _outcome(parse, text):
    """The node parse returns, or its error's message, offset and expected set."""
    try:
        return parse(text)
    except ParseError as e:
        return str(e), e.offset, e.expected


def _on_text_line_3(formula, first):
    """parse_proof's outcome for formula on text line 3, after first on line
    2, and the outcome parse_proof should give: parse_formula's on that
    line's formula text alone, offsets counted from the line's start."""
    line = f"2. {formula} ; taut"
    got = _outcome(lambda t: parse_proof(t).lines[1].formula, f"goal: p\n1. {first} ; taut\n{line}\n")
    alone = _outcome(parse_formula, " " * 3 + line[3 : line.rindex(";")])
    if isinstance(alone, tuple):
        alone = (f"line 3: {alone[0]}", *alone[1:])
    return got, alone


def test_a_right_operand_lookup_never_reads_past_iff():
    # `->` binds tighter than `<->`, so the right operand of `p ->` is `q`,
    # and line 2's text `q <-> r` is no operand of line 3
    script = parse_proof("goal: p\n1. q <-> r ; taut\n2. p -> q <-> r ; taut\n")
    assert script.lines[1].formula is parse_formula("p -> q <-> r")
    assert script.lines[1].formula is not Implies(p, parse_formula("q <-> r"))


def test_one_group_in_other_spacings_parses_to_one_node():
    # each spacing is another memo key, and each parses to the one node
    texts = ["(p->q)", "( p -> q )", "(p\u3000->q)", "(p->q) -> (p -> q)", "( p -> q ) -> (p->q)"]
    script = parse_proof("goal: p\n" + "".join(f"{k}. {t} ; taut\n" for k, t in enumerate(texts, 1)))
    pq = Implies(p, q)
    assert [line.formula for line in script.lines] == [pq, pq, pq, Implies(pq, pq), Implies(pq, pq)]


@pytest.mark.parametrize("extra", [48, 49, 50])
def test_a_right_operand_hit_counts_the_parentheses_around_it(extra):
    # line 2 stores `q -> G`'s right operand G, a 150-deep group; line 3 reads
    # G as the right operand of `r -> G` inside `extra` more pairs
    group = "(" * 150 + "p -> q" + ")" * 150
    got, alone = _on_text_line_3("(" * extra + f"r -> {group}" + ")" * extra, f"q -> {group}")
    assert got == alone
    assert isinstance(got, tuple) == (extra + 150 >= MAX_DEPTH)


@pytest.mark.parametrize(
    "formula",
    ["(s -> q -> r) q", "(s -> q -> r) $", "~(s -> q -> r) q -> r", "((s -> q -> r) q)", "s -> q -> r)"],
)
def test_a_right_operand_hit_then_a_stray_token_keeps_its_message_and_offset(formula):
    # line 2 stores the right operand `q -> r`, which each formula repeats
    got, alone = _on_text_line_3(formula, "p -> q -> r")
    assert isinstance(alone, tuple)
    assert got == alone


_DEEP = "~" * 149 + "p"  # 150 levels
_LARGE = "p" + " <-> p" * 13  # 65,529 nodes; the 14th `<->` passes MAX_NODES


@pytest.mark.parametrize(
    "first, formula",
    [
        (_DEEP, "~" * 50 + f"({_DEEP})"),  # 200 levels: parses
        (_DEEP, "~" * 51 + f"({_DEEP})"),  # 201 levels
        ("p -> " + "~" * 198 + "p", "q -> p -> " + "~" * 198 + "p"),  # right operand, 201 levels
        (_LARGE, f"({_LARGE}) -> p"),  # parses
        (_LARGE, f"({_LARGE}) <-> p"),  # too large
    ],
)
def test_a_formula_built_from_memo_hits_keeps_the_depth_and_size_bounds(first, formula):
    # line 3 reads line 2's text as a group or right operand; its root is
    # checked against MAX_DEPTH and MAX_NODES as parse_formula checks it
    got, alone = _on_text_line_3(formula, first)
    assert got == alone


# tokens, stray characters and spaces, Unicode ones among them
_SOUP = ["p", "q", "K{a}", "B{}", "true", "->", "<->", "<K>{a}", "~", "&", "|", "(", ")",
         "{", ",", "-", "$", "1p", "\xe9"]
_SPACES = ["", " ", "\t", "\xa0", "\u3000"]


def test_a_memo_warmed_by_lines_and_arrow_chains_changes_no_parse_of_token_soup():
    # a memo warmed by whole lines and `->` chains, whose right operands it
    # stores, among them a 150-deep group; seeded soup repeats those texts
    # whole, after `->` and inside groups, some of it nested 48-50 or
    # 198-201 deep, and must parse to the node or the error of parse_formula
    rng = random.Random(2121)
    group = "(" * 150 + "p -> q" + ")" * 150
    lines = ["p -> q", "q -> p -> q", "K{a}p -> p -> q", "(p -> q) -> q -> p -> q",
             "~(p -> q) -> ~q", "p <-> q", "p | q -> q & p", f"q -> {group}", f"r -> q -> {group}"]
    memo = {}
    for line in lines:
        assert _parse_formula(line, memo) is parse_formula(line)
    pieces = lines + [f"-> {line}" for line in lines] + [f"({line})" for line in lines]
    parsed = 0
    for _ in range(3000):
        parts = [rng.choice(_SOUP if rng.random() < 0.6 else pieces) for _ in range(rng.randrange(1, 7))]
        text = "".join(part + rng.choice(_SPACES) for part in parts)
        if rng.random() < 0.3:
            n = rng.choice((48, 49, 50, 198, 199, 200, 201))
            text = "(" * n + text + ")" * (n + rng.choice((-1, 0, 0, 1)))
        alone = _outcome(parse_formula, text)
        assert _outcome(lambda t: _parse_formula(t, memo), text) == alone, text
        parsed += not isinstance(alone, tuple)
    assert parsed > 100
