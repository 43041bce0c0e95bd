import pytest
from hypothesis import given, strategies as st

from blamelogic.errors import ParseError
from blamelogic.generator import GenParams, gen_formula
from blamelogic.syntax import (
    BOTTOM,
    Blames,
    Implies,
    Knows,
    Neg,
    TOP,
    Var,
    conj,
    disj,
    iff,
    modal_atoms,
    parse_formula,
    print_formula,
)

p, q, r = Var("p"), Var("q"), Var("r")
a = frozenset({"a"})
ab = frozenset({"a", "b"})


def test_parse_modal_implication():
    assert parse_formula("~K{a}p -> q") == Implies(Neg(Knows(a, p)), q)


def test_parse_possibility_sugar():
    assert parse_formula("<K>{a,b}p") == Neg(Knows(ab, Neg(p)))


def test_parse_empty_coalition_is_legal():
    assert parse_formula("B{}(p -> p)") == Blames(frozenset(), Implies(p, p))


def test_implication_prints_right_associated():
    assert print_formula(Implies(p, Implies(q, p))) == "p -> q -> p"


def test_printer_empty_coalition():
    assert print_formula(Knows(frozenset(), p)) == "K{}p"


def test_printer_does_not_resugar():
    assert print_formula(Neg(Knows(a, Neg(p)))) == "~K{a}~p"


def test_printer_parenthesizes_implication_under_modality_and_lhs():
    assert print_formula(Implies(Implies(p, q), r)) == "(p -> q) -> r"
    assert print_formula(Knows(a, Implies(p, q))) == "K{a}(p -> q)"
    assert print_formula(Neg(Implies(p, q))) == "~(p -> q)"


def test_constants_desugar_to_canonical_encodings():
    assert parse_formula("true") == TOP == Implies(p, p)
    assert parse_formula("false") == BOTTOM == Neg(Implies(p, p))


@pytest.mark.parametrize(
    "sugared,plain",
    [
        ("p | q", "~p -> q"),
        ("p & q", "~(p -> ~q)"),
        ("p <-> q", "~((p -> q) -> ~(q -> p))"),
        ("<K>{a}p", "~K{a}~p"),
        ("p | q | r", "~(~p -> q) -> r"),
        ("p & q & r", "~(~(p -> ~q) -> ~r)"),
        ("true", "p -> p"),
        ("false", "~(p -> p)"),
    ],
)
def test_desugaring_matches_hand_expansion(sugared, plain):
    assert parse_formula(sugared) == parse_formula(plain)


def test_iff_is_left_associative():
    assert parse_formula("p <-> q <-> r") == iff(iff(p, q), r)


def test_precedence_layers():
    assert parse_formula("~p & q | r -> s") == Implies(
        disj(conj(Neg(p), q), r), Var("s")
    )
    assert parse_formula("K{a}p & q") == conj(Knows(a, p), q)


def test_coalition_order_is_canonicalized():
    assert parse_formula("K{b,a}p") == parse_formula("K{a,b}p")
    assert print_formula(parse_formula("K{b,a}p")) == "K{a,b}p"


def test_identifier_K_without_braces_is_a_variable():
    assert parse_formula("K -> p") == Implies(Var("K"), p)
    assert parse_formula("B") == Var("B")


@pytest.mark.parametrize(
    "text",
    ["p ->", "K{a", "(p", "~", "p q", "p @ q", "", "K{a,}p", "<K p"],
)
def test_parse_errors_carry_offset_and_expected(text):
    with pytest.raises(ParseError) as err:
        parse_formula(text)
    assert err.value.offset is not None
    assert err.value.expected


@pytest.mark.parametrize("text", ["~" * 3000 + "p", "(" * 200 + "p" + ")" * 200])
def test_deep_nesting_is_a_parse_error(text):
    with pytest.raises(ParseError, match="nested too deeply"):
        parse_formula(text)


def test_parse_error_offset_points_at_failure():
    with pytest.raises(ParseError) as err:
        parse_formula("p -> @")
    assert err.value.offset == 5


def test_printer_rejects_reserved_words_as_variables():
    with pytest.raises(ValueError):
        print_formula(Var("true"))


def test_modal_atoms_examples():
    f = parse_formula("K{a}p -> p & B{b}q")
    assert modal_atoms(f) == {Knows(a, p), p, Blames(frozenset({"b"}), q)}
    assert modal_atoms(p) == {p}
    g = parse_formula("~(K{a}(p->q))")
    assert modal_atoms(g) == {Knows(a, Implies(p, q))}


def _boolean_skeleton_leaves(f):
    # independent collector: descend only through Neg/Implies
    if isinstance(f, Neg):
        return _boolean_skeleton_leaves(f.inner)
    if isinstance(f, Implies):
        return _boolean_skeleton_leaves(f.lhs) | _boolean_skeleton_leaves(f.rhs)
    return {f}


def test_modal_atoms_are_the_boolean_skeleton_leaves():
    # occurrence-maximality: an atom is never collected from inside another
    # collected occurrence; nested modalities in distinct positions (for
    # example both K{a}p and p as separate conjuncts) are distinct atoms
    for seed in range(200):
        f = gen_formula(GenParams(formula_depth=4, num_variables=3, seed=seed), ["a", "b"])
        atoms = modal_atoms(f)
        assert atoms
        assert atoms == _boolean_skeleton_leaves(f)


def test_round_trip_over_seeded_formulas():
    for seed in range(1000):
        f = gen_formula(
            GenParams(formula_depth=5, num_variables=4, num_agents=3, seed=seed),
            ["a", "b", "c"],
        )
        assert parse_formula(print_formula(f)) == f


_names = st.one_of(
    st.sampled_from(["p", "q", "K", "B", "x_1", "Kp"]),
    st.from_regex(r"[a-z][a-z0-9_]{0,4}", fullmatch=True).filter(
        lambda s: s not in ("true", "false")
    ),
)
_coalitions = st.frozensets(st.sampled_from(["a", "b", "c", "d"]), max_size=3)
_formulas = st.recursive(
    st.builds(Var, _names),
    lambda kids: st.one_of(
        st.builds(Neg, kids),
        st.builds(Implies, kids, kids),
        st.builds(Knows, _coalitions, kids),
        st.builds(Blames, _coalitions, kids),
    ),
    max_leaves=30,
)


@given(_formulas)
def test_round_trip_property(f):
    assert parse_formula(print_formula(f)) == f


@given(st.text(alphabet="pqrKB{}(),~-><&| \tab_01", max_size=40))
def test_parser_is_total_over_junk(text):
    # anything malformed raises ParseError, never another exception
    try:
        parse_formula(text)
    except ParseError:
        pass
