import pickle
import random

import pytest
from hypothesis import given, strategies as st

from _helpers import naive_evaluate
from blamelogic.errors import BlamelogicError, FormulaDepthError, ParseError
from blamelogic.generator import GenParams, gen_formula
from blamelogic.hilbert import check_proof, is_tautology_instance, parse_proof
from blamelogic.semantics import extension
from blamelogic.syntax import (
    BOTTOM,
    MAX_DEPTH,
    MAX_NODE_DEPTH,
    MAX_NODES,
    Blames,
    Implies,
    Knows,
    Neg,
    TOP,
    Var,
    _parse_formula,
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


_OPERAND = frozenset({"IDENT", "LPAREN", "NOT", "POSSK"})
_ANY_TOKEN = _OPERAND | {"AND", "ARROW", "COMMA", "IFF", "LBRACE", "OR", "RBRACE", "RPAREN"}
_EXPECT_OPERAND = "expected one of ['IDENT', 'LPAREN', 'NOT', 'POSSK']"


# The exact error for each input; offsets count UTF-8 bytes, so a U+3000
# (one character, three bytes) before the failure moves it by three.
@pytest.mark.parametrize(
    "text,message,offset,expected",
    [
        ("p ->", f"unexpected 'end of input' at byte 4, {_EXPECT_OPERAND}", 4, _OPERAND),
        ("K{a", "unexpected 'end of input' at byte 3, expected one of ['RBRACE']",
         3, {"RBRACE"}),
        ("(p", "unexpected 'end of input' at byte 2, expected one of ['RPAREN']",
         2, {"RPAREN"}),
        ("~", f"unexpected 'end of input' at byte 1, {_EXPECT_OPERAND}", 1, _OPERAND),
        ("p q", "unexpected 'q' at byte 2, expected one of ['EOF']", 2, {"EOF"}),
        ("p @ q", "unexpected character '@' at byte 2", 2, _ANY_TOKEN),
        ("", f"unexpected 'end of input' at byte 0, {_EXPECT_OPERAND}", 0, _OPERAND),
        ("K{a,}p", "unexpected '}' at byte 4, expected one of ['IDENT']", 4, {"IDENT"}),
        ("<K p", "unexpected character '<' at byte 0", 0, _ANY_TOKEN),
        ("p -> @", "unexpected character '@' at byte 5", 5, _ANY_TOKEN),
        ("\u3000p -> @", "unexpected character '@' at byte 8", 8, _ANY_TOKEN),
        ("K{a,\xe9}p", "unexpected character '\xe9' at byte 4", 4, _ANY_TOKEN),
        ("p\xa0&\u2028 q )", "unexpected ')' at byte 10, expected one of ['EOF']",
         10, {"EOF"}),
        ("p -> ~K{a}\n\t", f"unexpected 'end of input' at byte 12, {_EXPECT_OPERAND}",
         12, _OPERAND),
        # two distinct stray characters: the first in text order is named
        ("p $ q @", "unexpected character '$' at byte 2", 2, _ANY_TOKEN),
        # an identifier starts with a letter; digits and `_` only follow one
        ("1p", "unexpected character '1' at byte 0", 0, _ANY_TOKEN),
        ("p1 -> 2q", "unexpected character '2' at byte 6", 6, _ANY_TOKEN),
        ("p -> _q", "unexpected character '_' at byte 5", 5, _ANY_TOKEN),
        # a `-` that does not start `->`
        ("-", "unexpected character '-' at byte 0", 0, _ANY_TOKEN),
        ("p - > q", "unexpected character '-' at byte 2", 2, _ANY_TOKEN),
    ],
)
def test_parse_error_golden_table(text, message, offset, expected):
    with pytest.raises(ParseError) as err:
        parse_formula(text)
    assert (str(err.value), err.value.offset, err.value.expected) == (
        message,
        offset,
        expected,
    )


def _outcome(parse, text):
    """The node parse returns, or its error's message, offset and expected set."""
    try:
        return parse(text)
    except ParseError as e:
        return str(e), e.offset, e.expected


# tokens, stray characters (`-` alone, `$`, a digit or `_` first, a non-ASCII
# letter) and spaces, Unicode ones among them, for random token soup
_SOUP = ["p", "q", "K", "B", "true", "x_1", "->", "<->", "<K>", "~", "&", "|", "(", ")",
         "{a,b}", "{", "}", ",", "-", "$", "1p", "_q", "\xe9"]
_SPACES = ["", " ", "\t", "\n", "\xa0", "\u2028", "\u3000"]


def test_a_warmed_memo_changes_no_parse_of_token_soup():
    # a proof script parses each formula through one memo of the groups its
    # earlier formulas parsed; seeded soup, some of it around 150-deep
    # groups the memo holds and some nested 198-201 deep, must parse to the
    # node or the error that parse_formula gives alone
    rng = random.Random(1717)
    memo = {}
    groups = ["(" * n + "p -> q" + ")" * n for n in (1, 2, 150)] + ["(p & (q | K{a}p))"]
    for group in groups:
        _parse_formula(group, memo)
    parsed = 0
    for _ in range(3000):
        parts = [rng.choice(_SOUP if rng.random() < 0.8 else groups) for _ in range(rng.randrange(8))]
        text = "".join(part + rng.choice(_SPACES) for part in parts)
        if rng.random() < 0.3:
            n = rng.choice((48, 49, 50, 198, 199, 200, 201))
            text = "(" * n + text + ")" * (n + rng.choice((-1, 0, 0, 1)))
        alone = _outcome(parse_formula, text)
        assert _outcome(lambda t: _parse_formula(t, memo), text) == alone, text
        parsed += not isinstance(alone, tuple)
    assert parsed > 100


@pytest.mark.parametrize("text", [" p ->\u3000q", "p\xa0->\u2028q\t\n", "\u3000p -> q  "])
def test_unicode_whitespace_separates_tokens(text):
    assert parse_formula(text) == Implies(p, q)


@pytest.mark.parametrize(
    "text", ["~" * 3000 + "p", "~" * MAX_NODE_DEPTH + "p", "(" * 200 + "p" + ")" * 200]
)
def test_deep_nesting_is_a_parse_error(text):
    with pytest.raises(ParseError, match="nested too deeply"):
        parse_formula(text)


def test_parentheses_nest_up_to_the_depth_limit():
    n = MAX_DEPTH - 1
    assert parse_formula("(" * n + "p" + ")" * n) is Var("p")


def _from_depth(frames, fn):
    return _from_depth(frames - 1, fn) if frames else fn()


def test_parsing_does_not_depend_on_the_callers_stack():
    text = "(" * 150 + "p -> q" + ")" * 150
    assert _from_depth(300, lambda: parse_formula(text)) is parse_formula(text)


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


def _depth(f):
    # independent of the parser's own walk: a lone variable is depth 1
    deepest, stack = 0, [(f, 1)]
    while stack:
        node, d = stack.pop()
        deepest = max(deepest, d)
        if isinstance(node, Implies):
            stack += [(node.lhs, d + 1), (node.rhs, d + 1)]
        elif not isinstance(node, Var):
            stack.append((node.inner, d + 1))
    return deepest


def _chain(kind, depth):
    # one construct over the truck game's variable and agent, exactly
    # `depth` levels deep; n conjunctions are 2n + 2 deep, and 2n + 3 with
    # `~~col` first
    if kind == "&":
        n, odd = divmod(depth - 2, 2)
        return ("~~col" if odd else "col") + " & col" * n
    return {"~": "~", "K": "K{c}", "->": "col -> "}[kind] * (depth - 1) + "col"


_CHAINS = ["~", "K", "->", "&"]


@pytest.mark.parametrize("kind", _CHAINS)
def test_formulas_at_the_depth_limit_work_downstream(kind, truck_manual):
    f = parse_formula(_chain(kind, MAX_DEPTH))
    g = parse_formula(_chain(kind, MAX_DEPTH))
    assert _depth(f) == MAX_DEPTH
    assert f is g and hash(f) == hash(g) and f == g
    assert parse_formula(print_formula(f)) == f
    expected = {
        i
        for i, play in enumerate(truck_manual.plays)
        if naive_evaluate(truck_manual, play, f)
    }
    assert extension(truck_manual, f) == expected
    # only the right-nested `col -> ... -> col` is a tautology
    assert is_tautology_instance(f) == (kind == "->")


@pytest.mark.parametrize("kind", _CHAINS)
def test_a_taut_line_at_the_depth_limit_checks(kind):
    half = _chain(kind, MAX_DEPTH - 1)
    line = f"({half}) -> ({half})"
    assert _depth(parse_formula(line)) == MAX_DEPTH
    assert check_proof(parse_proof(f"goal: {line}\n1. {line} ; taut\n")).valid


@pytest.mark.parametrize("kind", _CHAINS)
def test_formulas_past_the_depth_limit_are_parse_errors(kind):
    with pytest.raises(ParseError) as err:
        parse_formula(_chain(kind, MAX_DEPTH + 1))
    assert str(err.value) == "formula nested too deeply"


def test_print_formula_round_trips_up_to_the_depth_limit():
    # a node built in code may be deeper than any that parse_formula returns:
    # its text prints but does not parse back
    f = Var("q")
    for _ in range(MAX_DEPTH - 1):
        f = Neg(f)
    assert f.depth == MAX_DEPTH and parse_formula(print_formula(f)) is f
    with pytest.raises(ParseError, match="^formula nested too deeply$"):
        parse_formula(print_formula(Neg(f)))


_C = frozenset({"c"})
_WRAP = {
    "~": Neg,
    "K": lambda f: Knows(_C, f),
    "B": lambda f: Blames(_C, f),
    "->": lambda f: Implies(Var("col"), f),
    "<-": lambda f: Implies(f, Var("col")),
}


def _built(kind, depth):
    # `depth` levels built with the constructors, without the parser's bound
    f = Var("col")
    for _ in range(depth - 1):
        f = _WRAP[kind](f)
    return f


@pytest.mark.parametrize("kind", _WRAP)
def test_constructors_build_up_to_the_node_depth_limit(kind, truck_manual):
    f = _built(kind, MAX_NODE_DEPTH)
    assert f.depth == _depth(f) == MAX_NODE_DEPTH
    # the recursive walks finish under the default recursion limit, and
    # agree with a chain of two or three levels with the same parity
    shallow = _built(kind, 2 + MAX_NODE_DEPTH % 2)
    assert print_formula(f).count("col") == (MAX_NODE_DEPTH if "-" in kind else 1)
    assert modal_atoms(f) == ({f} if kind in ("K", "B") else {Var("col")})
    assert is_tautology_instance(f) == is_tautology_instance(shallow)
    if kind != "B":
        assert extension(truck_manual, f) == extension(truck_manual, shallow)
    assert pickle.loads(pickle.dumps(f)) is f


@pytest.mark.parametrize("kind", _WRAP)
def test_constructors_refuse_a_node_past_the_node_depth_limit(kind):
    below = _built(kind, MAX_NODE_DEPTH)
    with pytest.raises(FormulaDepthError) as err:
        _WRAP[kind](below)
    assert isinstance(err.value, BlamelogicError) and isinstance(err.value, ValueError)
    # the parser's own bound is the tighter one
    assert MAX_DEPTH < MAX_NODE_DEPTH


def _size(f):
    # independent of the parser's own walk: nodes of the tree, shared
    # subtrees counted once per occurrence
    count, stack = 0, [f]
    while stack:
        node = stack.pop()
        count += 1
        if isinstance(node, Implies):
            stack += [node.lhs, node.rhs]
        elif not isinstance(node, Var):
            stack.append(node.inner)
    return count


def _iff_chain(k):
    # `p <-> p` k times over: 8 * 2**k - 7 nodes, since a <-> b expands to
    # ~((a -> b) -> ~(b -> a))
    return "p" + " <-> p" * k


def _sized(n):
    """Formula text whose AST has exactly n nodes, as `->` over iff chains."""
    parts = []
    while n > 1 or not parts:
        cost = 1 if parts else 0  # the `->` that joins a further part
        k = max(k for k in range(20) if 8 * 2**k - 7 + cost <= n)
        parts.append(f"({_iff_chain(k)})")
        n -= 8 * 2**k - 7 + cost
    return "~" * n + "(" + " -> ".join(parts) + ")"


def test_formulas_at_the_size_limit_parse():
    f = parse_formula(_sized(MAX_NODES))
    assert _size(f) == MAX_NODES
    assert _depth(f) < MAX_DEPTH
    assert _size(parse_formula(_iff_chain(13))) == 65529


@pytest.mark.parametrize("text", [_sized(MAX_NODES + 1), _iff_chain(14), _iff_chain(16)])
def test_formulas_past_the_size_limit_are_parse_errors(text):
    with pytest.raises(ParseError) as err:
        parse_formula(text)
    assert str(err.value) == "formula too large"
