"""Formula nodes are hash-consed: equal formulas are one object.

These tests pin the invariants the rest of the library relies on (`==` is
`is`, so a second copy of an equal node would silently compare unequal)
and the costs that interning makes linear in the shared graph.
"""

import copy
import pickle
import re
import sys
import threading
from dataclasses import FrozenInstanceError
from time import perf_counter

import pytest
from hypothesis import given, strategies as st

from blamelogic import asset_path, syntax
from blamelogic.generator import GenParams, gen_formula
from blamelogic.hilbert import build_axiom, is_tautology_instance, match_axiom
from blamelogic.semantics import extension_mask
from blamelogic.syntax import (
    Blames,
    Implies,
    Knows,
    Neg,
    Var,
    atom_list,
    formula_agents,
    formula_vars,
    iff,
    parse_formula,
    print_formula,
    subformulas,
)

p, q = Var("p"), Var("q")
a = frozenset({"a"})


def _encode(f):
    """The formula as nested tuples, independent of the library's nodes."""
    if isinstance(f, Var):
        return ("Var", f.name)
    if isinstance(f, Neg):
        return ("Neg", _encode(f.inner))
    if isinstance(f, Implies):
        return ("Implies", _encode(f.lhs), _encode(f.rhs))
    kind = "Knows" if isinstance(f, Knows) else "Blames"
    return (kind, tuple(sorted(f.coalition)), _encode(f.inner))


def _decode(t):
    """Build the formula of an encoding afresh, bottom-up."""
    match t:
        case ("Var", name):
            return Var(name)
        case ("Neg", inner):
            return Neg(_decode(inner))
        case ("Implies", lhs, rhs):
            return Implies(_decode(lhs), _decode(rhs))
        case ("Knows", c, inner):
            return Knows(frozenset(c), _decode(inner))
        case ("Blames", c, inner):
            return Blames(frozenset(c), _decode(inner))


def _children(t):
    """The encodings of the subformulas directly below an encoding."""
    return {"Var": (), "Neg": t[1:], "Implies": t[1:]}.get(t[0], t[2:])


def _corpus_texts():
    """Every formula text of the bundled proof scripts."""
    texts = []
    for name in sorted(asset_path("").iterdir()):
        if name.suffix != ".proof":
            continue
        for raw in name.read_text().splitlines():
            line = raw.split("#", 1)[0].strip()
            if line.startswith("premises:"):
                texts += [t for t in line[len("premises:"):].split(";") if t.strip()]
            elif line.startswith("goal:"):
                texts.append(line[len("goal:"):])
            elif line:
                texts.append(line.split(".", 1)[1].rsplit(";", 1)[0])
    return texts


def test_parsing_a_corpus_text_twice_gives_one_object():
    texts = _corpus_texts()
    assert len(texts) > 100
    for text in texts:
        f = parse_formula(text)
        assert parse_formula(text) is f
        assert parse_formula(print_formula(f)) is f
        assert _decode(_encode(f)) is f


def test_constructors_take_positional_and_keyword_fields():
    assert Var("p") is Var(name="p") is p
    assert Neg(p) is Neg(inner=p)
    assert Implies(p, q) is Implies(lhs=p, rhs=q)
    assert Knows(a, p) is Knows(coalition=a, inner=p)
    assert Blames(a, p) is Blames(coalition=frozenset(["a"]), inner=p)
    assert Knows(a, p) is not Blames(a, p)
    assert Implies(p, q) is not Implies(q, p)


@pytest.mark.parametrize(
    "build",
    [
        lambda: Var(1),
        lambda: Var(True),
        lambda: Var(None),
        lambda: Knows(("a",), p),
        lambda: Knows("ab", p),
        lambda: Knows({"a"}, p),
        lambda: Blames(None, p),
        lambda: Blames(["a"], p),
        lambda: Knows(frozenset({1}), p),
    ],
)
def test_constructors_refuse_fields_that_would_not_be_canonical(build):
    # a tuple or string coalition would print as K{a} yet be another node,
    # and a coalition member that is not a str would not print at all
    with pytest.raises(TypeError):
        build()


@pytest.mark.parametrize(
    "build, child",
    [
        (lambda: Neg("p"), "'p'"),
        (lambda: Neg(None), "None"),
        (lambda: Neg(Var), repr(Var)),
        (lambda: Implies(Var("p"), None), "None"),
        (lambda: Implies(3, q), "3"),
        (lambda: Implies("p", "q"), "'p'"),
        (lambda: Knows(frozenset(), 3), "3"),
        (lambda: Blames(a, ("p",)), "('p',)"),
        (lambda: build_axiom("Truth-K"), "None"),
        (lambda: build_axiom("Distributivity", p), "None"),
    ],
    ids=["neg-str", "neg-none", "neg-class", "implies-rhs-none", "implies-lhs-int",
         "implies-str", "knows-int", "blames-tuple", "axiom-no-phi", "axiom-no-psi"],
)
def test_constructors_refuse_a_child_that_is_no_formula_node(build, child):
    # checked where a new node is built, before its size and depth are read
    with pytest.raises(TypeError, match=f"^not a formula node: {re.escape(child)}$"):
        build()


def test_repr_names_every_field():
    f = Knows(a, Implies(p, Neg(Blames(frozenset(), q))))
    assert repr(f) == (
        "Knows(coalition=frozenset({'a'}), inner=Implies(lhs=Var(name='p'), "
        "rhs=Neg(inner=Blames(coalition=frozenset(), inner=Var(name='q')))))"
    )


def test_match_patterns_bind_the_fields():
    match Implies(Knows(a, p), Neg(q)):
        case Implies(Knows(c, Var(name)), Neg(inner)):
            assert (c, name, inner) == (a, "p", q)
        case _:
            pytest.fail("pattern did not match")


@pytest.mark.parametrize("text", ["p", "~K{a,b}(p -> q)", "B{}true <-> <K>{c}p"])
def test_copies_and_pickles_are_the_interned_node(text):
    f = parse_formula(text)
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        assert pickle.loads(pickle.dumps(f, protocol)) is f
    assert copy.copy(f) is f
    assert copy.deepcopy(f) is f
    assert copy.deepcopy([f, (f,)]) == [f, (f,)]


def test_nodes_are_frozen():
    f = Implies(p, q)
    with pytest.raises(FrozenInstanceError):
        f.lhs = q
    with pytest.raises(FrozenInstanceError):
        del f.rhs
    with pytest.raises(FrozenInstanceError):
        f.extra = 1
    with pytest.raises(FrozenInstanceError):
        p.name = "q"
    assert (f.lhs, f.rhs, p.name) == (p, q, "p")


_names = st.sampled_from(["p", "q"])
_coalitions = st.frozensets(st.sampled_from(["a", "b"]))
# few leaves over two names and four coalitions, so that equal pairs are common
_hand_built = st.recursive(
    st.builds(Var, _names),
    lambda kids: st.one_of(
        st.builds(Neg, kids),
        st.builds(Implies, kids, kids),
        st.builds(Knows, _coalitions, kids),
        st.builds(Blames, _coalitions, kids),
    ),
    max_leaves=4,
)
_generated = st.builds(
    lambda seed, depth: gen_formula(
        GenParams(formula_depth=depth, num_variables=1, seed=seed), ["a"]
    ),
    st.integers(0, 40),
    st.integers(0, 2),
)
_formulas = st.one_of(_hand_built, _generated)


@given(_formulas, _formulas)
def test_one_object_exactly_for_equal_trees(f, g):
    same = _encode(f) == _encode(g)
    assert (f is g) == same
    assert (f == g) == same
    assert not same or hash(f) == hash(g)
    assert _decode(_encode(g)) is g


@given(_formulas)
def test_stored_size_and_depth_are_the_tree_measures(f):
    def measure(t):  # (size, depth) of an encoding, as a tree
        kids = [measure(c) for c in _children(t)]
        return 1 + sum(s for s, _ in kids), 1 + max((d for _, d in kids), default=0)

    assert (f.size, f.depth) == measure(_encode(f))


def _rename(t, prefix):
    """The encoding with prefix put before every variable name."""
    if t[0] == "Var":
        return ("Var", prefix + t[1])
    kids = _children(t)
    return t[: len(t) - len(kids)] + tuple(_rename(c, prefix) for c in kids)


def test_threads_building_the_same_new_formulas_share_nodes():
    workers = 4
    params = [GenParams(formula_depth=4, num_variables=3, seed=s) for s in range(30)]
    shapes = [_encode(gen_formula(p, ["a", "b"])) for p in params]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads as often as possible
    try:
        for round_ in range(10):
            # fresh variable names each round, so every thread builds new keys
            encodings = [_rename(t, f"t{round_}_") for t in shapes]
            barrier = threading.Barrier(workers)
            built = [None] * workers

            def work(k):
                barrier.wait(timeout=60)
                built[k] = [_decode(t) for t in encodings]

            threads = [threading.Thread(target=work, args=(k,)) for k in range(workers)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
                assert not t.is_alive()
            assert None not in built
            for other in built[1:]:
                assert all(f is g for f, g in zip(built[0], other))
    finally:
        sys.setswitchinterval(interval)


def test_dropped_formulas_leave_the_table():
    syntax._sweep()
    live = len(syntax._NODES)  # a sweep leaves only live entries
    for i in range(10**5):
        f = Implies(Var(f"dropped_{i}"), Neg(Var(f"dropped_{i}")))
    del f
    # the table sweeps itself whenever it has doubled since the last sweep
    assert len(syntax._NODES) <= 2 * max(syntax._SWEEP_MIN, 2 * live)
    # one sweep frees a dead parent's key, and then the children it held
    syntax._sweep()
    assert not [key for key in syntax._NODES if key[0] is Var and key[1].startswith("dropped_")]


def _quick(fn, *args):
    start = perf_counter()
    value = fn(*args)
    assert perf_counter() - start < 1.0
    return value


def test_a_40_level_iff_chain_is_linear_in_its_graph(truck_manual):
    col = Var("col")
    knows = Knows(frozenset({"c"}), col)
    f = col
    for _ in range(40):
        f = iff(f, knows)  # (x <-> k) <-> k is x, so f is equivalent to col
    assert f.size > 10**12
    g = col
    for _ in range(40):
        g = iff(g, knows)
    assert _quick(lambda: g is f and g == f and hash(g) == hash(f))
    assert _quick(formula_vars, f) == {"col"}
    assert _quick(formula_agents, f) == {"c"}
    assert _quick(atom_list, f) == [col, knows]
    assert _quick(lambda: len(list(subformulas(f)))) < 1000
    assert _quick(extension_mask, truck_manual, f) == extension_mask(truck_manual, col)
    assert _quick(is_tautology_instance, f) is False
    assert _quick(is_tautology_instance, iff(f, col)) is True
    assert _quick(match_axiom, Implies(Knows(frozenset({"c"}), f), f))[0] == "Truth-K"
    assert _quick(lambda: pickle.loads(pickle.dumps(f))) is f


def test_printing_renders_each_distinct_subformula_once():
    # the text doubles with each level (6 MB here), but each distinct
    # subformula is rendered once, so the time is linear in the text
    f, text = p, "p"
    for _ in range(18):
        f = iff(f, q)
        text = f"~(({text} -> q) -> ~(q -> {text}))"
    assert _quick(print_formula, f) == text
