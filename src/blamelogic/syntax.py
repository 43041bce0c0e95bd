"""Formula language: AST, concrete syntax, parser, and canonical printer.

The stored AST uses exactly five constructors: Var, Neg, Implies, Knows,
Blames.  Everything else (`|`, `&`, `<->`, `true`, `false`, `<K>{...}`) is
surface sugar that the parser expands with the usual classical definitions:

    a | b    :=  ~a -> b
    a & b    :=  ~(a -> ~b)
    a <-> b  :=  (a -> b) & (b -> a)
    true     :=  p -> p          (over the reserved variable name "p")
    false    :=  ~true
    <K>{C}a  :=  ~K{C}~a

Precedence, tightest first: modalities and `~`, then `&`, then `|`, then
`->` (right-associative), then `<->` (left-associative).

Nodes are hash-consed: a constructor returns the live node with its class
and fields if there is one (a weak unique table finds it), so equal formulas
are one object, `==` is `is`, and `hash` takes constant time.  Each node
stores its size (nodes, counted as a tree) and depth when it is built, and
a constructor refuses a node more than MAX_NODE_DEPTH levels deep with
FormulaDepthError, so that formulas built in code, not only parsed ones,
stay within reach of the recursive walks.  The helpers that walk a formula
visit each distinct node once, so their time is linear in the shared graph
however often `<->` reuses its operands.

One compiled regular expression splits the text into tokens, and one
precedence-climbing method reads the token kinds and texts by index: the
table _BINARY gives each binary operator its precedence, associativity and
builder, and the prefix operators, atoms and parentheses are read by
recursive descent.  The parser rejects any formula whose AST, after sugar
expansion, is more than MAX_DEPTH levels deep, so that printing and
evaluating a parsed formula (both recursive) stay far below the
interpreter's recursion limit.  It also rejects an AST of more than
MAX_NODES nodes counted as a tree: `<->` uses each operand twice, so
printed text doubles with each nesting, and text like
`p <-> p <-> ... <-> p` would otherwise parse quickly into a formula that
takes seconds to print.  Both checks read the root's stored size and depth.
A counter of open parentheses rejects the MAX_DEPTH-th, so the texts the
parser accepts do not depend on the caller's stack depth.
"""

from __future__ import annotations

import re
import threading
import weakref
from dataclasses import FrozenInstanceError

from .errors import FormulaDepthError, ParseError

Coalition = frozenset  # frozenset of agent name strings

IDENT_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*")
RESERVED_WORDS = frozenset({"true", "false"})
MAX_DEPTH = 200  # deepest AST that parse_formula returns
MAX_NODES = 10**5  # most AST nodes, counted as a tree, that parse_formula returns
# deepest node any constructor builds: room for what the proof tools build
# from parsed lines, and far enough below the interpreter's default recursion
# limit that the recursive walks (printing, evaluation, pickling) finish
MAX_NODE_DEPTH = 300


# The unique table: (class, *fields) -> a weak reference to the one live
# node with those fields.  Children are fields, and they compare by
# identity, so one dict lookup per constructor call finds an equal node.
# The references have no callbacks (a callback per node costs microseconds);
# dead entries stay until the table has doubled since the last sweep.
_NODES = {}
_LOCK = threading.Lock()  # taken only to replace a dead entry, and to sweep
_SWEEP_MIN = 1 << 12
_sweep_at = _SWEEP_MIN


def _intern(key, node, size, depth):
    """Finish node, whose fields are set, and insert it under key; return
    it, or an equal node that another thread inserted first.  Raises
    FormulaDepthError for a node more than MAX_NODE_DEPTH levels deep."""
    if depth > MAX_NODE_DEPTH:
        raise FormulaDepthError(f"formula more than {MAX_NODE_DEPTH} levels deep")
    _set_size(node, size)
    _set_depth(node, depth)
    ref = weakref.ref(node)
    found = _NODES.setdefault(key, ref)
    if found is not ref:
        live = found()
        if live is not None:
            return live
        with _LOCK:  # found is dead; replace it unless another thread has
            found = _NODES.get(key)
            live = None if found is None else found()
            if live is not None:
                return live
            _NODES[key] = ref
    elif len(_NODES) > _sweep_at:
        _sweep()
    return node


def _sweep():
    """Drop the dead entries in one pass, latest first.

    A parent is inserted after its children, and a dead parent's key still
    holds them; popping each key off the list frees it, so its children can
    die before the pass reaches their entries.
    """
    global _sweep_at
    with _LOCK:
        keys = list(_NODES)
        while keys:
            key = keys.pop()
            if _NODES[key]() is None:
                del _NODES[key]
        _sweep_at = max(_SWEEP_MIN, 2 * len(_NODES))


class _Node:
    """An interned, immutable formula node.

    Equal nodes are one object, so `==` and `hash` are the identity defaults.
    `size` (nodes, counted as a tree) and `depth` (levels; a Var is one) are
    set when the node is built.
    """

    __slots__ = ("size", "depth", "__weakref__")

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __repr__(self):
        fields = (f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
        return f"{type(self).__name__}({', '.join(fields)})"

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self.__match_args__)

    def __deepcopy__(self, memo):
        return self


class Var(_Node):
    __slots__ = __match_args__ = ("name",)

    def __new__(cls, name):
        key = (cls, name)
        ref = _NODES.get(key)
        node = ref and ref()
        if node is None:
            node = _new_node(cls)
            _set_name(node, name)
            node = _intern(key, node, 1, 1)
        return node


class Neg(_Node):
    __slots__ = __match_args__ = ("inner",)

    def __new__(cls, inner):
        key = (cls, inner)
        ref = _NODES.get(key)
        node = ref and ref()
        if node is None:
            node = _new_node(cls)
            _set_inner(node, inner)
            node = _intern(key, node, inner.size + 1, inner.depth + 1)
        return node


class Implies(_Node):
    __slots__ = __match_args__ = ("lhs", "rhs")

    def __new__(cls, lhs, rhs):
        key = (cls, lhs, rhs)
        ref = _NODES.get(key)
        node = ref and ref()
        if node is None:
            node = _new_node(cls)
            _set_lhs(node, lhs)
            _set_rhs(node, rhs)
            size, depth = lhs.size + rhs.size + 1, max(lhs.depth, rhs.depth) + 1
            node = _intern(key, node, size, depth)
        return node


class _Modal(_Node):
    """K{C}inner or B{C}inner; the coalition is a frozenset of agent names."""

    __slots__ = __match_args__ = ("coalition", "inner")

    def __new__(cls, coalition, inner):
        key = (cls, coalition, inner)
        ref = _NODES.get(key)
        node = ref and ref()
        if node is None:
            node = _new_node(cls)
            _set_coalition(node, coalition)
            _set_modal_inner(node, inner)
            node = _intern(key, node, inner.size + 1, inner.depth + 1)
        return node


class Knows(_Modal):
    __slots__ = ()


class Blames(_Modal):
    __slots__ = ()


_new_node = object.__new__
_set_size = _Node.size.__set__
_set_depth = _Node.depth.__set__
_set_name = Var.name.__set__
_set_inner = Neg.inner.__set__
_set_lhs = Implies.lhs.__set__
_set_rhs = Implies.rhs.__set__
_set_coalition = _Modal.coalition.__set__
_set_modal_inner = _Modal.inner.__set__


Formula = Var | Neg | Implies | Knows | Blames

# Canonical encodings of the propositional constants.
TOP = Implies(Var("p"), Var("p"))
BOTTOM = Neg(TOP)


def disj(a: Formula, b: Formula) -> Formula:
    return Implies(Neg(a), b)


def conj(a: Formula, b: Formula) -> Formula:
    return Neg(Implies(a, Neg(b)))


def iff(a: Formula, b: Formula) -> Formula:
    return conj(Implies(a, b), Implies(b, a))


def poss_knows(c: Coalition, a: Formula) -> Formula:
    """Dual of the knowledge modality: ~K{C}~a."""
    return Neg(Knows(c, Neg(a)))


def subformulas(f: Formula):
    """Yield each distinct subformula of f once, parents before children."""
    seen = set()
    stack = [f]
    while stack:
        node = stack.pop()
        if node in seen:
            continue
        seen.add(node)
        yield node
        match node:
            case Neg(inner) | Knows(_, inner) | Blames(_, inner):
                stack.append(inner)
            case Implies(lhs, rhs):
                stack += (rhs, lhs)


def formula_agents(f: Formula) -> frozenset:
    """All agent names appearing in coalitions of f."""
    agents = set()
    for node in subformulas(f):
        if isinstance(node, (Knows, Blames)):
            agents |= node.coalition
    return frozenset(agents)


def formula_vars(f: Formula) -> frozenset:
    """All propositional variable names appearing in f."""
    return frozenset(n.name for n in subformulas(f) if isinstance(n, Var))


def atom_list(f: Formula) -> list:
    """Modal atoms of f in first-encounter (preorder) order, deduplicated."""
    out = []
    _collect_atoms(f, set(), out)
    return out


def _collect_atoms(node: Formula, seen: set, out: list):
    """Append the atoms below node not yet in seen, visiting each node once."""
    if node in seen:
        return
    seen.add(node)
    match node:
        case Var() | Knows() | Blames():
            out.append(node)
        case Neg(inner):
            _collect_atoms(inner, seen, out)
        case Implies(lhs, rhs):
            _collect_atoms(lhs, seen, out)
            _collect_atoms(rhs, seen, out)


def modal_atoms(f: Formula) -> set:
    """Maximal subformulas headed by Var, Knows, or Blames.

    These are the propositional atoms when f is read as a Boolean
    combination; no returned atom is a strict subformula of another.
    """
    return set(atom_list(f))


# ---------------------------------------------------------------------------
# Scanner and parser

# Punctuation token kinds, in match order: `<->` before `<K>` before `->`.
_PUNCTUATION = {
    "<->": "IFF", "<K>": "POSSK", "->": "ARROW", "~": "NOT", "|": "OR", "&": "AND",
    "(": "LPAREN", ")": "RPAREN", "{": "LBRACE", "}": "RBRACE", ",": "COMMA",
}
# One token per match, after optional whitespace: punctuation, then an
# identifier, then any other character, which is an error.
_SCANNER = re.compile(
    r"\s*(" + "|".join(map(re.escape, _PUNCTUATION)) + "|" + IDENT_RE.pattern + r"|\S)"
)
_UNARY_START = frozenset({"IDENT", "LPAREN", "NOT", "POSSK"})
# Binary operator token kind -> (precedence, floor for its right operand,
# builder).  A floor one above the precedence makes the operator
# left-associative; `->` takes its own precedence as the floor, so it is
# right-associative.
_BINARY = {
    "IFF": (1, 2, iff),
    "ARROW": (2, 2, Implies),
    "OR": (3, 4, disj),
    "AND": (4, 5, conj),
}


def _scan(text: str):
    """Token kinds and texts, ending with an EOF token.

    Trailing whitespace is cut off first, so that no match backtracks over
    it.  A stray character, neither punctuation nor a letter, raises.
    """
    texts = _SCANNER.findall(text, 0, len(text.rstrip()))
    kinds = [
        _PUNCTUATION.get(t) or ("IDENT" if t[0].isalpha() and t.isascii() else None)
        for t in texts
    ]
    if None in kinds:
        bad = kinds.index(None)
        offset = _byte_offset(text, bad)
        raise ParseError(
            f"unexpected character {texts[bad]!r} at byte {offset}",
            offset=offset,
            expected={"IDENT", *_PUNCTUATION.values()},
        )
    kinds.append("EOF")
    texts.append("")
    return kinds, texts


def _byte_offset(text: str, k: int) -> int:
    """Byte offset of token k of text; offsets are only needed for errors."""
    starts = [m.start(1) for m in _SCANNER.finditer(text, 0, len(text.rstrip()))]
    return len(text[: starts[k] if k < len(starts) else len(text)].encode("utf-8"))


class _Parser:
    """Precedence climbing over the token lists of one text."""

    def __init__(self, text: str):
        self.text = text
        self.kinds, self.texts = _scan(text)
        self.pos = 0
        self.parens = 0  # open parentheses around the current position

    def fail(self, expected):
        pos = self.pos
        shown = self.texts[pos] if self.kinds[pos] != "EOF" else "end of input"
        offset = _byte_offset(self.text, pos)
        raise ParseError(
            f"unexpected {shown!r} at byte {offset}, "
            f"expected one of {sorted(expected)}",
            offset=offset,
            expected=expected,
        )

    def expect(self, kind: str) -> str:
        if self.kinds[self.pos] != kind:
            self.fail({kind})
        self.pos += 1
        return self.texts[self.pos - 1]

    def binary(self, floor: int = 1) -> Formula:
        """Read operands joined by binary operators of precedence >= floor."""
        f = self.unary()
        while True:
            op = _BINARY.get(self.kinds[self.pos])
            if op is None or op[0] < floor:
                return f
            self.pos += 1
            f = op[2](f, self.binary(op[1]))

    def unary(self) -> Formula:
        kind = self.kinds[self.pos]
        if kind not in _UNARY_START:
            self.fail(_UNARY_START)
        self.pos += 1
        if kind == "NOT":
            return Neg(self.unary())
        if kind == "POSSK":
            c = self.coalition_literal()
            return poss_knows(c, self.unary())
        if kind == "LPAREN":
            self.parens += 1
            if self.parens >= MAX_DEPTH:
                raise ParseError("formula nested too deeply")
            f = self.binary()
            self.expect("RPAREN")
            self.parens -= 1
            return f
        word = self.texts[self.pos - 1]
        if word in ("K", "B") and self.kinds[self.pos] == "LBRACE":
            c = self.coalition_literal()
            inner = self.unary()
            return Knows(c, inner) if word == "K" else Blames(c, inner)
        return TOP if word == "true" else BOTTOM if word == "false" else Var(word)

    def coalition_literal(self) -> Coalition:
        self.expect("LBRACE")
        names = []
        if self.kinds[self.pos] == "IDENT":
            names.append(self.expect("IDENT"))
            while self.kinds[self.pos] == "COMMA":
                self.pos += 1
                names.append(self.expect("IDENT"))
        self.expect("RBRACE")
        return frozenset(names)


def parse_formula(text: str) -> Formula:
    """Parse concrete syntax into the five-constructor AST.

    Raises ParseError (with byte offset and expected-token set) on
    malformed input, and ParseError("formula nested too deeply") when the
    AST, after sugar expansion, is more than MAX_DEPTH levels deep (a lone
    variable is one level) or MAX_DEPTH parentheses are open at once
    (MAX_DEPTH - 1 nested pairs parse), and ParseError("formula too
    large") when the AST, counted as a tree with shared subtrees once per
    occurrence, has more than MAX_NODES nodes.  An empty coalition
    literal `{}` is legal.
    """
    p = _Parser(text)
    try:
        f = p.binary()
    except (RecursionError, FormulaDepthError):
        raise ParseError("formula nested too deeply") from None
    if p.kinds[p.pos] != "EOF":
        p.fail({"EOF"})
    if f.size > MAX_NODES:
        raise ParseError("formula too large")
    if f.depth > MAX_DEPTH:
        raise ParseError("formula nested too deeply")
    return f


def parse_coalition(text: str) -> Coalition:
    """Parse a coalition literal such as `{a, b}`; raises ParseError as
    parse_formula does."""
    p = _Parser(text)
    c = p.coalition_literal()
    if p.kinds[p.pos] != "EOF":
        p.fail({"EOF"})
    return c


def format_coalition(c: Coalition) -> str:
    return "{" + ",".join(sorted(c)) + "}"


def print_formula(f: Formula) -> str:
    """Canonical text with minimal parentheses; never re-sugars.

    parse_formula(print_formula(f)) is f for every formula whose variable
    names avoid the reserved words true/false.
    """
    return _render(f, False, {})


def _render(node: Formula, parenthesize_implies: bool, memo: dict) -> str:
    """Text of node; memo maps each (node, parenthesize_implies) rendered
    within one call to its text, so an equal subtree is rendered once."""
    key = (node, parenthesize_implies)
    text = memo.get(key)
    if text is None:
        match node:
            case Var(name):
                if name in RESERVED_WORDS:
                    raise ValueError(f"reserved word used as variable name: {name}")
                text = name
            case Neg(inner):
                text = "~" + _render(inner, True, memo)
            case Knows(c, inner):
                text = "K" + format_coalition(c) + _render(inner, True, memo)
            case Blames(c, inner):
                text = "B" + format_coalition(c) + _render(inner, True, memo)
            case Implies(lhs, rhs):
                text = _render(lhs, True, memo) + " -> " + _render(rhs, False, memo)
                if parenthesize_implies:
                    text = "(" + text + ")"
            case _:
                raise TypeError(f"not a formula node: {node!r}")
        memo[key] = text
    return text
