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

One compiled regular expression splits a text into token texts, and a
character that is neither space nor in a token is refused.  One
precedence-climbing method reads the texts by index (_BINARY gives each
binary operator its precedence, associativity and builder); prefix
operators, atoms and parentheses are read by recursive descent.  The bounds
of parse_formula read the root's stored depth and size: MAX_DEPTH keeps
printing and evaluating a parsed formula far below the recursion limit,
and MAX_NODES keeps `p <-> p <-> ... <-> p`, which doubles with each `<->`,
from parsing quickly into a formula that takes seconds to print.  A list
of the parentheses open after each token refuses the MAX_DEPTH-th, so what
parses does not depend on the caller's stack depth.

parse_proof reads a script's texts through one memo (parse_formula has
none) from the stripped text of each formula span read to its formula and
the deepest parenthesis nesting inside it.  A span is a whole text, a
group's inside or, in a text with no `<->` (the one operator that ends a
right operand early), the right operand of a `->` up to the end of its
group or text.  Spans are looked up before they are scanned: one pass
pairs the text's parentheses, so a hit group is skipped to its `)`, and
only text outside hits is split into tokens.  The bounds hold on this
path; if it fails, the text is parsed again without the memo, so every
error is parse_formula's.  Other spacing makes another key.
"""

from __future__ import annotations

import re
import threading
import weakref
from dataclasses import FrozenInstanceError
from itertools import accumulate, repeat

from .errors import FormulaDepthError, ParseError

Coalition = frozenset  # frozenset of agent name strings

IDENT_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*")
RESERVED_WORDS = frozenset({"true", "false"})
MAX_DEPTH = 200  # deepest AST that parse_formula returns
MAX_NODES = 10**5  # most AST nodes, counted as a tree, that parse_formula returns
# deepest node any constructor builds: room for what the proof tools build from
# parsed lines, and far enough below the default recursion limit for the walks
MAX_NODE_DEPTH = 300


# The unique table: (class, *fields) -> a weak reference to the one live node
# with those fields.  Children are fields and compare by identity, so one dict
# lookup per constructor call finds an equal node.  The references have no
# callbacks (one per node costs microseconds); dead entries stay until the
# table has doubled since the last sweep.
_NODES = {}
_LOCK = threading.Lock()  # taken only to replace a dead entry, and to sweep
_SWEEP_MIN = 1 << 12
_sweep_at = _SWEEP_MIN


def _intern(key, node, size, depth):
    """Finish node (its fields set) and insert it under key; return it, or an equal
    node another thread inserted first.  Past MAX_NODE_DEPTH: FormulaDepthError."""
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
    """Drop the dead entries in one pass, latest first: a dead parent's key,
    inserted after its children's, holds them, and popping it off the list
    frees it, so they can die before the pass reaches their entries."""
    global _sweep_at
    with _LOCK:
        keys = list(_NODES)
        while keys:
            key = keys.pop()
            if _NODES[key]() is None:
                del _NODES[key]
        _sweep_at = max(_SWEEP_MIN, 2 * len(_NODES))


class _Node:
    """An interned, immutable formula node: `==` and `hash` are the identity
    defaults, and `size` (nodes, counted as a tree) and `depth` (levels; a
    Var is one) are set when the node is built."""

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
            if not isinstance(name, str):
                raise TypeError(f"variable name must be a str, not {name!r}")
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
            if not isinstance(inner, _Node):
                raise TypeError(f"not a formula node: {inner!r}")
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
            for child in (lhs, rhs):
                if not isinstance(child, _Node):
                    raise TypeError(f"not a formula node: {child!r}")
            node = _new_node(cls)
            _set_lhs(node, lhs)
            _set_rhs(node, rhs)
            size, depth = lhs.size + rhs.size + 1, max(lhs.depth, rhs.depth) + 1
            node = _intern(key, node, size, depth)
        return node


class _Modal(_Node):
    """K{C}inner or B{C}inner.  A coalition that is not a frozenset of str
    agent names is a TypeError, as are a Var name that is not a str and a
    child that is not a formula node; like the depth bound, these are
    checked only for a new node."""

    __slots__ = __match_args__ = ("coalition", "inner")

    def __new__(cls, coalition, inner):
        key = (cls, coalition, inner)
        ref = _NODES.get(key)
        node = ref and ref()
        if node is None:
            if not isinstance(coalition, frozenset):
                raise TypeError(f"coalition must be a frozenset, not {coalition!r}")
            if not all(isinstance(agent, str) for agent in coalition):
                raise TypeError(f"coalition members must be str agent names: {coalition!r}")
            if not isinstance(inner, _Node):
                raise TypeError(f"not a formula node: {inner!r}")
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
    seen, stack = set(), [f]
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
    return frozenset(a for n in subformulas(f) if isinstance(n, _Modal) for a in n.coalition)


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
    """Maximal subformulas headed by Var, Knows, or Blames: the atoms of f
    read as a Boolean combination, none a strict subformula of another."""
    return set(atom_list(f))


# ---------------------------------------------------------------------------
# Scanner and parser

# Punctuation token text -> its kind, the name ParseError.expected gives it;
# in match order: `<->` before `<K>` before `->`.
_PUNCTUATION = {
    "<->": "IFF", "<K>": "POSSK", "->": "ARROW", "~": "NOT", "|": "OR", "&": "AND",
    "(": "LPAREN", ")": "RPAREN", "{": "LBRACE", "}": "RBRACE", ",": "COMMA",
}
# One token per match: punctuation, else an identifier.  findall passes over
# whatever matches neither, space or not.
_SCANNER = re.compile("|".join(map(re.escape, _PUNCTUATION)) + "|" + IDENT_RE.pattern)
_UNARY_START = frozenset({"IDENT", "LPAREN", "NOT", "POSSK"})
_PAREN_STEP = {"(": 1, ")": -1}  # token text -> change in open parentheses
_PARENS = re.compile("[()]")
# Binary operator token -> (precedence, floor for its right operand, builder):
# a floor one above the precedence makes the operator left-associative, and
# `->`, whose floor is its own precedence, right-associative.
_BINARY = {"<->": (1, 2, iff), "->": (2, 2, Implies), "|": (3, 4, disj), "&": (4, 5, conj)}


def _scan(text: str) -> list:
    """Token texts, ending with "" for the end of input.  If the tokens, joined,
    are not the text without its space, the first stray character raises."""
    texts = _SCANNER.findall(text)
    if "".join(texts) != "".join(text.split()):
        blanked = _SCANNER.sub(lambda m: " " * len(m[0]), text)  # tokens are ASCII
        bad = len(blanked) - len(blanked.lstrip())
        offset = len(text[:bad].encode("utf-8"))
        expected = {"IDENT", *_PUNCTUATION.values()}
        raise ParseError(f"unexpected character {text[bad]!r} at byte {offset}", offset, expected)
    texts.append("")
    return texts


class _Parser:
    """Precedence climbing over the token texts of one text.  depth[k] counts
    the parentheses open after token k (False for a text with no `(`); a `(`
    that opens the MAX_DEPTH-th raises."""

    words = {"true": TOP, "false": BOTTOM}  # a word that is not a variable -> its formula

    def __init__(self, text: str):
        self.text = text
        self.texts = _scan(text)
        self.pos = 0
        # only a `(` reads depth
        self.depth = "(" in text and list(accumulate(map(_PAREN_STEP.get, self.texts, repeat(0))))

    def fail(self, expected):
        # where each token, then the end of input, starts: only errors need it
        starts = [m.start() for m in _SCANNER.finditer(self.text)] + [len(self.text)]
        offset = len(self.text[: starts[self.pos]].encode("utf-8"))
        shown = self.texts[self.pos] or "end of input"
        message = f"unexpected {shown!r} at byte {offset}, expected one of {sorted(expected)}"
        raise ParseError(message, offset, expected)

    def expect(self, token: str):
        if self.texts[self.pos] != token:
            self.fail({_PUNCTUATION[token]})
        self.pos += 1

    def ident(self) -> str:
        word = self.texts[self.pos]
        if not word[:1].isalpha():
            self.fail({"IDENT"})
        self.pos += 1
        return word

    def binary(self, floor: int = 1) -> Formula:
        """Read operands joined by binary operators of precedence >= floor."""
        f = self.unary()
        while True:
            op = _BINARY.get(self.texts[self.pos])
            if op is None or op[0] < floor:
                return f
            self.pos += 1
            f = op[2](f, self.binary(op[1]))

    def unary(self) -> Formula:
        start = self.pos
        token = self.texts[start]
        self.pos += 1
        if token == "~":
            return Neg(self.unary())
        if token == "<K>":
            c = self.coalition_literal()
            return poss_knows(c, self.unary())
        if token == "(":
            if self.depth[start] >= MAX_DEPTH:
                raise ParseError("formula nested too deeply")
            f = self.binary()
            self.expect(")")
            return f
        if token in _PUNCTUATION or not token:  # not an identifier
            self.pos = start
            self.fail(_UNARY_START)
        if token in ("K", "B") and self.texts[self.pos] == "{":
            c = self.coalition_literal()
            inner = self.unary()
            return Knows(c, inner) if token == "K" else Blames(c, inner)
        return self.words.get(token) or Var(token)

    def coalition_literal(self) -> Coalition:
        self.expect("{")
        names = []
        if self.texts[self.pos][:1].isalpha():
            names.append(self.ident())
            while self.texts[self.pos] == ",":
                self.pos += 1
                names.append(self.ident())
        self.expect("}")
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
    return _parse_formula(text, None)


class _Spans(_Parser):
    """Reads one text's formula spans through a script memo (see the module docstring)."""

    def __init__(self, text: str, memo: dict):
        self.text, self.memo, self.words = text, memo, dict(_Parser.words)
        self.arrows = "<->" not in text  # only `<->` ends a right operand early
        self.close, opened = {}, []  # `(` offset -> its `)` offset
        for m in _PARENS.finditer(text):
            if m[0] == "(":
                opened.append(m.start())
            else:
                self.close[opened.pop()] = m.start()

    def span(self, lo: int, hi: int):
        """(formula, nesting) of text[lo:hi]; words names each span inside."""
        key = self.text[lo:hi].strip()
        if key in self.memo:
            return self.memo[key]
        text, items, nest = self.text, [""], 0  # items end with the end of input
        while True:
            i = text.find("(", lo, hi)
            arrow = text.find("->", lo, hi if i < 0 else i) if self.arrows else -1
            if arrow < 0 and i < 0:
                items[-1:] = _scan(text[lo:hi])
                break
            # a right operand runs to hi (lo then passes it), a group to its `)`
            start, end = (arrow + 2, hi) if arrow >= 0 else (i + 1, self.close[i])
            items[-1:] = _scan(text[lo : start - (arrow < 0)])
            f, inner = self.span(start, end)
            items[-1:] = str(len(self.words)), ""
            self.words[items[-2]] = f
            nest, lo = max(nest, inner + (arrow < 0)), end + 1
        self.texts, self.pos = items, 0
        f = self.binary()
        if self.texts[self.pos]:
            self.fail({"EOF"})
        self.memo[key] = f, nest
        return f, nest


def _parse_formula(text: str, memo) -> Formula:
    """parse_formula, reading the text's spans through memo unless it is None."""
    if memo is not None:
        try:
            f, nest = memo.get(text.strip()) or _Spans(text, memo).span(0, len(text))
        except (ParseError, LookupError, RecursionError, FormulaDepthError):
            nest = MAX_DEPTH  # LookupError: unbalanced parentheses
        if nest < MAX_DEPTH and f.size <= MAX_NODES and f.depth <= MAX_DEPTH:
            return f
    p = _Parser(text)
    try:
        f = p.binary()
    except (RecursionError, FormulaDepthError):
        raise ParseError("formula nested too deeply") from None
    if p.texts[p.pos]:
        p.fail({"EOF"})
    if f.size > MAX_NODES:
        raise ParseError("formula too large")
    if f.depth > MAX_DEPTH:
        raise ParseError("formula nested too deeply")
    return f


def parse_coalition(text: str) -> Coalition:
    """Parse a coalition literal such as `{a, b}`; raises as parse_formula does."""
    p = _Parser(text)
    c = p.coalition_literal()
    if p.texts[p.pos]:
        p.fail({"EOF"})
    return c


def format_coalition(c: Coalition) -> str:
    return "{" + ",".join(sorted(c)) + "}"


def print_formula(f: Formula) -> str:
    """Canonical text with minimal parentheses; never re-sugars.
    parse_formula(print_formula(f)) is f when f's variable names avoid true and
    false, f.depth <= MAX_DEPTH and f.size <= MAX_NODES; else it may raise."""
    return _render(f, False, {})


def _render(node: Formula, parenthesize_implies: bool, memo: dict) -> str:
    """Text of node, rendering each (node, parenthesize_implies) once per memo."""
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
