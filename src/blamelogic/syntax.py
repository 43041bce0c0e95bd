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
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .errors import ParseError

Coalition = frozenset  # frozenset of agent name strings

IDENT_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*")
RESERVED_WORDS = frozenset({"true", "false"})


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Neg:
    inner: "Formula"


@dataclass(frozen=True)
class Implies:
    lhs: "Formula"
    rhs: "Formula"


@dataclass(frozen=True)
class Knows:
    coalition: Coalition
    inner: "Formula"


@dataclass(frozen=True)
class Blames:
    coalition: Coalition
    inner: "Formula"


Formula = Var | Neg | Implies | Knows | Blames

# Canonical encodings of the propositional constants.
TOP = Implies(Var("p"), Var("p"))
BOTTOM = Neg(TOP)


def coalition(*names: str) -> Coalition:
    """Build a coalition from agent names (duplicates collapse)."""
    return frozenset(names)


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
    """Yield every node of the tree, parents before children."""
    yield f
    match f:
        case Neg(inner) | Knows(_, inner) | Blames(_, inner):
            yield from subformulas(inner)
        case Implies(lhs, rhs):
            yield from subformulas(lhs)
            yield from subformulas(rhs)


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
    seen = set()

    def walk(node):
        match node:
            case Var() | Knows() | Blames():
                if node not in seen:
                    seen.add(node)
                    out.append(node)
            case Neg(inner):
                walk(inner)
            case Implies(lhs, rhs):
                walk(lhs)
                walk(rhs)

    walk(f)
    return out


def modal_atoms(f: Formula) -> set:
    """Maximal subformulas headed by Var, Knows, or Blames.

    These are the propositional atoms when f is read as a Boolean
    combination; no returned atom is a strict subformula of another.
    """
    return set(atom_list(f))


# ---------------------------------------------------------------------------
# Tokenizer

_TOKEN_PATTERNS = (
    ("IFF", "<->"),
    ("POSSK", "<K>"),
    ("ARROW", "->"),
    ("NOT", "~"),
    ("OR", "|"),
    ("AND", "&"),
    ("LPAREN", "("),
    ("RPAREN", ")"),
    ("LBRACE", "{"),
    ("RBRACE", "}"),
    ("COMMA", ","),
)


@dataclass(frozen=True)
class _Token:
    kind: str  # one of the pattern names, or IDENT / EOF
    text: str
    pos: int  # character offset into the source


def _byte_offset(text: str, pos: int) -> int:
    return len(text[:pos].encode("utf-8"))


def _tokenize(text: str) -> list:
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        for kind, lit in _TOKEN_PATTERNS:
            if text.startswith(lit, i):
                tokens.append(_Token(kind, lit, i))
                i += len(lit)
                break
        else:
            m = IDENT_RE.match(text, i)
            if m:
                tokens.append(_Token("IDENT", m.group(), i))
                i = m.end()
            else:
                raise ParseError(
                    f"unexpected character {ch!r} at byte {_byte_offset(text, i)}",
                    offset=_byte_offset(text, i),
                    expected={"IDENT"} | {k for k, _ in _TOKEN_PATTERNS},
                )
    tokens.append(_Token("EOF", "", n))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str) -> _Token:
        tok = self.peek()
        if tok.kind != kind:
            self.fail({kind})
        return self.advance()

    def fail(self, expected):
        tok = self.peek()
        shown = tok.text if tok.kind != "EOF" else "end of input"
        raise ParseError(
            f"unexpected {shown!r} at byte {_byte_offset(self.text, tok.pos)}, "
            f"expected one of {sorted(expected)}",
            offset=_byte_offset(self.text, tok.pos),
            expected=expected,
        )

    # formula := iff ; iff := imp { "<->" imp }
    def parse_formula(self) -> Formula:
        f = self.parse_imp()
        while self.peek().kind == "IFF":
            self.advance()
            f = iff(f, self.parse_imp())
        return f

    # imp := or [ "->" imp ]   (right-associative)
    def parse_imp(self) -> Formula:
        f = self.parse_or()
        if self.peek().kind == "ARROW":
            self.advance()
            return Implies(f, self.parse_imp())
        return f

    def parse_or(self) -> Formula:
        f = self.parse_and()
        while self.peek().kind == "OR":
            self.advance()
            f = disj(f, self.parse_and())
        return f

    def parse_and(self) -> Formula:
        f = self.parse_unary()
        while self.peek().kind == "AND":
            self.advance()
            f = conj(f, self.parse_unary())
        return f

    def parse_unary(self) -> Formula:
        tok = self.peek()
        if tok.kind == "NOT":
            self.advance()
            return Neg(self.parse_unary())
        if tok.kind == "POSSK":
            self.advance()
            c = self.parse_coalition()
            return poss_knows(c, self.parse_unary())
        if tok.kind == "IDENT" and tok.text in ("K", "B") and self._next_is_brace():
            self.advance()
            c = self.parse_coalition()
            inner = self.parse_unary()
            return Knows(c, inner) if tok.text == "K" else Blames(c, inner)
        return self.parse_atom()

    def _next_is_brace(self) -> bool:
        return self.tokens[self.pos + 1].kind == "LBRACE"

    def parse_coalition(self) -> Coalition:
        self.expect("LBRACE")
        names = []
        if self.peek().kind == "IDENT":
            names.append(self.advance().text)
            while self.peek().kind == "COMMA":
                self.advance()
                names.append(self.expect("IDENT").text)
        self.expect("RBRACE")
        return frozenset(names)

    def parse_atom(self) -> Formula:
        tok = self.peek()
        if tok.kind == "IDENT":
            self.advance()
            if tok.text == "true":
                return TOP
            if tok.text == "false":
                return BOTTOM
            return Var(tok.text)
        if tok.kind == "LPAREN":
            self.advance()
            f = self.parse_formula()
            self.expect("RPAREN")
            return f
        self.fail({"IDENT", "LPAREN", "NOT", "POSSK"})


def parse_formula(text: str) -> Formula:
    """Parse concrete syntax into the five-constructor AST.

    Raises ParseError (with byte offset and expected-token set) on
    malformed input, and on nesting deeper than the interpreter's
    recursion limit allows.  An empty coalition literal `{}` is legal.
    """
    p = _Parser(text)
    try:
        f = p.parse_formula()
    except RecursionError:
        raise ParseError("formula nested too deeply") from None
    if p.peek().kind != "EOF":
        p.fail({"EOF"})
    return f


def format_coalition(c: Coalition) -> str:
    return "{" + ",".join(sorted(c)) + "}"


def print_formula(f: Formula) -> str:
    """Canonical text with minimal parentheses; never re-sugars.

    parse_formula(print_formula(f)) is structurally equal to f for every
    formula whose variable names avoid the reserved words true/false.
    """

    def render(node, parenthesize_implies):
        match node:
            case Var(name):
                if name in RESERVED_WORDS:
                    raise ValueError(f"reserved word used as variable name: {name}")
                return name
            case Neg(inner):
                return "~" + render(inner, True)
            case Knows(c, inner):
                return "K" + format_coalition(c) + render(inner, True)
            case Blames(c, inner):
                return "B" + format_coalition(c) + render(inner, True)
            case Implies(lhs, rhs):
                body = render(lhs, True) + " -> " + render(rhs, False)
                return "(" + body + ")" if parenthesize_implies else body
        raise TypeError(f"not a formula node: {node!r}")

    return render(f, False)
