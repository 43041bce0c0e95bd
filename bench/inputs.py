"""Seeded inputs for the benchmark: formula trees, game documents, proofs.

Formula trees are the benchmark's own representation, independent of the
program's AST, so that reference.py can give expected answers:

    ("v", name)   variable          ("n", f)       ~f
    ("i", f, g)   f -> g            ("a", f, g)    f & g
    ("o", f, g)   f | g             ("e", f, g)    f <-> g
    ("K", C, f)   K{C}f             ("B", C, f)    B{C}f
    ("P", C, f)   <K>{C}f           ("T",) true    ("F",) false

C is a tuple of agent names in sorted order.  The program receives only
the text that `show` prints, and the JSON text of `game_doc`.
"""

import json
from itertools import product


def show(f):
    """Concrete syntax for a formula tree; every binary node is bracketed."""
    tag = f[0]
    if tag == "v":
        return f[1]
    if tag == "T":
        return "true"
    if tag == "F":
        return "false"
    if tag == "n":
        return "~" + show(f[1])
    if tag in ("K", "B", "P"):
        head = "<K>" if tag == "P" else tag
        return head + "{" + ",".join(f[1]) + "}" + show(f[2])
    op = {"i": "->", "a": "&", "o": "|", "e": "<->"}[tag]
    return "(" + show(f[1]) + " " + op + " " + show(f[2]) + ")"


def size(f):
    """Number of nodes in the formula tree."""
    if f[0] in ("v", "T", "F"):
        return 1
    if f[0] in ("K", "B", "P"):
        return 1 + size(f[2])
    if f[0] == "n":
        return 1 + size(f[1])
    return 1 + size(f[1]) + size(f[2])


def max_blame_coalition(f):
    """Largest coalition under a B modality in the tree, 0 if none."""
    if f[0] in ("v", "T", "F"):
        return 0
    if f[0] in ("K", "B", "P"):
        own = len(f[1]) if f[0] == "B" else 0
        return max(own, max_blame_coalition(f[2]))
    return max(max_blame_coalition(x) for x in f[1:])


def modal_atoms(f):
    """Distinct maximal Var/K/B subtrees of a core (v, n, i, K, B) tree."""
    if f[0] in ("v", "K", "B"):
        return {f}
    if f[0] == "n":
        return modal_atoms(f[1])
    return modal_atoms(f[1]) | modal_atoms(f[2])


def from_program(node):
    """Core formula tree of a program AST node, read through its fields."""
    kind = type(node).__name__
    if kind == "Var":
        return ("v", node.name)
    if kind == "Neg":
        return ("n", from_program(node.inner))
    if kind == "Implies":
        return ("i", from_program(node.lhs), from_program(node.rhs))
    if kind in ("Knows", "Blames"):
        tag = "K" if kind == "Knows" else "B"
        return (tag, tuple(sorted(node.coalition)), from_program(node.inner))
    raise TypeError(f"not a formula node: {node!r}")


# ---------------------------------------------------------------------------
# Random formulas


def coalition(rng, agents, everyone=0.2):
    """A random coalition; all agents with probability `everyone`."""
    if rng.random() < everyone:
        return tuple(agents)
    return tuple(a for a in agents if rng.random() < 0.5)


def formula(rng, depth, variables, agents):
    """Random formula tree of depth at most `depth`, sugar included."""
    if depth <= 0 or rng.random() < 0.2:
        roll = rng.random()
        if roll < 0.03:
            return ("T",)
        if roll < 0.06:
            return ("F",)
        return ("v", rng.choice(variables))
    roll = rng.random()
    sub = lambda: formula(rng, depth - 1, variables, agents)  # noqa: E731
    if roll < 0.2:
        return ("n", sub())
    if roll < 0.5:
        return (rng.choice("iiiiiaaoe"), sub(), sub())
    if roll < 0.7:
        return ("K", coalition(rng, agents), sub())
    if roll < 0.9:
        return ("B", coalition(rng, agents), sub())
    return ("P", coalition(rng, agents), sub())


# ---------------------------------------------------------------------------
# Random games


def game_doc(rng, n_agents, n_states, n_actions, n_outcomes, n_vars, branching):
    """A total game document: every (state, profile) pair has a play."""
    agents = [chr(ord("a") + i) for i in range(n_agents)]
    states = [f"s{i}" for i in range(n_states)]
    actions = [f"d{i}" for i in range(n_actions)]
    outcomes = [f"o{i}" for i in range(n_outcomes)]
    # agents range from coarse to fine information: agent k has about
    # (k+1)/(n+1) of n_states blocks, of near-equal size, so that class
    # sizes (which set the cost of K and B) vary little from seed to seed
    indist = {}
    for k, agent in enumerate(agents):
        count = -(-n_states * (k + 1) // (n_agents + 1))
        shuffled = rng.sample(states, n_states)
        indist[agent] = [sorted(shuffled[b::count]) for b in range(count)]
    plays = []
    for state in states:
        for combo in product(actions, repeat=n_agents):
            profile = dict(zip(agents, combo))
            first = rng.choice(outcomes)
            plays.append({"state": state, "profile": profile, "outcome": first})
            for extra in outcomes:
                if extra != first and rng.random() < branching:
                    plays.append({"state": state, "profile": profile, "outcome": extra})
    valuation = {
        f"p{v}": [i for i in range(len(plays)) if rng.random() < 0.5]
        for v in range(n_vars)
    }
    return {
        "agents": agents,
        "states": states,
        "indist": indist,
        "actions": actions,
        "outcomes": outcomes,
        "plays": plays,
        "valuation": valuation,
    }


def game_text(doc):
    return json.dumps(doc, separators=(",", ":"))


def doc_from_program(game):
    """Game document of a program Game object, read through its fields."""
    return {
        "agents": list(game.agents),
        "states": list(game.states),
        "indist": {a: [sorted(b) for b in game.indist[a]] for a in game.agents},
        "actions": list(game.actions),
        "outcomes": list(game.outcomes),
        "plays": [
            {"state": p.state, "profile": dict(p.profile), "outcome": p.outcome}
            for p in game.plays
        ],
        "valuation": {v: sorted(ix) for v, ix in game.valuation.items()},
    }


# ---------------------------------------------------------------------------
# Axiom schemas and proof scripts


def axiom(name, phi, psi, c, d):
    """Instance of a named schema of the paper's axiom system."""
    if name == "Truth-K":
        return ("i", ("K", c, phi), phi)
    if name == "Truth-B":
        return ("i", ("B", c, phi), phi)
    if name == "Distributivity":
        return ("i", ("K", c, ("i", phi, psi)), ("i", ("K", c, phi), ("K", c, psi)))
    if name == "NegativeIntrospection":
        return ("i", ("n", ("K", c, phi)), ("K", c, ("n", ("K", c, phi))))
    if name == "Monotonicity-K":
        return ("i", ("K", c, phi), ("K", d, phi))
    if name == "Monotonicity-B":
        return ("i", ("B", c, phi), ("B", d, phi))
    if name == "NoneToBlame":
        return ("n", ("B", (), phi))
    if name == "BlamelessnessOfTruth":
        return ("n", ("B", c, ("T",)))
    if name == "JointResponsibility":
        either = ("o", phi, psi)
        return (
            "i",
            ("a", ("P", c, ("B", c, phi)), ("P", d, ("B", d, psi))),
            ("i", either, ("B", tuple(sorted(set(c) | set(d))), either)),
        )
    if name == "BlameForKnownCause":
        return (
            "i",
            ("K", c, ("i", phi, psi)),
            ("i", ("B", c, psi), ("i", phi, ("B", c, phi))),
        )
    if name == "KnowledgeOfFairness":
        return ("i", ("B", c, phi), ("K", c, ("i", phi, ("B", c, phi))))
    raise ValueError(name)


AXIOM_NAMES = (
    "Truth-K",
    "Truth-B",
    "Distributivity",
    "NegativeIntrospection",
    "Monotonicity-K",
    "Monotonicity-B",
    "NoneToBlame",
    "BlamelessnessOfTruth",
    "JointResponsibility",
    "BlameForKnownCause",
    "KnowledgeOfFairness",
)

PROOF_VARS = ("p", "q", "r")
PROOF_AGENTS = ("a", "b")


def _v(x):
    return ("v", x)


TAUT_TEMPLATES = (
    lambda A, B, C: ("i", A, A),
    lambda A, B, C: ("i", A, ("i", B, A)),
    lambda A, B, C: ("i", ("i", A, ("i", B, C)), ("i", ("i", A, B), ("i", A, C))),
    lambda A, B, C: ("i", ("n", ("n", A)), A),
    lambda A, B, C: ("i", A, ("n", ("n", A))),
    lambda A, B, C: ("i", ("n", A), ("i", A, B)),
    lambda A, B, C: ("i", ("i", ("n", A), ("n", B)), ("i", B, A)),
)


def core_formula(rng, depth):
    """Random core tree (v, n, i, K, B) over the proof variables and agents."""
    if depth <= 0 or rng.random() < 0.3:
        return _v(rng.choice(PROOF_VARS))
    roll = rng.random()
    if roll < 0.35:
        return ("n", core_formula(rng, depth - 1))
    if roll < 0.7:
        return ("i", core_formula(rng, depth - 1), core_formula(rng, depth - 1))
    tag = "K" if roll < 0.85 else "B"
    return (tag, coalition(rng, PROOF_AGENTS, 0.0), core_formula(rng, depth - 1))


def axiom_line(rng):
    name = rng.choice(AXIOM_NAMES)
    phi = core_formula(rng, 1)
    psi = core_formula(rng, 1)
    if name in ("Monotonicity-K", "Monotonicity-B"):
        c = coalition(rng, PROOF_AGENTS, 0.0)
        d = tuple(sorted(set(c) | set(coalition(rng, PROOF_AGENTS, 0.0))))
    elif name == "JointResponsibility":
        c = ("a",) if rng.random() < 0.7 else ()
        d = ("b",) if rng.random() < 0.7 else ()
    else:
        c, d = coalition(rng, PROOF_AGENTS, 0.0), ()
    return axiom(name, phi, psi, c, d), f"axiom:{name}"


def premise_script(rng, count, length=10):
    """A valid premise-mode script: (premises, [(tree, justification)]).

    It has `length` lines: `count` premises, tautology-template instances,
    axiom instances and modus ponens steps, so the script is valid by
    construction.  No premise is the negation of another, so negating any
    line breaks the script at that line.  The length is fixed, since the
    cost of every stage grows with it and a drawn length would make each
    seed's typical op a different size.
    """
    premises = []
    while len(premises) < count:
        f = core_formula(rng, rng.randint(0, 2))
        negation_of_premise = f[0] == "n" and f[1] in premises
        if f not in premises and ("n", f) not in premises and not negation_of_premise:
            premises.append(f)
    lines = []

    def from_pool():
        if lines and rng.random() < 0.6:
            return rng.choice(lines)[0]
        return core_formula(rng, 1)

    lines.append((rng.choice(premises), "premise"))
    while len(lines) < length:
        roll = rng.random()
        if roll < 0.25:
            lines.append((rng.choice(premises), "premise"))
        elif roll < 0.55:
            template = rng.choice(TAUT_TEMPLATES)
            lines.append((template(from_pool(), from_pool(), from_pool()), "taut"))
        elif roll < 0.7:
            lines.append(axiom_line(rng))
        else:
            options = [
                (i, j)
                for j, (fj, _) in enumerate(lines, start=1)
                if fj[0] == "i"
                for i, (fi, _) in enumerate(lines, start=1)
                if fi == fj[1]
            ]
            if options:
                i, j = rng.choice(options)
                lines.append((lines[j - 1][0][2], f"mp {i} {j}"))
    return premises, lines


def script_text(premises, lines):
    out = []
    if premises:
        out.append("premises: " + " ; ".join(show(p) for p in premises))
    out.append("goal: " + show(lines[-1][0]))
    for k, (f, just) in enumerate(lines, start=1):
        out.append(f"{k}. {show(f)} ; {just}")
    return "\n".join(out) + "\n"


def split_script(text):
    """(premise texts, goal text, [(index, formula text, justification)])."""
    premises, goal, lines = [], None, []
    for raw in text.splitlines():
        body = raw.split("#", 1)[0].strip()
        if not body:
            continue
        if body.startswith("premises:"):
            premises = [p.strip() for p in body[len("premises:") :].split(";")]
        elif body.startswith("goal:"):
            goal = body[len("goal:") :].strip()
        else:
            number, rest = body.split(".", 1)
            formula_text, just = rest.rsplit(";", 1)
            lines.append((int(number), formula_text.strip(), just.strip()))
    return premises, goal, lines


def negate_line(text, k):
    """Script text with line k's formula negated; the rest is unchanged."""
    premises, goal, lines = split_script(text)
    out = []
    if premises:
        out.append("premises: " + " ; ".join(premises))
    out.append("goal: " + goal)
    for index, formula_text, just in lines:
        if index == k:
            formula_text = f"~({formula_text})"
        out.append(f"{index}. {formula_text} ; {just}")
    return "\n".join(out) + "\n"
