"""Reference satisfaction relation, written from the paper's definitions.

Naumov & Tao, "Blameworthiness in Games with Imperfect Information"
(arXiv:1811.02446), over a game document (the JSON game format as a dict)
and the benchmark's own formula trees (see inputs.py).  It imports nothing
from blamelogic, so it can check the program's answers:

  - a variable holds at the plays the valuation lists;
  - negation and implication (and the sugar built on them) are classical;
  - K{C}f holds at a play when f holds at every play whose initial state
    C cannot tell apart from this play's;
  - B{C}f holds at a play when f holds there and some s in actions^C
    falsifies f at every C-indistinguishable play whose profile agrees
    with s on C.

Extensions are computed bottom-up as sets of play indices.
"""

from itertools import product


class Model:
    """A game document with the lookups the definitions need."""

    def __init__(self, doc):
        self.doc = doc
        self.agents = tuple(doc["agents"])
        self.actions = tuple(doc["actions"])
        self.plays = doc["plays"]
        self.n = len(self.plays)
        self.valuation = {v: frozenset(ix) for v, ix in doc["valuation"].items()}
        self.block = {}
        for agent in self.agents:
            blocks = doc.get("indist", {}).get(agent)
            if blocks is None:
                blocks = [[s] for s in doc["states"]]
            self.block[agent] = {s: k for k, b in enumerate(blocks) for s in b}
        self.by_state = {}
        for i, play in enumerate(self.plays):
            self.by_state.setdefault(play["state"], []).append(i)
        self._classes = {}
        self._class_map = {}

    def classes(self, coalition):
        """Play indices grouped by the coalition's joint class of their state."""
        found = self._classes.get(coalition)
        if found is None:
            found = {}
            for state, members in self.by_state.items():
                key = tuple(self.block[a][state] for a in coalition)
                found.setdefault(key, []).extend(members)
            found = list(found.values())
            self._classes[coalition] = found
        return found

    def extension(self, f, memo=None):
        """Set of play indices at which the formula tree holds."""
        if memo is None:
            memo = {}
        found = memo.get(f)
        if found is not None:
            return found
        everything = frozenset(range(self.n))
        tag = f[0]
        if tag == "v":
            value = self.valuation.get(f[1], frozenset())
        elif tag == "T":
            value = everything
        elif tag == "F":
            value = frozenset()
        elif tag == "n":
            value = everything - self.extension(f[1], memo)
        elif tag in ("i", "a", "o", "e"):
            a = self.extension(f[1], memo)
            b = self.extension(f[2], memo)
            value = {
                "i": (everything - a) | b,
                "a": a & b,
                "o": a | b,
                "e": (a & b) | (everything - a - b),
            }[tag]
        elif tag == "K":
            inner = self.extension(f[2], memo)
            value = frozenset(
                i
                for members in self.classes(f[1])
                if all(j in inner for j in members)
                for i in members
            )
        elif tag == "P":  # <K>{C}f is ~K{C}~f
            inner = self.extension(f[2], memo)
            value = frozenset(
                i
                for members in self.classes(f[1])
                if any(j in inner for j in members)
                for i in members
            )
        elif tag == "B":
            coalition, inner = f[1], self.extension(f[2], memo)
            value = frozenset(
                i
                for members in self.classes(coalition)
                if self._preventing(coalition, members, inner) is not None
                for i in members
                if i in inner
            )
        else:
            raise ValueError(f"not a formula tree: {f!r}")
        memo[f] = value
        return value

    def _preventing(self, coalition, members, inner):
        """First s in actions^C (declared order) avoiding inner on the class."""
        reached = {
            tuple(self.plays[j]["profile"][a] for a in coalition)
            for j in members
            if j in inner
        }
        for choice in product(self.actions, repeat=len(coalition)):
            if choice not in reached:
                return dict(zip(coalition, choice))
        return None

    def naive_work(self, f, plays=None):
        """Steps the definitions take to decide f at `plays` (default: all).

        K{C}g scans the C-class of each play once, B{C}g once per strategy
        in actions^C; g is then needed at every play of those classes.  No
        step is skipped or shared, so this bounds a direct evaluator.
        """
        tag = f[0]
        if tag in ("v", "T", "F"):
            return 0
        if tag not in ("K", "B", "P"):
            return sum(self.naive_work(x, plays) for x in f[1:])
        if plays is None:
            own = sum(len(members) ** 2 for members in self.classes(f[1]))
            reached = None
        else:
            class_of = self.class_map(f[1])
            touched = {id(class_of[i]): class_of[i] for i in plays}
            own = sum(len(class_of[i]) for i in plays)
            reached = [j for members in touched.values() for j in members]
            if len(reached) == self.n:
                reached = None
        if tag == "B":
            own *= len(self.actions) ** len(f[1])
        return own + self.naive_work(f[2], reached)

    def class_map(self, coalition):
        """Play index -> the list of plays in its coalition class."""
        found = self._class_map.get(coalition)
        if found is None:
            found = [None] * self.n
            for members in self.classes(coalition):
                for i in members:
                    found[i] = members
            self._class_map[coalition] = found
        return found

    def holds(self, f, i):
        return i in self.extension(f)

    def witness(self, coalition, f, i):
        """Smallest strategy behind B{coalition}f at play i, or None."""
        inner = self.extension(f)
        if i not in inner:
            return None
        return self._preventing(coalition, self.class_map(coalition)[i], inner)

    def is_valid(self, f):
        return len(self.extension(f)) == self.n

    def entails(self, premises, f):
        memo = {}
        common = frozenset(range(self.n))
        for p in premises:
            common &= self.extension(p, memo)
        return common <= self.extension(f, memo)


def is_total(doc):
    """Every (state, complete action profile) pair occurs in some play."""
    agents = doc["agents"]
    seen = {
        (p["state"], tuple(p["profile"][a] for a in agents)) for p in doc["plays"]
    }
    return all(
        (s, combo) in seen
        for s in doc["states"]
        for combo in product(doc["actions"], repeat=len(agents))
    )
