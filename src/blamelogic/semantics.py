"""Truth of formulas at plays of a game, and the derived bulk checks.

A formula is evaluated at a play (state, complete action profile, outcome):

  - a variable holds when the valuation puts the play's index in its set;
  - negation and implication are classical;
  - K{C}f holds when f holds at every play whose initial state the
    coalition C cannot distinguish from the current one;
  - B{C}f holds when f holds here and some single action choice for C
    falsifies f at every play that is C-indistinguishable from here and
    agrees with that choice on C's members.

A state's C-class is keyed by its block keys under C's members (distributed
knowledge).  The engine reads a game's index (`game._Masks`), never the
Game, and the C-classes from it (`_classes`), which raise UnknownAgentError
for an agent the game does not know; this module holds only the modal logic.

Both modalities depend on the play only through its C-class, so the engine
computes a formula's extension over all plays at once, bottom-up, as an
int bitmask (bit i is play i), the way global CTL model checking does.
Connectives are one big-int operation each.  K{C}f is the union of the
C-classes disjoint from the complement of f.  B{C}f keeps a class when a
depth-first walk over C's members (sorted by name, actions in declared
order) finds a choice whose action masks leave no f-play of the class; the
walk stops as soon as the remaining mask is empty, so it visits at most
|plays| * |C| nonempty prefixes per class instead of |actions|^|C|
strategies.  A choice matching no play of the class prevents vacuously.
There is one engine path (_ext) over points laid side by side in slots:
one slot holds a game's plays or a truth table's rows (_rows), and the
countermodel search puts one valuation of a frame in each slot.

Per call the work is O(|formula| * |plays| / word size) plus the blame
walks, where |formula| counts distinct subformulas: formulas are interned
(equal subtrees are one node), and a memo keyed by node evaluates each
once.  The memo lives for one call; semantic_entailment shares one between
its hypotheses and conclusion, and the soundness sweep one between the
instances of a trial.  Every public function is a view of one mask.
"""

from __future__ import annotations

from .errors import PlayNotInGameError
# _ext reads _classes from this module's globals, where a test may patch it
from .game import Game, Play, Strategy, _classes, _coalition, _indices, _Masks
from .syntax import Blames, Formula, Implies, Knows, Neg, Var


def _rows(m: int, w: int):
    """(rep, patterns) of 2^m rows of w bits, row r at bit r*w up: rep has
    each row's lowest bit, patterns[t] that of each row whose number has bit
    t set.  Built by doubling: rows 2^t.. copy rows 0.. with bit t set."""
    rep, patterns = 1, []
    for t in range(m):
        width = w << t  # the bits of the rows so far
        for i, p in enumerate(patterns):  # in place: each old pattern is freed as it goes
            patterns[i] = p | p << width
        patterns.append(rep << width)
        rep |= patterns[-1]
    return rep, patterns


def _prevent(rest: int, pending: int, members, masks: _Masks) -> int:
    """The slots of pending (one bit each, as in masks.rep) where some choice,
    one action per member, has no play in `rest`: a walk over the choices in
    _choice's order that stops when no slot is pending."""
    done = 0
    if members:
        act, full, n = masks.act, masks.full, masks.n
        agent, others = members[0], members[1:]
        for action in masks.actions:
            left = rest & act.get((agent, action), 0)
            busy = left and (left + full) >> n & pending  # the pending slots where left has a play
            if busy != pending:
                done |= pending ^ busy
                if not busy:
                    break
                pending = busy
            if others:
                found = _prevent(left, pending, others, masks)
                if found:
                    done |= found
                    pending ^= found
                    if not pending:
                        break
    return done


def _choice(rest: int, members, masks: _Masks):
    """First choice (one action per member) whose plays miss `rest`, else
    None: a depth-first walk, members in the given order, actions in
    declared order, so the choice is the lexicographically smallest."""
    actions = masks.actions
    if not rest:
        return (actions[0],) * len(members)
    if not members:
        return None
    agent, others = members[0], members[1:]
    for action in actions:
        tail = _choice(rest & masks.act.get((agent, action), 0), others, masks)
        if tail is not None:
            return (action, *tail)
    return None


def extension_mask(game: Game, formula: Formula) -> int:
    """The formula's extension as an int whose bit i is set iff it holds at play i."""
    return _ext(formula, game._masks, {})


def _ext(formula: Formula, index: _Masks, memo: dict) -> int:
    """Mask of the formula over the index, whose points lie side by side in
    slots of index.n point bits and a guard bit that index.full leaves
    clear; index.rep has the lowest bit of each slot.  A game's index is one
    slot of its plays, a search frame's one valuation per slot, a truth
    table one slot of 2^n rows.  memo maps each node computed over the index
    to its mask, so an equal subtree is computed once; the search seeds it
    with its variables, a tautology check with every atom.  Adding full to a
    mask carries into the guard bit of each slot where the mask has a point,
    so K finds the slots where a class meets a false point with one add, and
    B walks the choices over the slots still pending (_prevent).
    """
    mask = memo.get(formula)
    if mask is not None:
        return mask
    full = index.full
    match formula:
        case Var(name):
            mask = index.var.get(name, 0)
        case Neg(inner):
            mask = full ^ _ext(inner, index, memo)
        case Implies(lhs, rhs):
            mask = full ^ _ext(lhs, index, memo)
            mask |= _ext(rhs, index, memo)
        case Knows(c, inner):
            false = full ^ _ext(inner, index, memo)
            n, rep = index.n, index.rep
            mask = 0
            for block in _classes(index, c):
                if not block & false:
                    mask |= block
                else:  # the class holds in the slots where it has no false play
                    held = rep ^ ((block & false) + full) >> n & rep
                    if held:
                        mask |= block & (held << n) - held  # each slot's bit over its plays
        case Blames(c, inner):
            true = _ext(inner, index, memo)
            members = sorted(c)
            n, rep = index.n, index.rep
            mask = 0
            for block in _classes(index, c):
                rest = block & true
                if rest:
                    pending = (rest + full) >> n & rep  # the slots where rest has a play
                    done = _prevent(rest, pending, members, index)
                    if done:
                        mask |= rest if done == pending else rest & (done << n) - done
        case _:
            raise TypeError(f"not a formula node: {formula!r}")
    memo[formula] = mask
    return mask


def _locate(game: Game, play: Play) -> int:
    i = game._masks.index.get(id(play))
    if i is not None:
        return i
    for i, p in enumerate(game.plays):
        if p == play:
            return i
    raise PlayNotInGameError(f"play not in game: {play}")


def evaluate(game: Game, play: Play, formula: Formula) -> bool:
    """Does the formula hold at this play of the game?"""
    return bool(extension_mask(game, formula) >> _locate(game, play) & 1)


def extension(game: Game, formula: Formula) -> frozenset:
    """Indices of exactly the plays at which the formula holds."""
    return frozenset(_indices(extension_mask(game, formula)))


def is_valid(game: Game, formula: Formula) -> bool:
    """True iff the formula holds at every play of the game."""
    return extension_mask(game, formula) == game._masks.full


def blame_witness(game: Game, play: Play, coalition, formula: Formula):
    """Lexicographically smallest strategy establishing B{coalition}formula.

    Orders strategies by sorted member name, then by action order as
    declared in the game.  Returns None exactly when the blame modality is
    false at the play.
    """
    coalition = _coalition(coalition)
    true = extension_mask(game, formula)
    masks = game._masks
    classes = _classes(masks, coalition)  # raises on an unknown member
    bit = 1 << _locate(game, play)
    if not true & bit:
        return None
    members = sorted(coalition)
    for block in classes:
        if block & bit:
            choice = _choice(block & true, members, masks)
            return None if choice is None else Strategy(coalition, dict(zip(members, choice)))
    return None


def semantic_entailment(game: Game, hypotheses, formula: Formula) -> bool:
    """True iff every play satisfying all hypotheses also satisfies formula.

    hypotheses is a collection of formulas; a single formula, str or bytes
    is a TypeError.
    """
    if isinstance(hypotheses, (Formula, str, bytes)):
        raise TypeError(
            f"hypotheses must be a collection of formulas, not {type(hypotheses).__name__}"
        )
    masks = game._masks
    memo = {}  # the hypotheses and the conclusion share subformulas
    hyps = masks.full
    for h in hypotheses:
        hyps &= _ext(h, masks, memo)
    return not hyps & ~_ext(formula, masks, memo)
