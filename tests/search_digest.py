"""Digest of countermodel search results, to compare two checkouts.

Run from a checkout, once per seed:

    PYTHONPATH=src:tests python3 tests/search_digest.py SEED

It runs find_countermodel on:
- each formula of test_generator's _SEARCHED at each of its _BUDGETS, twice
  over (the same for every SEED);
- the sweep workload's eight non-theorem shapes, over every ordered pair of
  variables from p, q and r and both orders of the agents a and b, at the
  default budget (the same for every SEED);
- 200 random formulas of depth 3 over one or two agents and one or two
  variables, each at a seeded budget: one of _BUDGETS or a count in
  1..6000.

The search takes no seed.  The script still draws the 64 bits that
earlier checkouts passed as each random search's budget seed, and still
runs each fixed search twice (once per former budget seed, 0 and 7), so
that it runs the same 464 searches as they did.

Each result is digested as None or as (the countermodel's game document,
the play index).  It prints the digest and how many searches found a
countermodel and how many found none.  Two checkouts whose searches
return alike print the same line.  The file name has no `test_` prefix, so
pytest does not collect it.
"""

import hashlib
import json
import random
import sys
from itertools import permutations

from test_generator import _BUDGETS, _SEARCHED

from blamelogic.game import game_to_document
from blamelogic.generator import AGENT_POOL, GenParams, SearchBudget, find_countermodel, gen_formula
from blamelogic.syntax import parse_formula

_SHAPES = (
    "B{x}p -> K{x}p",
    "p -> K{x}p",
    "K{a,b}p -> K{x}p",
    "p -> B{x}p",
    "B{x}p -> B{y}p",
    "~K{x}p -> K{x}~p",
    "K{x}p -> K{x}q",
    "B{a,b}p -> B{x}p",
)


def searched(seed):
    """(formula text or formula, budget) of every search, in digest order."""
    for text in _SEARCHED:
        for _ in range(2):
            for max_candidates in _BUDGETS:
                yield text, SearchBudget(max_candidates)
    for shape in _SHAPES:
        for p, q in permutations("pqr", 2):
            for x, y in permutations("ab"):
                text = shape.translate(str.maketrans({"p": p, "q": q, "x": x, "y": y}))
                yield text, SearchBudget()
    rng = random.Random(seed)
    for _ in range(200):
        params = GenParams(num_variables=rng.randint(1, 2), formula_depth=3, seed=rng.getrandbits(64))
        formula = gen_formula(params, AGENT_POOL[: rng.randint(1, 2)])
        max_candidates = rng.choice(_BUDGETS) if rng.random() < 0.5 else rng.randint(1, 6000)
        rng.getrandbits(64)  # the former budget seed, so that later draws stay put
        yield formula, SearchBudget(max_candidates)


seed = int(sys.argv[1])
digest = hashlib.sha256()
counts = {"found": 0, "none": 0}
for formula, budget in searched(seed):
    if isinstance(formula, str):
        formula = parse_formula(formula)
    found = find_countermodel(formula, budget)
    if found is None:
        counts["none"] += 1
        digest.update(b"None\n")
    else:
        counts["found"] += 1
        game, index = found
        doc = json.dumps(game_to_document(game), sort_keys=True)
        digest.update(f"{doc} {index}\n".encode())
print(seed, "searches", digest.hexdigest()[:16], counts)
