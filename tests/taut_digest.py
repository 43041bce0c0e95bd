"""Digests of tautology verdicts and proof-check reports, to compare two checkouts.

Run from a checkout, once per seed:

    PYTHONPATH=src:tests python3 tests/taut_digest.py SEED

It prints two digests and a count of the verdicts:
- verdicts: is_tautology_instance on 40,000 seeded formulas from
  `_helpers.rand_taut_line` (identity, weakening, distribution,
  contraposition and Peirce lines, whole or broken, and random formulas, at
  most 12 modal atoms each), on 200 implication chains and balanced trees
  over 15 to 24 variables (either side of the atom budget), on `<->` chains
  40 levels deep, on `~` chains 297 deep, and on a few values that are not
  formulas; each digested as its verdict, or as its error's type and
  message;
- reports: check_proof's report on each corpus script and on 100 random
  premise scripts, each with all of its premises discharged, and on 20
  seeded mutants of each corpus script and one of each random script, with
  one line negated.

Two checkouts that decide alike print the same line.  The file name has no
`test_` prefix, so pytest does not collect it.
"""

import collections
import hashlib
import random
import sys

from _helpers import negate_line, rand_taut_line, random_premise_script

from blamelogic import asset_path, hilbert as h
from blamelogic.errors import AtomBudgetExceededError
from blamelogic.syntax import Implies, Knows, Neg, Var, iff


def outcome(fn, *args):
    try:
        return fn(*args)
    except (AtomBudgetExceededError, TypeError, ValueError) as e:
        return (type(e).__name__, str(e))


def digest_checks(script, mutants):
    """Digest the report on script with every premise discharged, and on
    that many seeded mutants of it with one line negated."""
    for phi in script.premises:
        script = h.deduction_transform(script, phi)
    reports.update(repr(outcome(h.check_proof, script)).encode())
    for _ in range(mutants):
        k = rng.randint(1, len(script.lines))
        reports.update(repr(outcome(lambda: h.check_proof(negate_line(script, k)))).encode())


seed = int(sys.argv[1])
rng = random.Random(seed)
formulas = [rand_taut_line(rng)[1] for _ in range(40_000)]
for _ in range(200):
    names = [Var(f"y{i}") for i in range(rng.randint(15, 24))]
    if rng.random() < 0.5:  # a chain, a tautology when it ends where it starts
        f = rng.choice(names[:2])
        for x in reversed(names):
            f = Implies(x, f)
    else:  # a balanced tree over the names, in a seeded order
        level = rng.sample(names, len(names)) + rng.choices(names, k=rng.randrange(4))
        while len(level) > 1:
            level = [Implies(*level[i : i + 2]) if i + 1 < len(level) else level[i]
                     for i in range(0, len(level), 2)]
        f = level[0]
    formulas.append(f)
col, knows = Var("col"), Knows(frozenset({"c"}), Var("col"))
chain = col
for _ in range(40):
    chain = iff(chain, knows)
formulas += [chain, iff(chain, col), Implies(chain, chain)]
deep = Var("p")
for _ in range(297):
    deep = Neg(deep)
formulas += [deep, Implies(deep, deep), Implies(deep, Neg(deep)), Implies(Neg(deep), deep)]
formulas += ["p", None, 3, (), [], {}]
verdicts = hashlib.sha256()
counts = collections.Counter()
for f in formulas:
    out = outcome(h.is_tautology_instance, f)
    verdicts.update(repr(out).encode())
    counts[out if isinstance(out, bool) else out[0]] += 1

reports = hashlib.sha256()
for name in ("lemma3", "lemma4_inst", "lemma5", "lemma6_n2", "lemma8", "lemma9_n2"):
    digest_checks(h.parse_proof_file(asset_path(name + ".proof")), 20)
for _ in range(100):
    digest_checks(random_premise_script(rng)[0], 1)
print(seed, "verdicts", verdicts.hexdigest()[:16], "reports", reports.hexdigest()[:16],
      dict(sorted(counts.items(), key=str)))
