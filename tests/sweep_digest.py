"""Digest of soundness sweep reports, to compare two checkouts.

Run from a checkout, once per seed:

    PYTHONPATH=src:tests python3 tests/sweep_digest.py SEED

It runs soundness_sweep for 30 trials on each of 36 seeded GenParams: one,
two and three agents, formula depths 0 to 5, twice each, with the other
sizes, the branching and the seed drawn from SEED.  Each sweep runs once on
the engine and once with semantics._classes replaced by
_helpers.identity_empty_classes, a mutant under which some axiom instances
fail, so that the reports also carry violations.

Each report is digested as its trial count, its counts (schema -> checked
(instance, play) pairs) and each violation as (schema, trial, play index,
printed formula, game document).  It prints the digest and the number of
violations found on the engine and under the mutant.  Two checkouts whose
sweeps report alike print the same line.  The file name has no `test_`
prefix, so pytest does not collect it.
"""

import hashlib
import json
import random
import sys

from _helpers import identity_empty_classes

from blamelogic import semantics
from blamelogic.game import game_to_document
from blamelogic.generator import GenParams, soundness_sweep
from blamelogic.syntax import print_formula

TRIALS = 30


def swept(seed):
    """The GenParams of every sweep, in digest order."""
    rng = random.Random(seed)
    for agents in (1, 2, 3):
        for depth in range(6):
            for _ in range(2):
                yield GenParams(
                    num_agents=agents,
                    num_states=rng.randint(1, 4),
                    num_actions=rng.randint(1, 3),
                    num_outcomes=rng.randint(1, 3),
                    num_variables=rng.randint(1, 4),
                    branching=rng.choice((0.0, 0.15, 0.4)),
                    formula_depth=depth,
                    seed=rng.getrandbits(64),
                )


def digest_report(digest, report):
    digest.update(f"{report.trials} {sorted(report.counts.items())}\n".encode())
    for v in report.violations:
        doc = json.dumps(game_to_document(v.game), sort_keys=True)
        digest.update(f"{v.schema} {v.trial} {v.play_index} {print_formula(v.formula)} {doc}\n".encode())


seed = int(sys.argv[1])
digest = hashlib.sha256()
found = {"engine": 0, "identity_empty_classes": 0}
real = semantics._classes
for params in swept(seed):
    for mode in found:
        semantics._classes = real if mode == "engine" else identity_empty_classes(real)
        try:
            report = soundness_sweep(params, TRIALS)
        finally:
            semantics._classes = real
        digest_report(digest, report)
        found[mode] += len(report.violations)
print(seed, "sweeps", digest.hexdigest()[:16], found)
