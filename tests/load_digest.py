"""Digests of game loading, to compare two checkouts.

Run from a checkout, once per seed:

    PYTHONPATH=src:tests python3 tests/load_digest.py SEED

It loads 1,500 seeded game documents (one to four agents, up to six
states, plays shuffled or not, profile keys in varied order, up to three
variables), four bench-sized ones of 700 to 2,500 plays, and four seeded
single-site mutants of each document, and prints three digests and a
count of the verdicts:
- verdicts: what load_game returns or raises, as "ok" or as the error's
  type and message;
- reports: the violations and warnings of validate_game on the game the
  loader builds, valid or not (read by wrapping the loader's call);
- masks: that game's index: the full mask, the state, (agent, action) and
  variable masks, each play's position and the play groups as profile
  entries -> mask, all in their insertion order.

Two checkouts that load alike print the same line.  The file name has no
`test_` prefix, so pytest does not collect it.
"""

import collections
import hashlib
import json
import random
import sys
from itertools import product
from unittest import mock

from blamelogic import game as game_module
from blamelogic.errors import FormatError, ValidationError


def document(rng, n_agents, n_states, n_actions, n_outcomes, n_vars, branching):
    """A total game document with seeded partitions, play order and key order."""
    agents = [f"a{i}" for i in range(n_agents)]
    states = [f"s{i}" for i in range(n_states)]
    actions = [f"d{i}" for i in range(n_actions)]
    outcomes = [f"o{i}" for i in range(n_outcomes)]
    indist = {}
    for agent in agents:
        labels = [rng.randrange(n_states) for _ in states]
        indist[agent] = [[s for s, k in zip(states, labels) if k == b] for b in sorted(set(labels))]
    if rng.random() < 0.2:  # the identity partition by default
        del indist[rng.choice(agents)]
    plays = []
    for state in states:
        for combo in product(actions, repeat=n_agents):
            entries = list(zip(agents, combo))
            for outcome in [o for o in outcomes if rng.random() < branching] or [rng.choice(outcomes)]:
                if rng.random() < 0.3:
                    rng.shuffle(entries)
                plays.append({"state": state, "profile": dict(entries), "outcome": outcome})
    if rng.random() < 0.5:
        rng.shuffle(plays)
    valuation = {
        f"p{v}": sorted(rng.sample(range(len(plays)), rng.randrange(len(plays) + 1)))
        for v in range(n_vars)
    }
    return {"agents": agents, "states": states, "indist": indist, "actions": actions,
            "outcomes": outcomes, "plays": plays, "valuation": valuation}


def mutant(rng, doc):
    """A copy of doc with one seeded edit, most of them faults."""
    doc = json.loads(json.dumps(doc))
    plays = doc["plays"]
    i = rng.randrange(len(plays))
    play = plays[i]
    agent = rng.choice(doc["agents"])
    edits = {
        "unknown state": lambda: play.update(state="sz"),
        "unknown outcome": lambda: play.update(outcome="oz"),
        "unknown action": lambda: play["profile"].update({agent: "dz"}),
        "extra agent": lambda: play["profile"].update(az=doc["actions"][0]),
        "missing agent": lambda: play["profile"].pop(agent),
        "keys reordered": lambda: play.update(profile=dict(reversed(play["profile"].items()))),
        "duplicate play": lambda: plays.append(dict(play)),
        "duplicate, keys reordered": lambda: plays.append(
            {**play, "profile": dict(reversed(play["profile"].items()))}),
        "drop a play": lambda: plays.pop(i),
        "index out of range": lambda: doc["valuation"].setdefault("p0", []).append(
            rng.choice((-1, len(plays)))),
        "state repeated": lambda: doc["states"].append(rng.choice(doc["states"])),
        "agent repeated": lambda: doc["agents"].append(agent),
        "unknown agent in indist": lambda: doc["indist"].update(az=[doc["states"]]),
        "blocks overlap": lambda: doc["indist"].update({agent: [doc["states"], doc["states"][:1]]}),
        "no actions": lambda: doc.update(actions=[]),
        "state not a string": lambda: play.update(state=4),
        "outcome null": lambda: play.update(outcome=None),
        "profile a list": lambda: play.update(profile=list(play["profile"].values())),
        "profile value not a string": lambda: play["profile"].update({agent: 1}),
        "play not an object": lambda: plays.__setitem__(i, list(play.values())),
        "play without a state": lambda: play.pop("state"),
        "bool index": lambda: doc["valuation"].update(p0=[True]),
        "index listed twice": lambda: doc["valuation"].update(p0=[0, 0]),
        "agents not a list": lambda: doc.update(agents="a0"),
        "no plays": lambda: doc.pop("plays"),
    }
    edits[rng.choice(sorted(edits))]()
    return doc


def load(doc):
    """(verdict, the game the loader validated or None)."""
    seen = []
    validate = game_module.validate_game
    with mock.patch.object(game_module, "validate_game", lambda g: seen.append(g) or validate(g)):
        try:
            game_module.load_game(json.dumps(doc))
            verdict = "ok"
        except (FormatError, ValidationError) as e:
            verdict = (type(e).__name__, str(e))
    return verdict, seen[0] if seen else None


def index_view(game):
    m = game._masks
    return (
        m.full,
        list(m.state.items()),
        list(m.act.items()),
        list(m.var.items()),
        [m.index[id(p)] for p in game.plays],
        len(m.index),
        [(tuple(profile.items()), mask) for profile, mask in m.groups.values()],
    )


seed = int(sys.argv[1])
rng = random.Random(seed)
docs = []
for _ in range(1500):
    shape = (rng.randint(1, 4), rng.randint(1, 6), rng.randint(1, 3), rng.randint(1, 3))
    if shape[2] ** shape[0] * shape[1] > 400:  # keep the small documents small
        shape = (1, *shape[1:])
    docs.append(document(rng, *shape, rng.randint(0, 3), rng.choice((0.0, 0.15, 0.4))))
for shape in ((4, 20, 3, 3), (3, 16, 3, 3), (4, 12, 3, 2), (2, 30, 4, 3)):
    docs.append(document(rng, *shape, 3, 0.25))
verdicts, reports, masks = hashlib.sha256(), hashlib.sha256(), hashlib.sha256()
counts = collections.Counter()
for doc in docs:
    for text_doc in [doc] + [mutant(rng, doc) for _ in range(4)]:
        verdict, game = load(text_doc)
        verdicts.update(repr(verdict).encode())
        counts[verdict if verdict == "ok" else verdict[0]] += 1
        if game is not None:
            report = game_module.validate_game(game)
            reports.update(repr((report.violations, report.warnings)).encode())
            masks.update(repr(index_view(game)).encode())
print(seed, "verdicts", verdicts.hexdigest()[:16], "reports", reports.hexdigest()[:16],
      "masks", masks.hexdigest()[:16], dict(sorted(counts.items())))
