"""Digests of formula and proof-script parsing, to compare two checkouts.

Run from a checkout, once per seed:

    PYTHONPATH=src:tests python3 tests/parse_digest.py SEED

It prints four digests and a count of the errors that name no text line:
- formulas: 120,000 seeded token-soup texts, each parsed by parse_formula
  alone and through one warmed script memo (a node is digested as its
  printed text, an error as its message, offset and expected set);
- scripts: format_proof(parse_proof(...)) round trips of three corpus
  scripts and 5,997 random premise scripts with one premise discharged;
- mutants: parse_proof on each of those scripts with one seeded edit, with
  the `line L: ` prefix of an error cut off;
- prefixes: those `line L: ` prefixes alone.

Two checkouts that parse alike print the same line.  The file name has no
`test_` prefix, so pytest does not collect it.
"""

import collections
import hashlib
import random
import re
import sys

from _helpers import random_premise_script

from blamelogic import asset_path, hilbert as h, syntax as s
from blamelogic.errors import ParseError


def outcome(parse, text, show):
    try:
        return show(parse(text))
    except ParseError as e:
        return (str(e), e.offset, sorted(e.expected or ()))
    except ValueError as e:  # not a ParseError: counted apart
        return ("ValueError", str(e))


seed = int(sys.argv[1])
rng = random.Random(seed)
soup = ["p", "q", "K", "B", "true", "false", "x_1", "->", "<->", "<K>", "~", "&", "|", "(", ")",
        "{a,b}", "{", "}", ",", "{}", "-", "<", "$", "@", "1", "_", "\xe9", "\u3000", "\xa0"]
spaces = ["", " ", "  ", "\t", "\n", "\xa0", "\u2028", "\u3000"]
groups = ["(" * n + "p -> q" + ")" * n for n in (1, 3, 150, 190)] + ["(p & (q | K{a}p))", "(~(p -> q))"]
memo = {}
for g in groups:
    outcome(lambda t: s._parse_formula(t, memo), g, s.print_formula)
forms = hashlib.sha256()
for i in range(120_000):
    text = "".join(rng.choice(soup if rng.random() < 0.85 else groups) + rng.choice(spaces)
                   for _ in range(rng.randrange(10)))
    if rng.random() < 0.3:
        n = rng.randrange(190, 205)
        text = "(" * n + text + ")" * (n + rng.choice((-1, 0, 0, 1)))
    a = outcome(s.parse_formula, text, s.print_formula)
    b = outcome(lambda t: s._parse_formula(t, memo), text, s.print_formula)
    forms.update(repr((a, b)).encode())
scripts, mutants, prefixes = hashlib.sha256(), hashlib.sha256(), hashlib.sha256()
unnamed = collections.Counter()
corpus = [h.parse_proof_file(asset_path(n)) for n in ("lemma3.proof", "lemma5.proof", "lemma8.proof")]
for k in range(6000):
    if k < len(corpus):
        script = corpus[k]
    else:
        script, phi = random_premise_script(rng)
        script = h.deduction_transform(script, phi)
    text = h.format_proof(script)
    scripts.update(repr(outcome(h.parse_proof, text, h.format_proof)).encode())
    lines = text.splitlines()
    j = rng.randrange(len(lines))
    pos = rng.randrange(len(lines[j]) + 1)
    edit = rng.choice(soup + ["#", ";", "\n", "mp", "nec 1", "taut", "axiom:"])
    lines[j] = lines[j][:pos] + edit + lines[j][pos + rng.randrange(2):]
    out = outcome(h.parse_proof, "\n".join(lines), h.format_proof)
    if isinstance(out, tuple):  # an error; its `line L: ` prefix is digested apart
        line, msg = re.fullmatch(r"(line \d+: )?(.*)", out[0], re.S).groups()
        unnamed[msg.split(":")[0].split(" on line")[0] if line is None else "named"] += 1
        mutants.update(repr((msg,) + out[1:]).encode())
        prefixes.update(repr(line).encode())
    else:
        mutants.update(repr(out).encode())
print(seed, "formulas", forms.hexdigest()[:16], "scripts", scripts.hexdigest()[:16],
      "mutants", mutants.hexdigest()[:16], "prefixes", prefixes.hexdigest()[:16], dict(unnamed))
