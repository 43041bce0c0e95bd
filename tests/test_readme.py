"""The README's examples run, and its command-line synopsis matches the parser."""

import argparse
import doctest
import io
import re
from pathlib import Path

from blamelogic.cli import build_parser

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def _fenced(lang, text=README):
    return re.findall(rf"^```{lang}\n(.*?)^```$", text, flags=re.M | re.S)


def test_readme_examples_run_as_one_session():
    # the blocks share names (bl, g, sd), so they run in order in one namespace
    test = doctest.DocTestParser().get_doctest("".join(_fenced("pycon")), {}, "README", None, 0)
    out = io.StringIO()
    result = doctest.DocTestRunner().run(test, out=out.write)
    assert result.attempted >= 7
    assert result.failed == 0, out.getvalue()


def _readme_synopsis():
    """Subcommand -> (required flags, optional flags) from the usage block."""
    block = _fenced("sh", README[README.index("## Command line"):])[0]
    usage = {}
    for line in block.splitlines():
        _, command, rest = line.split(maxsplit=2)
        optional = re.findall(r"--[\w-]+", " ".join(re.findall(r"\[[^\]]*\]", rest)))
        required = re.findall(r"--[\w-]+", re.sub(r"\[[^\]]*\]", "", rest))
        usage[command] = (sorted(required), sorted(optional))
    return usage


def _parser_synopsis():
    parser = build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    usage = {}
    for command, subparser in sub.choices.items():
        flags = [
            (a.option_strings[0], a.required)
            for a in subparser._actions
            if a.option_strings and a.option_strings[0] not in ("-h", "--json")
        ]
        usage[command] = (
            sorted(f for f, required in flags if required),
            sorted(f for f, required in flags if not required),
        )
    return usage


def test_readme_synopsis_matches_the_parser():
    readme, parser = _readme_synopsis(), _parser_synopsis()
    assert list(readme) == list(parser)
    assert len(parser) == 10
    assert readme == parser
