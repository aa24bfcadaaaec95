import argparse
import re
import types
from pathlib import Path

import pytest

import meterdelta
from meterdelta.cli import build_parser


def test_all_lists_exactly_the_public_names():
    public = {name for name, value in vars(meterdelta).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert sorted(meterdelta.__all__) == sorted(public)
    namespace = {}
    exec("from meterdelta import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(meterdelta.__all__)


def test_readme_cli_flags_match_the_parser():
    parser = build_parser()
    (subcommands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    options = {flag for sub in subcommands.choices.values() for action in sub._actions
               for flag in action.option_strings if flag.startswith("--")} - {"--help"}
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    cli = readme.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    documented = set(re.findall(r"(?<![\w-])--[a-z][a-z0-9-]*", cli))
    assert sorted(documented - options) == []  # README names no flag the parser lacks
    assert sorted(options - documented) == []  # and leaves none out


def test_version_matches_pyproject():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11 and later
    pyproject = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text(encoding="utf-8")
    assert meterdelta.__version__ == tomllib.loads(pyproject)["project"]["version"]
