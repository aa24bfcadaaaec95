import argparse
import ast
import os
import re
import subprocess
import sys
import types
from pathlib import Path

import pytest

import meterdelta
from meterdelta import cli
from meterdelta.cli import build_parser


def test_all_lists_exactly_the_public_names():
    public = {name for name, value in vars(meterdelta).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert sorted(meterdelta.__all__) == sorted(public)
    namespace = {}
    exec("from meterdelta import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(meterdelta.__all__)


def test_every_public_name_is_used_outside_the_tests():
    # a name only tests call belongs in tests/, not in the package's surface
    root = Path(__file__).resolve().parents[1]
    files = [p for p in sorted((root / "src" / "meterdelta").glob("*.py")) if p.name != "__init__.py"]
    files += sorted((root / "demos").glob("*.py")) + sorted((root / "bench").glob("*.py"))
    used = set()
    for path in files:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    assert sorted(set(meterdelta.__all__) - used) == []


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


def test_importing_the_cli_loads_neither_decimal_nor_the_thread_pool():
    # a REDD sweep never parses CSV timestamps, and stats never starts a scorer thread
    code = "import sys, meterdelta.cli; print(sorted({'decimal', 'concurrent.futures'} & set(sys.modules)))"
    env = {**os.environ, "PYTHONPATH": str(Path(meterdelta.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stdout, done.stderr) == (0, "[]\n", "")


def test_console_script_ends_the_process_as_python_m_does():
    tomllib = pytest.importorskip("tomllib")
    pyproject = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text(encoding="utf-8")
    module, _, name = tomllib.loads(pyproject)["project"]["scripts"]["meterdelta"].partition(":")
    assert module == "meterdelta.cli"
    # main returns its exit code to an in-process caller; the script's target ends the process
    assert callable(getattr(cli, name)) and getattr(cli, name) is not cli.main
