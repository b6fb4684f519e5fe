"""README.md stays true to the code: every ```python block runs, each in a fresh
namespace; every command line of the "Command line" block parses; every --flag
named in inline code is an option of the parser, and every option of the parser
but --help is named in inline code or the command block; every `module.attr`
named in inline code, for a module of the package, resolves."""

import argparse
import importlib
import pkgutil
import re
import shlex
from pathlib import Path

import pytest

import spinmoments
from spinmoments import cli

README = Path(__file__).resolve().parents[1] / "README.md"
TEXT = README.read_text()
BLOCKS = re.findall(r"^```python\n(.*?)^```", TEXT, flags=re.M | re.S)
COMMAND_BLOCK = re.search(r"^## Command line\n\n```\n(.*?)^```", TEXT, flags=re.M | re.S).group(1)
# one command per line: a trailing backslash continues it, '#' starts a comment
COMMANDS = [
    shlex.split(line, comments=True)
    for line in COMMAND_BLOCK.replace("\\\n", " ").splitlines()
    if line.startswith("spinmoments ")
]
INLINE_CODE = re.findall(r"`([^`\n]+)`", re.sub(r"^```.*?^```", "", TEXT, flags=re.M | re.S))


def _parser_options() -> set[str]:
    """Every option string of the parser and of its subcommands."""
    parser = cli.build_parser()
    subparsers = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    options = set(parser._option_string_actions)
    for sub in subparsers.choices.values():
        options |= set(sub._option_string_actions)
    return options


def test_readme_blocks_are_found():
    assert len(BLOCKS) >= 2
    assert len(COMMANDS) >= 5
    assert {argv[1] for argv in COMMANDS} == {"eval", "verify", "scan", "min-sites", "cj-table"}


@pytest.mark.parametrize("index", range(len(BLOCKS)))
def test_readme_block_runs(index):
    exec(compile(BLOCKS[index], f"README.md python block {index + 1}", "exec"), {})


@pytest.mark.parametrize("argv", COMMANDS, ids=[" ".join(argv[1:3]) for argv in COMMANDS])
def test_readme_command_lines_parse(argv):
    assert argv[0] == "spinmoments"
    cli.config_from_args(cli.build_parser().parse_args(argv[1:]))


def _flags(texts) -> set[str]:
    return {flag for text in texts for flag in re.findall(r"(?<![\w-])--[a-z][\w-]*", text)}


def test_readme_flags_are_parser_options():
    named = _flags(INLINE_CODE)
    assert named, "the README names no --flag in inline code"
    assert named <= _parser_options(), sorted(named - _parser_options())


def test_parser_options_are_in_the_readme():
    named = _flags(INLINE_CODE) | _flags(arg for argv in COMMANDS for arg in argv)
    missing = _parser_options() - {"-h", "--help"} - named
    assert not missing, sorted(missing)


MODULES = {info.name for info in pkgutil.iter_modules(spinmoments.__path__)}


def _module_attrs(code: str) -> list[tuple[str, str]]:
    """The (module, attr) pairs of ``module.attr`` or ``spinmoments.module.attr`` in
    one inline code span, for the package's modules; ``module.py`` is a file name."""
    pairs = re.findall(r"(?<![\w.])(?:spinmoments\.)?([a-z_]+)\.([A-Za-z_]\w*)", code)
    return [(module, attr) for module, attr in pairs if module in MODULES and attr != "py"]


def test_module_attrs_lint_reads_names():
    assert _module_attrs("oracle.expect_table") == [("oracle", "expect_table")]
    assert _module_attrs("spinmoments.states.support_vector(state)") == [("states", "support_vector")]
    assert _module_attrs("oracle.py") == _module_attrs("numpy.linalg") == []


def test_readme_module_attrs_resolve():
    named = {pair for code in INLINE_CODE for pair in _module_attrs(code)}
    assert named, "the README names no module.attr in inline code"
    missing = sorted(f"{m}.{a}" for m, a in named if not hasattr(importlib.import_module(f"spinmoments.{m}"), a))
    assert not missing, missing
