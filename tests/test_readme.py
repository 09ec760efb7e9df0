"""The README's API section lists exactly the package's public names, and
its CLI section every subcommand and long option."""

import argparse
import re
from pathlib import Path

import ranking_market
from ranking_market import cli

README = Path(__file__).resolve().parent.parent / "README.md"


def api_names() -> list[str]:
    """The name each backticked span of the API section starts with. Every
    span there is a public name, optionally followed by its signature."""
    text = README.read_text()
    start = text.index("### API")
    section = text[start:text.index("\n#", start + 1)]
    spans = re.findall(r"`([^`]+)`", section)
    names = []
    for span in spans:
        match = re.fullmatch(r"([A-Za-z_]\w*)(\(.*\))?", span, flags=re.DOTALL)
        assert match, f"backticked text in the API section is not an API name: {span!r}"
        names.append(match.group(1))
    return names


def test_every_public_name_is_in_the_readme():
    documented = set(api_names())
    assert [name for name in ranking_market.__all__ if name not in documented] == []


def test_every_name_in_the_readme_api_section_exists():
    public = set(ranking_market.__all__)
    assert [name for name in api_names() if name not in public] == []
    assert all(hasattr(ranking_market, name) for name in public)


def cli_section() -> str:
    text = README.read_text()
    start = text.index("## CLI")
    return text[start:text.index("\n## ", start + 1)]


def subparsers() -> dict:
    parser = cli._build_parser()
    (action,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return action.choices


def test_the_readme_subcommand_table_lists_exactly_the_cli_subcommands():
    table = re.findall(r"^\| `([\w-]+)` \|", cli_section(), flags=re.MULTILINE)
    assert sorted(table) == sorted(subparsers())


def test_every_long_option_is_in_the_readme_cli_section():
    documented = set(re.findall(r"--[a-z][\w-]*", cli_section()))
    missing = {
        f"{name} {option}"
        for name, parser in subparsers().items()
        for action in parser._actions
        for option in action.option_strings
        if option.startswith("--") and option != "--help" and option not in documented
    }
    assert missing == set()
