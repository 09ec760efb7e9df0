"""The README's API section lists exactly the package's public names."""

import re
from pathlib import Path

import ranking_market

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
