"""The README's parameter table is the rule table, row for row."""

import re
from pathlib import Path

from orbit_embed.errors import PARAMS

README = Path(__file__).parent.parent / "README.md"


def parameter_table_names() -> list[str]:
    # the first column of the table whose header starts with "| parameter"
    lines = README.read_text(encoding="utf-8").splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith("| parameter"))
    names = []
    for line in lines[start + 2:]:
        if not line.startswith("|"):
            break
        names.append(re.fullmatch(r"\|\s*`([^`]+)`\s*\|.*", line).group(1))
    return names


def test_readme_parameter_table_lists_the_rule_table():
    names = parameter_table_names()
    assert len(names) == len(set(names))
    assert set(names) == set(PARAMS)
