"""The README's parameter table is the rule table, row for row, and every
module attribute it names exists."""

import importlib
import pkgutil
import re
from pathlib import Path

import orbit_embed
from orbit_embed.cli import ACTION_KEYS
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


def test_readme_module_names_resolve():
    # each `module.name` in backticks whose module is one of the package's;
    # `action.m` and the other action keys are config paths, not names
    modules = {info.name for info in pkgutil.iter_modules(orbit_embed.__path__)}
    config = {("action", key) for keys in ACTION_KEYS.values() for key in keys}
    names = {(module, name) for module, name
             in re.findall(r"`(\w+)\.(\w+)`", README.read_text(encoding="utf-8"))
             if module in modules} - config
    assert names
    missing = [f"{module}.{name}" for module, name in sorted(names)
               if not hasattr(importlib.import_module(f"orbit_embed.{module}"), name)]
    assert not missing, missing
