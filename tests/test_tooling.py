"""pyproject.toml's `test` extra and the CI workflow pin the same test
dependencies: a new hypothesis release can change what the derandomized
tests draw, so a local install from the extra must match CI's.

Both files are read as text, as tomllib is not in Python 3.10.
"""

import os
import re

ROOT = os.path.join(os.path.dirname(__file__), "..")
_PIN = re.compile(r"([A-Za-z0-9_.-]+)==([^\s\"',\]]+)")


def _pins(path: str, line_start: str) -> dict[str, str]:
    """{package: version} of the `name==version` pins on the one line of
    path that starts, after indentation, with line_start."""
    with open(os.path.join(ROOT, path), encoding="utf-8") as handle:
        lines = [line for line in handle if line.lstrip().startswith(line_start)]
    assert len(lines) == 1, lines
    return dict(_PIN.findall(lines[0]))


def test_ci_installs_the_pins_of_the_test_extra():
    extra = _pins("pyproject.toml", "test = [")
    ci = _pins(os.path.join(".github", "workflows", "tier1.yml"), "run: pip install ")
    assert set(extra) == {"pytest", "hypothesis"}
    assert extra == ci
