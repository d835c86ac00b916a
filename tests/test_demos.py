"""The narrative demo scripts and the README's library example must keep
running as the library evolves."""

from __future__ import annotations

import math
import pathlib
import re
import runpy

import pytest

ROOT = pathlib.Path(__file__).parent.parent
DEMO_DIR = ROOT / "demos"
DEMOS = sorted(DEMO_DIR.glob("0*.py"))


def test_demo_inventory():
    assert len(DEMOS) == 5


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.stem)
def test_demo_runs_clean(path, capsys):
    runpy.run_path(str(path), run_name="__main__")
    out = capsys.readouterr().out
    assert len(out.splitlines()) > 5  # narrative output, not silence


def test_readme_library_example_runs(capsys):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = re.search(r"^## Library\n+```python\n(.*?)^```", readme,
                      re.MULTILINE | re.DOTALL).group(1)
    exec(compile(block, "README.md", "exec"), {"__name__": "__main__"})
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 3
    # the example's comment: 8*pi to quadrature precision
    assert float(lines[2]) == pytest.approx(8.0 * math.pi, abs=1e-9)
