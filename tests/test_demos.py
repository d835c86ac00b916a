"""The narrative demo scripts and the README's library examples must keep
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
    # every python block under "## Library", in order, in one namespace
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"^```python\n(.*?)^```", section,
                        re.MULTILINE | re.DOTALL)
    assert len(blocks) == 5
    namespace = {"__name__": "__main__"}
    for block in blocks:
        exec(compile(block, "README.md", "exec"), namespace)
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 6
    # the examples' comments: 8*pi to quadrature precision; K through
    # spec.chart up to round-off; the torus's K = 0 and R = 1/sqrt(2)
    assert float(lines[2]) == pytest.approx(8.0 * math.pi, abs=1e-9)
    assert float(lines[3]) == pytest.approx(float(lines[0].split()[0]),
                                            rel=1e-12)
    k_min, k_max, r_min = map(float, lines[4].split())
    assert abs(k_min) < 1e-12 and abs(k_max) < 1e-12
    assert r_min == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-12)
    assert lines[5] == "True []"
