"""The parity set of tools/parity.py: what it runs, and how it compares.

Nothing here runs the set; every lagsurf argv in it must still parse, so a
renamed flag or subcommand fails here rather than as a diff between trees.
"""

from __future__ import annotations

import importlib.util
import pathlib

import pytest

from lagsurf.cli import build_parser

ROOT = pathlib.Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("parity",
                                               ROOT / "tools" / "parity.py")
parity = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(parity)


def test_parity_set_has_its_101_cases():
    cases = parity.cases()
    assert len(cases) == len({tuple(case) for case in cases}) == 101
    demos = [case for case in cases if case[0] != "lagsurf"]
    assert [len(case) for case in demos] == [1] * 5
    for (path,) in demos:
        assert (ROOT / path).is_file(), path


@pytest.mark.parametrize("argv", parity.cli_cases(), ids=" ".join)
def test_every_argv_of_the_set_parses(argv):
    args = build_parser().parse_args(argv)
    assert args.command == argv[0]


def test_differing_lists_changed_missing_and_new_runs():
    def run(argv, exit=0, out="a", err="b"):
        return {"argv": argv, "exit": exit, "stdout": out, "stderr": err}

    reference = [run(["lagsurf", "list"]), run(["lagsurf", "probe"]),
                 run(["demos/x.py"])]
    runs = [run(["lagsurf", "list"]), run(["lagsurf", "probe"], exit=1),
            run(["lagsurf", "scan"])]
    assert parity.differing(runs, reference) == [
        "lagsurf probe: exit differ (exit 0 -> 1)",
        "lagsurf scan: not in the reference",
        "demos/x.py: missing from this run",
    ]
    assert parity.differing(reference, reference) == []
