"""The parity set of tools/parity.py: what it runs, and how it compares.

Nothing here runs the set; every lagsurf argv in it must still parse, so a
renamed flag or subcommand fails here rather than as a diff between trees.
The argvs kept to show a removed flag must fail to parse instead.
"""

from __future__ import annotations

import importlib.util
import pathlib

import pytest

from helpers import GOLDEN_CONFIGS, STANDARD
from lagsurf.cli import build_parser

ROOT = pathlib.Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("parity",
                                               ROOT / "tools" / "parity.py")
parity = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(parity)


def test_parity_set_has_its_pinned_cases():
    cases = parity.cases()
    assert len(cases) == len({tuple(case) for case in cases}) == 108
    demos = [case for case in cases if case[0] != "lagsurf"]
    assert [len(case) for case in demos] == [1] * 5
    for (path,) in demos:
        assert (ROOT / path).is_file(), path


def test_parity_verify_goldens_are_the_tests_goldens():
    # the set reruns each verify golden's surface at its pinned sizes
    assert parity.GOLDEN == tuple(surface for _, surface in GOLDEN_CONFIGS)
    assert parity.STANDARD == tuple(STANDARD)


@pytest.mark.parametrize("argv", [argv for argv in parity.cli_cases()
                                  if tuple(argv) not in parity.USAGE_ERRORS],
                         ids=" ".join)
def test_every_argv_of_the_set_parses(argv):
    args = build_parser().parse_args(argv)
    assert args.command == argv[0]


@pytest.mark.parametrize("argv", parity.USAGE_ERRORS, ids=" ".join)
def test_each_removed_flag_of_the_set_is_a_usage_error(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(list(argv))
    assert exc.value.code == 2
    assert "unrecognized arguments: " in capsys.readouterr().err


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
