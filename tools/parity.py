"""Run the parity set and hash what each run prints.

Each case runs in a fresh Python process against the ``src/`` of one tree
and gives one JSON line: its argv, its exit code, and the sha256 of its
stdout and of its stderr.  Two trees whose reports are byte-identical give
the same lines, so a refactor that promises unchanged output can show it:

    python tools/parity.py --root OLD_TREE > old.jsonl
    python tools/parity.py --against old.jsonl

The second call runs the current tree and prints the runs whose exit code
or output differ from ``old.jsonl`` (exit status 1 if any do).  A case is
an argv of the ``lagsurf`` command, or the path of a demo script.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# the verify goldens' surfaces and pinned sizes (tests/golden/*.json)
GOLDEN = ("whitney-c2", "whitney-cp2(0.5)", "whitney-ch2(0.5)",
          "totally-geodesic-cp2", "psi-ch2(0.3)", "eta-ch2", "clifford-torus",
          "product-torus(1,2)")
STANDARD = ("--grid", "64x64", "--quad", "128x256", "--seed", "0")
# every kind, at the parameters the tests pin
SURFACES = ("whitney-c2", "whitney-cp2(0)", "whitney-cp2(0.5)",
            "whitney-cp2(2)", "whitney-ch2(0.5)", "whitney-ch2(2)",
            "totally-geodesic-cp2", "psi-ch2(0)", "psi-ch2(0.3)",
            "psi-ch2(0.7)", "eta-ch2", "clifford-torus",
            "product-torus(1,1)", "product-torus(1,2)")
POINTS = (("1.0", "0.5"), ("0.4", "1.1"))
# cases run at once, each in its own process
JOBS = 2
# argvs that stopped parsing on purpose, each a usage error (exit 2) now:
# the family-parameter flags went, and a parameter is given inline
USAGE_ERRORS = (("verify", "--surface", "whitney-cp2", "--t", "0.5",
                 "--grid", "8x8"),)
DEMOS = ("01_catalog_tour.py", "02_ellipse_of_curvature.py",
         "03_curvature_scan.py", "04_willmore_gallery.py",
         "05_clifford_pinching.py")


def cli_cases() -> list[list[str]]:
    """The argv (after ``lagsurf``) of every command-line case."""
    cases = [["list"], ["list", "--json"]]
    cases += [["verify", "--surface", s, *STANDARD] for s in GOLDEN]
    # a failing check (exit 1), a degenerate frame (exit 2), and curvature
    # concentrated on a scale of about t (exit 1, gauss_routes passes)
    cases += [["verify", "--surface", "psi-ch2(0.764)"],
              ["verify", "--surface", "whitney-cp2(7)"],
              ["verify", "--surface", "whitney-ch2(0.005)"],
              # next to the sphere chart's pole
              ["probe", "--surface", "whitney-c2", "0.0005", "1.0"],
              # negative coordinates that argparse alone reads as flags
              ["probe", "--surface", "eta-ch2", "-1e-3", "0.5"],
              ["ellipse", "--surface", "clifford-torus", "0.4", "-pi/3"],
              # one over a size cap, each refused as the options are read
              ["willmore", "--surface", "whitney-c2", "--quad", "2049x2"],
              ["ellipse", "--surface", "clifford-torus", "--angles", "65537",
               "0.4", "1.1"]]
    cases += [list(argv) for argv in USAGE_ERRORS]
    for s in SURFACES:
        cases += [["probe", "--surface", s, *p] for p in POINTS]
        cases += [["ellipse", "--surface", s, "--format", fmt, *POINTS[1]]
                  for fmt in ("json", "csv")]
        cases += [["scan", "--surface", s, "--grid", "100x77"],
                  ["willmore", "--surface", s, "--quad", "64x128"]]
    return cases


def cases() -> list[list[str]]:
    """Every case: ``lagsurf`` argvs, then the demo scripts."""
    return ([["lagsurf", *argv] for argv in cli_cases()]
            + [[f"demos/{name}"] for name in DEMOS])


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run(case: list[str], root: Path) -> dict:
    """One case in a fresh process, with root/src first on the path."""
    if case[0] == "lagsurf":
        cmd = [sys.executable, "-m", "lagsurf.cli", *case[1:]]
    else:
        cmd = [sys.executable, str(root / case[0])]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.run(cmd, cwd=root, env=env, capture_output=True)
    return {"argv": case, "exit": proc.returncode,
            "stdout": _sha(proc.stdout), "stderr": _sha(proc.stderr)}


def differing(runs: list[dict], reference: list[dict]) -> list[str]:
    """One line per case whose run differs from the reference's, or that
    only one side has."""
    ref = {json.dumps(r["argv"]): r for r in reference}
    out = []
    for r in runs:
        key = json.dumps(r["argv"])
        old = ref.pop(key, None)
        if old is None:
            out.append(f"{' '.join(r['argv'])}: not in the reference")
            continue
        moved = [part for part in ("exit", "stdout", "stderr")
                 if r[part] != old[part]]
        if moved:
            out.append(f"{' '.join(r['argv'])}: {', '.join(moved)} differ"
                       f" (exit {old['exit']} -> {r['exit']})")
    out += [f"{' '.join(old['argv'])}: missing from this run"
            for old in ref.values()]
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=Path, default=ROOT,
                        help="tree whose src/ and demos/ run (default: this "
                             "checkout)")
    parser.add_argument("--against", type=Path,
                        help="JSON lines of an earlier run: print the runs "
                             "that differ from it instead")
    args = parser.parse_args(argv)
    root = args.root.resolve()
    with ThreadPoolExecutor(max_workers=JOBS) as pool:
        runs = list(pool.map(lambda case: run(case, root), cases()))
    if args.against is None:
        for r in runs:
            print(json.dumps(r))
        return 0
    reference = [json.loads(line) for line in
                 args.against.read_text(encoding="utf-8").splitlines()
                 if line.strip()]
    diff = differing(runs, reference)
    print(f"parity: {len(runs) - len(diff)} of {len(runs)} runs identical"
          if not diff else f"parity: {len(diff)} of {len(runs)} runs differ")
    for line in diff:
        print(f"- {line}")
    return 1 if diff else 0


if __name__ == "__main__":
    sys.exit(main())
