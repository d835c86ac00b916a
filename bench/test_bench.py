"""The benchmark's own tests: smoke-size runs and its input generator.

Run with ``python3 -m pytest bench``.  Nothing here asserts a timing.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_smoke_run_reports_every_metric(workload, trace):
    proc = run_bench(ROOT, "--workload", workload, "--seed", "3",
                     "--seconds", "1", "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    report, last = (json.loads(line)
                    for line in proc.stdout.strip().splitlines()[-2:])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0
    assert last["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in last["metrics"].items()}
    assert report["workload"] == workload and report["argv"]
    if trace:
        assert report["predictions"]
    else:
        assert report["edge_bands"]["attempted"] >= 1


def test_benchmark_json_matches_the_workloads():
    for w in SPEC["workloads"]:
        assert w["why"] == workloads.WORKLOADS[w["name"]].why
    layers = {m["name"] for m in SPEC["per_layer"]}
    for boundary in tracer.BOUNDARIES:
        for suffix in ("calls", "points", "self_s"):
            assert f"{boundary}.{suffix}" in layers


def test_inputs_depend_only_on_the_seed():
    def first(seed, n=40):
        calls = workloads.calls("probe-points", seed)
        return [calls.__next__()[1].argv for _ in range(n)]

    assert first(7) == first(7)
    assert first(7) != first(8)


def test_timed_draws_stay_inside_declared_domains():
    for family in workloads.FAMILIES:
        for lo, hi in family.interior:
            assert lo < hi
        for seed in range(20):
            calls = workloads.calls("verify-catalog", seed)
            for _, call in (next(calls) for _ in range(8)):
                if call.family == family.token:
                    assert all(lo <= p <= hi for p, (lo, hi) in
                               zip(call.params, family.interior))


def test_requested_points_count_inputs():
    assert workloads.requested_points(
        ["verify", "--surface", "eta-ch2", "--grid", "64x64",
         "--quad", "128x256"]) == 64 * 64 + 128 * 256
    assert workloads.requested_points(
        ["probe", "--surface", "eta-ch2", "0.1", "0.2"]) == 1


def test_checks_catch_each_kind_of_failure():
    _, call = next(workloads.calls("verify-catalog", 1))
    assert call.family == "whitney-c2"
    good = {"pass": True, "checks": [], "K_range": [0.0, 1.0],
            "willmore": {"w": 8.0 * math.pi}}

    def why(code, **changes):
        return checks.failure(call, code, json.dumps({**good, **changes}), "")

    assert why(0) is None
    assert "contract" in why(3)
    assert "failed checks" in why(1, **{"pass": False})
    assert "K values" in why(0, K_range=[0.0, 1.001])
    assert "Willmore" in why(0, willmore={"w": 8.0 * math.pi + 1e-3})


def test_tracer_refuses_a_missing_boundary(monkeypatch):
    import lagsurf.cli  # noqa: F401  (loads every lagsurf module)
    import lagsurf.geom

    before = lagsurf.geom.point_geometry
    monkeypatch.setitem(tracer.BOUNDARIES, "geom.renamed",
                        ("geom", ("no_such_function",), lambda a, r: 0))
    with pytest.raises(tracer.TracerError, match="no_such_function"):
        tracer.Tracer().install()
    assert lagsurf.geom.point_geometry is before


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(tmp_path, "--workload", "probe-points", "--seed", "1",
                     "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout == ""
