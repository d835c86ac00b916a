"""Benchmark for lagsurf: seeded workloads through the public CLI.

Usage, from the root of a source checkout (nothing needs installing):

    python3 bench/run.py --workload probe-points --seed 1 --seconds 55 \\
        --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off; ``--trace
1`` makes a separate traced run and reports per-layer metrics.  ``--smoke``
shrinks every grid so the benchmark's own tests finish in seconds; smoke
numbers are not comparable with full ones.  The last stdout line is one
JSON object with keys correct, attempted, failed and metrics; the line
before it is the full report (environment, tail latency, failures with
their argv, the generated argv, edge-band results, trace predictions).

Every op runs in a child process (child.py) that the parent reaps with
``os.wait4``, so peak RSS belongs to exactly the process that ran the ops.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import numpy

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from tracer import BOUNDARIES  # noqa: E402

# Children get one BLAS/OpenMP thread each: the program's linear algebra is
# on tiny batched systems, and one thread keeps runs steady on a shared box.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS")
SETUP_SPAWNS = 7
CHILD_TIMEOUT_S = 170.0
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0)


class BenchError(RuntimeError):
    """The benchmark itself could not run or could not trust a result."""


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]]
                               if env.get("PYTHONPATH") else []))
    env.update({name: "1" for name in THREAD_VARS})
    return env


@dataclass
class Child:
    ready_s: float
    wall_s: float
    rss_mb: float
    result: dict | None


def spawn(job: dict | None, env: dict[str, str]) -> Child:
    """Run one child.py process to completion and reap it with wait4."""
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(HERE / "child.py")],
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            cwd=ROOT, env=env)
    timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        line = proc.stdout.readline()
        ready = time.perf_counter() - start
        try:
            proc.stdin.write(json.dumps(job).encode() if job else b"")
            proc.stdin.close()
        except BrokenPipeError:
            pass
        body = proc.stdout.read()
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
    finally:
        timer.cancel()
    if line != b"ready\n" or proc.returncode != 0:
        raise BenchError(f"child process failed (exit {proc.returncode}); "
                         "its error is printed above")
    result = None
    if job:
        lines = [json.loads(line) for line in body.splitlines()]
        result = lines[-1]["result"]
        result["records"] = [line["record"] for line in lines[:-1]]
    # ru_maxrss is in KiB on Linux
    return Child(ready, wall, usage.ru_maxrss * 1024 / 1e6, result)


def job(args, **overrides) -> dict:
    base = {"workload": args.workload, "seed": args.seed, "smoke": args.smoke,
            "edges": False, "skip": 0, "limit": None, "seconds": None,
            "mode": "plain", "warmup": False, "repeat": False}
    base.update(overrides)
    return base


def run_calls(args, env, seconds=None, limit=None, mode="plain",
              edges=False, repeat=False):
    """Run the workload's calls; stop at an op boundary after ``seconds``.

    In-process workloads run every call in one child, after one untimed
    warm-up call.  The others spawn one child per call and time it from
    spawn to exit, start-up included, as a user of the CLI would wait.
    Edge-band calls are judged, not timed, so they always share one child.
    Returns (call records, peak RSS in MB, the children's results).
    """
    if edges or workloads.WORKLOADS[args.workload].in_process:
        child = spawn(job(args, seconds=seconds, limit=limit, mode=mode,
                          edges=edges, warmup=not edges, repeat=repeat), env)
        return child.result["records"], child.rss_mb, [child.result]
    records, rss, results, elapsed = [], 0.0, [], 0.0
    for index, (op, _) in enumerate(workloads.calls(
            args.workload, args.seed, args.smoke, edges)):
        if limit is not None and len(records) >= limit:
            break
        if seconds is not None and elapsed >= seconds \
                and op != records[-1]["op"]:
            break
        child = spawn(job(args, skip=index, limit=1, mode=mode, edges=edges),
                      env)
        record = child.result["records"][0]
        record["wall"] = child.wall_s
        records.append(record)
        results.append(child.result)
        rss = max(rss, child.rss_mb)
        elapsed += child.wall_s
    if repeat:
        again = spawn(job(args, limit=1), env).result
        results[0]["repeat_digest"] = again["records"][0]["digest"]
    return records, rss, results


def ops(records: list[dict]) -> list[dict]:
    """Fold call records into ops: summed wall and points, any failure."""
    out: dict[int, dict] = {}
    for r in records:
        op = out.setdefault(r["op"], {"wall": 0.0, "points": 0, "fail": []})
        op["wall"] += r["wall"]
        op["points"] += r["points"]
        if r["fail"]:
            op["fail"].append(r["fail"])
    return list(out.values())


def tail_latency(ordered: list[float]) -> dict:
    """Highest standard percentile with at least ten samples beyond it."""
    n = len(ordered)
    for p in TAIL_PERCENTILES:
        rank = math.ceil(n * p / 100.0)
        if n - rank >= 10:
            return {"percentile": p, "value_s": ordered[rank - 1], "n": n,
                    "beyond": n - rank}
    return {"omitted": f"n={n} ops leave fewer than 10 beyond p75", "n": n}


def failures(records: list[dict]) -> list[dict]:
    return [{"argv": "lagsurf " + " ".join(r["argv"]), "why": r["fail"]}
            for r in records if r["fail"]]


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def plain_run(args, env) -> tuple[dict, dict]:
    setups = [spawn(None, env).ready_s
              for _ in range(2 if args.smoke else SETUP_SPAWNS)]
    records, rss, results = run_calls(args, env, seconds=args.seconds,
                                      repeat=True)
    if results[0]["repeat_digest"] != records[0]["digest"] \
            and not records[0]["fail"]:
        records[0]["fail"] = "report differs when the call is repeated"
    done = ops(records)
    ok = [op for op in done if not op["fail"]]
    walls = sorted(op["wall"] for op in done)
    wall = sum(walls)
    metrics = {
        "setup_s": metric(statistics.median(setups), "s"),
        "ops_per_s": metric(len(ok) / wall, "1/s"),
        # the fast end of the latency distribution: on a shared machine the
        # slow end follows other tenants' load more than this program
        "latency_p10_s": metric(walls[math.ceil(0.1 * len(walls)) - 1], "s"),
        "grid_points_per_s": metric(sum(op["points"] for op in ok) / wall,
                                    "1/s"),
        "peak_rss_mb": metric(rss, "MB"),
    }
    edge_records = run_calls(args, env, edges=True)[0]
    report = {
        "setup_samples_s": setups,
        "latency_p50_s": metric(statistics.median(walls), "s"),
        "latency_tail_s": tail_latency(walls),
        "failed_ops_frac": {
            "timed": (len(done) - len(ok)) / len(done),
            "edge_bands": sum(1 for r in edge_records if r["fail"])
            / len(edge_records),
        },
        "failing_argv": failures(records),
        "edge_bands": {"attempted": len(edge_records),
                       "failing_argv": failures(edge_records)},
        "argv": ["lagsurf " + " ".join(r["argv"]) for r in records],
    }
    return metrics, {"ops": done, "report": report}


def merge_layers(extras: list[dict]) -> dict:
    total: dict = {}
    for extra in extras:
        for name, row in extra["layers"].items():
            into = total.setdefault(name, {})
            for key, value in row.items():
                into[key] = into.get(key, 0) + value
    return total


def predictions(workload: str, layers: dict, wall: float,
                alloc_mb: float, rss_mb: float) -> list[dict]:
    """The trace-checkable predictions this workload can confirm or refute.

    ``alloc_mb`` is the largest point_geometry allocation peak and
    ``rss_mb`` the untraced peak RSS of the same workload.
    """
    share = {name: row["self_s"] / wall for name, row in layers.items()}
    top = max(share, key=share.get)
    split = share["ambient.second_form_split"]
    out = []
    if workload in ("verify-catalog", "scan-large"):
        out.append(("ambient.second_form_split has the largest self share "
                    f"(largest: {top}, {share[top]:.3f})",
                    top == "ambient.second_form_split"))
    if workload == "probe-points":
        out.append((f"ambient.second_form_split self share {split:.3f} is "
                    "under a tenth", split < 0.1))
    if workload in ("verify-catalog", "probe-points"):
        ell = share["geom.ellipse_samples"]
        out.append((f"geom.ellipse_samples does measurable work "
                    f"(self share {ell:.3f})", ell > 0.0))
    if workload == "scan-large":
        small = sum(share[b] for b in (
            "cli.main", "catalog.lift_at", "atlas.coords",
            "geom.gauss_curvature_intrinsic"))
        out.append((f"cli.main + catalog.lift_at + atlas.coords + intrinsic K "
                    f"self share {small:.3f} is under a tenth", small < 0.1))
        scans = share["scans.curvature_scan"] + share["scans.willmore"]
        out.append((f"scans.* do measurable work (self share {scans:.3f})",
                    scans > 0.0))
        out.append((f"point_geometry allocation ({alloc_mb:.0f} MB) is most "
                    f"of peak RSS ({rss_mb:.0f} MB)", alloc_mb > 0.5 * rss_mb))
    if workload == "probe-points":
        out.append((f"point_geometry allocation ({alloc_mb:.3f} MB) is under "
                    f"1% of peak RSS ({rss_mb:.0f} MB)",
                    alloc_mb < 0.01 * rss_mb))
    return [{"prediction": text, "holds": bool(ok)} for text, ok in out]


def traced_run(args, env) -> tuple[dict, dict]:
    budget = args.seconds
    base, rss, _ = run_calls(args, env, seconds=0.4 * budget)
    traced, _, trace_extras = run_calls(args, env, limit=len(base),
                                        mode="trace")
    alloc, _, alloc_extras = run_calls(args, env, seconds=0.1 * budget,
                                       mode="alloc")
    layers = merge_layers(trace_extras)
    reached = {b for b, row in layers.items() if row["calls"] > 0}
    missing = [b for b in workloads.WORKLOADS[args.workload].reaches
               if b not in reached]
    if missing:
        raise BenchError(f"{args.workload} must reach {', '.join(missing)} "
                         "but recorded no span there; a boundary was renamed "
                         "or the workload no longer exercises it")
    base_wall = sum(r["wall"] for r in base)
    wall = sum(r["wall"] for r in traced)
    self_total = sum(row["self_s"] for row in layers.values())
    alloc_bytes = sum(e["alloc"]["bytes"] for e in alloc_extras)
    alloc_points = sum(e["alloc"]["points"] for e in alloc_extras)

    def ratio(num, den):
        return num / den if den else 0.0

    metrics = {}
    for name in BOUNDARIES:
        row = layers[name]
        metrics[f"{name}.calls"] = metric(row["calls"], "count")
        metrics[f"{name}.points"] = metric(row["points"], "count")
        metrics[f"{name}.self_s"] = metric(row["self_s"], "s")
    for name in ("ambient.second_form_split", "catalog.lift_at"):
        metrics[f"{name}.pts_per_s"] = metric(
            ratio(layers[name]["points"], layers[name]["self_s"]), "1/s")
    gauss = layers["geom.gauss_curvature_intrinsic"]
    metrics["geom.gauss_curvature_intrinsic.lift_points_per_result"] = metric(
        ratio(layers["catalog.lift_at"]["points_in_gauss"], gauss["points"]),
        "ratio")
    metrics["geom.point_geometry.alloc_bytes_per_pt"] = metric(
        ratio(alloc_bytes, alloc_points), "B")
    metrics["trace.overhead_frac"] = metric(ratio(wall, base_wall) - 1.0,
                                            "ratio")
    metrics["trace.unattributed_s"] = metric(wall - self_total, "s")
    metrics["trace.wall_s"] = metric(wall, "s")
    report = {
        "phases": {"untraced_ops": len(base), "traced_ops": len(traced),
                   "alloc_ops": len(alloc), "untraced_wall_s": base_wall},
        "predictions": predictions(
            args.workload, layers, wall,
            max(e["alloc"]["largest"] for e in alloc_extras) / 1e6, rss),
        "wrapped_at": trace_extras[0]["sites"],
        "failing_argv": failures(base + traced + alloc),
        "argv": ["lagsurf " + " ".join(r["argv"]) for r in traced],
    }
    return metrics, {"ops": ops(base) + ops(traced) + ops(alloc),
                     "report": report}


def environment() -> dict:
    llc = None
    cache = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(cache.glob("index*")):
        try:
            if (index / "level").read_text().strip() == "3":
                llc = (index / "size").read_text().strip()
        except OSError:
            pass
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": len(os.sched_getaffinity(0)), "llc": llc,
            "child_threads": {name: "1" for name in THREAD_VARS}}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny grids for the benchmark's own tests")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "lagsurf" / "cli.py").is_file():
        print(f"error: no lagsurf source tree at {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    env = child_env()
    try:
        run = traced_run if args.trace else plain_run
        metrics, detail = run(args, env)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    done = detail["ops"]
    failed = sum(1 for op in done if op["fail"])
    report = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "smoke": args.smoke, "environment": environment(),
              **detail["report"]}
    for item in report["failing_argv"]:
        print(f"FAILED {item['argv']}: {item['why']}", file=sys.stderr)
    for item in report.get("edge_bands", {}).get("failing_argv", ()):
        print(f"edge band fails: {item['argv']}: {item['why']}",
              file=sys.stderr)
    for item in report.get("predictions", ()):
        if not item["holds"]:
            print(f"PREDICTION FAILS: {item['prediction']}", file=sys.stderr)
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}", file=sys.stderr)
    print(json.dumps(report))
    print(json.dumps({"correct": failed == 0, "attempted": len(done),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
