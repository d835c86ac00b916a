"""One benchmark process: import the CLI, say ready, run a job of calls.

Protocol: after ``import lagsurf.cli`` the process writes ``ready`` to
stdout, reads one JSON job from stdin, runs it, and writes one JSON line
per call (``{"record": ...}``) and a last one (``{"result": ...}``).
The parent times spawn-to-ready as set-up and reads peak RSS from
``os.wait4``.  Reports the CLI prints are captured per call, so stdout
carries only this protocol.

Job keys: workload, seed, smoke, edges (run the edge-band calls instead),
skip and limit (window of calls), seconds (start no new op once this much
call time has passed), mode ("plain", "trace" or "alloc"), warmup (run the
first call once untimed) and repeat (run the first call again afterwards
and report its digest).  An empty job exits at once.
"""

import sys

import lagsurf.cli

sys.stdout.write("ready\n")
sys.stdout.flush()

import contextlib  # noqa: E402  (kept out of the set-up measurement)
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402
from tracer import AllocProbe, Tracer  # noqa: E402


def run_call(call) -> dict:
    """Call ``lagsurf.cli.main`` on the call's argv; time only that call."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = lagsurf.cli.main(list(call.argv))
    except SystemExit as exc:  # argparse refuses bad usage this way
        code = exc.code
    except Exception:  # a traceback is a failed call, not a benchmark error
        code = None
        err.write(traceback.format_exc())
    wall = time.perf_counter() - start
    text = out.getvalue()
    if code is None:
        reason = "traceback: " + err.getvalue().strip().splitlines()[-1]
    else:
        try:
            reason = checks.failure(call, code, text, err.getvalue())
        except (KeyError, TypeError, ValueError) as exc:
            reason = f"malformed report: {exc!r}"
    return {"wall": wall, "points": call.points, "argv": list(call.argv),
            "fail": reason,
            "digest": hashlib.sha256(text.encode()).hexdigest()}


def run(job: dict) -> dict:
    calls = workloads.calls(job["workload"], job["seed"], job["smoke"],
                            job["edges"])
    _, first = next(workloads.calls(job["workload"], job["seed"],
                                    job["smoke"], job["edges"]))
    if job["warmup"]:
        run_call(first)
    tracer = probe = None
    if job["mode"] == "trace":
        tracer = Tracer()
        tracer.install()
    elif job["mode"] == "alloc":
        probe = AllocProbe()
        probe.install()
    # records go out as they are made, so the measured process does not
    # grow with the number of calls
    count, last_op, elapsed = 0, None, 0.0
    for index, (op, call) in enumerate(calls):
        if index < job["skip"]:
            continue
        if job["limit"] is not None and count >= job["limit"]:
            break
        if (job["seconds"] is not None and elapsed >= job["seconds"]
                and op != last_op):
            break
        record = run_call(call)
        record["op"] = last_op = op
        emit({"record": record})
        count += 1
        elapsed += record["wall"]
    result = {}
    if job["repeat"]:
        result["repeat_digest"] = run_call(first)["digest"]
    if tracer is not None:
        result["layers"] = tracer.layers()
        result["sites"] = tracer.sites
    if probe is not None:
        result["alloc"] = {"bytes": probe.bytes, "points": probe.points,
                           "largest": probe.largest}
    return result


def emit(line: dict) -> None:
    sys.stdout.write(json.dumps(line) + "\n")
    sys.stdout.flush()


def main() -> None:
    text = sys.stdin.read()
    if text.strip():
        emit({"result": run(json.loads(text))})


if __name__ == "__main__":
    main()
