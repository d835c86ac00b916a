"""What makes one CLI call fail.

A call fails when its exit code is not 0 (1 is a failed check, 2 a refused
input, anything else breaks the 0/1/2 contract), when it raises, when its
report says ``"pass": false``, or when it misses the family's closed-form
Gauss curvature range or Willmore energy under the program's own
``lagsurf.cli.TOLERANCES``.  A report that differs between two runs of the
same call is judged by the caller, which holds both digests.
"""

from __future__ import annotations

import json

from lagsurf.cli import TOLERANCES

from workloads import BY_TOKEN, Call


# Gauss curvature values each report states, by subcommand.
_K_VALUES = {
    "verify": lambda report: report["K_range"],
    "scan": lambda report: [report["K_min"], report["K_max"]],
    "probe": lambda report: [report["K"]],
}


def failure(call: Call, code, out: str, err: str) -> str | None:
    """Why ``call`` failed, or None when it passed every check."""
    if code not in (0, 1, 2):
        return f"exit {code!r} breaks the 0/1/2 contract: {err.strip()[-200:]}"
    if code == 2:
        return f"exit 2: {err.strip()[-200:]}"
    report = json.loads(out)
    if code == 1 or report.get("pass") is False:
        bad = [c["name"] for c in report.get("checks", ()) if not c["pass"]]
        return f"exit {code}: failed checks {', '.join(bad)}"
    family = BY_TOKEN[call.family]
    cmd = call.command
    if family.k_range and cmd in _K_VALUES:
        lo, hi = family.k_range(*call.params)
        tol = TOLERANCES["curvature_range"]
        values = _K_VALUES[cmd](report)
        if any(v < lo - tol or v > hi + tol for v in values):
            return f"K values {values} leave [{lo!r}, {hi!r}]"
    if cmd == "ellipse" and family.circular and \
            report["fit_residual"] > TOLERANCES["ellipse_fit"]:
        return f"ellipse fit residual {report['fit_residual']:.3e}"
    if cmd in ("verify", "willmore") and family.willmore:
        value, tol_name = family.willmore(*call.params)
        got = report["willmore"]["w"] if cmd == "verify" else report["w"]
        if abs(got - value) > TOLERANCES[tol_name]:
            return f"Willmore energy {got!r} misses {value!r}"
    return None
