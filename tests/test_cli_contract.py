"""The exit-code contract as a property: whatever the surface, its inline
parameters, the chart point and the sizes, a command exits 0, 1 or 2, ends
in no traceback and lets no RuntimeWarning escape, and an exit 2 prints
exactly one stderr line."""

from __future__ import annotations

import contextlib
import io
import warnings

from hypothesis import given, settings, strategies as st

from lagsurf.catalog import FAMILIES
from lagsurf.cli import main

# every kind, and the command-line alias of the one that has it
NAMES = {**{kind: kind for kind in FAMILIES},
         **{f.alias: kind for kind, f in FAMILIES.items() if f.alias}}
COMMANDS = ("probe", "ellipse", "verify", "scan", "willmore")
# what each command reads besides the surface: a chart point, or sizes
SIZES = {"verify": ("--grid", "--quad"), "scan": ("--grid",),
         "willmore": ("--quad",)}

# magnitudes from 1e-300 to 1e150, written as repr gives them
_MAGNITUDE = st.builds(lambda m, k: repr(m * 10.0 ** k),
                       st.floats(1.0, 9.999), st.integers(-300, 150))
# the declared domains' edges and insides: t >= 0 (t > 0 on whitney-ch2),
# 0 <= s < pi/4, r1, r2 > 0; and pi, e and bracketed forms
_EDGES = st.sampled_from(["0", "0.0", "1", "0.5", "2", "pi/4", "pi/4-1e-15",
                          "pi", "pi/3", "2*pi/7", "e", "(1+2)/10", "1e-3",
                          "0.764"])
_SMALL = st.floats(0.0, 6.0).map(repr)
NUMBER = st.builds(lambda sign, text: sign + text,
                   st.sampled_from(["", "-", "+"]),
                   st.one_of(_EDGES, _SMALL, _MAGNITUDE))
ORDERS = st.builds("{}x{}".format, st.integers(2, 8), st.integers(2, 8))


@st.composite
def argvs(draw):
    command = draw(st.sampled_from(COMMANDS))
    name = draw(st.sampled_from(sorted(NAMES)))
    family = FAMILIES[NAMES[name]]
    values = draw(st.lists(NUMBER, max_size=len(family.params)))
    surface = f"{name}({','.join(values)})" if values else name
    argv = [command, "--surface", surface]
    for flag in SIZES.get(command, ()):
        argv += [flag, draw(ORDERS)]
    if command in ("probe", "ellipse"):
        # inside the chart box and past it on either side, or any number
        for lo, hi in family.chart.bounds:
            inside = st.floats(-0.5, 1.5).map(lambda u: repr(lo + u * (hi - lo)))
            argv.append(draw(st.one_of(inside, NUMBER)))
    return argv


@given(argvs())
@settings(max_examples=250, deadline=None, derandomize=True)
def test_every_command_keeps_the_exit_code_contract(argv):
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        warnings.simplefilter("error", RuntimeWarning)
        try:
            code = main(argv)
        except SystemExit as exc:  # an argparse usage error
            assert exc.code == 2, argv
            return
    assert code in (0, 1, 2), argv
    if code == 2:
        assert len(err.getvalue().splitlines()) == 1, (argv, err.getvalue())
        assert out.getvalue() == ""
    else:
        assert err.getvalue() == "", argv
