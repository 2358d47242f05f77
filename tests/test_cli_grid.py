"""Every subcommand at the corners of double range answers or refuses with a
documented exit code: no traceback, no numpy floating-point warning, and
strict JSON or CSV on success.

The grid runs ``cli.main`` in-process over A in {0, 1e-300, 1e6, 1e300},
B in {1e-300, 1, 1e300} and alpha in {0.5, 1.9, 3}, for six commands, plus
two commands that once crashed: the 4F3(1) of c2 past double range
(alpha = 2400) and c1's power of B past it (alpha = 10, B = 1e300).
"""

import contextlib
import io
import itertools
import json
import math
import warnings

import pytest

from spikedosc import cli

GRID_A = ("0", "1e-300", "1e6", "1e300")
GRID_B = ("1e-300", "1", "1e300")
GRID_ALPHA = ("0.5", "1.9", "3")
COMMANDS = (
    ("matelem", "--N", "4"),
    ("spectrum",),
    ("perturb",),
    ("wavefun", "--method", "series"),
    ("wavefun", "--method", "contour"),
    ("verify",),
)

GRID = [(*cmd, "--A", A, "--B", B, "--alpha", alpha)
        for cmd, A, B, alpha in itertools.product(COMMANDS, GRID_A, GRID_B,
                                                  GRID_ALPHA)]
FOUND = [
    ("perturb", "--A", "1e7", "--B", "1", "--alpha", "2400"),
    ("perturb", "--A", "1e6", "--B", "1e300", "--alpha", "10", "--lam", "0.01"),
]


def _strict_json(text: str):
    def refuse(token):
        raise ValueError(f"non-standard JSON constant {token}")
    return json.loads(text, parse_constant=refuse)


def _check_csv(text: str) -> None:
    lines = text.strip().splitlines()
    assert "," in lines[0]
    for line in lines[1:]:
        for field in line.split(","):
            try:
                value = float(field)
            except ValueError:
                continue  # the method column of wavefun
            assert math.isfinite(value), line


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        code = cli.main(list(argv))
    return code, out.getvalue(), err.getvalue(), caught


@pytest.mark.parametrize("argv", GRID + FOUND, ids=" ".join)
def test_documented_exit_code(argv):
    code, out, err, caught = _run(argv)
    runtime = [str(w.message) for w in caught
               if issubclass(w.category, RuntimeWarning)]
    assert not runtime, runtime
    # wavefun re-prints each warning it caught as one stderr line
    assert "encountered in" not in err and "Traceback" not in err, err
    if argv[0] == "verify" and code == 1:
        assert _strict_json(out)["all_passed"] is False
        return
    assert code in (0, 2, 3, 4), (code, err)
    if code == 0:
        if out.startswith("{"):
            _strict_json(out)
        else:
            _check_csv(out)
