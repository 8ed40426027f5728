"""``python -m ybtk`` on small files: exit codes and output lines.

Each case runs the module by subprocess in a directory holding the input
files.  The subprocess imports the same ``ybtk`` as this file, so the
cases check the source tree from it and an installed package from outside.
"""

import itertools
import json
import os
import re
import subprocess
import sys

import pytest

import ybtk

EXACT = {"backend": "exact", "indeterminates": [], "imaginary": False}
EXACT_Q = dict(EXACT, indeterminates=["q"])
EYE, FLIP = (["1", "0", "0", "0", *mid, "0", "0", "0", "1"] for mid in (
    ["0", "1", "0", "0", "0", "0", "1", "0"], ["0", "0", "1", "0", "0", "1", "0", "0"]))
# the trivial pair R = I, mu = I, alpha = beta = 1
TRIVIAL = {"n": 2, "field": EXACT, "entries": EYE, "mu": ["1", "0", "0", "1"], "alpha": "1", "beta": "1"}
# U_q(sl_4): q on a = b = c = d, 1 on a = c != b = d, q - q^-1 on (i, j, j, i) with i < j
SL4 = ["q" if (a, b) == (c, d) and a == b else "1" if (a, b) == (c, d)
       else "q - q^-1" if (a, b) == (d, c) and a < b else "0"
       for a, b, c, d in itertools.product(range(4), repeat=4)]
FILES = {
    "trivial.json": TRIVIAL,
    "circle.txt": "cup\ncap-\n",
    "empty.json": dict(TRIVIAL, alpha=""),
    "one.json": {"n": 1, "field": EXACT, "entries": ["1"], "mu": ["1"]},
    "flip.json": {"n": 2, "field": EXACT, "entries": FLIP, "mu": ["1", "0", "0", "1"]},
    "eye.json": {"n": 2, "field": EXACT, "entries": EYE, "mu": ["1", "0", "0", "1"]},
    "small.json": {"n": 1, "field": EXACT_Q, "entries": ["q^-40"]},
    "pole.json": {"n": 1, "field": EXACT_Q, "entries": ["1/(q^2 - 2)"]},
    "big.json": {"n": 1, "field": EXACT_Q, "entries": ["3*q"]},
    "huge.json": {"n": 1, "field": {"backend": "float", "tolerance": 1e-9},
                  "entries": ["1" * 200 + "*" + "9" * 200]},
    "sl4.json": {"n": 4, "field": EXACT_Q, "entries": SL4},
}

# arguments, exit code, and either the whole stdout, or (prefix, pattern):
# one stdout line starts with the prefix and matches the pattern; "err" for
# one stderr line
CASES = {
    # the unknot is Tr(mu) = 2, the closure of s1 s1' on two strands Tr(I) = 4
    "trivial_tangle": (["tangle", "trivial.json", "--word", "circle.txt"], 0, "2"),
    "trivial_invariant": (["invariant", "trivial.json", "--braid", "strands=2 s1 s1'"], 0, "4"),
    # a huge strand count is refused before any work; the cap counts n = 1
    # like n = 2, so a 1 x 1 file is refused before turaev builds its m steps
    "strand_cap": (["invariant", "trivial.json", "--braid", "strands=99999999 s1"], 3, "err"),
    "strand_cap_n1": (["invariant", "one.json", "--braid", "strands=99999999 s1"], 3, "err"),
    "empty_alpha": (["verify", "empty.json"], 2, "err"),
    # S = P, mu = I passes the pair verifier, whose ENH5 is read off ENH4's
    # products; S = I fails ENH5 at its first entry
    "flip_verify": (["verify", "flip.json"], 0, ("ENH5:", r"ENH5: pass")),
    "eye_verify": (["verify", "eye.json"], 1, ("ENH5:", r"ENH5: FAIL \(witness \(0, 0\)\).*")),
    # a one-term denominator vanishes only at zero: q^-40 at q = 1/2 has the
    # denominator 2^-40, about 9.1e-13, and is checked
    "small_denominator": (["check", "small.json", "--numeric", "--at", "q=1/2"], 0, None),
    # a denominator whose terms cancel below their round-off is refused:
    # q^2 - 2 at the double nearest sqrt(2)
    "pole": (["check", "pole.json", "--numeric", "--at", "q=1.4142135623730951"], 2, "err"),
    # a float value that is not finite is refused: 3*q at q = 10^308, and a
    # float entry multiplying two 200-digit literals
    "big": (["check", "big.json", "--numeric", "--at", "q=1" + "0" * 308], 2, "err"),
    "huge": (["check", "huge.json"], 2, "err"),
    # alpha^2 = q^-8 is far below 1e-9, yet a nonzero multiple of the identity
    "sl4_numeric": (["check", "sl4.json", "--numeric", "--at", "q=15"], 0, None),
    "sl4_exact": (["check", "sl4.json", "--at", "q=15"], 0, ("alpha = ", r"alpha = 1/50625")),
}


@pytest.mark.parametrize("case", CASES)
def test_module(tmp_path, case):
    for name, content in FILES.items():
        (tmp_path / name).write_text(content if isinstance(content, str) else json.dumps(content))
    args, code, want = CASES[case]
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(ybtk.__file__)))
    # a strand count is refused before any work, so within 10 s
    done = subprocess.run([sys.executable, "-m", "ybtk", *args], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=10 if code == 3 else 60)
    assert done.returncode == code, done.stderr
    if want == "err":
        assert done.stderr.count("\n") == 1, done.stderr
    elif isinstance(want, str):
        assert done.stdout.rstrip("\n") == want
    elif want is not None:
        lines = [t for t in done.stdout.splitlines() if t.startswith(want[0])]
        assert len(lines) == 1 and re.fullmatch(want[1], lines[0]), done.stdout
