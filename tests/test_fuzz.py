"""Every input ends in an exit code and at most one stderr line: a fuzzer over ``cli.main``.

Each case mutates a valid matrix file (its JSON values, its text or its
bytes) and valid ``--at``, ``--numeric``, ``--braid``, ``--word`` and
``--tolerance`` texts, runs one subcommand in process, and asserts an
exit code in {0, 1, 2, 3}, exactly one stderr line when the code is not
0 (a negative ``check`` or ``verify`` verdict is its report on stdout
instead), no traceback, and a per-case time bound.
"""

import contextlib
import io
import json
import os
import signal
import tempfile

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ybtk import cli
from ybtk.catalog import fixture
from ybtk.rmatrix import enhance

CASE_SECONDS = 5

TRIVIAL = {
    "n": 2,
    "field": {"backend": "exact", "indeterminates": [], "imaginary": False},
    "entries": ["1", "0", "0", "0", "0", "1", "0", "0", "0", "0", "1", "0", "0", "0", "0", "1"],
    "mu": ["1", "0", "0", "1"],
    "alpha": "1",
    "beta": "1",
}

# texts the grammar, the JSON reader or the arithmetic has tripped on
TRICKY = [
    "", " ", "0", "-0", "1/0", "0/0", "i", "i^-1", "-i", "1.5", "1e308", "9" * 400,
    "q^-0", "q^99999999999999999999", "1/q^999999999999999999999999999999",
    "q^2^3", "(q", "q)", "((q))", "q/(q-q)", "1/(q-1)", "p*q^-1", "2q", "3/2q",
    "²", "٣", "nan", "inf", "-inf", "\x00", "q=2", "=", "s0", "s-1", "strands=",
    "strands=0", "strands=99999999", "strands=" + "9" * 30, "cup", "cap-", "x+",
    "1" * 200 + "*" + "9" * 200, "1" + "0" * 308,
]
ALPHABET = "0123456789 +-*/^().=,'\nqpsiux²٣é\x00"


def _matrix_bases():
    pair = enhance(fixture(7).r).pairs[0]
    family7 = {
        "n": 2,
        "field": {"backend": "exact", "indeterminates": ["p", "q"], "imaginary": False},
        "entries": [x for row in pair.s.mat.format_rows() for x in row],
        "mu": [x for row in pair.mu.format_rows() for x in row],
    }
    float_trivial = dict(TRIVIAL, field={"backend": "float", "tolerance": 1e-9})
    return [TRIVIAL, family7, float_trivial]


BASES = _matrix_bases()
BRAIDS = ["strands=2 s1 s1'", "strands=3 s1 s2' s1", "strands=1"]
WORDS = ["cup\ncap-", "cup\nx+,u\ncap-", "u,d\nu,d"]
BINDINGS = ["q=3/2", "p=1", "q=i", "p=2/5"]


@st.composite
def mutated(draw, text):
    """``text`` unchanged, replaced by a tricky text, or edited at one place."""
    how = draw(st.sampled_from(["keep", "tricky", "insert", "delete", "splice"]))
    if how == "keep":
        return text
    if how == "tricky":
        return draw(st.sampled_from(TRICKY))
    k = draw(st.integers(0, len(text)))
    if how == "insert":
        return text[:k] + draw(st.text(ALPHABET, min_size=1, max_size=4)) + text[k:]
    if how == "delete":
        return text[:k] + text[k + draw(st.integers(1, 4)):]
    return text[:k] + draw(st.sampled_from(TRICKY)) + text[k:]


JSON_VALUES = st.sampled_from([None, True, 0, -1, 3, 1.5, 10 ** 30, "2", "x", [], {}, [1], ["q", "q"]])


@st.composite
def matrix_files(draw):
    """The bytes of a mutated matrix file."""
    body = json.loads(json.dumps(draw(st.sampled_from(BASES))))
    for _ in range(draw(st.integers(0, 2))):
        key = draw(st.sampled_from(["n", "field", "entries", "mu", "alpha", "beta"]))
        how = draw(st.sampled_from(["value", "delete", "text", "length"]))
        if how == "delete":
            body.pop(key, None)
        elif how == "value":
            body[key] = draw(JSON_VALUES)
        elif key == "field" and isinstance(body.get("field"), dict):
            sub = draw(st.sampled_from(["backend", "indeterminates", "imaginary", "tolerance"]))
            body["field"][sub] = draw(st.one_of(JSON_VALUES, mutated(str(body["field"].get(sub, "")))))
        elif isinstance(body.get(key), list) and body[key]:
            values = body[key]
            if how == "length":
                body[key] = values[:-1] if draw(st.booleans()) else values + values[:1]
            else:
                k = draw(st.integers(0, len(values) - 1))
                values[k] = draw(mutated(str(values[k])))
        elif isinstance(body.get(key), str) or key in ("alpha", "beta"):
            body[key] = draw(mutated(str(body.get(key, "1"))))
    raw = json.dumps(body, ensure_ascii=False).encode("utf-8")
    how = draw(st.sampled_from(["keep"] * 6 + ["truncate", "byte"]))
    k = draw(st.integers(0, len(raw)))
    if how == "truncate":
        return raw[:k]
    if how == "byte":
        return raw[:k] + bytes([draw(st.integers(0, 255))]) + raw[k:]
    return raw


@st.composite
def cases(draw):
    command = draw(st.sampled_from(["check", "enhance", "verify", "invariant", "tangle"]))
    args = [command, "MATRIX"]
    for _ in range(draw(st.integers(0, 2))):
        args += ["--at", draw(mutated(draw(st.sampled_from(BINDINGS))))]
    if draw(st.booleans()):
        args.append("--numeric")
    if draw(st.integers(0, 3)) == 0:
        args += ["--tolerance", draw(mutated("1e-9"))]
    if command == "invariant":
        args += ["--braid", draw(mutated(draw(st.sampled_from(BRAIDS))))]
    word = draw(mutated(draw(st.sampled_from(WORDS)))) if command == "tangle" else None
    if word is not None:
        args += ["--word", "WORD"]
    return draw(matrix_files()), word, args


class _CaseTimeout(Exception):
    pass


def _alarm(signum, frame):
    raise _CaseTimeout


def _run(matrix: bytes, word, args):
    """(exit code, stdout text, stderr text) of ``cli.main`` on the case, within CASE_SECONDS."""
    with tempfile.TemporaryDirectory() as tmp:
        paths = {"MATRIX": os.path.join(tmp, "m.json"), "WORD": os.path.join(tmp, "w.txt")}
        with open(paths["MATRIX"], "wb") as fh:
            fh.write(matrix)
        if word is not None:
            with open(paths["WORD"], "w", encoding="utf-8") as fh:
                fh.write(word)
        argv = [paths.get(a, a) for a in args]
        out, err = io.StringIO(), io.StringIO()
        previous = signal.signal(signal.SIGALRM, _alarm)
        signal.setitimer(signal.ITIMER_REAL, CASE_SECONDS)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = cli.main(argv)
                except SystemExit as exc:
                    code = exc.code
        except _CaseTimeout:
            raise AssertionError("no answer within %d s: %r" % (CASE_SECONDS, args)) from None
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        return code, out.getvalue(), err.getvalue()


@settings(max_examples=600, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(cases())
def test_every_input_ends_in_an_exit_code_and_one_line(case):
    matrix, word, args = case
    code, out, err = _run(matrix, word, args)
    assert code in (0, 1, 2, 3), (code, args, err)
    assert "Traceback" not in err, (args, err)
    # a negative verdict of check or verify is its report on stdout, with
    # exit 1 and nothing on stderr; every other nonzero exit is one line
    verdict_on_stdout = code == 1 and not err and out and args[0] in ("check", "verify")
    if code != 0 and not verdict_on_stdout:
        assert len(err.splitlines()) == 1, (code, args, err)
