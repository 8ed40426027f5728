"""Command-line surface: matrix files, subcommands, exit codes."""

import json
import math
import os
import re
import subprocess
import sys
import time
from fractions import Fraction

import pytest

from ybtk.catalog import families, fixture
from ybtk import cli, scalars, tensors
from ybtk.cli import MatrixFile, main, read_matrix, write_matrix
from ybtk.errors import MatrixFileError, ToolkitError
from ybtk.rmatrix import enhance
from ybtk.scalars import Field, FieldTag, exact_tag, float_tag
from ybtk.tensors import Mat

from helpers import (
    entrywise_evaluate,
    perturbed,
    sl_n_entries,
    sl_n_r,
    use_decision_references,
    use_dense_references,
    use_fresh_parsers,
)

TRIVIAL = {
    "n": 2,
    "field": {"backend": "exact", "indeterminates": [], "imaginary": False},
    "entries": ["1", "0", "0", "0",
                "0", "1", "0", "0",
                "0", "0", "1", "0",
                "0", "0", "0", "1"],
    "mu": ["1", "0", "0", "1"],
    "alpha": "1",
    "beta": "2",
}


def write_json(path, obj):
    path.write_text(json.dumps(obj), encoding="utf-8")
    return str(path)


@pytest.fixture
def trivial_file(tmp_path):
    return write_json(tmp_path / "trivial.json", TRIVIAL)


def family_file(tmp_path, fid, extra_args=()):
    out = tmp_path / ("family%s.json" % fid)
    import contextlib
    import io

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(["catalog", "get", str(fid), *extra_args])
    assert code == 0
    out.write_text(buf.getvalue(), encoding="utf-8")
    return str(out)


# ---------------------------------------------------------------------------
# matrix files


def test_read_matrix_roundtrip_is_byte_stable(tmp_path, trivial_file):
    once = write_matrix(read_matrix(trivial_file))
    path2 = tmp_path / "again.json"
    path2.write_text(once, encoding="utf-8")
    twice = write_matrix(read_matrix(str(path2)))
    assert once == twice


def test_read_matrix_entry_count(tmp_path):
    bad = dict(TRIVIAL, entries=TRIVIAL["entries"][:15])
    with pytest.raises(MatrixFileError, match="expected 16 entries"):
        read_matrix(write_json(tmp_path / "bad.json", bad))


def test_read_matrix_unknown_symbol(tmp_path):
    bad = dict(TRIVIAL, entries=["t"] + TRIVIAL["entries"][1:])
    bad["field"] = {"backend": "exact", "indeterminates": ["p", "q"]}
    with pytest.raises(MatrixFileError, match="'t'"):
        read_matrix(write_json(tmp_path / "bad.json", bad))


def test_read_matrix_structural_errors(tmp_path):
    with pytest.raises(MatrixFileError):
        read_matrix(str(tmp_path / "missing.json"))
    p = tmp_path / "notjson.json"
    p.write_text("{", encoding="utf-8")
    with pytest.raises(MatrixFileError, match="line 1"):
        read_matrix(str(p))
    with pytest.raises(MatrixFileError, match="'n'"):
        read_matrix(write_json(tmp_path / "non.json", {"field": {}, "entries": []}))
    bad = dict(TRIVIAL, mu=["1", "0"])
    with pytest.raises(MatrixFileError, match="mu"):
        read_matrix(write_json(tmp_path / "badmu.json", bad))
    bad = dict(TRIVIAL, field={"backend": "sym"})
    with pytest.raises(MatrixFileError, match="backend"):
        read_matrix(write_json(tmp_path / "badf.json", bad))


def test_read_matrix_rejects_numeric_enhancement_data(tmp_path, capsys):
    for key, value in (("mu", [1, 0, 0, 1]), ("alpha", 1), ("beta", 2.0)):
        path = write_json(tmp_path / ("num_%s.json" % key), dict(TRIVIAL, **{key: value}))
        with pytest.raises(MatrixFileError, match=key):
            read_matrix(path)
        assert main(["verify", path]) == 2
    assert "input error" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["check", "enhance"])
def test_each_distinct_scalar_text_is_parsed_once(tmp_path, monkeypatch, command):
    entries = sl_n_entries(5)
    field = {"backend": "exact", "indeterminates": ["q"], "imaginary": False}
    path = write_json(tmp_path / "sl5.json", {"n": 5, "field": field, "entries": entries})
    parsed = []
    original = scalars.parse_scalar

    def counted(text, tag):
        parsed.append(text)
        return original(text, tag)

    monkeypatch.setattr(scalars, "parse_scalar", counted)
    assert len(entries) == 625
    assert len(read_matrix(path).entries) == 625
    assert sorted(parsed) == sorted(set(entries))
    parsed.clear()
    assert main([command, path]) == 0
    assert sorted(parsed) == sorted(set(entries))


def test_bad_scalar_names_the_first_bad_text_in_file_order(tmp_path):
    entries = list(TRIVIAL["entries"])
    entries[5] = "1/0"
    entries[9] = "x"
    entries[12] = "1/0"
    mu = ["y", "0", "0", "1"]
    path = write_json(tmp_path / "bad.json", dict(TRIVIAL, entries=entries, mu=mu))
    with pytest.raises(MatrixFileError, match=r"^bad scalar '1/0'"):
        read_matrix(path)
    entries[5] = "0"
    path = write_json(tmp_path / "bad2.json", dict(TRIVIAL, entries=entries, mu=mu))
    with pytest.raises(MatrixFileError, match=r"^bad scalar 'x'"):
        read_matrix(path)
    entries[9] = entries[12] = "0"
    path = write_json(tmp_path / "bad3.json", dict(TRIVIAL, entries=entries, mu=mu))
    with pytest.raises(MatrixFileError, match=r"^bad scalar 'y'"):
        read_matrix(path)


def test_float_file_verdicts_follow_the_tolerance_option(tmp_path, capsys):
    # sl_2 at q = 1.5 with q - 1/q cut to 0.83333: the equation fails at the
    # file's 1e-9 and holds at 1e-4
    entries = ["1.5", "0", "0", "0",
               "0", "1", "0", "0",
               "0", "0.83333", "1", "0",
               "0", "0", "0", "1.5"]
    field = {"backend": "float", "tolerance": 1e-9}
    path = write_json(tmp_path / "cut.json", {"n": 2, "field": field, "entries": entries})
    capsys.readouterr()
    assert main(["check", path]) == 1
    assert "QYB: FAIL" in capsys.readouterr().out
    assert main(["check", path, "--tolerance", "1e-4"]) == 0
    assert "QYB: pass" in capsys.readouterr().out
    assert main(["enhance", path]) == 1
    assert "constructed pair (PR) fails verification: YB3: FAIL" in capsys.readouterr().err
    assert main(["enhance", path, "--tolerance", "1e-4"]) == 0
    assert "quadruple (RP)" in capsys.readouterr().out


def test_parenthesised_product_entry_reads_and_nested_quotient_exits_2(tmp_path, capsys):
    field = {"backend": "exact", "indeterminates": ["q"], "imaginary": False}
    entries = list(TRIVIAL["entries"])
    entries[0] = "(q+1)*(q-1)/(q^2 - 1)"
    ok = write_json(tmp_path / "product.json", dict(TRIVIAL, field=field, entries=entries))
    assert main(["verify", ok]) == 0
    entries[0] = "2*(1/(q+1))"
    bad = write_json(tmp_path / "nested.json", dict(TRIVIAL, field=field, entries=entries))
    capsys.readouterr()
    assert main(["verify", bad]) == 2
    err = capsys.readouterr().err.strip()
    assert len(err.splitlines()) == 1 and "numerator/denominator" in err


@pytest.mark.parametrize("command", ["check", "enhance"])
def test_float_literal_beyond_a_double_exits_2(tmp_path, capsys, command):
    entries = list(TRIVIAL["entries"])
    entries[15] = "9" * 400
    field = {"backend": "float", "tolerance": 1e-9}
    path = write_json(tmp_path / "huge.json", {"n": 2, "field": field, "entries": entries})
    assert main([command, path]) == 2
    err = capsys.readouterr().err.strip()
    assert len(err.splitlines()) == 1 and "too large for the float backend" in err


def test_write_matrix_float_tag():
    mf = MatrixFile(1, FieldTag("float", (), True, 1e-7), ["2"])
    text = write_matrix(mf)
    assert json.loads(text)["field"]["tolerance"] == 1e-7


# ---------------------------------------------------------------------------
# subcommands and exit codes


def test_check_family7(tmp_path, capsys):
    path = family_file(tmp_path, 7)
    assert main(["check", path]) == 0
    out = capsys.readouterr().out
    assert "QYB: pass" in out
    assert "alpha = q^-2" in out


def test_check_family5_not_biinvertible(tmp_path, capsys):
    path = family_file(tmp_path, 5)
    assert main(["check", path]) == 1
    assert "not biinvertible" in capsys.readouterr().out


def test_check_family1_not_enhanceable(tmp_path, capsys):
    path = family_file(tmp_path, 1)
    assert main(["check", path]) == 1
    assert "not a scalar multiple" in capsys.readouterr().out


def test_check_at_bindings(tmp_path, capsys):
    path = family_file(tmp_path, 7)
    assert main(["check", path, "--at", "q=3/2", "--at", "p=1"]) == 0
    out = capsys.readouterr().out
    assert "alpha = 4/9" in out


def test_check_numeric(tmp_path, capsys):
    path = family_file(tmp_path, 7)
    assert main(["check", path, "--numeric", "--at", "q=1.3+0.2i", "--at", "p=1"]) == 0
    assert main(["check", path, "--numeric", "--at", "q=2"]) == 2
    err = capsys.readouterr().err
    assert "--numeric needs --at" in err


def _printed_blocks(out):
    """The header line and cell texts of each matrix block of ``ybtk`` output."""
    blocks = []
    for line in out.splitlines():
        if line.startswith("  [ "):
            blocks[-1][1].extend(re.split(r"\s{2,}", line.strip()[2:-2].strip()))
        else:
            blocks.append((line, []))
    return blocks


def _gaussian_point_file(tmp_path, name):
    if name == "family7":
        return family_file(tmp_path, 7), ["--at", "p=1/2 + 3/4*i", "--at", "q=2 + i"]
    if name == "family7-negative":
        # alpha^2 = q^-4 = -1/4, a negative rational with the root i/2
        return family_file(tmp_path, 7), ["--at", "p=1/2 + 3/4*i", "--at", "q=-1 + i"]
    field = {"backend": "exact", "indeterminates": ["q"], "imaginary": False}
    path = write_json(tmp_path / "sl3.json", {"n": 3, "field": field, "entries": sl_n_entries(3)})
    return path, ["--at", "q=1/2 + 3/4*i"]


@pytest.mark.parametrize("name", ["sl3", "family7", "family7-negative"])
def test_exact_gaussian_point_prints_a_gaussian_alpha(tmp_path, capsys, name):
    """alpha^2 = q^-2n at a Gaussian q has the Gaussian root q^-n, up to sign."""
    path, at = _gaussian_point_file(tmp_path, name)
    gauss = Field(exact_tag(imaginary=True))
    assert main(["check", path, *at]) == 0
    out = capsys.readouterr().out
    alpha_sq = re.search(r"with alpha\^2 = (.*)", out).group(1)
    alpha = re.search(r"^alpha = (.*)", out, re.M).group(1)
    assert "i" in alpha
    assert gauss.parse(alpha) * gauss.parse(alpha) == gauss.parse(alpha_sq)
    if name == "family7-negative":
        assert gauss.parse(alpha_sq) == gauss.parse("-1/4")
        assert gauss.parse(alpha) == gauss.parse("i/2")
    assert main(["enhance", path, *at]) == 0
    out = capsys.readouterr().out
    assert out.startswith("alpha = %s\n" % alpha)
    # every printed pair and quadruple passes `ybtk verify` as a file
    blocks = _printed_blocks(out)[1:]
    verified = 0
    for (head, s), (_, mu) in zip(blocks[::2], blocks[1::2]):
        n = math.isqrt(math.isqrt(len(s)))
        body = {"n": n, "field": {"backend": "exact", "indeterminates": [], "imaginary": True},
                "entries": s, "mu": mu}
        quad = re.match(r"quadruple \(\w+\): alpha = (.*), beta = (.*), S =$", head)
        if quad:
            body.update(alpha=quad.group(1), beta=quad.group(2))
        assert main(["verify", write_json(tmp_path / ("v%d.json" % verified), body)]) == 0, head
        verified += 1
    assert verified == 4
    assert "FAIL" not in capsys.readouterr().out


def test_enhance_family7(tmp_path, capsys):
    path = family_file(tmp_path, 7)
    assert main(["enhance", path]) == 0
    out = capsys.readouterr().out
    assert "alpha = q^-2" in out
    assert "quadruple (PR)" in out and "pair (RP)" in out


def test_enhance_family5_exit1(tmp_path, capsys):
    path = family_file(tmp_path, 5)
    assert main(["enhance", path]) == 1
    assert "negative" in capsys.readouterr().err


def test_enhance_family1_exit1(tmp_path):
    assert main(["enhance", family_file(tmp_path, 1)]) == 1


def test_verify_quadruple_and_failure(tmp_path, trivial_file, capsys):
    assert main(["verify", trivial_file]) == 0
    bad = dict(TRIVIAL, alpha="1/2")
    path = write_json(tmp_path / "bad.json", bad)
    assert main(["verify", path]) == 1
    out = capsys.readouterr().out
    assert "ENH2: FAIL" in out


def test_verify_pair_mode(tmp_path, capsys):
    # entries = the flip (an enhanced pair with mu = I)
    pair = {
        "n": 2,
        "field": {"backend": "exact", "indeterminates": [], "imaginary": False},
        "entries": ["1", "0", "0", "0",
                    "0", "0", "1", "0",
                    "0", "1", "0", "0",
                    "0", "0", "0", "1"],
        "mu": ["1", "0", "0", "1"],
    }
    path = write_json(tmp_path / "pair.json", pair)
    assert main(["verify", path]) == 0
    out = capsys.readouterr().out
    assert "ENH4: pass" in out and "ENH5: pass" in out


def test_verify_needs_mu(tmp_path, capsys):
    data = dict(TRIVIAL)
    del data["mu"]
    path = write_json(tmp_path / "nomu.json", data)
    assert main(["verify", path]) == 2
    assert "mu" in capsys.readouterr().err


@pytest.mark.parametrize("backend", ["exact", "float"])
@pytest.mark.parametrize("zero", ["alpha", "beta"])
def test_verify_zero_alpha_or_beta_exits_2(tmp_path, capsys, backend, zero):
    field = TRIVIAL["field"] if backend == "exact" else {"backend": "float", "tolerance": 1e-9}
    path = write_json(tmp_path / "zero.json", dict(TRIVIAL, field=field, **{zero: "0"}))
    assert main(["verify", path]) == 2
    err = capsys.readouterr().err.strip()
    assert err == "input error: alpha and beta must be nonzero"


def test_verify_float_quadruple_with_a_tiny_alpha_reports_each_axiom(tmp_path, capsys):
    # a float alpha is zero only at 0.0, so 1e-10 below the tolerance is checked, and fails
    field = {"backend": "float", "tolerance": 1e-9}
    path = write_json(tmp_path / "tiny.json", dict(TRIVIAL, field=field, alpha="0.0000000001", beta="1"))
    assert main(["verify", path]) == 1
    captured = capsys.readouterr()
    assert captured.err == ""
    assert "ENH1: pass (residual 0)" in captured.out.splitlines()
    assert "ENH2: FAIL" in captured.out


def test_numeric_binding_keeps_a_small_one_term_denominator(tmp_path, capsys):
    # q^-40 at q = 1/2 is 2^40 over the denominator 2^-40, about 9.1e-13
    field = {"backend": "exact", "indeterminates": ["q"], "imaginary": False}
    path = write_json(tmp_path / "small.json", {"n": 1, "field": field, "entries": ["q^-40"]})
    assert main(["check", path, "--numeric", "--at", "q=1/2"]) == 0
    captured = capsys.readouterr()
    assert captured.err == "" and "biinvertible: yes" in captured.out


def test_numeric_binding_near_a_pole_exits_2_in_one_line(tmp_path, capsys):
    # q^2 - 2 cancels to about 4.4e-16 at the double nearest sqrt(2)
    field = {"backend": "exact", "indeterminates": ["q"], "imaginary": False}
    path = write_json(tmp_path / "pole.json", {"n": 1, "field": field, "entries": ["1/(q^2 - 2)"]})
    assert main(["check", path, "--numeric", "--at", "q=1.4142135623730951"]) == 2
    assert _one_line_input_error(capsys).strip() == "input error: denominator vanishes at the binding point"


def test_numeric_binding_to_a_value_that_overflows_exits_2_in_one_line(tmp_path, capsys):
    # q = 10^308 is a finite double, but 3*q overflows to inf
    field = {"backend": "exact", "indeterminates": ["q"], "imaginary": False}
    path = write_json(tmp_path / "big.json", {"n": 1, "field": field, "entries": ["3*q"]})
    assert main(["check", path, "--numeric", "--at", "q=1" + "0" * 308]) == 2
    assert _one_line_input_error(capsys).strip() == "input error: value is not finite at the binding point"


def test_float_entry_that_overflows_exits_2_in_one_line(tmp_path, capsys):
    # each 200-digit literal is a finite double, their product is inf
    text = "1" + "2" * 199 + "*3" + "4" * 199
    path = write_json(tmp_path / "huge.json", {"n": 1, "field": {"backend": "float", "tolerance": 1e-9},
                                               "entries": [text]})
    assert main(["check", path]) == 2
    assert _one_line_input_error(capsys).strip() == (
        "input error: bad scalar %r: value is not finite on the float backend" % text)


@pytest.mark.parametrize("empty", ["alpha", "beta"])
def test_verify_empty_alpha_or_beta_exits_2(tmp_path, capsys, empty):
    path = write_json(tmp_path / "empty.json", dict(TRIVIAL, **{empty: ""}))
    assert main(["verify", path]) == 2
    assert _one_line_input_error(capsys).strip() == "input error: bad scalar '': empty scalar text"


HUGE = "999999999999999999999999999999"


@pytest.mark.parametrize("exponent,numeric,message", [
    (HUGE, True, "q^%s: exponent of a bound symbol above %d" % (HUGE, scalars.MAX_BOUND_EXPONENT)),
    (HUGE, False, "q^%s: exponent of a bound symbol above %d" % (HUGE, scalars.MAX_BOUND_EXPONENT)),
    ("5000", True, "q^5000 overflows a float at the binding point"),
])
def test_huge_exponent_at_a_binding_exits_2(tmp_path, capsys, exponent, numeric, message):
    field = {"backend": "exact", "indeterminates": ["p", "q"], "imaginary": False}
    path = write_json(tmp_path / "huge.json", dict(TRIVIAL, field=field, alpha="1/q^" + exponent))
    args = ["verify", path, "--at", "p=1", "--at", "q=2"] + (["--numeric"] if numeric else [])
    start = time.perf_counter()
    assert main(args) == 2
    assert time.perf_counter() - start < 5.0
    assert _one_line_input_error(capsys).strip() == "input error: " + message
    # unbound, the exponent stays symbolic
    assert main(["verify", path, "--at", "p=1"]) == 1


@pytest.mark.parametrize("value", ["-1", "0", "nan", "inf"])
@pytest.mark.parametrize("numeric", [False, True])
def test_bad_tolerance_option_exits_2(tmp_path, trivial_file, capsys, value, numeric):
    if numeric:
        args = ["check", trivial_file, "--numeric"]
    else:
        field = {"backend": "float", "tolerance": 1e-9}
        args = ["check", write_json(tmp_path / "f.json", dict(TRIVIAL, field=field))]
    assert main(args + ["--tolerance", "1e-6"]) == 0
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(args + ["--tolerance", value])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    # one error line, without argparse's usage block
    assert len(err.splitlines()) == 1
    assert "error" in err and "--tolerance" in err and "finite and positive" in err


@pytest.mark.parametrize("value", [-1, 0, "nan", "inf"])
def test_bad_tolerance_in_file_exits_2(tmp_path, capsys, value):
    field = {"backend": "float", "tolerance": value}
    path = write_json(tmp_path / "f.json", dict(TRIVIAL, field=field))
    assert main(["check", path]) == 2
    err = capsys.readouterr().err.strip()
    assert len(err.splitlines()) == 1 and "tolerance must be finite and positive" in err


@pytest.mark.parametrize("key,change", [
    ("imaginary", {"field": {"backend": "exact", "indeterminates": [], "imaginary": "false"}}),
    ("indeterminates", {"field": {"backend": "exact", "indeterminates": "pq"}}),
    ("indeterminates", {"field": {"backend": "exact", "indeterminates": [1]}}),
    ("n", {"n": 1.9}),
    ("n", {"n": True}),
    ("n", {"n": "2"}),
    ("tolerance", {"field": {"backend": "float", "tolerance": True}}),
    ("tolerance", {"field": {"backend": "float", "tolerance": [1e-9]}}),
    ("tolerance", {"field": {"backend": "float", "tolerance": "small"}}),
], ids=["imaginary_string", "indeterminates_string", "indeterminates_int", "n_float", "n_bool",
        "n_string", "tolerance_bool", "tolerance_list", "tolerance_word"])
def test_wrongly_typed_file_field_exits_2_naming_the_key(tmp_path, capsys, key, change):
    body = dict(TRIVIAL, **change)
    # the entry "i" parses only if the file enables i
    body["entries"] = ["i"] + TRIVIAL["entries"][1:]
    path = write_json(tmp_path / "f.json", body)
    assert main(["check", path]) == 2
    captured = capsys.readouterr()
    err = captured.err.strip()
    assert captured.out == "" and len(err.splitlines()) == 1
    assert err.startswith("input error:") and "'%s'" % key in err


def test_invariant_trivial_quadruple(trivial_file, capsys):
    assert main(["invariant", trivial_file, "--braid", "strands=3 s1 s2 s1'"]) == 0
    assert capsys.readouterr().out.strip() == "1"


def test_invariant_bad_braid_exit2(trivial_file, capsys):
    assert main(["invariant", trivial_file, "--braid", "nope"]) == 2
    assert "input error" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["invariant", "tangle"])
def test_invariant_and_tangle_without_mu_exit_2(tmp_path, capsys, command):
    body = {k: v for k, v in TRIVIAL.items() if k != "mu"}
    path = write_json(tmp_path / "nomu.json", body)
    # the mu check comes before the braid or the word file is read
    extra = ["--braid", "nope"] if command == "invariant" else ["--word", str(tmp_path / "missing.txt")]
    assert main([command, path, *extra]) == 2
    assert capsys.readouterr().err == "input error: %s needs a 'mu' block in the matrix file\n" % command


def test_invariant_strand_cap_exit3(trivial_file, capsys):
    assert main(["invariant", trivial_file, "--braid", "strands=13"]) == 3
    assert "resource cap" in capsys.readouterr().err
    # the cap is flag-settable in both directions
    assert (
        main(["invariant", trivial_file, "--braid", "strands=5", "--max-strands", "4"])
        == 3
    )
    assert (
        main(["invariant", trivial_file, "--braid", "strands=5", "--max-strands", "5"])
        == 0
    )


@pytest.mark.parametrize("strands", ["99999999", "9" * 30])
def test_huge_strand_count_exits_3_before_any_work(trivial_file, capsys, strands):
    start = time.perf_counter()
    assert main(["invariant", trivial_file, "--braid", "strands=%s s1" % strands]) == 3
    assert time.perf_counter() - start < 5.0
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("resource cap: braid on %s strands" % strands)


def test_strand_cap_counts_n_1_like_n_2(tmp_path, capsys):
    # at n = 1 the state has one entry, but turaev builds one step per strand
    one = {"n": 1, "field": {"backend": "exact", "indeterminates": [], "imaginary": False},
           "entries": ["1"], "mu": ["1"]}
    path = write_json(tmp_path / "one.json", one)
    start = time.perf_counter()
    assert main(["invariant", path, "--braid", "strands=99999999 s1"]) == 3
    assert time.perf_counter() - start < 5.0
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("resource cap: braid on 99999999 strands")
    assert main(["invariant", path, "--braid", "strands=12 s1"]) == 0
    assert capsys.readouterr().out.strip() == "1"


def test_invariant_strand_cap_counts_dimension_exit3(tmp_path, capsys):
    # n = 3 at 12 strands is a 3^12 x 3^12 state: refused before any work
    data = {
        "n": 3,
        "field": {"backend": "float", "tolerance": 1e-9},
        "entries": ["1.5" if i == j else "0.25" if (i + j) % 4 == 1 else "0"
                    for i in range(9) for j in range(9)],
        "mu": ["1", "0", "0", "0", "2", "0", "0", "0", "3"],
    }
    path = write_json(tmp_path / "dense3.json", data)
    start = time.perf_counter()
    assert main(["invariant", path, "--braid", "strands=12 s1"]) == 3
    assert time.perf_counter() - start < 5.0
    assert "resource cap" in capsys.readouterr().err
    assert main(["invariant", path, "--braid", "strands=7 s1"]) == 0


def test_invariant_max_strands_below_one_exit2(trivial_file, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["invariant", trivial_file, "--braid", "strands=2", "--max-strands", "-3"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and "--max-strands" in err


def test_missing_braid_exits_2_with_one_line(trivial_file, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["invariant", trivial_file])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and "ybtk invariant: error:" in err and "--braid" in err


def _one_line_input_error(capsys) -> str:
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("input error: ") and "Traceback" not in err
    return err


# '²' passes str.isdigit() but not int(); '٣' (Arabic-Indic three) passes both
@pytest.mark.parametrize("entry", ["²", "1.²", "q^²", "٣"])
def test_non_ascii_digit_in_matrix_file_exits_2(tmp_path, capsys, entry):
    entries = list(TRIVIAL["entries"])
    entries[0] = entry
    field = {"backend": "exact", "indeterminates": ["q"], "imaginary": False}
    path = write_json(tmp_path / "digit.json", dict(TRIVIAL, field=field, entries=entries))
    assert main(["check", path]) == 2
    assert "bad scalar" in _one_line_input_error(capsys)


def test_non_ascii_digit_in_binding_exits_2(tmp_path, capsys):
    path = family_file(tmp_path, 7)
    capsys.readouterr()
    assert main(["check", path, "--at", "q=²"]) == 2
    _one_line_input_error(capsys)


def test_non_ascii_digit_in_braid_exits_2(trivial_file, capsys):
    assert main(["invariant", trivial_file, "--braid", "strands=2 s²"]) == 2
    assert "bad braid letter" in _one_line_input_error(capsys)
    assert main(["invariant", trivial_file, "--braid", "strands=٣"]) == 2
    assert "bad strand count" in _one_line_input_error(capsys)


@pytest.mark.parametrize("args", [["--at", "q=2"], ["--numeric"]])
def test_binding_a_float_file_exits_2(tmp_path, capsys, args):
    field = {"backend": "float", "tolerance": 1e-9}
    path = write_json(tmp_path / "f.json", dict(TRIVIAL, field=field))
    assert main(["check", path, *args]) == 2
    assert "--at/--numeric apply to exact-backend files" in _one_line_input_error(capsys)


def test_tangle_state_cap_exit3(tmp_path, trivial_file, capsys):
    word = tmp_path / "cups.txt"
    word.write_text(
        "\n".join(",".join(["u"] * j + ["cup"] + ["d"] * j) for j in range(13)) + "\n",
        encoding="utf-8",
    )
    assert main(["tangle", trivial_file, "--word", str(word)]) == 3
    assert "resource cap" in capsys.readouterr().err


def test_tangle_circle(tmp_path, trivial_file, capsys):
    word = tmp_path / "circle.txt"
    word.write_text("cup\ncap-\n", encoding="utf-8")
    assert main(["tangle", trivial_file, "--word", str(word)]) == 0
    assert capsys.readouterr().out.strip() == "2"


def test_tangle_type_error_exit2(tmp_path, trivial_file, capsys):
    word = tmp_path / "bad.txt"
    word.write_text("cup\nx+,u\n", encoding="utf-8")
    assert main(["tangle", trivial_file, "--word", str(word)]) == 2
    assert "layer 1" in capsys.readouterr().err


def test_tangle_identity_strand(tmp_path, trivial_file, capsys):
    word = tmp_path / "zig.txt"
    word.write_text("cup,u\nu,cap\n", encoding="utf-8")
    assert main(["tangle", trivial_file, "--word", str(word)]) == 0
    out = capsys.readouterr().out
    assert "[ 1  0 ]" in out and "[ 0  1 ]" in out


def test_non_utf8_matrix_file_exits_2(tmp_path, capsys):
    path = tmp_path / "f.json"
    path.write_bytes(b"\xff\xfe{}")
    assert main(["check", str(path)]) == 2
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1 and "Traceback" not in err
    assert "cannot read %s: not UTF-8 text" % path in err


def test_non_utf8_tangle_word_file_exits_2(tmp_path, trivial_file, capsys):
    word = tmp_path / "word.txt"
    word.write_bytes(b"cup\n\xff\n")
    assert main(["tangle", trivial_file, "--word", str(word)]) == 2
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1 and "Traceback" not in err
    assert "cannot read %s: not UTF-8 text" % word in err


def _decide_files(tmp_path):
    """Matrix files for every catalog fixture and exact U_q(sl_3), plus
    verify files for the enhanced pair and quadruple of each enhanceable
    one and for the pair with one entry of S changed."""
    cases = [("family%d%s" % (fam.id, v or ""), fixture(fam.id, variant=v).r)
             for fam in families() for v in fam.variants or (None,)]
    cases.append(("sl3", sl_n_r(Field(exact_tag("q")), 3)))
    matrices, verifies = [], []
    for name, r in cases:
        f = r.field
        base = {"n": r.n, "field": {"backend": "exact", "indeterminates": list(f.tag.indeterminates),
                                    "imaginary": f.tag.imaginary}}

        def write(suffix, s, **extra):
            body = dict(base, entries=[x for row in s.mat.format_rows() for x in row], **extra)
            return write_json(tmp_path / (name + suffix + ".json"), body)

        matrices.append(write("", r))
        try:
            result = enhance(r)
        except ToolkitError:
            continue
        pair, quad = result.pairs[0], result.quadruples[1]
        mu = [x for row in pair.mu.format_rows() for x in row]
        verifies.append(write("_pair", pair.s, mu=mu))
        verifies.append(write("_pair_changed", perturbed(pair.s), mu=mu))
        verifies.append(write("_quad", quad.s, mu=[x for row in quad.mu.format_rows() for x in row],
                              alpha=f.format(quad.alpha), beta=f.format(quad.beta)))
    return [(cmd, p) for p in matrices for cmd in ("check", "enhance")] + [("verify", p) for p in verifies]


def test_decide_output_is_byte_stable_against_dense_references(tmp_path, capsys, monkeypatch):
    runs = _decide_files(tmp_path)

    def outputs():
        out = []
        for cmd, path in runs:
            code = main([cmd, path])
            out.append((cmd, path, code, capsys.readouterr()))
        return out

    fast = outputs()
    assert any(code == 0 for cmd, _, code, _ in fast if cmd == "verify")
    assert any("braid relation at" in o.out for cmd, _, _, o in fast if cmd == "verify")
    assert any("QYB: FAIL" in o.out for cmd, _, _, o in fast if cmd == "check")
    use_dense_references(monkeypatch)
    assert outputs() == fast


def test_decide_output_is_byte_stable_against_decision_references(tmp_path, capsys, monkeypatch):
    """check / enhance / verify print what they printed with the flip as a
    matrix, R13 as flip steps, both braid forms' relations run and the
    general reduction for one-term denominators."""
    runs = _decide_files(tmp_path)

    def outputs():
        out = []
        for cmd, path in runs:
            code = main([cmd, path])
            out.append((cmd, path, code, capsys.readouterr()))
        return out

    fast = outputs()
    for cmd in ("check", "enhance", "verify"):
        assert {code for c, _, code, _ in fast if c == cmd} == {0, 1}, cmd
    use_decision_references(monkeypatch)
    assert outputs() == fast


def _sl_file(tmp_path, n):
    field = {"backend": "exact", "indeterminates": ["q"], "imaginary": False}
    return write_json(tmp_path / ("sl%d.json" % n), {"n": n, "field": field, "entries": sl_n_entries(n)})


def _alpha_line(text):
    return next((l[len("alpha = "):] for l in text.splitlines() if l.startswith("alpha = ")), None)


SL_AGREEING_POINTS = ([(3, q) for q in ("0.05", "0.1", "5", "7.5", "15", "30")]
                      + [(4, q) for q in ("0.05", "0.1", "5", "7.5", "15")]
                      + [(5, q) for q in ("0.05", "0.1", "5", "7.5")])


@pytest.mark.parametrize("n,q", SL_AGREEING_POINTS)
def test_float_check_agrees_with_exact_on_sl_n(tmp_path, capsys, n, q):
    # alpha^2 = q^-2n is far below the absolute 1e-9 at q = 15 for sl_4
    path = _sl_file(tmp_path, n)
    assert main(["check", path, "--at", "q=" + q]) == 0
    exact = Fraction(_alpha_line(capsys.readouterr().out))
    assert exact == Fraction(q) ** -n
    assert main(["check", path, "--at", "q=" + q, "--numeric"]) == 0
    got = Field(float_tag()).parse(_alpha_line(capsys.readouterr().out))
    assert abs(got - float(exact)) <= 1e-6 * float(exact)


@pytest.mark.parametrize("n,q", [(4, "30"), (5, "15"), (5, "30")])
def test_float_check_refuses_sl_n_where_vu_is_off_scalar(tmp_path, capsys, n, q):
    # U and V come from the inverse of an ill-conditioned R^{t2}: VU's
    # diagonal is off c by 9.5e-9 to 1.5e-5 relative
    path = _sl_file(tmp_path, n)
    assert main(["check", path, "--at", "q=" + q]) == 0
    capsys.readouterr()
    assert main(["check", path, "--at", "q=" + q, "--numeric"]) == 1
    assert "VU is not a scalar multiple of the identity" in capsys.readouterr().out


def test_numeric_binding_substitutes_each_stored_entry_once(tmp_path, capsys, monkeypatch):
    calls = []
    substitute = tensors.substitute
    monkeypatch.setattr(tensors, "substitute", lambda *a: calls.append(1) or substitute(*a))
    field = {"backend": "exact", "indeterminates": ["q"], "imaginary": False}
    path = write_json(tmp_path / "sl5.json", {"n": 5, "field": field, "entries": sl_n_entries(5)})
    assert main(["check", path, "--at", "q=2", "--numeric"]) == 0
    # the 35 nonzeros of R, not its 625 entries
    assert len(calls) == 35


def test_binding_output_is_byte_stable_against_entrywise_evaluate(tmp_path, capsys, monkeypatch):
    """check / enhance / verify / invariant / tangle at exact, partial,
    complex and float points print what they printed when Mat.evaluate
    substituted every entry."""
    runs = _decide_files(tmp_path)
    word = tmp_path / "closure.txt"
    word.write_text("cup\nu,cup,d\nx+,d,d\nx-,d,d\nu,cap-,d\ncap-\n", encoding="utf-8")
    enhanced = [p for cmd, p in runs if cmd == "verify" and "changed" not in p]
    runs += [(cmd, p) for p in enhanced for cmd in ("invariant", "tangle")]
    extra = {"invariant": ["--braid", "strands=2 s1 s1 s1'"], "tangle": ["--word", str(word)]}

    def at_sets(path):
        params = read_matrix(path).tag.indeterminates

        def at(values):
            return [a for p, x in zip(params, values) for a in ("--at", "%s=%s" % (p, x))]

        exact, gauss = at(("3/2", "5/3", "-2")), at(("1/2 + 3/4*i", "-1 + i", "2"))
        sets = [exact + ["--numeric"], gauss + ["--numeric"]]
        if params:
            sets += [exact, gauss, ["--at", "%s=-1/4" % params[0]]]
        return sets

    def outputs():
        out = []
        for cmd, path in runs:
            for at in at_sets(path):
                code = main([cmd, path, *extra.get(cmd, []), *at])
                out.append((cmd, path, at, code, capsys.readouterr()))
        return out

    fast = outputs()
    for cmd in ("check", "enhance", "verify", "invariant", "tangle"):
        assert any(code == 0 and c == cmd for c, _, _, code, _ in fast), cmd
    assert any(code == 0 and "--numeric" in at for _, _, at, code, _ in fast)
    monkeypatch.setattr(Mat, "evaluate", entrywise_evaluate)
    assert outputs() == fast


def test_catalog_exports_reimport_with_same_verdict(tmp_path):
    # exit 0 exactly for the families whose generic instance is enhanceable
    expected = {1: 1, 2: 0, 3: 1, 4: 0, 5: 1, 6: 0, 7: 0, 9: 0, 10: 1}
    for fid, want in expected.items():
        path = family_file(tmp_path, fid)
        assert main(["check", path]) == want, "family %d" % fid
    # family 8: biinvertible and VU scalar, but the equation needs p^2=q^2
    path = family_file(tmp_path, 8)
    assert main(["check", path]) == 1
    path = family_file(tmp_path, 8, ("--bind", "p=3", "--bind", "q=3"))
    assert main(["check", path]) == 0


def test_catalog_get_variant_and_bind(tmp_path, capsys):
    path = family_file(tmp_path, 6, ("--variant", "b"))
    data = json.loads(open(path).read())
    assert data["entries"][5] == "-1"
    assert main(["catalog", "get", "99"]) == 2
    capsys.readouterr()
    assert main(["catalog", "get", "7", "--bind", "q=0"]) == 2
    assert main(["catalog", "get"]) == 2


def test_catalog_list(capsys):
    assert main(["catalog", "list"]) == 0
    out = capsys.readouterr().out
    assert "enhanced with alpha = q^-2" in out
    assert "p^2 = q^2" in out


# ---------------------------------------------------------------------------
# the parser main shares across calls


def test_main_builds_the_parser_once(tmp_path, trivial_file, capsys, monkeypatch):
    calls = []
    build = cli.build_parser
    monkeypatch.setattr(cli, "_parser", None)
    monkeypatch.setattr(cli, "build_parser", lambda: calls.append(1) or build())
    for _ in range(3):
        assert main(["check", trivial_file]) == 0
        assert main(["verify", trivial_file]) == 0
        assert main(["catalog", "list"]) == 0
        with pytest.raises(SystemExit):
            main(["check", trivial_file, "--tolerance", "0"])
    assert len(calls) == 1
    assert build() is not build()


def test_options_do_not_leak_into_the_next_call(tmp_path, trivial_file, capsys, monkeypatch):
    """A call that leaves an option out prints what a fresh parser prints,
    whatever option the call before it gave."""
    field = {"backend": "exact", "indeterminates": ["q"], "imaginary": False}
    off = sl_n_entries(3)
    off[0] = "q + 1/10000000"  # QYB holds to 1e-4 at q = 2, not to 1e-9
    sl3_off = write_json(tmp_path / "sl3_off.json", {"n": 3, "field": field, "entries": off})
    strands = ["--braid", "strands=4 s1 s2 s3"]
    pairs = [
        (["check", sl3_off, "--at", "q=2"], ["check", sl3_off]),
        (["check", sl3_off, "--numeric", "--at", "q=2"], ["check", sl3_off]),
        (["check", sl3_off, "--numeric", "--at", "q=2", "--tolerance", "1e-4"],
         ["check", sl3_off, "--numeric", "--at", "q=2"]),
        (["invariant", trivial_file, *strands, "--max-strands", "3"], ["invariant", trivial_file, *strands]),
        (["catalog", "get", "1", "--bind", "q=1"], ["catalog", "get", "1"]),
        (["catalog", "get", "6", "--variant", "b"], ["catalog", "get", "6"]),
    ]

    def run(argv):
        code = main(argv)
        return code, capsys.readouterr()

    shared = [(run(first), run(second)) for first, second in pairs]
    use_fresh_parsers(monkeypatch)
    fresh = [(run(first), run(second)) for first, second in pairs]
    assert shared == fresh
    # the first call of each pair changes what the second one would print
    assert all(a != b for a, b in fresh)


def test_argparse_errors_and_successes_alternate_cleanly(trivial_file, capsys):
    for _ in range(2):
        assert main(["check", trivial_file]) == 0
        assert capsys.readouterr().err == ""
        with pytest.raises(SystemExit) as exc:
            main(["check", trivial_file, "--tolerance", "-1"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and "ybtk check: error:" in err
        with pytest.raises(SystemExit) as exc:
            main(["invariant", trivial_file])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and "--braid" in err


def test_shared_parser_output_is_byte_stable_against_fresh_parsers(tmp_path, capsys, monkeypatch):
    """check / enhance / verify / invariant / tangle on every catalog
    fixture and exact sl_3 print what they print with a parser built
    for each call."""
    runs = [[cmd, p] for cmd, p in _decide_files(tmp_path)]
    word = tmp_path / "closure.txt"
    word.write_text("cup\nu,cup,d\nx+,d,d\nx-,d,d\nu,cap-,d\ncap-\n", encoding="utf-8")
    enhanced = [p for cmd, p in runs if cmd == "verify" and "changed" not in p]
    runs += [["invariant", p, "--braid", "strands=3 s1 s2' s1"] for p in enhanced]
    runs += [["tangle", p, "--word", str(word)] for p in enhanced]

    def outputs():
        out = []
        for argv in runs:
            code = main(argv)
            out.append((argv, code, capsys.readouterr()))
        return out

    shared = outputs()
    for cmd in ("check", "enhance", "verify", "invariant", "tangle"):
        assert any(code == 0 and argv[0] == cmd for argv, code, _ in shared), cmd
    use_fresh_parsers(monkeypatch)
    assert outputs() == shared


def test_closed_stdout_pipe_exits_141_without_a_traceback(tmp_path, trivial_file):
    word = tmp_path / "wide.txt"
    # the 256 x 256 identity: far more output than a pipe holds
    word.write_text("u,u,u,u,u,u,u,u\n", encoding="utf-8")
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.Popen(
        [sys.executable, "-m", "ybtk", "tangle", trivial_file, "--word", str(word)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    assert proc.stdout.readline().startswith(b"  [ 1  0")
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 141
    assert err == b""
