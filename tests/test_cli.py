"""Command-line surface: matrix files, subcommands, exit codes."""

import json

import pytest

from ybtk.cli import MatrixFile, main, read_matrix, write_matrix
from ybtk.errors import MatrixFileError
from ybtk.scalars import FieldTag

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
    assert "ENH4: pass" in out and "ENH4~ENH5: agree" in out


def test_verify_needs_mu(tmp_path, capsys):
    data = dict(TRIVIAL)
    del data["mu"]
    path = write_json(tmp_path / "nomu.json", data)
    assert main(["verify", path]) == 2
    assert "mu" in capsys.readouterr().err


def test_invariant_trivial_quadruple(trivial_file, capsys):
    assert main(["invariant", trivial_file, "--braid", "strands=3 s1 s2 s1'"]) == 0
    assert capsys.readouterr().out.strip() == "1"


def test_invariant_bad_braid_exit2(trivial_file, capsys):
    assert main(["invariant", trivial_file, "--braid", "nope"]) == 2
    assert "input error" in capsys.readouterr().err


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


def test_invariant_max_strands_below_one_exit2(trivial_file, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["invariant", trivial_file, "--braid", "strands=2", "--max-strands", "-3"])
    assert exc.value.code == 2
    assert "--max-strands" in capsys.readouterr().err


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
