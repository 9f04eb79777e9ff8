import json
import re
from fractions import Fraction
from pathlib import Path

import pytest

from quivertilt import GF, QQ, InputError, projective
from quivertilt.cli import main
from quivertilt.formats import (FIXTURE_DIR, fixture_algebra, load_algebra,
                                load_module, parse_algebra_text,
                                parse_module_text)
from quivertilt.linalg import Matrix
from quivertilt.modules import is_isomorphic

ALG = str(FIXTURE_DIR / "cycle2.alg")
I1 = str(FIXTURE_DIR / "I1.mod")
S2 = str(FIXTURE_DIR / "S2.mod")
P2 = str(FIXTURE_DIR / "P2.mod")


# -- parsing --------------------------------------------------------------------


def test_parse_algebra_with_comments():
    alg = parse_algebra_text("""
    # a comment
    field Q
    vertex 1 2          # trailing comment
    arrow a: 1 -> 2
    arrow b: 2 -> 1
    relation a*b
    """)
    assert alg.dim == 5


def test_parse_relation_with_coefficients():
    alg = parse_algebra_text("""
    field Q
    vertex 1 2 3
    arrow a: 1 -> 2
    arrow b: 2 -> 1
    arrow g: 2 -> 3
    arrow d: 3 -> 2
    relation a*g
    relation d*g
    relation d*b
    relation 2*b*a - 2*g*d
    """)
    assert alg.dim == 9


def test_parse_relation_fraction_coefficient():
    alg = parse_algebra_text("""
    field Q
    vertex 1 2
    arrow a: 1 -> 2
    arrow b: 2 -> 1
    relation 1/2*a*b
    """)
    assert alg.dim == 5


@pytest.mark.parametrize("spaced, plain", [("a * b", "a*b"), ("2 * a*b", "2*a*b"),
                                           ("1/2 *a *  b", "1/2*a*b")])
def test_spaces_around_a_product_star_are_ignored(tmp_path, capsys, spaced, plain):
    """Spaces around ``*`` are stripped from each factor, as they are around
    ``+`` and ``-``: the spaced relation builds the algebra of the plain
    one, also at the CLI, which exits 0 with the same report."""
    def text(relation):
        return f"field Q\nvertex 1 2\narrow a: 1 -> 2\narrow b: 2 -> 1\nrelation {relation}\n"
    alg, ref = parse_algebra_text(text(spaced)), parse_algebra_text(text(plain))
    assert (alg.basis, alg.mult) == (ref.basis, ref.mult)
    reports = []
    for name, relation in (("spaced", spaced), ("plain", plain)):
        path = tmp_path / f"{name}.alg"
        path.write_text(text(relation))
        assert main(["info", str(path)]) == 0
        reports.append(capsys.readouterr().out.replace(str(path), ""))
    assert reports[0] == reports[1]


def test_parse_field_gf():
    alg = parse_algebra_text("field GF(101)\nvertex 1 2\narrow a: 1 -> 2\n")
    assert alg.field.characteristic == 101


def test_field_override():
    alg = fixture_algebra("cycle2", GF(7))
    assert alg.field.characteristic == 7
    assert alg.dim == 5


def test_parse_errors():
    with pytest.raises(InputError):
        parse_algebra_text("vertex 1 2\n")           # no field
    with pytest.raises(InputError):
        parse_algebra_text("field Q\nvertex 1\narrow a: 1 -> 9\n")
    with pytest.raises(InputError):
        parse_algebra_text("field Q\nfrobnicate 12\n")
    with pytest.raises(InputError):
        parse_algebra_text("field F4\nvertex 1\n")
    with pytest.raises(InputError, match="'1/0'"):
        parse_algebra_text("field Q\nvertex 1\narrow a: 1 -> 1\nrelation 1/0*a*a\n")
    a2 = fixture_algebra("a2")
    for text, token in (("dim 1=x", "1=x"), ("dim 1=-1", "1=-1"),
                        ("dim 1=1 2=1\nmap a = [[z]]", "z"),
                        ("dim 1=1 2=1\nmap a = [[1/0]]", "1/0")):
        with pytest.raises(InputError, match=f"'{token}'"):
            parse_module_text(text, a2)


@pytest.mark.parametrize("relation", ["x**x", "*x*x", "x*x*", "2**x*x", "x * * x"])
def test_a_relation_with_an_empty_factor_is_rejected(tmp_path, relation):
    """An empty factor is an error naming the relation, not a dropped
    factor that reads the relation as x*x; at the CLI it exits 2."""
    text = f"field Q\nvertex 1\narrow x: 1 -> 1\nrelation {relation}\n"
    with pytest.raises(InputError, match=f"empty factor in relation '{re.escape(relation)}'"):
        parse_algebra_text(text)
    alg = tmp_path / "bad.alg"
    alg.write_text(text)
    assert main(["info", str(alg)]) == 2


def test_cli_malformed_number_exits_2(tmp_path):
    bad = tmp_path / "bad.mod"
    bad.write_text("dim 1=1 2=1\nmap a = [[1/0]]\n")
    a2 = str(FIXTURE_DIR / "a2.alg")
    assert main(["hom", a2, str(bad), str(bad)]) == 2


@pytest.mark.parametrize("text, message", [
    ("dim 1=2 2=1\nmap b = [[1,,2]]", "empty entry"),
    ("dim 1=2 2=1\nmap b = [[1,2,]]", "empty entry"),
    ("dim 1=1 2=1\nmap b = [[1]]\nmap b = [[2]]", "second map line"),
    ("dim 1=1 1=2 2=1", "vertex '1' twice"),
    ("dim 1=1\ndim 2=1", "second dim line"),
])
def test_malformed_module_text_is_rejected(cycle2, tmp_path, text, message):
    with pytest.raises(InputError, match=message):
        parse_module_text(text, cycle2)
    bad = tmp_path / "bad.mod"
    bad.write_text(text + "\n")
    assert main(["hom", ALG, str(bad), str(bad)]) == 2


def test_matrix_literal_rows_without_entries(cycle2):
    m = parse_module_text("dim 1=2\nmap a = [[],[]]", cycle2)
    assert m.arrow_mats["a"] == Matrix.zeros(cycle2.field, 2, 0)


def test_load_module_matches_library_injective(cycle2):
    i1 = load_module(I1, cycle2)
    assert i1.dims == {"1": 1, "2": 1}
    from quivertilt import injective
    lib = injective(cycle2, "1")
    assert i1.arrow_mats == lib.arrow_mats


def test_load_module_resolves_algebra_relative_path():
    m = load_module(P2)  # algebra path inside the file, relative
    assert m.algebra.dim == 5
    assert is_isomorphic(m, projective(m.algebra, "2"))


def test_module_written_for_another_quiver_is_rejected(capsys):
    # S2.mod and I1.mod name cycle2.alg
    assert main(["hom", str(FIXTURE_DIR / "a2.alg"), S2, S2]) == 2
    assert "quiver" in capsys.readouterr().err
    assert main(["hom", str(FIXTURE_DIR / "triple3.alg"), I1, I1]) == 2
    with pytest.raises(InputError, match="quiver"):
        load_module(S2, fixture_algebra("a2"))


def test_module_for_the_same_quiver_loads_under_another_field(capsys):
    assert main(["hom", "--field", "GF(101)", ALG, S2, S2]) == 0
    assert "dim Hom = 1" in capsys.readouterr().out
    m = load_module(S2, fixture_algebra("cycle2", GF(101)))
    assert m.algebra.field == GF(101) and m.dims == {"1": 0, "2": 1}


def test_module_with_wrong_shape_rejected(cycle2, tmp_path):
    bad = tmp_path / "bad.mod"
    bad.write_text("dim 1=1 2=1\nmap a = [[1,2]]\n")
    with pytest.raises(InputError):
        load_module(bad, cycle2)


def test_module_violating_relations_rejected(cycle2, tmp_path):
    from quivertilt.errors import ConsistencyError
    bad = tmp_path / "bad.mod"
    bad.write_text("dim 1=1 2=1\nmap a = [[1]]\nmap b = [[1]]\n")
    with pytest.raises(ConsistencyError):
        load_module(bad, cycle2)


def test_rational_entries_in_module(tmp_path, cycle2):
    f = tmp_path / "half.mod"
    f.write_text("dim 1=1 2=1\nmap b = [[1/2]]\n")
    m = load_module(f, cycle2)
    assert m.arrow_mats["b"].entries[0][0] == Fraction(1, 2)


# -- CLI ------------------------------------------------------------------------


def test_cli_info(capsys):
    assert main(["info", ALG]) == 0
    out = capsys.readouterr().out
    assert "dim 5" in out


def test_cli_ext_dimension_one(capsys):
    assert main(["ext", "-k", "1", ALG, I1, S2]) == 0
    assert "dim Ext^1 = 1" in capsys.readouterr().out


def test_cli_gldim(capsys):
    assert main(["gldim", str(FIXTURE_DIR / "triple3.alg")]) == 0
    assert "global dimension = 4" in capsys.readouterr().out


def test_cli_hom(capsys):
    assert main(["hom", ALG, S2, P2]) == 0
    assert "dim Hom = 1" in capsys.readouterr().out


def test_cli_resolve(capsys):
    assert main(["resolve", ALG, S2]) == 0
    out = capsys.readouterr().out
    assert "length 1" in out


def test_cli_tilting_check_pass_and_fail(capsys):
    assert main(["tilting-check", ALG, P2, S2]) == 0
    assert main(["tilting-check", ALG, S2]) == 1


def test_cli_bongartz(capsys):
    assert main(["bongartz", str(FIXTURE_DIR / "a2.alg"),
                 str(_write_tmp_s1_a2())]) == 0
    out = capsys.readouterr().out
    assert "complement" in out


def _write_tmp_s1_a2():
    p = FIXTURE_DIR.parent / "fixtures" / "S1_a2_tmp.mod"
    # keep fixtures immutable: use a sibling temp file next to them so the
    # relative algebra path resolves
    import tempfile, shutil, os
    d = Path(tempfile.mkdtemp())
    shutil.copy(FIXTURE_DIR / "a2.alg", d / "a2.alg")
    f = d / "S1.mod"
    f.write_text("algebra a2.alg\ndim 1=1\n")
    return f


def test_cli_construct_tilting(capsys):
    assert main(["construct-tilting", ALG, S2, I1]) == 0
    out = capsys.readouterr().out
    assert "multiplicity m = 1" in out
    assert "exceptional: True" in out


def test_cli_reflect(capsys):
    assert main(["reflect", ALG, S2]) == 0
    out = capsys.readouterr().out
    assert "brick" in out


def test_cli_resolve_uses_shared_resolution_bound(capsys):
    # S2 has projective dimension 1: a bound of 1 step certifies it, a
    # bound of 0 does not
    assert main(["resolve", "--max-resolution", "0", ALG, S2]) == 3
    assert main(["resolve", "--max-resolution", "1", ALG, S2]) == 0
    assert main(["resolve", "--max-resolution", "2", ALG, S2]) == 0


@pytest.mark.parametrize("t1_text", ["dim 1=0 2=0\n", "dim 2=1\n"])
def test_cli_reflect_method_matches_library_route(tmp_path, t1_text):
    """The CLI reports the route the library takes for the same T1, also
    for the zero module, where the brick path applies."""
    from quivertilt.complexes import resolve_to_complex
    from quivertilt.recollement import reflect
    t1_path = tmp_path / "t1.mod"
    t1_path.write_text(t1_text)
    out = tmp_path / "r.json"
    assert main(["reflect", ALG, str(t1_path), S2, "--json", str(out)]) == 0
    alg = load_algebra(ALG)
    _, _, route = reflect(resolve_to_complex(load_module(t1_path, alg)),
                          resolve_to_complex(load_module(S2, alg)))
    assert json.loads(out.read_text())["method"] == route == "brick"


def test_cli_localize_and_homepi(capsys):
    assert main(["localize", ALG, P2, S2]) == 0
    out = capsys.readouterr().out
    assert "ring dim 4" in out
    assert "YES" in out
    assert main(["homepi", ALG, P2, S2]) == 0


def test_cli_stratify_exit_codes():
    assert main(["stratify", str(FIXTURE_DIR / "a2.alg"), "--vertices", "2"]) == 0
    assert main(["stratify", ALG, "--vertices", "2"]) == 1


def test_cli_stratify_json_reports_tor_over_the_algebra(tmp_path, capsys):
    out = tmp_path / "s.json"
    assert main(["stratify", ALG, "--vertices", "2", "--json", str(out)]) == 1
    assert "Tor^A_n(A/AeA, A/AeA), n=1..8: [0, 1, 0, 0, 0, 0, 0, 0]" in capsys.readouterr().out
    report = json.loads(out.read_text())
    assert report["quotient_tor_dims"] == report["quotient_ext_dims"] == [0, 1] + [0] * 6
    assert report["resolution_complete"] is True
    assert "tor_dims" not in report and "tor_conclusive" not in report


def test_cli_recollement(capsys):
    assert main(["recollement", ALG, P2, S2]) == 0
    out = capsys.readouterr().out
    assert "T2 exceptional: True" in out


GOLDEN_DIR = Path(__file__).parent / "golden"


@pytest.mark.parametrize("field", ["Q", "GF(101)", "GF(5)"])
@pytest.mark.parametrize("name, argv", [
    ("construct-tilting-S2-I1", ["construct-tilting", ALG, S2, I1]),
    ("reflect-S2", ["reflect", ALG, S2]),
    ("reflect-S2-I1", ["reflect", ALG, S2, I1]),
    ("recollement-P2-S2", ["recollement", ALG, P2, S2])])
def test_cli_json_reports_match_the_golden_files(tmp_path, capsys, name, argv, field):
    """The --json reports of construct-tilting, reflect and recollement on
    the cycle2 fixtures are byte-identical to the ones recorded in
    tests/golden, before the universal triangles were one primitive."""
    out = tmp_path / "report.json"
    assert main(argv + ["--field", field, "--json", str(out)]) == 0
    capsys.readouterr()
    tag = field.replace("(", "").replace(")", "")
    assert out.read_bytes() == (GOLDEN_DIR / f"{name}-{tag}.json").read_bytes()


def test_cli_verify_examples_exit_zero():
    assert main(["verify-example", "a2-bongartz"]) == 0


def test_cli_input_error_exit_two(capsys):
    assert main(["info", "/nonexistent/file.alg"]) == 2


def test_cli_negative_budgets_exit_two(tmp_path):
    """K[x]/(x²) and its simple, of infinite projective dimension: a negative
    resolution bound or step budget is malformed input, not a bound that
    is never reached."""
    alg = tmp_path / "dual.alg"
    alg.write_text("field Q\nvertex 1\narrow x: 1 -> 1\nrelation x*x\n")
    s = tmp_path / "S.mod"
    s.write_text("dim 1=1\nmap x = [[0]]\n")
    # well-formed files: a nonnegative bound is exceeded (exit 3)
    assert main(["resolve", "--max-resolution", "2", str(alg), str(s)]) == 3
    assert main(["resolve", "--max-resolution", "-1", str(alg), str(s)]) == 2
    assert main(["gldim", "--max-resolution", "-1", str(alg)]) == 2
    assert main(["ext", "-k", "0", "--max-resolution", "-1", str(alg), str(s), str(s)]) == 2
    assert main(["reflect", "--max-steps", "-1", ALG, S2]) == 2


def test_cli_field_override(capsys):
    assert main(["ext", "-k", "1", "--field", "GF(101)", ALG, I1, S2]) == 0
    assert "dim Ext^1 = 1" in capsys.readouterr().out


def test_cli_json_report_deterministic(tmp_path, capsys):
    out1 = tmp_path / "r1.json"
    out2 = tmp_path / "r2.json"
    assert main(["tilting-check", ALG, P2, S2, "--json", str(out1)]) == 0
    assert main(["tilting-check", ALG, P2, S2, "--json", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    data = json.loads(out1.read_text())
    assert data["tilting"] is True
    assert data["t0_dims"] == [2, 4]


@pytest.mark.parametrize("where", ["missing dir/x.json", "."])
def test_cli_json_to_an_unwritable_path_exits_two(tmp_path, capsys, where):
    """A --json path in a directory that does not exist, or a directory
    itself: the report is printed, then an input error names the path."""
    out = tmp_path / where
    assert main(["info", str(FIXTURE_DIR / "a2.alg"), "--json", str(out)]) == 2
    captured = capsys.readouterr()
    assert "algebra" in captured.out
    assert f"cannot write --json report {out}" in captured.err
    assert "Traceback" not in captured.err


def test_cli_has_no_seed_option(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["tilting-check", ALG, P2, S2, "--seed", "3"])
    assert exc.value.code == 2
    assert "--seed" in capsys.readouterr().err


def test_cli_localize_json_deterministic(tmp_path):
    out1 = tmp_path / "l1.json"
    out2 = tmp_path / "l2.json"
    assert main(["localize", ALG, P2, S2, "--json", str(out1)]) == 0
    assert main(["localize", ALG, P2, S2, "--json", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


# -- unreadable input files -----------------------------------------------------


def test_directory_as_algebra_file_is_an_input_error(tmp_path, capsys):
    with pytest.raises(InputError, match="Is a directory"):
        load_algebra(tmp_path)
    assert main(["info", str(tmp_path)]) == 2
    assert str(tmp_path) in capsys.readouterr().err


def test_directory_as_module_file_is_an_input_error(tmp_path, capsys):
    with pytest.raises(InputError, match="Is a directory"):
        load_module(tmp_path)
    assert main(["hom", ALG, str(tmp_path), str(tmp_path)]) == 2
    assert str(tmp_path) in capsys.readouterr().err


@pytest.mark.parametrize("line", ["algebra", "algebra   "])
def test_module_algebra_line_naming_no_file_is_an_input_error(tmp_path, capsys, line):
    # an empty path would resolve to the module file's own directory
    bad = tmp_path / "bad.mod"
    bad.write_text(f"{line}\ndim 1=1\n")
    for alg in (None, fixture_algebra("cycle2")):
        with pytest.raises(InputError, match="algebra line names no file"):
            load_module(bad, alg)
    assert main(["hom", ALG, str(bad), str(bad)]) == 2
    assert "algebra line names no file" in capsys.readouterr().err


def test_algebra_file_that_is_not_utf8_is_an_input_error(tmp_path, capsys):
    bad = tmp_path / "bad.alg"
    bad.write_bytes(b"field Q\nvertex 1\n\xff\n")
    with pytest.raises(InputError, match="line 3: not UTF-8"):
        load_algebra(bad)
    assert main(["info", str(bad)]) == 2
    assert f"{bad}, line 3" in capsys.readouterr().err
