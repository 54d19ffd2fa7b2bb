"""End-to-end tests of the command-line interface: every verb, both input
kinds, fixture mode, JSON reports, exit codes, and output determinism."""

import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

import crossedideals
from crossedideals.cli import build_parser, main

DATA = Path(crossedideals.__file__).parent / "data"

FLIP = str(DATA / "two_point_flip.system")
Z2FIX = str(DATA / "order_two_fixed_point.system")
SEMILAT = str(DATA / "semilattice_halfspace.system")
BRANDT = str(DATA / "matrix_units.system")
TRIV = str(DATA / "one_point_trivial.system")
PAIR = str(DATA / "pair_groupoid.groupoid")
Z2GPD = str(DATA / "order_two_group.groupoid")


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# validate

def test_validate_system(capsys):
    code, out, err = run(capsys, ["validate", FLIP])
    assert code == 0
    assert out == "valid system: 2 elements acting on 2 points over F 2\n"
    assert err == ""


def test_validate_groupoid(capsys):
    code, out, err = run(capsys, ["validate", PAIR])
    assert code == 0
    assert out == "valid groupoid: 4 elements, 2 units, over F 2\n"


def test_validate_json_report(capsys, tmp_path):
    report = tmp_path / "report.json"
    code, out, err = run(capsys, ["validate", FLIP, "--json-out", str(report)])
    assert code == 0
    body = json.loads(report.read_text())
    assert body == {
        "kind": "system",
        "ok": True,
        "field": "F 2",
        "semigroup_size": 2,
        "space_size": 2,
    }


def test_validate_rejects_broken_action(capsys, tmp_path):
    # g becomes idempotent in the table, but theta_g still swaps the points,
    # so theta_g . theta_g != theta_{gg}.
    bad = tmp_path / "bad.system"
    bad.write_text(Path(FLIP).read_text().replace("    g 1\n", "    g g\n"))
    code, out, err = run(capsys, ["validate", str(bad)])
    assert code == 1
    assert out.startswith("FAILED: invalid system: action-homomorphism")


def test_validate_reports_nonassociative_table(capsys, tmp_path):
    bad = tmp_path / "bad.system"
    bad.write_text(Path(FLIP).read_text().replace("    1 g\n", "    g g\n"))
    code, out, err = run(capsys, ["validate", str(bad)])
    assert code == 1
    assert out.startswith("FAILED: invalid system: associativity")


def test_failure_report_is_written_as_json(capsys, tmp_path):
    bad = tmp_path / "bad.system"
    bad.write_text(Path(FLIP).read_text().replace("    1 g\n", "    g g\n"))
    report = tmp_path / "report.json"
    code, out, err = run(capsys, ["validate", str(bad), "--json-out", str(report)])
    assert code == 1
    body = json.loads(report.read_text())
    assert body["ok"] is False
    assert body["kind"] == "system"
    assert body["rule"] == "associativity"
    assert body["witness"]


def test_unwritable_json_report_exits_2_without_a_traceback(capsys, tmp_path):
    missing = tmp_path / "no-such-dir" / "report.json"
    code, out, err = run(capsys, ["validate", FLIP, "--json-out", str(missing)])
    assert code == 2
    assert out == ""
    assert err == f"error: cannot write {missing}: No such file or directory\n"
    assert not missing.parent.exists()


def test_json_report_to_a_directory_exits_2_on_both_paths(capsys, tmp_path):
    bad = tmp_path / "bad.system"
    bad.write_text(Path(FLIP).read_text().replace("    1 g\n", "    g g\n"))
    for path in (FLIP, str(bad)):  # the success path, then the FAILED path
        code, out, err = run(capsys, ["validate", path, "--json-out", str(tmp_path)])
        assert code == 2
        assert out == ""
        assert err == f"error: cannot write {tmp_path}: Is a directory\n"


# ---------------------------------------------------------------------------
# build

def test_build_system_structure_constants(capsys):
    code, out, err = run(capsys, ["build", FLIP])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "crossed product over F 2"
    assert lines[1] == "dimension: 4"
    assert lines[2] == "basis: a:1 b:1 a:g b:g"
    assert lines[3] == "structure constants (16 rows):"
    rows = lines[4:]
    assert len(rows) == 16
    assert "  a:1 * a:1 = 1*a:1" in rows
    assert "  a:1 * b:1 = 0" in rows
    assert "  a:g * b:g = 1*a:1" in rows
    assert "  a:g * a:g = 0" in rows


def test_build_groupoid_convolution(capsys):
    code, out, err = run(capsys, ["build", PAIR])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "groupoid convolution algebra over F 2"
    assert lines[1] == "dimension: 4"
    assert lines[2] == "basis: u v uv vu"
    assert "  uv * vu = 1*u" in lines
    assert "  uv * uv = 0" in lines


def test_build_field_override(capsys):
    code, out, err = run(capsys, ["build", FLIP, "--field", "F 3"])
    assert code == 0
    assert out.splitlines()[0] == "crossed product over F 3"
    code, out, err = run(capsys, ["build", FLIP, "--field", "Q"])
    assert code == 0
    assert out.splitlines()[0] == "crossed product over Q"


def test_build_json_report(capsys, tmp_path):
    report = tmp_path / "cp.json"
    code, out, err = run(capsys, ["build", FLIP, "--json-out", str(report)])
    assert code == 0
    body = json.loads(report.read_text())
    assert body["kind"] == "crossed-product"
    assert body["dimension"] == 4
    assert body["basis"] == ["a:1", "b:1", "a:g", "b:g"]
    assert len(body["products"]) == 16
    assert {"left": "a:g", "right": "b:g", "result": "1*a:1"} in body["products"]


def test_build_guard_override(capsys):
    code, out, err = run(capsys, ["build", FLIP, "--guard-dim", "2"])
    assert code == 2
    assert "error: crossed product dimension 4 exceeds the guard 2" in err


def test_zero_guard_is_rejected(capsys):
    code, out, err = run(capsys, ["build", FLIP, "--guard-dim", "0"])
    assert code == 2
    assert out == ""
    assert err == "error: --guard-dim must be a positive integer, got 0\n"


def test_negative_guard_is_rejected_in_fixture_mode(capsys):
    code, out, err = run(capsys, ["isocheck", "--fixtures", "--guard-dim", "-1"])
    assert code == 2
    assert out == ""
    assert err == "error: --guard-dim must be a positive integer, got -1\n"


# ---------------------------------------------------------------------------
# germs

def test_germs_fixed_point(capsys):
    code, out, err = run(capsys, ["germs", Z2FIX])
    assert code == 0
    assert out.splitlines() == [
        "germ groupoid: 2 germs, 1 units, 1 orbit(s)",
        "  [1@x]: x -> x (unit)",
        "  [g@x]: x -> x",
        "  orbit: x",
        "  isotropy at x: order 2 ([1@x] [g@x])",
    ]


def test_germs_flip(capsys):
    code, out, err = run(capsys, ["germs", FLIP])
    assert code == 0
    assert out.splitlines() == [
        "germ groupoid: 4 germs, 2 units, 1 orbit(s)",
        "  [1@a]: a -> a (unit)",
        "  [g@a]: a -> b",
        "  [1@b]: b -> b (unit)",
        "  [g@b]: b -> a",
        "  orbit: a b",
        "  isotropy at a: order 1 ([1@a])",
        "  isotropy at b: order 1 ([1@b])",
    ]


def test_germs_json_report(capsys, tmp_path):
    report = tmp_path / "germs.json"
    code, out, err = run(capsys, ["germs", BRANDT, "--json-out", str(report)])
    assert code == 0
    body = json.loads(report.read_text())
    assert body["kind"] == "germ-groupoid"
    assert body["germ_count"] == 4
    assert body["orbits"] == [["a", "b"]]
    assert body["isotropy"]["a"]["order"] == 1
    names = {g["name"] for g in body["germs"]}
    assert names == {"[f@a]", "[s@a]", "[e@b]", "[s*@b]"}


# ---------------------------------------------------------------------------
# decompose

def test_decompose_augmentation_ideal(capsys):
    code, out, err = run(capsys, ["decompose", Z2FIX, "1·x:1 + 1·x:g"])
    assert code == 0
    assert out.splitlines() == [
        "crossed product dimension 2 over F 2",
        "ideal dimension 1 (generated by 1 generator(s))",
        "  at x: restriction dim 1 (admissible), induced dim 1",
        "intersection equals the ideal: exact",
    ]


def test_decompose_accepts_bare_element_names(capsys):
    code, out_full, err = run(capsys, ["decompose", Z2FIX, "1·x:1 + 1·x:g"])
    assert code == 0
    code, out_bare, err = run(capsys, ["decompose", Z2FIX, "1 + g"])
    assert code == 0
    assert out_bare == out_full


def test_decompose_zero_ideal(capsys):
    code, out, err = run(capsys, ["decompose", FLIP])
    assert code == 0
    lines = out.splitlines()
    assert lines[1] == "ideal dimension 0 (generated by no generator(s))"
    assert lines[-1] == "intersection equals the ideal: exact"


def test_decompose_json_certificate(capsys, tmp_path):
    report = tmp_path / "cert.json"
    code, out, err = run(
        capsys, ["decompose", Z2FIX, "1 + g", "--json-out", str(report)])
    assert code == 0
    body = json.loads(report.read_text())
    assert body["kind"] == "decomposition"
    assert body["dimension"] == 2
    assert body["generators"] == ["1·x:1 + 1·x:g"]
    assert body["ideal_dimension"] == 1
    assert body["ok"] is True
    cert = body["certificate"]
    assert cert["exact"] is True
    assert cert["orbit_representatives"] == ["x"]
    assert cert["ideal"] == {"ambient_dim": 2, "dim": 1, "basis": [[1, 1]]}
    point = cert["points"][0]
    assert point["point"] == "x"
    assert point["admissible"] is True
    assert point["gamma_ideal"]["dim"] == 1
    assert point["induced_ideal"]["dim"] == 1


def test_decompose_rejects_malformed_generator(capsys):
    code, out, err = run(capsys, ["decompose", Z2FIX, "no-such:term"])
    assert code == 2
    assert err.startswith("error:")


# ---------------------------------------------------------------------------
# isocheck

def test_isocheck_flip(capsys):
    code, out, err = run(capsys, ["isocheck", FLIP])
    assert code == 0
    assert out.splitlines() == [
        "crossed product == germ groupoid algebra: dimension 4, "
        "multiplicative on all basis pairs, restriction triangles verified",
        "  a:1 -> [1@a]",
        "  b:1 -> [1@b]",
        "  a:g -> [g@b]",
        "  b:g -> [g@a]",
    ]


def test_isocheck_json_report(capsys, tmp_path):
    report = tmp_path / "iso.json"
    code, out, err = run(capsys, ["isocheck", BRANDT, "--json-out", str(report)])
    assert code == 0
    body = json.loads(report.read_text())
    assert body["kind"] == "section-groupoid-isomorphism"
    assert body["ok"] is True
    assert body["dimension"] == 4
    assert sorted(body["basis_map"]) == sorted(["b:e", "a:f", "b:s", "a:s*"])
    assert sorted(body["basis_map"].values()) == sorted(
        ["[e@b]", "[f@a]", "[s@a]", "[s*@b]"])


# ---------------------------------------------------------------------------
# bisect

def test_bisect_pair_groupoid(capsys):
    code, out, err = run(capsys, ["bisect", PAIR])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "groupoid of 4 elements: 7 bisections"
    assert lines[1] == ("crossed product of the intrinsic action has dimension 4; "
                        "algebra isomorphism verified")
    arrows = lines[2:]
    assert len(arrows) == 4
    targets = sorted(line.split(" -> ")[1] for line in arrows)
    assert targets == sorted(["u", "v", "uv", "vu"])


def test_bisect_order_two_group(capsys, tmp_path):
    report = tmp_path / "bisect.json"
    code, out, err = run(capsys, ["bisect", Z2GPD, "--json-out", str(report)])
    assert code == 0
    body = json.loads(report.read_text())
    assert body["kind"] == "bisection-model"
    assert body["groupoid_size"] == 2
    assert body["bisections"] == 3
    assert body["crossed_product_dim"] == 2
    assert sorted(body["basis_map"].values()) == ["1", "g"]


# ---------------------------------------------------------------------------
# oracle

def test_oracle_enumerates_all_ideals(capsys):
    code, out, err = run(capsys, ["oracle", Z2FIX])
    assert code == 0
    assert out.splitlines() == [
        "crossed product dimension 2 over F 2: 3 two-sided ideals, "
        "all decompositions exact",
        "  dim 0: 0",
        "  dim 1: 1·x:1 + 1·x:g",
        "  dim 2: 1·x:1; 1·x:g",
    ]


def test_oracle_needs_prime_field(capsys):
    code, out, err = run(capsys, ["oracle", Z2FIX, "--field", "Q"])
    assert code == 2
    assert "error: the exhaustive oracle needs a prime field" in err


def test_oracle_guards_the_line_count(capsys):
    # dim 2 over F_1000003 has 1,000,004 lines, one ideal_generate each
    start = time.perf_counter()
    code, out, err = run(capsys, ["oracle", Z2FIX, "--field", "F 1000003"])
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (2, "")
    assert err == ("error: ideal enumeration guarded to 10000 lines, "
                   "got 1000004 (p = 1000003, dim 2)\n")


def test_oracle_json_report(capsys, tmp_path):
    report = tmp_path / "oracle.json"
    code, out, err = run(capsys, ["oracle", SEMILAT, "--json-out", str(report)])
    assert code == 0
    body = json.loads(report.read_text())
    assert body["kind"] == "ideal-oracle"
    assert body["dimension"] == 2
    assert body["ideal_count"] == 4
    assert all(row["exact"] for row in body["ideals"])


# ---------------------------------------------------------------------------
# fixture mode

def test_fixtures_validate_all(capsys):
    code, out, err = run(capsys, ["validate", "--fixtures"])
    assert code == 0
    assert out.splitlines() == [
        "[FIX-BRANDT]",
        "  valid system: 5 elements acting on 2 points over F 2",
        "[FIX-FLIP]",
        "  valid system: 2 elements acting on 2 points over F 2",
        "[FIX-SEMILAT]",
        "  valid system: 2 elements acting on 2 points over F 2",
        "[FIX-TRIV]",
        "  valid system: 1 elements acting on 1 points over F 2",
        "[FIX-Z2FIX]",
        "  valid system: 2 elements acting on 1 points over F 2",
    ]


def test_fixtures_oracle_counts(capsys):
    code, out, err = run(capsys, ["oracle", "--fixtures"])
    assert code == 0
    lines = out.splitlines()
    expected = {
        "FIX-TRIV": "  crossed product dimension 1 over F 2: "
                    "2 two-sided ideals, all decompositions exact",
        "FIX-FLIP": "  crossed product dimension 4 over F 2: "
                    "2 two-sided ideals, all decompositions exact",
        "FIX-Z2FIX": "  crossed product dimension 2 over F 2: "
                     "3 two-sided ideals, all decompositions exact",
        "FIX-BRANDT": "  crossed product dimension 4 over F 2: "
                      "2 two-sided ideals, all decompositions exact",
        "FIX-SEMILAT": "  crossed product dimension 2 over F 2: "
                       "4 two-sided ideals, all decompositions exact",
    }
    for name, summary in expected.items():
        assert summary == lines[lines.index(f"[{name}]") + 1]


def test_fixtures_bisect_uses_germ_groupoids(capsys):
    code, out, err = run(capsys, ["bisect", "--fixtures"])
    assert code == 0
    lines = out.splitlines()
    flip = lines[lines.index("[FIX-FLIP]") + 1]
    assert flip == "  groupoid of 4 elements: 7 bisections"
    z2 = lines[lines.index("[FIX-Z2FIX]") + 1]
    assert z2 == "  groupoid of 2 elements: 3 bisections"
    triv = lines[lines.index("[FIX-TRIV]") + 1]
    assert triv == "  groupoid of 1 elements: 2 bisections"


def test_fixtures_decompose_json(capsys, tmp_path):
    report = tmp_path / "suite.json"
    code, out, err = run(
        capsys, ["decompose", "--fixtures", "--json-out", str(report)])
    assert code == 0
    body = json.loads(report.read_text())
    assert body["kind"] == "fixture-suite"
    assert body["command"] == "decompose"
    assert sorted(body["fixtures"]) == [
        "FIX-BRANDT", "FIX-FLIP", "FIX-SEMILAT", "FIX-TRIV", "FIX-Z2FIX"]
    for entry in body["fixtures"].values():
        assert entry["ok"] is True
        assert entry["certificate"]["exact"] is True


def test_fixtures_field_override(capsys):
    code, out, err = run(capsys, ["validate", "--fixtures", "--field", "F 5"])
    assert code == 0
    assert "over F 5" in out
    assert "over F 2" not in out


# ---------------------------------------------------------------------------
# error paths and exit codes

def test_missing_path_without_fixtures(capsys):
    code, out, err = run(capsys, ["build"])
    assert code == 2
    assert err == "error: a file path is required unless --fixtures is given\n"


def test_unreadable_file(capsys, tmp_path):
    code, out, err = run(capsys, ["validate", str(tmp_path / "missing.system")])
    assert code == 2
    assert err.startswith("error:")
    assert "cannot read" in err


def test_parse_error_carries_line_number(capsys, tmp_path):
    bad = tmp_path / "bad.system"
    bad.write_text(Path(FLIP).read_text().replace("field: F 2", "field: F 4"))
    code, out, err = run(capsys, ["validate", str(bad)])
    assert code == 2
    assert err.startswith("error: line 3:")


def test_bad_field_override(capsys):
    code, out, err = run(capsys, ["build", FLIP, "--field", "F 4"])
    assert code == 2
    assert "not prime" in err


def test_large_prime_characteristic_is_decided_quickly(capsys, tmp_path):
    big = "F 1000000000000000003"  # 10^18 + 3 is prime
    code, out, err = run(capsys, ["validate", FLIP, "--field", big])
    assert (code, err) == (0, "")
    assert out == "valid system: 2 elements acting on 2 points over F 1000000000000000003\n"
    in_file = tmp_path / "big.system"
    in_file.write_text(Path(FLIP).read_text().replace("field: F 2", f"field: {big}"))
    code, out, err = run(capsys, ["validate", str(in_file)])
    assert (code, err) == (0, "")
    code, out, err = run(capsys, ["validate", FLIP, "--field", "F 1000000000000000001"])
    assert code == 2
    assert "not prime" in err


def test_characteristic_beyond_the_exact_primality_bound_exits_2(capsys):
    code, out, err = run(capsys, ["validate", FLIP, "--field", f"F {10 ** 24 + 7}"])
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "too large" in err


def test_command_kind_mismatch(capsys):
    code, out, err = run(capsys, ["bisect", FLIP])
    assert code == 2
    assert "command bisect expects a groupoid file" in err
    code, out, err = run(capsys, ["germs", PAIR])
    assert code == 2
    assert "command germs expects a system file" in err


# ---------------------------------------------------------------------------
# determinism and process-level wiring

def test_output_is_deterministic(capsys, tmp_path):
    first_json = tmp_path / "a.json"
    second_json = tmp_path / "b.json"
    code, first_out, err = run(
        capsys, ["oracle", SEMILAT, "--json-out", str(first_json)])
    assert code == 0
    code, second_out, err = run(
        capsys, ["oracle", SEMILAT, "--json-out", str(second_json)])
    assert code == 0
    assert first_out == second_out
    assert first_json.read_bytes() == second_json.read_bytes()
    # the two calls shared one parser, which still rejects a bad argument
    assert build_parser() is build_parser()
    with pytest.raises(SystemExit) as exc:
        main(["oracle", SEMILAT, "--guard-dim", "many"])
    assert exc.value.code == 2
    assert "--guard-dim: invalid int value" in capsys.readouterr().err


def test_json_report_is_canonical(capsys, tmp_path):
    report = tmp_path / "report.json"
    code, out, err = run(capsys, ["germs", FLIP, "--json-out", str(report)])
    assert code == 0
    raw = report.read_text()
    assert raw.endswith("\n")
    body = json.loads(raw)
    assert raw == json.dumps(body, sort_keys=True, indent=2) + "\n"


def test_subprocess_entry_point(capsys):
    in_process_code, in_process_out, err = run(capsys, ["germs", FLIP])
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys; from crossedideals.cli import main; "
         "sys.exit(main(sys.argv[1:]))",
         "germs", FLIP],
        capture_output=True, text=True)
    assert proc.returncode == in_process_code == 0
    assert proc.stdout == in_process_out
