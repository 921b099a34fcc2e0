"""CLI surface: JSON/CSV outputs, determinism, exit codes."""

import json
import math
import warnings

import numpy as np
import pytest

from geothermo import analysis, cli, dsl, systems
from geothermo.errors import DomainViolation
from geothermo.oracle import oracle_eval


def run(argv, capsys):
    code = cli.main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_curvature_json(capsys):
    code, out, _ = run(["curvature", "--system", "ideal_s",
                        "--at", "u=1,v=1"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["system"] == "ideal_s"
    assert abs(doc["ricci_scalar"]) < 1e-8
    assert set(doc) == {"system", "point", "ricci_scalar", "det_g",
                        "conformal_factor", "degenerate", "nonfinite"}


@pytest.mark.parametrize("at,flag", [("T=0.2,H=2", True), ("T=1,H=1", False)])
def test_curvature_json_flags_untrusted_values(capsys, at, flag):
    # float64 gives R ~ 2e20 at T = 0.2, H = 2 against 2.57e25 in extended
    # precision; the flag marks |R| beyond geometry.NONFINITE_R
    code, out, _ = run(["curvature", "--system", "ising_f", "--at", at],
                       capsys)
    assert code == 0
    assert json.loads(out)["nonfinite"] is flag


def test_curvature_with_params(capsys):
    code, out, _ = run(["curvature", "--system", "chap_s",
                        "--param", "alpha=1,beta=1", "--at", "u=2,v=2"],
                       capsys)
    assert code == 0
    assert json.loads(out)["ricci_scalar"] == pytest.approx(-2.0, abs=1e-6)


def test_exit_code_domain_violation(capsys):
    code, _, err = run(["curvature", "--system", "vdw_s",
                        "--at", "u=1,v=0.5"], capsys)
    assert code == 2
    assert "v > b" in err


def test_exit_code_degenerate(capsys):
    code, _, err = run(["curvature", "--system", "chap_s",
                        "--param", "alpha=0,beta=0", "--at", "u=2,v=2"],
                       capsys)
    assert code == 3
    assert "degenerate" in err.lower()


def test_exit_code_usage(tmp_path, capsys):
    assert run(["curvature", "--at", "u=1,v=1"], capsys)[0] == 1
    assert run(["curvature", "--system", "nope", "--at", "u=1"], capsys)[0] == 1
    assert run(["curvature", "--system", "ideal_s", "--at", "w=1"],
               capsys)[0] == 1
    assert run(["scan", "--system", "ideal_s", "--grid", "u=bogus"],
               capsys)[0] == 1
    assert run(["scan", "--system", "vdw_vP", "--param", "q=3",
                "--grid", "v=1.2:9:5", "--grid", "P=0.0296:0.0296:1"],
               capsys)[0] == 1
    assert run(["figure", "--recipe", "vdW9"], capsys)[0] == 1
    assert run(["check", "nosuch"], capsys)[0] == 1
    assert run(["bogus-command"], capsys)[0] == 1
    # malformed points and system files: one line on stderr, no traceback
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    for argv in (["--system", "vdw_s", "--at", "u"],
                 ["--system", "vdw_s", "--at", "u=x,v=3"],
                 ["--system", "vdw_s", "--at", ","],
                 ["--file", str(tmp_path / "missing.json"), "--at", "x=1"],
                 ["--file", str(bad), "--at", "x=1"]):
        code, out, err = run(["curvature"] + argv, capsys)
        assert (code, out) == (1, ""), argv
        assert err.startswith("geothermo: error: "), argv
        assert err.count("\n") == 1 and "Traceback" not in err, argv


@pytest.mark.parametrize("system,param", [
    ("vdw_s", "a=nan"), ("vdw_s", "a=inf"), ("chap_s", "alpha=nan")])
def test_non_finite_param_is_a_usage_error(capsys, system, param):
    # unchecked, the value fails later, as a domain violation (exit 2) or
    # a non-finite Taylor coefficient (exit 1) depending on where it breaks
    code, out, err = run(["curvature", "--system", system, "--param", param,
                          "--at", "u=2,v=3"], capsys)
    name, value = param.split("=")
    assert (code, out) == (1, "")
    assert err == (f"geothermo: error: --param {name} must be finite, "
                   f"got {float(value)!r}\n")


@pytest.mark.parametrize("at", ["u=nan,v=3", "u=2,v=inf", "u=2,v=-inf"])
def test_non_finite_point_is_a_usage_error(capsys, at):
    # unchecked, u=nan fails as a domain violation (exit 2) and v=inf on a
    # non-finite field value (exit 1)
    code, out, err = run(["curvature", "--system", "vdw_s", "--at", at],
                         capsys)
    name, value = next(kv.split("=") for kv in at.split(",")
                       if not math.isfinite(float(kv.split("=")[1])))
    assert (code, out) == (1, "")
    assert err == (f"geothermo: error: --at {name} must be finite, "
                   f"got {float(value)!r}\n")


def test_unknown_system_and_parameter_messages_are_unquoted(capsys):
    _, _, err = run(["curvature", "--system", "inv", "--at", "u=2,v=3"],
                    capsys)
    assert err == ("geothermo: error: unknown system 'inv' (have ideal_s, "
                   "ideal_u, ideal_F, ideal_g, vdw_s, vdw_u, vdw_F, ising_f, "
                   "chap_s, chap_u)\n")
    _, _, err = run(["curvature", "--system", "vdw_s", "--param", "zz=1",
                     "--at", "u=2,v=3"], capsys)
    assert err == "geothermo: error: vdw_s has no parameter(s) ['zz']\n"


def test_exit_code_unwritable(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.cmd_figure(type("A", (), {"recipe": "vdW1",
                                      "output": "/nonexistent/x.csv"})())
    assert exc.value.code == 4


def test_unwritable_sidecar_exits_4(tmp_path, capsys):
    # the CSV is written, and its sidecar's path is a directory
    (tmp_path / "s.csv.loci.json").mkdir()
    with pytest.raises(SystemExit) as exc:
        cli.main(["scan", "--system", "ideal_s", "--grid", "u=0.5:5:2",
                  "--grid", "v=0.5:5:2", "-o", str(tmp_path / "s.csv")])
    assert exc.value.code == 4
    assert capsys.readouterr().err.startswith(
        f"cannot write {tmp_path / 's.csv.loci.json'}: ")


def test_system_file_loading(tmp_path, capsys):
    doc = {"id": "toy", "coords": [{"name": "x"}, {"name": "y"}],
           "excluded_index": "x", "params": {"k": 1.5},
           "domain": ["x > 0", "y > 0"], "relation": "k*ln(x) + ln(y)",
           "sample_box": [[0.5, 2.0], [0.5, 2.0]]}
    path = tmp_path / "toy.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run(["curvature", "--file", str(path),
                        "--at", "x=1,y=1"], capsys)
    assert code == 0
    assert json.loads(out)["system"] == "toy"


def test_system_file_with_param_is_built_once(tmp_path, capsys, monkeypatch):
    doc = {"id": "toy", "coords": [{"name": "x"}, {"name": "y"}],
           "excluded_index": "x", "params": {"k": 1.5},
           "domain": ["x > 0", "y > 0"], "relation": "k*ln(x) + 2*ln(y)",
           "sample_box": [[0.5, 2.0], [0.5, 2.0]]}
    path, path3 = tmp_path / "toy.json", tmp_path / "toy3.json"
    path.write_text(json.dumps(doc))
    path3.write_text(json.dumps(dict(doc, params={"k": 3.0})))
    at = ["--at", "x=1,y=1"]
    want = run(["curvature", "--file", str(path3)] + at, capsys)[1]
    calls = []
    parse = dsl.parse_relation
    monkeypatch.setattr(dsl, "parse_relation",
                        lambda *a, **k: calls.append(a) or parse(*a, **k))
    code, out, _ = run(["curvature", "--file", str(path), "--param", "k=3"]
                       + at, capsys)
    assert code == 0
    assert out == want
    assert len(calls) == 1
    assert run(["curvature", "--file", str(path), "--param", "q=3"] + at,
               capsys)[0] == 1
    # a document or 'params' that is not an object is still a parse error
    for bad in ([doc], dict(doc, params=[1.5])):
        path.write_text(json.dumps(bad))
        code, _, err = run(["curvature", "--file", str(path),
                            "--param", "k=3"] + at, capsys)
        assert code == 1
        assert err.startswith("geothermo: parse error:")


TOY = {"id": "toy", "coords": [{"name": "x"}, {"name": "y"}],
       "excluded_index": "x", "relation": "ln(x) + ln(y)"}


@pytest.mark.parametrize("change", [
    {"coords": [{"name": "x"}, {"name": "x"}]},
    {"coords": None},
    {"coords": "x,y"},
    {"coords": [{"role": "extensive"}, {"name": "y"}]},
    {"relation": None},
    {"excluded_index": None},
    {"excluded_index": "z"},
    {"params": {"k": "big"}},
    {"params": {"k": float("nan")}},
    {"params": {"k": float("-inf")}},
    {"domain": "x > 0"},
    {"domain": ["x > y > 0"]},
    {"domain": ["x + y"]},
    {"domain": ["x y > 0"]},
    {"domain": ["z > 0"]},
    {"domain": ["x (y) > 0"]},
    {"domain": ["ln > 0"]},
    {"relation": "ln(x) + k*ln(y)"},
    {"sample_box": [[0.5, 2.0, 3.0]]},
    {"sample_box": [[0.5, 2.0]]},
    {"sample_box": [[0.5, 2.0], [1.0, float("nan")]]},
    {"sample_box": [[0.5, 2.0], [3.0, 3.0]]},
], ids=["duplicate-names", "no-coords", "coords-not-list", "coord-no-name",
        "no-relation", "no-excluded-index", "excluded-index-unknown",
        "param-not-number", "param-nan", "param-infinite", "domain-not-list",
        "two-comparisons", "no-comparison", "trailing-before-comparison",
        "unknown-identifier", "coordinate-called", "function-not-called",
        "unknown-parameter",
        "bad-sample-box",
        "sample-box-pair-count", "sample-box-not-finite",
        "sample-box-lo-not-below-hi"])
def test_malformed_system_file_is_a_parse_error(tmp_path, capsys, change):
    doc = {k: v for k, v in dict(TOY, **change).items() if v is not None}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(["curvature", "--file", str(path),
                          "--at", "x=1,y=1"], capsys)
    assert code == 1
    assert out == ""
    assert "Traceback" not in err
    assert err.startswith("geothermo: parse error:")
    assert len(err.strip().splitlines()) == 1


def test_scan_csv_and_sidecar(tmp_path, capsys):
    out_path = tmp_path / "scan.csv"
    P = 0.8 / 27.0
    code, _, _ = run(["scan", "--system", "vdw_vP",
                      "--grid", "v=1.2:9:121", "--grid", f"P={P}:{P}:1",
                      "-o", str(out_path)], capsys)
    assert code == 0
    lines = out_path.read_text().splitlines()
    assert lines[0].startswith("# scan ")
    assert lines[1] == "v,P,R,nonfinite"
    assert len(lines) == 2 + 121
    loci = json.loads((tmp_path / "scan.csv.loci.json").read_text())
    assert len(loci["detections"]) == 2
    for d in loci["detections"]:
        assert d["classification"] == "locus"
        assert d["locus_deviation"] < 1e-4


S_GRID = ["--grid", "u=0.05:5:60", "--grid", "v=1.2:6:60"]
VP_GRID = ["--grid", "v=1.2:9:41", "--grid", "P=0.0296:0.0296:1"]


@pytest.mark.parametrize("argv", [
    ["--system", "vdw_s", "--grid", "u=nan:5:3", "--grid", "v=1.2:6:3"],
    ["--system", "vdw_s", "--grid", "u=0.05:inf:3", "--grid", "v=1.2:6:3"],
    ["--system", "vdw_vP", "--param", "a=nan"] + VP_GRID,
    ["--system", "vdw_vP", "--grid", "v=1.2:9:41", "--grid", "P=nan:nan:1"],
    ["--system", "vdw_s", "--threshold", "nan"] + S_GRID,
    ["--system", "vdw_s", "--threshold", "inf"] + S_GRID,
    ["--system", "vdw_s", "--threshold", "-1"] + S_GRID,
    ["--system", "vdw_s"] + S_GRID + ["--grid", "w=0:1:3"],
    ["--system", "vdw_s", "--grid", "u=0.05:5:60", "--grid", "u=1:2:3",
     "--grid", "v=1.2:6:60"],
    ["--system", "vdw_vP"] + VP_GRID + ["--grid", "u=0:1:3"],
    ["--system", "vdw_vP", "--grid", "v=1.2:9:41", "--grid", "v=2:3:5",
     "--grid", "P=0.0296:0.0296:1"],
    # 2^62 nodes of 2 coordinates cannot be addressed as float64s: the
    # grid is rejected before any array is made
    ["--system", "ideal_s", "--grid", f"u=0.5:5:{2 ** 62}",
     "--grid", "v=0.5:5:2"],
    ["--system", "ideal_s", "--grid", "u=a:b:c", "--grid", "v=0.5:5:4"],
    ["--system", "ideal_s", "--grid", "u=0.5:5:4.5", "--grid", "v=0.5:5:4"],
    ["--system", "vdw_vP", "--grid", "v=1.2:9:41",
     "--grid", "P=0.02:0.03:2"],
], ids=["nan-bound", "inf-bound", "nan-param", "nan-pressure",
        "nan-threshold", "inf-threshold", "negative-threshold",
        "unknown-axis", "repeated-axis", "unknown-axis-vP",
        "repeated-axis-vP", "grid-beyond-address-space", "non-numeric-grid",
        "fractional-count", "two-pressures-vP"])
def test_scan_rejects_meaningless_input(tmp_path, capsys, argv):
    # unchecked, these raise KeyError or LinAlgError out of the CLI, or exit
    # 0 with no detection or with every node flagged
    code, out, err = run(["scan"] + argv + ["-o", str(tmp_path / "s.csv")],
                         capsys)
    assert code == 1
    assert "Traceback" not in out + err
    assert err.count("\n") == 1 and err.startswith("geothermo: error: ")
    assert not (tmp_path / "s.csv").exists()


@pytest.mark.parametrize("flag", ["unknown", "repeated"])
def test_scan_axis_error_names_the_axes(tmp_path, capsys, flag):
    extra = "w=0:1:3" if flag == "unknown" else "u=1:2:3"
    code, _, err = run(["scan", "--system", "vdw_s"] + S_GRID
                       + ["--grid", extra, "-o", "-"], capsys)
    assert code == 1
    assert f"{flag} ['{extra[0]}']" in err


@pytest.mark.parametrize("name,argv", [
    ("u", ["curvature", "--system", "vdw_s", "--at", "u=1,v=3,u=2"]),
    ("a", ["curvature", "--system", "vdw_s", "--param", "a=1,a=2",
           "--at", "u=2,v=3"]),
    ("a", ["curvature", "--system", "vdw_s", "--param", "a=2",
           "--param", "a=1", "--at", "u=2,v=3"]),
    ("a", ["scan", "--system", "vdw_vP", "--param", "a=1", "--param", "a=2"]
     + VP_GRID + ["-o", "-"]),
], ids=["at", "param-flag", "param-flags", "param-flags-vP"])
def test_repeated_name_is_rejected(capsys, name, argv):
    # unchecked, the last value of the name wins with no message
    code, out, err = run(argv, capsys)
    assert code == 1
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("geothermo: error: ")
    assert f"'{name}'" in err


def test_out_of_memory_is_reported(monkeypatch, capsys):
    def points(self):
        raise MemoryError("Unable to allocate 74.5 GiB")

    monkeypatch.setattr(analysis.GridSpec, "points", points)
    code, out, err = run(["scan", "--system", "ideal_s",
                          "--grid", "u=0.5:5:3", "--grid", "v=0.5:5:3",
                          "-o", "-"], capsys)
    assert code == 1
    assert out == ""
    assert err == ("geothermo: error: out of memory: "
                   "Unable to allocate 74.5 GiB\n")


# the zero denominator of tests/test_batch.py: 1/(x - y) has a pole on the
# diagonal, and each node there is a failed point
POLE = dict(TOY, id="pole", domain=["x > 0", "y > 0"],
            relation="ln(x) + 1/(x - y)")


@pytest.mark.parametrize("output", ["file", "-"])
def test_scan_csv_rows_are_the_report(tmp_path, capsys, output):
    # each row holds its grid point, R and flag as the report has them: a
    # failed node, a finite node above the threshold and one below it; R
    # reads back exactly through float(), as %.17g keeps every bit
    path = tmp_path / "pole.json"
    path.write_text(json.dumps(POLE))
    out_path = tmp_path / "pole.csv"
    code, out, err = run(["scan", "--file", str(path), "--grid", "x=0.5:2:7",
                          "--grid", "y=2:0.5:7", "--threshold", "3", "-o",
                          str(out_path) if output == "file" else "-"],
                         capsys)
    assert code == 0, err
    if output == "file":
        lines = out_path.read_text().splitlines()
        loci = json.loads((tmp_path / "pole.csv.loci.json").read_text())
    else:
        *lines, last = out.splitlines()
        loci = json.loads(last)
    grid = analysis.GridSpec((("x", 0.5, 2.0, 7), ("y", 2.0, 0.5, 7)))
    rep = analysis.singularity_scan(systems.from_definition(POLE), grid, 3.0)
    assert np.isnan(rep.R).any() and (rep.nonfinite & ~np.isnan(rep.R)).any()
    assert not rep.nonfinite.all()
    assert loci["failures"] == rep.failures == 7
    assert lines[1] == "x,y,R,nonfinite"
    rows = [line.split(",") for line in lines[2:]]
    assert len(rows) == 49
    for (x, y, r, flag), point, want, bad in zip(
            rows, grid.points().tolist(), rep.R.tolist(),
            rep.nonfinite.tolist()):
        assert [float(x), float(y)] == point
        got = float(r)
        assert got == want or (math.isnan(got) and math.isnan(want)), point
        assert flag == ("1" if bad else "0"), point


def test_vP_scan_at_overflowing_pressure_is_silent(tmp_path, capsys):
    # u(v, P) overflows at P = 1e308; each point fails without a warning
    out_path = tmp_path / "big.csv"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, _, err = run(["scan", "--system", "vdw_vP",
                            "--grid", "v=1.2:9:41",
                            "--grid", "P=1e308:1e308:1",
                            "-o", str(out_path)], capsys)
    assert code == 0
    assert err == ""
    assert [str(w.message) for w in caught] == []
    loci = json.loads((tmp_path / "big.csv.loci.json").read_text())
    assert loci["failures"] == 41


def test_vP_scan_with_an_overflowing_locus_polynomial(tmp_path, capsys):
    code, out, err = run(["scan", "--system", "vdw_vP", "--param", "a=1e308"]
                         + VP_GRID + ["-o", str(tmp_path / "a.csv")], capsys)
    assert code == 1
    assert "Traceback" not in out + err
    assert err.startswith("geothermo: locus polynomial is not finite")


def test_scan_ideal_empty_loci(tmp_path, capsys):
    out_path = tmp_path / "id.csv"
    code, _, _ = run(["scan", "--system", "ideal_s",
                      "--grid", "u=0.5:5:8", "--grid", "v=0.5:5:8",
                      "-o", str(out_path)], capsys)
    assert code == 0
    loci = json.loads((tmp_path / "id.csv.loci.json").read_text())
    assert loci["detections"] == []


def test_scan_constant_out_of_domain_fails_each_point(tmp_path, capsys):
    # ln(0.5 - 1) involves no coordinate, so it fails for every point alike;
    # the scan records each failure and still writes its CSV
    doc = dict(TOY, id="const_ln", domain=["x > ln(0.5 - 1)", "y > 0"],
               relation="x*y + ln(0.5 - 1)")
    path = tmp_path / "const.json"
    path.write_text(json.dumps(doc))
    out_path = tmp_path / "const.csv"
    code, _, err = run(["scan", "--file", str(path), "--grid", "x=0.5:2:3",
                        "--grid", "y=0.5:2:3", "-o", str(out_path)], capsys)
    assert code == 0, err
    assert len(out_path.read_text().splitlines()) == 2 + 9
    loci = json.loads((tmp_path / "const.csv.loci.json").read_text())
    assert loci["failures"] == 9
    code, _, err = run(["curvature", "--file", str(path), "--at", "x=1,y=1"],
                       capsys)
    assert code == 2
    assert "Traceback" not in err


@pytest.mark.parametrize("relation,code", [
    ("x^1e400 + y", 1),
    ("pow(x, 1e400 - 1e400) + y", 1),
    ("pow(0 - 0.5, 1e400) + x*y", 2),
    ("(0 - 2)^x + y", 2),
    ("2^(x*y) + ln(x)", 0),
    ("x + exp(800)", 1),
    ("x + sinh(800)", 1),
    ("x*cosh(800)", 1),
], ids=["inf-exponent", "nan-exponent", "negative-base-inf-exponent",
        "negative-constant-base", "constant-base", "constant-exp-overflow",
        "constant-sinh-overflow", "constant-cosh-overflow"])
def test_powers_keep_the_exit_code_contract(tmp_path, capsys, relation, code):
    # a non-finite exponent, a constant base to a coordinate power or a
    # constant that overflows fails the point (or none) instead of
    # escaping as a traceback
    path = tmp_path / "pow.json"
    path.write_text(json.dumps(dict(TOY, id="pow", relation=relation)))
    got, _, err = run(["curvature", "--file", str(path), "--at", "x=1,y=1"],
                      capsys)
    assert got == code, err
    assert "Traceback" not in err
    out_path = tmp_path / "pow.csv"
    got, _, err = run(["scan", "--file", str(path), "--grid", "x=0.5:2:3",
                       "--grid", "y=0.5:2:3", "-o", str(out_path)], capsys)
    assert got == 0, err
    loci = json.loads((tmp_path / "pow.csv.loci.json").read_text())
    assert loci["failures"] == (0 if code == 0 else 9)


def test_figure_deterministic(tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run(["figure", "--recipe", "vdW1", "-o", str(a)], capsys)[0] == 0
    assert run(["figure", "--recipe", "vdW1", "-o", str(b)], capsys)[0] == 0
    assert a.read_bytes() == b.read_bytes()
    header = a.read_text().splitlines()[1]
    assert header == "v_r,R_entropy,R_energy"


def _figure_columns(path):
    """The figure's data rows, as columns of their printed text."""
    rows = [line.split(",") for line in path.read_text().splitlines()[2:]]
    return list(zip(*rows))


def test_vdw2_figure_against_vdw1_and_the_closed_forms(tmp_path, capsys):
    one, two = tmp_path / "vdW1.csv", tmp_path / "vdW2.csv"
    assert run(["figure", "--recipe", "vdW1", "-o", str(one)], capsys)[0] == 0
    assert run(["figure", "--recipe", "vdW2", "-o", str(two)], capsys)[0] == 0
    assert two.read_text().splitlines()[1] == "v_r,R_energy,R_Helmholtz"
    v_r, R_energy, R_helmholtz = _figure_columns(two)
    assert R_energy == _figure_columns(one)[2]
    # the slice P = 0.8 P_c with a = b = 1, where T = (P + a/v^2)(v - b)
    a = b = 1.0
    P = cli.VDW_PR * a / (27.0 * b * b)
    for vr, re, rf in zip(v_r, R_energy, R_helmholtz):
        v = 3.0 * b * float(vr)
        T = (P + a / v ** 2) * (v - b)
        want = oracle_eval("vdw_R_F_Tv", {"T": T, "v": v}, {})
        assert abs(float(rf) - want) <= 1e-10 * (1.0 + abs(want)), vr
        want = -oracle_eval("vdw_R_vP", {"v": v, "P": P}, {})
        assert abs(float(re) - want) <= 1e-10 * (1.0 + abs(want)), vr


def test_check_homogeneity_suite(capsys):
    code, out, _ = run(["check", "homogeneity"], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert all(l.startswith("[PASS]") for l in lines[:-1])
    summary = json.loads(lines[-1])
    assert summary["pass"] is True


def test_check_failure_exit_code(capsys, monkeypatch):
    monkeypatch.setitem(cli.SUITES, "doomed",
                        lambda: [{"check": "doomed", "pass": False}])
    code, out, _ = run(["check", "doomed"], capsys)
    assert code == 5
    assert "[FAIL] doomed" in out


def test_check_suite_that_raises_fails_as_a_row(capsys, monkeypatch):
    # a domain violation inside a suite (an oracle row at b = 3, where the
    # oracle's points have v <= b) is that suite's FAIL row; the suites
    # after it still run, and the exit code is that of a failed check
    spec = cli.get_system("vdw_s", b=3.0)
    monkeypatch.setitem(cli.SUITES, "oracle",
                        lambda: [cli._oracle_row("vdw_R_s", spec)])
    monkeypatch.setitem(cli.SUITES, "criteria",
                        lambda: [{"check": "criterion:stub", "pass": True}])
    code, out, _ = run(["check", "all"], capsys)
    assert code == 5
    *lines, last = out.strip().splitlines()
    assert lines[0].startswith("[FAIL] oracle error=DomainViolation: ")
    assert "v > b" in lines[0]
    assert lines[-1] == "[PASS] criterion:stub "
    rows = json.loads(last)["checks"]
    assert rows[0]["check"] == "oracle" and rows[0]["pass"] is False
    assert [row["check"] for row in rows[1:]] == SUITE_ROWS[8:] + [
        "criterion:stub"]


def test_check_criterion_that_raises_fails_as_its_row(capsys, monkeypatch):
    # a criterion whose computation raises is its own FAIL row, and the
    # other ten still print; stubs stand for them
    def stub(num):
        return lambda: cli._criterion(num, True)

    def doomed():
        raise DomainViolation("a stencil node left the domain")

    monkeypatch.setattr(cli, "CRITERIA", tuple(
        doomed if num == 10 else stub(num) for num in range(1, 12)))
    code, out, _ = run(["check", "criteria"], capsys)
    assert code == 5
    *lines, last = out.strip().splitlines()
    assert lines == [f"[PASS] criterion:{num:02d} " for num in range(1, 10)] + [
        "[FAIL] criterion:10 error=DomainViolation: a stencil node left "
        "the domain", "[PASS] criterion:11 "]
    assert [row["pass"] for row in json.loads(last)["checks"]] == [
        num != 10 for num in range(1, 12)]


# the rows of `check all` before the criteria suite's, in order
SUITE_ROWS = [
    "oracle:vdw_R_s", "oracle:vdw_R_u", "oracle:vdw_R_vP", "oracle:vdw_R_F_Tv",
    "oracle:chap_R_s", "oracle:chap_R_u", "oracle:chap_det",
    "oracle:ideal_zero", "invariance:vdw_s~vdw_u",
    "invariance:ideal_s~ideal_u", "invariance:chap_s~chap_u",
    "invariance:vdw_u~vdw_F (intentionally different)",
    "homogeneity:degree-1", "homogeneity:degree-3",
    "homogeneity:ideal_s-rejected"]


def check_rows(argv, capsys):
    """Exit code and check names of a `check` run, after asserting that
    its text lines name its JSON rows in order and that every row passes."""
    code, out, _ = run(argv, capsys)
    *lines, last = out.strip().splitlines()
    rows = json.loads(last)["checks"]
    assert len(lines) == len(rows)
    for line, row in zip(lines, rows):
        assert line.startswith(f"[PASS] {row['check']} "), line
    # a NumPy bool would print as the string "True" under default=str
    assert all(row["pass"] is True for row in rows)
    return code, [row["check"] for row in rows]


def test_check_criteria_suite(capsys):
    code, names = check_rows(["check", "criteria"], capsys)
    assert code == 0
    assert names == [f"criterion:{n:02d}" for n in range(1, 12)]


def test_check_all_runs_the_criteria_last(capsys, monkeypatch):
    # the criteria themselves run in test_check_criteria_suite; here a
    # stub stands for them, after the 15 rows of the other suites
    monkeypatch.setitem(cli.SUITES, "criteria",
                        lambda: [{"check": "criterion:stub", "pass": True}])
    code, names = check_rows(["check", "all"], capsys)
    assert code == 0
    assert names == SUITE_ROWS + ["criterion:stub"]
