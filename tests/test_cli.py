"""CLI surface: JSON/CSV outputs, determinism, exit codes."""

import json
import math

import pytest

from geothermo import cli


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


def test_exit_code_usage(capsys):
    assert run(["curvature", "--at", "u=1,v=1"], capsys)[0] == 1
    assert run(["curvature", "--system", "nope", "--at", "u=1"], capsys)[0] == 1
    assert run(["curvature", "--system", "ideal_s", "--at", "w=1"],
               capsys)[0] == 1
    assert run(["scan", "--system", "ideal_s", "--grid", "u=bogus"],
               capsys)[0] == 1
    assert run(["figure", "--recipe", "vdW9"], capsys)[0] == 1
    assert run(["check", "nosuch"], capsys)[0] == 1
    assert run(["bogus-command"], capsys)[0] == 1


def test_exit_code_unwritable(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.cmd_figure(type("A", (), {"recipe": "vdW1",
                                      "output": "/nonexistent/x.csv"})())
    assert exc.value.code == 4


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
    {"domain": "x > 0"},
    {"sample_box": [[0.5, 2.0, 3.0]]},
], ids=["duplicate-names", "no-coords", "coords-not-list", "coord-no-name",
        "no-relation", "no-excluded-index", "excluded-index-unknown",
        "param-not-number", "domain-not-list", "bad-sample-box"])
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


def test_figure_deterministic(tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run(["figure", "--recipe", "vdW1", "-o", str(a)], capsys)[0] == 0
    assert run(["figure", "--recipe", "vdW1", "-o", str(b)], capsys)[0] == 0
    assert a.read_bytes() == b.read_bytes()
    header = a.read_text().splitlines()[1]
    assert header == "v_r,R_entropy,R_energy"


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
