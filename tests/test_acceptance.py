"""Acceptance gate: one test (and one printed verdict line) per criterion.

Criteria 1-11 are the rows of the CLI's ``criteria`` check suite
(``geothermo check criteria``): each test computes its criterion's row
from ``cli.CRITERIA`` and prints its verdict from that row.  Criterion 12
drives ``cli.main`` itself, so it is a test only.
"""

import pytest

from geothermo import cli


@pytest.fixture(autouse=True)
def _live_output(capfd):
    # verdict lines must reach the terminal even for passing tests
    with capfd.disabled():
        yield


def verdict(num, label, ok, detail=""):
    tail = f"  ({detail})" if detail else ""
    print(f"[criterion {num:2d}] {label}: {'PASS' if ok else 'FAIL'}{tail}",
          flush=True)
    assert ok, f"criterion {num}: {label}{tail}"


def criterion(num, label):
    row = cli.CRITERIA[num - 1]()
    assert row["check"] == f"criterion:{num:02d}"
    verdict(num, label, row["pass"], ", ".join(
        f"{k} = {v}" for k, v in row.items() if k not in ("check", "pass")))
    return row


def test_criterion_01_ideal_gas_flatness():
    criterion(1, "ideal-gas flatness in s/u/F/g descriptions")


def test_criterion_02_metric_transcription():
    criterion(2, "closed-form metric transcription at 50 random points")


def test_criterion_03_vdw_representation_invariance():
    criterion(3, "vdW entropy/energy representation invariance (15x15)")


def test_criterion_04_oracle_equivalence():
    criterion(4, "closed-form curvature equivalence up to global sign")


def test_criterion_05_singular_locus():
    criterion(5, "divergences sit on 2ab - av + Pv^3 = 0; "
                 "critical numerator = 4")


def test_criterion_06_helmholtz_non_invariance():
    criterion(6, "Helmholtz description differs and stays finite on the "
                 "locus")


def test_criterion_07_chaplygin_constant_curvature():
    criterion(7, "Chaplygin alpha=beta constant curvature -(1+a)^2/(2a)")


def test_criterion_08_chaplygin_degeneracy():
    criterion(8, "Chaplygin alpha=beta=0 metric degenerates at every point")


def test_criterion_09_ising_profile():
    row = criterion(9, "Ising profile: finite, low-T growth, large-T "
                       "plateau, AD=FD")
    # the finite-difference oracle's bits at (T, H) = (1, 1)
    assert repr(row["ad_fd_gap"]) == "0.0010190938171490416"


def test_criterion_10_derivative_engine():
    row = criterion(10, "jet derivatives through order 4 agree with finite "
                        "differences")
    # the bits of the nested differences under the step rule
    # h_a = eps^(1/(k+4)) * max(1, |x_a|)
    assert repr(row["max_rel_dev"]) == "3.823417597381096e-05"


def test_criterion_11_homogeneity_detector():
    criterion(11, "homogeneity detector: degrees 1 and 3 found, molar s "
                  "rejected")


def test_criterion_12_cli_determinism(tmp_path, monkeypatch):
    import contextlib
    import io

    def quiet(argv):
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            return cli.main(argv)

    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert quiet(["figure", "--recipe", "vdW1", "-o", str(a)]) == 0
    assert quiet(["figure", "--recipe", "vdW1", "-o", str(b)]) == 0
    identical = a.read_bytes() == b.read_bytes()
    codes = {
        0: quiet(["check", "homogeneity"]),
        1: quiet(["curvature", "--at", "u=1,v=1"]),
        2: quiet(["curvature", "--system", "vdw_s", "--at", "u=1,v=0.5"]),
        3: quiet(["curvature", "--system", "chap_s",
                  "--param", "alpha=0,beta=0", "--at", "u=2,v=2"]),
    }
    with pytest.raises(SystemExit) as exc:
        with contextlib.redirect_stderr(io.StringIO()):
            cli.cmd_figure(type("A", (), {"recipe": "vdW1",
                                          "output": "/nonexistent/x.csv"})())
    codes[4] = exc.value.code
    monkeypatch.setitem(cli.SUITES, "doomed",
                        lambda: [{"check": "doomed", "pass": False}])
    codes[5] = quiet(["check", "doomed"])
    matrix_ok = all(got == want for want, got in codes.items())
    ok = identical and matrix_ok
    verdict(12, "CLI determinism and exit-code matrix", ok,
            f"byte-identical = {identical}, codes = {codes}")
