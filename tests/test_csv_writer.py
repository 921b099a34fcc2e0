"""CSV bytes of the block writer against one % per row.

``cli`` formats a scan's or a figure's rows ``cli.ROW_BLOCK`` at a time;
the reference below formats each row on its own, as the writer did before,
and every byte must agree.
"""

import dataclasses
import json
import math
from itertools import chain, product

import numpy as np
import pytest

from geothermo import analysis, cli

BLOCK = cli.ROW_BLOCK

# a relation of each dimension, with the coordinate counts after the first
# axis; one coordinate leaves the conformal sum empty, so every point of
# the 1-D scan fails
FILES = {
    1: ({"id": "one", "coords": [{"name": "x"}], "excluded_index": "x",
         "domain": ["x > 0"], "relation": "ln(x) + x^2"}, ()),
    2: ({"id": "two", "coords": [{"name": "x"}, {"name": "y"}],
         "excluded_index": "x", "domain": ["x > 0", "y > 0"],
         "relation": "ln(x) + ln(y) + 0.3*ln(x + 2*y)"}, (4,)),
    3: ({"id": "three", "coords": [{"name": "x"}, {"name": "y"},
                                   {"name": "z"}],
         "excluded_index": "x", "domain": ["x > 0", "y > 0", "z > 0"],
         "relation": "1.5*ln(x) + ln(y) + 0.7*ln(z) + 0.3*ln(x + 2*y + z)"},
        (2, 2)),
}

# R values whose text is easy to get wrong, each with either flag
SPECIAL_R = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324,
             2.2250738585072014e-308 / 3.0, 0.1, 1.0 / 3.0, -2.0 / 3.0,
             1e300, -1.2345678901234567e-5, 123456789012345680.0]


def _reference_scan(report, names, meta):
    """The scan CSV with one % per row."""
    axes = [[cli.FMT % c + "," for c in a.values().tolist()]
            for a in report.grid.axes]
    row = "%s" + cli.FMT + ",%d\n"
    return "".join(chain(
        ["# scan " + json.dumps(meta, sort_keys=True) + "\n",
         ",".join(names) + ",R,nonfinite\n"],
        (row % ("".join(coords), r, flag) for coords, r, flag in zip(
            product(*axes), report.R.tolist(), report.nonfinite.tolist()))))


def _reference_figure(recipe):
    """The figure CSV with one % per row."""
    columns = cli.FIGURES[recipe]["columns"]()
    row = ",".join([cli.FMT] * len(columns)) + "\n"
    return "".join(chain(
        ["# figure " + recipe + " "
         + json.dumps(cli.FIGURES[recipe]["meta"], sort_keys=True) + "\n",
         ",".join(cli.FIGURES[recipe]["header"]) + "\n"],
        (row % values for values in zip(*columns))))


def _written(argv, output, tmp_path, capsys):
    """The CSV that ``argv`` writes to a file or to stdout."""
    path = tmp_path / "out.csv"
    code = cli.main(argv + ["-o", str(path) if output == "file" else "-"])
    out = capsys.readouterr().out
    assert code == 0
    if output == "file":
        return path.read_text()
    # stdout ends with the scan's sidecar line
    return out if argv[0] == "figure" else out[:out.rindex("\n", 0, -1) + 1]


def _keep_reports(monkeypatch, edit=lambda report: report):
    """The list that the scans' reports, passed through ``edit``, go to."""
    reports = []
    scan = analysis.singularity_scan

    def kept(*args, **kwargs):
        reports.append(edit(scan(*args, **kwargs)))
        return reports[-1]

    monkeypatch.setattr(analysis, "singularity_scan", kept)
    return reports


@pytest.mark.parametrize("output", ["file", "-"])
@pytest.mark.parametrize("rows", [12, BLOCK, 2 * BLOCK + 4],
                         ids=["below-block", "one-block", "past-blocks"])
@pytest.mark.parametrize("ndim", sorted(FILES))
def test_scan_bytes_match_row_by_row(tmp_path, capsys, monkeypatch, ndim,
                                     rows, output):
    doc, trailing = FILES[ndim]
    assert rows % math.prod(trailing) == 0
    counts = (rows // math.prod(trailing),) + trailing
    system = tmp_path / "system.json"
    system.write_text(json.dumps(doc))
    names = [c["name"] for c in doc["coords"]]
    grid = [flag for name, count in zip(names, counts)
            for flag in ("--grid", f"{name}=0.5:2.5:{count}")]
    reports = _keep_reports(monkeypatch)
    got = _written(["scan", "--file", str(system)] + grid, output, tmp_path,
                   capsys)
    (report,) = reports
    assert len(report.R) == rows
    assert got == _reference_scan(report, names, {
        "system": doc["id"], "threshold": analysis.BLOWUP_THRESHOLD})


@pytest.mark.parametrize("output", ["file", "-"])
def test_scan_bytes_of_special_values(tmp_path, capsys, monkeypatch, output):
    # every special R in each row position of a block, flagged or not, on
    # a grid that ends in a partial block
    count = 2 * BLOCK + 7
    reports = _keep_reports(monkeypatch, lambda report: dataclasses.replace(
        report, R=np.resize(np.array(SPECIAL_R), count),
        nonfinite=np.arange(count) % 3 == 0))
    got = _written(["scan", "--system", "ideal_s", "--grid",
                    f"u=0.5:5:{count}", "--grid", "v=0.5:5:1"], output,
                   tmp_path, capsys)
    (report,) = reports
    assert np.signbit(report.R).any() and np.isnan(report.R).any()
    assert got == _reference_scan(report, ["u", "v"], {
        "system": "ideal_s", "threshold": analysis.BLOWUP_THRESHOLD})
    assert ",-0,0\n" in got and ",4.9406564584124654e-324,1\n" in got


@pytest.mark.parametrize("output", ["file", "-"])
def test_figure_bytes_match_row_by_row(tmp_path, capsys, output):
    got = _written(["figure", "--recipe", "vdW1"], output, tmp_path, capsys)
    assert got == _reference_figure("vdW1")
    assert len(got.splitlines()) == 2 + cli.VDW_SAMPLES
