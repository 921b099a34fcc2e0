"""Seeded random relations through the CLI: documented exit codes only.

The generator walks the DSL grammar: leaves are the coordinates, a
parameter, small constants, 0 and an overflowing literal (1e400 reads as
inf); nodes are the binary operators, unary minus and every function.  A
domain predicate compares two such expressions.  Each relation, with
``x > 0`` and a random predicate as its domain, runs through
``curvature --file`` at one point and ``scan --file`` on a 3x3 grid, under
a random ``--param k=`` override; every call must return a documented exit
code (0-5) and raise nothing.  The relations of the bare generator on
their grids check the 2-D curvature's truncated jets against full ones.
"""

import contextlib
import io
import json
import random

import numpy as np

from geothermo import analysis, cli, dsl, geometry, systems

LEAVES = ("x", "y", "k", "0.5", "2", "3", "0", "1e400")
BINARY = ("+", "-", "*", "/", "^")
FUNCTIONS = tuple(dsl.FUNCTIONS)
COMPARISONS = (">", ">=", "<", "<=", "!=")
# values of the parameter k: the file's own, zero, negative, the float
# range's ends and a second ordinary value
PARAMS = ("1.5", "0", "-2", "1e308", "1e-308", "3")


def random_relation(rng, depth=3):
    """DSL source of a random expression at most ``depth`` nodes deep."""
    if depth == 0 or rng.random() < 0.25:
        return rng.choice(LEAVES)
    kind = rng.random()
    if kind < 0.1:
        return f"-({random_relation(rng, depth - 1)})"
    if kind < 0.55:
        left = random_relation(rng, depth - 1)
        right = random_relation(rng, depth - 1)
        return f"({left}) {rng.choice(BINARY)} ({right})"
    fn = rng.choice(FUNCTIONS)
    args = [random_relation(rng, depth - 1)
            for _ in range(dsl.FUNCTIONS[fn][1])]
    return f"{fn}({', '.join(args)})"


def random_predicate(rng):
    """DSL source of a random domain predicate."""
    return (f"{random_relation(rng, 2)} {rng.choice(COMPARISONS)} "
            f"{random_relation(rng, 2)}")


def exit_codes(seed, count, tmp_path):
    """The exit codes of ``count`` random relations, each with a random
    domain predicate and ``--param k=`` override, through ``curvature``
    and ``scan``; asserts that each is documented."""
    rng = random.Random(seed)
    path = tmp_path / "system.json"
    out = str(tmp_path / "scan.csv")
    codes = set()
    for _ in range(count):
        relation = random_relation(rng)
        domain = ["x > 0", random_predicate(rng)]
        param = ["--param", f"k={rng.choice(PARAMS)}"]
        path.write_text(json.dumps({
            "id": "random", "coords": [{"name": "x"}, {"name": "y"}],
            "excluded_index": "x", "params": {"k": 1.5},
            "domain": domain, "relation": relation}))
        for argv in (["curvature", "--file", str(path), "--at", "x=0.7,y=1.3"],
                     ["scan", "--file", str(path), "--grid", "x=0.5:2:3",
                      "--grid", "y=-1:2:3", "-o", out]):
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                code = cli.main(argv + param)
            assert code in range(6), (relation, domain, param, argv[0], code)
            codes.add(code)
    return codes


def test_random_relations_exit_with_documented_codes(tmp_path):
    # the sample reaches success, parse-free library errors and domain
    # violations, so it exercises more than one branch of the contract
    assert {0, 1, 2} <= exit_codes(20261018, 300, tmp_path)


def _random_spec(relation):
    return systems.from_definition({
        "id": "random", "coords": [{"name": "x"}, {"name": "y"}],
        "excluded_index": "x", "params": {"k": 1.5},
        "domain": ["x > 0"], "relation": relation})


def _reaches_on_truncated_jets(specs, monkeypatch):
    """Check that a 2-D curvature chunk on the jets of the monomials it
    reads (geometry.SURFACE_TOP) gives R, det g, the conformal factor, the
    flags and the failures of full jets, bit for bit, for each spec on a
    3x3 grid; returns the number of points that reach an R."""
    grid = analysis.GridSpec((("x", 0.5, 2.0, 3), ("y", -1.0, 2.0, 3)))
    points = grid.points()
    fields = ("ricci_scalar", "det_g", "conformal_factor", "nonfinite",
              "degenerate")
    finite = 0
    for spec in specs:
        runs = []
        for top in (geometry.SURFACE_TOP, None):
            monkeypatch.setattr(geometry, "SURFACE_TOP", top)
            res = geometry.curvature_at(spec, points)
            runs.append(([np.asarray(getattr(res, name), dtype=float)
                          .tobytes() for name in fields],
                         {i: (type(e), str(e))
                          for i, e in res.faults.errors.items()}))
        assert runs[0] == runs[1], spec.meta
        finite += int(np.count_nonzero(res.faults.ok))
    return finite


def test_random_relations_keep_their_bits_on_truncated_jets(monkeypatch):
    rng = random.Random(20261029)
    specs = [_random_spec(random_relation(rng)) for _ in range(200)]
    # the sample reaches an R, not only failures: at 51 of its 1800 points
    assert _reaches_on_truncated_jets(specs, monkeypatch) >= 50


def test_relations_of_both_coordinates_keep_their_bits_on_truncated_jets(
        monkeypatch):
    # most relations of the sample above read one coordinate only, and
    # fail every point with a vanishing conformal term or a degenerate
    # metric; these are drawn until their tape reads both x and y
    rng = random.Random(20261029)
    specs, draws = [], 0
    while len(specs) < 200:
        spec = _random_spec(random_relation(rng))
        draws += 1
        if {index for _, index in spec.field.ast.tape.coords} == {0, 1}:
            specs.append(spec)
    assert draws == 3159
    assert _reaches_on_truncated_jets(specs, monkeypatch) == 704
