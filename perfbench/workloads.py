"""The three workloads: inputs from a seed, the timed unit, and the gate.

Each workload exposes ``items`` (one round of inputs, cycled), ``round_len``
(a run only stops at a round boundary), ``inputs`` (the distinct items the
stream draws from), ``run(item)`` (the timed unit, one "query"),
``ops(item)`` (output points the unit requests), ``same(a, b)`` (two
outputs of one input agree), ``warm_up()`` and ``check(records)`` (a
gate.Verdict over one record per distinct input).

Calls go through module attributes (``geometry.curvature_at``,
``cli.main``, ...) so that a traced pass sees them.
"""

from __future__ import annotations

import json
import math
import random
from pathlib import Path

from geothermo import analysis, cli, geometry, oracle, systems
from geothermo.errors import DomainViolation, SingularDenominator

import reference
from gate import STRICT, STRICT_FLAT, Verdict

BENCH_DIR = Path(__file__).resolve().parent


def _linspace(lo, hi, n):
    return [lo + (hi - lo) * i / (n - 1) for i in range(n)]


def _oracle(oid, point, params):
    try:
        return oracle.oracle_eval(oid, point, params)
    except SingularDenominator:
        return math.nan


def _read_csv(path):
    """Data rows of a CSV the CLI wrote; a row that does not parse is None."""
    try:
        with open(path) as fh:
            lines = [ln for ln in fh.read().split("\n")
                     if ln and not ln.startswith("#")]
    except OSError:
        return []
    rows = []
    for ln in lines[1:]:
        try:
            rows.append([float(c) for c in ln.split(",")])
        except ValueError:
            rows.append(None)
    return rows


def _same(a, b):
    return abs(a - b) <= 1e-12 * max(1.0, abs(a))


def _same_value(a, b):
    """Two outputs of one input agree: the same exception type, or floats
    equal to 1e-12 (NaN equals NaN)."""
    if isinstance(a, Exception) or isinstance(b, Exception):
        return type(a) is type(b)
    return a == b or _same(a, b) or (a != a and b != b)


def _same_rows(xs, ys):
    return len(xs) == len(ys) and all(
        x == y or (x is not None and y is not None and len(x) == len(y)
                   and all(map(_same_value, x, y)))
        for x, y in zip(xs, ys))


# ---- grid_scan -----------------------------------------------------------

# The (u, v) box crosses the singular locus uv^3 = a(2v^2 - 6bv + 3b^2)
# of vdw_s, so refinement runs.  It is fixed: shifting its edges by a few
# percent moves the refinement work between 57 and 2517 evaluations per
# 1600 nodes, which would make points_per_s report the seed, not the code.
# The seed orders the four commands of a round.
A = B = 1.0
P_R = 0.8
P_LINE = P_R * A / (27.0 * B * B)
S_BOX = ((0.05, 5.0, 60), (1.2, 6.0, 60))
VP_AXIS = (1.2, 9.0, 241)
FIG_VR = (0.4, 3.0, 241)
VP_SIGN = -1.0      # oracle vdw_R_vP carries the opposite global sign
LOCUS_TOL = 1e-4    # acceptance criterion 5
LOCUS_LOOSE = 1e-2


def _axis_flag(name, lo, hi, n):
    return f"{name}={lo!r}:{hi!r}:{n}"


def _vdw_s_locus_dev(u, v, axis):
    """Distance along ``axis`` from (u, v) to a(-3b^2+6bv-2v^2) + uv^3 = 0."""
    if axis == 0:
        u_star = A * (2 * v * v - 6 * B * v + 3 * B * B) / v ** 3
        return abs(u - u_star) / max(1.0, abs(u))
    w = v
    for _ in range(50):
        g = A * (-3 * B * B + 6 * B * w - 2 * w * w) + u * w ** 3
        dg = A * (6 * B - 4 * w) + 3 * u * w * w
        w -= g / dg
    return abs(v - w) / max(1.0, abs(v))


def vdw_locus_roots(P, lo, hi):
    """Roots of P v^3 - a v + 2ab = 0 in [lo, hi], by bisection."""
    f = lambda v: P * v ** 3 - A * v + 2 * A * B  # noqa: E731
    vmin = math.sqrt(A / (3 * P))
    roots = []
    for a, b in ((B, vmin), (vmin, hi + 10.0)):
        if f(a) * f(b) >= 0:
            continue
        for _ in range(200):
            m = 0.5 * (a + b)
            if f(a) * f(m) <= 0:
                b = m
            else:
                a = m
        r = 0.5 * (a + b)
        if lo <= r <= hi:
            roots.append(r)
    return roots


class GridScan:
    name = "grid_scan"
    round_len = 4

    def __init__(self, seed, specs, workdir):
        self.workdir = workdir
        (ulo, uhi, un), (vlo, vhi, vn) = S_BOX
        cmds = {
            "scan_s": ["scan", "--system", "vdw_s",
                       "--grid", _axis_flag("u", ulo, uhi, un),
                       "--grid", _axis_flag("v", vlo, vhi, vn)],
            "scan_vP": ["scan", "--system", "vdw_vP",
                        "--grid", _axis_flag("v", *VP_AXIS),
                        "--grid", _axis_flag("P", P_LINE, P_LINE, 1)],
            "vdW1": ["figure", "--recipe", "vdW1"],
            "vdW2": ["figure", "--recipe", "vdW2"],
        }
        sizes = {"scan_s": un * vn, "scan_vP": VP_AXIS[2],
                 "vdW1": FIG_VR[2], "vdW2": FIG_VR[2]}
        order = sorted(cmds)
        random.Random(seed).shuffle(order)
        self.items = [(k, cmds[k], sizes[k]) for k in order]
        self.inputs = self.items
        self._runs = 0

    def run(self, item):
        kind, argv, _ = item
        self._runs += 1
        path = str(self.workdir / f"{self._runs:05d}-{kind}.csv")
        return kind, path, cli.main(argv + ["-o", path])

    def ops(self, item):
        return item[2]

    @staticmethod
    def same(a, b):
        (_, pa, ra), (_, pb, rb) = a, b
        loci = [[d["refined"] for d in GridScan._detections(p)]
                for p in (pa, pb)]
        return (ra == rb and _same_rows(_read_csv(pa), _read_csv(pb))
                and _same_rows(*loci))

    def warm_up(self):
        for argv in (["scan", "--system", "vdw_s", "--grid", "u=0.05:5:6",
                      "--grid", "v=1.2:6:6"],
                     ["scan", "--system", "vdw_vP", "--grid", "v=1.2:9:21",
                      "--grid", _axis_flag("P", P_LINE, P_LINE, 1)],
                     ["figure", "--recipe", "vdW2"]):
            cli.main(argv + ["-o", str(self.workdir / "warm.csv")])

    def check(self, records):
        v = Verdict()
        for (kind, _, size), (_, path, rc) in records:
            if rc != 0:
                for _ in range(size):
                    v.expect(False)
                continue
            getattr(self, "_check_" + kind)(path, v)
        return v

    @staticmethod
    def _rows(path, v, expected, width):
        """Rows of ``width`` columns whose leading coordinates match
        ``expected``; each row missing or malformed is one gross failure."""
        rows = _read_csv(path)
        good = []
        for i, pt in enumerate(expected):
            row = rows[i] if i < len(rows) else None
            if (row is None or len(row) != width
                    or not all(_same(a, b) for a, b in zip(row, pt))):
                v.expect(False)
            else:
                good.append(row)
        return good

    def _check_scan_s(self, path, v):
        (ulo, uhi, un), (vlo, vhi, vn) = S_BOX
        grid = [(u, w) for u in _linspace(ulo, uhi, un)
                for w in _linspace(vlo, vhi, vn)]
        for u, w, R, _ in self._rows(path, v, grid, 4):
            v.op([(R, _oracle("vdw_R_s", {"u": u, "v": w}, {}), STRICT)])
        dets = self._detections(path)
        v.expect(len(dets) > 0)
        for d in dets:
            u, w = d["refined"]
            v.deviation(_vdw_s_locus_dev(u, w, d["axis"]),
                        LOCUS_TOL, LOCUS_LOOSE)

    def _check_scan_vP(self, path, v):
        grid = [(w, P_LINE) for w in _linspace(*VP_AXIS)]
        for w, P, R, _ in self._rows(path, v, grid, 4):
            ref = VP_SIGN * _oracle("vdw_R_vP", {"v": w, "P": P}, {})
            v.op([(R, ref, STRICT)])
        dets = [d["refined"][0] for d in self._detections(path)]
        roots = vdw_locus_roots(P_LINE, VP_AXIS[0], VP_AXIS[1])
        for w in dets:
            dev = min((abs(w - r) for r in roots), default=math.inf)
            v.deviation(dev / max(1.0, abs(w)), LOCUS_TOL, LOCUS_LOOSE)
        for r in roots:
            v.expect(any(abs(w - r) <= LOCUS_LOOSE * r for w in dets))

    def _check_vdW1(self, path, v):
        for vr, Rs, Ru in self._rows(path, v, [(x,) for x in
                                              _linspace(*FIG_VR)], 3):
            w = 3.0 * B * vr
            ref = VP_SIGN * _oracle("vdw_R_vP", {"v": w, "P": P_LINE}, {})
            v.op([(Rs, ref, STRICT), (Ru, ref, STRICT)])

    def _check_vdW2(self, path, v):
        for vr, Ru, RF in self._rows(path, v, [(x,) for x in
                                              _linspace(*FIG_VR)], 3):
            w = 3.0 * B * vr
            T = (P_LINE + A / w ** 2) * (w - B)     # the vdW equation of state
            ref_u = VP_SIGN * _oracle("vdw_R_vP", {"v": w, "P": P_LINE}, {})
            ref_F = _oracle("vdw_R_F_Tv", {"T": T, "v": w}, {})
            v.op([(Ru, ref_u, STRICT), (RF, ref_F, STRICT)])

    @staticmethod
    def _detections(path):
        try:
            with open(path + ".loci.json") as fh:
                return json.load(fh)["detections"]
        except (OSError, ValueError, KeyError):
            return []


# ---- point_queries -------------------------------------------------------

POOL = 48            # distinct inputs per kind and seed
BLOCKS = 500         # blocks of the stream (cycled if a run needs more)

# closed form per catalog system (None: flat, reference R = 0)
ORACLE_OF = {"ideal_s": None, "ideal_u": None, "ideal_F": None,
             "ideal_g": None, "vdw_s": "vdw_R_s", "vdw_u": "vdw_R_u",
             "vdw_F": "vdw_R_F_Tv", "chap_s": "chap_R_s",
             "chap_u": "chap_R_u"}

# parameter ranges that keep each catalog sample box in-domain and off the
# singular loci, so a query there has a finite reference
OVERRIDES = {
    "vdw_s": {"a": (0.8, 1.2), "b": (0.8, 1.2)},
    "vdw_u": {"a": (0.8, 1.2), "b": (0.8, 1.2)},
    "vdw_F": {"a": (0.8, 1.2), "b": (0.8, 1.2)},
    "chap_s": {"alpha": (0.5, 1.5), "beta": (0.5, 1.5), "C": (0.8, 1.2)},
    "chap_u": {"alpha": (0.5, 1.5), "beta": (0.5, 1.5), "C": (0.8, 1.2)},
}

# one violated coordinate per catalog system: (slot, range)
OUT_OF_DOMAIN = {"ideal_s": (0, (-2.0, -0.1)), "ideal_u": (1, (-2.0, -0.1)),
                 "ideal_F": (0, (-2.0, -0.1)), "ideal_g": (1, (-2.0, -0.1)),
                 "vdw_s": (1, (0.2, 0.9)), "vdw_u": (1, (0.2, 0.9)),
                 "vdw_F": (0, (-2.0, -0.1)), "ising_f": (1, (-2.0, -0.1)),
                 "chap_s": (0, (-2.0, -0.1)), "chap_u": (1, (-2.0, -0.1))}

# Queries per kind and key in every block of 200: 70% catalog, 15% with
# overrides, 5% custom, 5% out of domain, 5% derived.  The derived queries
# are 5-15x slower than a catalog one, so p99 falls on the Newton path.
# Fixed quotas per block keep every stretch of the stream the same mix.
PER_BLOCK = {"plain": 14, "override": 6, "custom": 10, "ood": 10,
             "derived": 5}
DERIVED = ("inv_vdw_s", "pl_vdw_u")


class PointQueries:
    name = "point_queries"
    round_len = 200

    def __init__(self, seed, specs, workdir):
        self.specs = specs
        rng = random.Random(seed)
        ids = [sid for sid in specs if sid in OUT_OF_DOMAIN]

        def box_point(key):
            return [rng.uniform(lo, hi) for lo, hi in specs[key].sample_box]

        def ood_point(key):
            slot, (lo, hi) = OUT_OF_DOMAIN[key]
            pt = box_point(key)
            pt[slot] = rng.uniform(lo, hi)
            return pt

        def derived_point(key):
            if key == "inv_vdw_s":        # (u, v) -> (s, v) on vdw_s
                u, w = box_point("vdw_s")
                return [1.5 * math.log(u + A / w) + math.log(w - B), w]
            s, w = box_point("vdw_u")     # (s, v) -> (T = du/ds, v)
            return [(2 / 3) * math.exp(2 * s / 3) * (w - B) ** (-2 / 3), w]

        pools = []    # (per block, [items]); item = (kind, key, params, point)
        for key in ids:
            pools.append((PER_BLOCK["plain"],
                          [("plain", key, None, box_point(key))
                           for _ in range(POOL)]))
        for key, ranges in OVERRIDES.items():
            pools.append((PER_BLOCK["override"],
                          [("override", key,
                            {p: rng.uniform(*r) for p, r in ranges.items()},
                            box_point(key)) for _ in range(POOL)]))
        pools.append((PER_BLOCK["custom"],
                      [("custom", "custom", None, box_point("custom"))
                       for _ in range(POOL)]))
        pools.append((PER_BLOCK["ood"],
                      [("ood", key, None, ood_point(key))
                       for key in (rng.choice(ids) for _ in range(POOL))]))
        for key in DERIVED:
            pools.append((PER_BLOCK["derived"],
                          [("derived", key, None, derived_point(key))
                           for _ in range(POOL)]))
        self.inputs = [item for _, pool in pools for item in pool]
        self.items = []
        for _ in range(BLOCKS):
            block = [item for n, pool in pools
                     for item in rng.choices(pool, k=n)]
            rng.shuffle(block)
            self.items.extend(block)

    def run(self, item):
        _, key, params, point = item
        try:
            spec = (self.specs[key] if params is None
                    else systems.get_system(key, **params))
            return geometry.curvature_at(spec, point).ricci_scalar
        except Exception as exc:    # recorded and judged by the gate
            return exc

    def ops(self, item):
        return 1

    same = staticmethod(_same_value)

    def warm_up(self):
        for item in self.items[:300]:
            self.run(item)

    def reference(self, item):
        kind, key, params, point = item
        if kind == "derived":
            oid, names = (("vdw_R_u", ("s", "v")) if key == "inv_vdw_s"
                          else ("vdw_R_F_Tv", ("T", "v")))
            return _oracle(oid, dict(zip(names, point)), {}), STRICT
        if key == "custom":
            return reference.ricci_2d(reference.custom_mix_phi(),
                                      point, 0, 40), STRICT
        if key == "ising_f":
            T, H = point
            return reference.ricci_2d(reference.ising_phi(1.0), point, 0,
                                      reference.ising_dps(T, H)), STRICT
        oid = ORACLE_OF[key]
        if oid is None:
            return 0.0, STRICT_FLAT
        spec = self.specs[key]
        pr = dict(spec.params, **(params or {}))
        return _oracle(oid, dict(zip(spec.coord_names(), point)), pr), STRICT

    def check(self, records):
        v = Verdict()
        refs = {}
        for item, out in records:
            if item[0] == "ood":
                v.expect(isinstance(out, DomainViolation))
                continue
            if isinstance(out, Exception):
                v.expect(False)
                continue
            if id(item) not in refs:
                refs[id(item)] = self.reference(item)
            ref, strict = refs[id(item)]
            v.op([(out, ref, strict)])
        return v


# ---- ising_profile -------------------------------------------------------

ISING_REF = BENCH_DIR / "ising_ref.json"


class IsingProfile:
    """The whole ``figure ising`` (T, H) grid, in a seeded order.

    The cost of a point grows as T falls (the working precision does), so a
    seeded subset would make the run's cost and its p99 depend on which low
    temperatures the seed drew; the full grid keeps both fixed.
    """

    name = "ising_profile"

    def __init__(self, seed, specs, workdir):
        with open(ISING_REF) as fh:
            table = json.load(fh)
        rng = random.Random(seed)
        items = [(T, H, R) for H, Rs in zip(table["H"], table["R"])
                 for T, R in zip(table["T"], Rs)]
        rng.shuffle(items)
        self.J = table["J"]
        self.items = self.inputs = items
        self.round_len = len(items)

    def run(self, item):
        T, H, _ = item
        try:
            return analysis.ising_curvature(T, H, self.J)
        except Exception as exc:    # recorded and judged by the gate
            return exc

    def ops(self, item):
        return 1

    same = staticmethod(_same_value)

    def warm_up(self):
        for item in sorted(self.items, reverse=True)[:3]:
            self.run(item)

    def check(self, records):
        v = Verdict()
        for (_, _, ref), out in records:
            if isinstance(out, Exception):
                v.expect(False)
            else:
                v.op([(out, ref, STRICT)])
        return v


WORKLOADS = {w.name: w for w in (GridScan, PointQueries, IsingProfile)}
