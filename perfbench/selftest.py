"""Self-test of the benchmark at tiny sizes (about 80 s).

    python3 perfbench/selftest.py

1. Every workload, untraced and traced, prints as its last line a JSON
   object with exactly the keys correct/attempted/failed/metrics, and the
   metrics named in BENCHMARK.json for that mode with their units.
2. The gate passes the real references and counts a deliberately perturbed
   reference (R -> 1.01 R + 0.01) as a failure on every checked value, and
   ``attempted``/``failed`` of a seed do not depend on the run's length.
3. In a directory holding only BENCHMARK.json and perfbench/, the benchmark
   exits non-zero without printing a result.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RUN_TIMEOUT_S = 180

failures = []


def verdict(ok, what):
    print(("PASS " if ok else "FAIL ") + what, flush=True)
    if not ok:
        failures.append(what)


def _run(cwd, *args):
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S)


def check_output_format():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    for wl in bench["workloads"]:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            out = _run(ROOT, "--workload", wl["name"], "--seed", "1",
                       "--seconds", "1", "--trace", str(trace))
            what = (f"{wl['name']} --trace {trace} prints every {section} "
                    "metric")
            try:
                doc = json.loads(out.stdout.strip().splitlines()[-1])
            except (IndexError, ValueError):
                verdict(False, f"{what} (exit {out.returncode}: "
                               f"{out.stderr.strip()[-300:]})")
                continue
            want = {m["name"]: m["unit"] for m in bench[section]}
            got = {k: v["unit"] for k, v in doc["metrics"].items()}
            values_ok = all(isinstance(v["value"], (int, float))
                            and math.isfinite(v["value"])
                            for v in doc["metrics"].values())
            verdict(out.returncode == 0
                    and set(doc) == {"correct", "attempted", "failed",
                                     "metrics"}
                    and got == want and values_ok
                    and doc["correct"] is True and doc["attempted"] >= 1,
                    what)


def check_gate_ignores_run_length():
    counts = []
    for seconds in ("1", "3"):
        out = _run(ROOT, "--workload", "point_queries", "--seed", "1",
                   "--seconds", seconds, "--trace", "0")
        try:
            doc = json.loads(out.stdout.strip().splitlines()[-1])
            counts.append((doc["attempted"], doc["failed"]))
        except (IndexError, ValueError, KeyError):
            counts.append(None)
    verdict(counts[0] is not None and counts[0] == counts[1],
            f"point_queries attempted/failed at 1 s and 3 s: {counts}")


def _perturb(ref):
    return 1.01 * ref + 0.01


def check_gate():
    sys.path.insert(0, str(ROOT / "src"))
    import specs as specs_mod
    import workloads

    specs = specs_mod.build()
    workdir = BENCH_DIR / "out" / "selftest-gate"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        # point_queries: perturb every reference the gate computes
        pq = workloads.PointQueries(1, specs, workdir)
        records = [(item, pq.run(item)) for item in pq.items[:200]]
        n_ood = sum(item[0] == "ood" for item, _ in records)
        good = pq.check(records)
        real = pq.reference
        pq.reference = lambda item: (_perturb(real(item)[0]), real(item)[1])
        bad = pq.check(records)
        verdict(good.correct and good.failed == 0
                and bad.failed == bad.attempted - n_ood and not bad.correct,
                f"point_queries gate: {good.failed} real and {bad.failed} "
                f"perturbed failures of {bad.attempted} ({n_ood} domain "
                "violations need no reference)")

        # ising_profile: the committed table, perturbed
        ip = workloads.IsingProfile(1, specs, workdir)
        records = [(item, ip.run(item)) for item in
                   sorted(ip.items, reverse=True)[:4]]
        good = ip.check(records)
        bad = ip.check([((T, H, _perturb(R)), out)
                        for (T, H, R), out in records])
        verdict(good.correct and good.failed == 0
                and bad.failed == bad.attempted and not bad.correct,
                f"ising_profile gate: {good.failed} real and {bad.failed} "
                f"perturbed failures of {bad.attempted}")

        # grid_scan: one vdW2 figure against perturbed closed forms
        gs = workloads.GridScan(1, specs, workdir)
        item = next(it for it in gs.items if it[0] == "vdW2")
        records = [(item, gs.run(item))]
        good = gs.check(records)
        real_oracle = workloads._oracle
        workloads._oracle = lambda *a: _perturb(real_oracle(*a))
        try:
            bad = gs.check(records)
        finally:
            workloads._oracle = real_oracle
        verdict(good.correct and good.failed == 0
                and bad.failed == bad.attempted and not bad.correct,
                f"grid_scan gate: {good.failed} real and {bad.failed} "
                f"perturbed failures of {bad.attempted}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def check_bare_directory():
    bare = BENCH_DIR / "out" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(BENCH_DIR, bare / "perfbench",
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        out = _run(bare, "--workload", "grid_scan", "--seed", "1",
                   "--seconds", "1", "--trace", "0")
        verdict(out.returncode != 0 and not out.stdout.strip(),
                f"without src/ the benchmark exits {out.returncode} "
                "and prints no result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main():
    check_output_format()
    check_gate_ignores_run_length()
    check_gate()
    check_bare_directory()
    print(f"{len(failures)} self-test failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
