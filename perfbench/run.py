"""geothermo benchmark: one workload per invocation, one JSON line last.

    python3 perfbench/run.py --workload grid_scan --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the package is imported from ``src/``.
With ``--trace 0`` the metrics are the end-to-end ones, measured with no
tracing.  With ``--trace 1`` the run makes an untraced pass for half the
time, repeats the same inputs traced, and reports the per-layer metrics;
the spans go to ``perfbench/out/spans-<workload>-<seed>.csv.gz``.
See ``perfbench/README.md`` for what each workload and metric means.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibrate

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT = BENCH_DIR / "out"
SETUP_PROBES = 11
PROBE_TIMEOUT_S = 60


def _single_threaded_env():
    # before numpy is imported: one thread everywhere, the CLI's _map runs
    # sequentially (GEOTHERMO_THREADS unset)
    os.environ.pop("GEOTHERMO_THREADS", None)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"


def _setup_seconds():
    """Median over fresh interpreters of import + spec building, each
    calibrated by the kernels the probe samples during it."""
    raw, scaled = [], []
    for _ in range(SETUP_PROBES):
        out = subprocess.run(
            [sys.executable, str(BENCH_DIR / "setup_probe.py")],
            capture_output=True, text=True, check=True,
            timeout=PROBE_TIMEOUT_S)
        seconds, rescaled = map(float, out.stdout.split()[-2:])
        raw.append(seconds)
        scaled.append(rescaled)
    print(f"# setup: {statistics.median(raw):.4f} s wall, median of "
          f"{SETUP_PROBES} probes")
    return statistics.median(scaled)


class Pass:
    """One time-bounded (or count-bounded) sweep over a workload's items:
    records, per-query wall latencies and spans, requested output points
    and wall time.  With a calibrator, its handler's time is taken out of
    each latency."""

    def __init__(self, wl, seconds=None, count=None, tracer=None,
                 calibrator=None):
        items, n, clock = wl.items, len(wl.items), time.perf_counter
        self.records, self.latencies, self.spans = [], [], []
        self.ops = 0
        if calibrator is not None:
            calibrator.start()
        try:
            start = clock()
            i = 0
            while (i < count if count is not None
                   else i % wl.round_len or clock() - start < seconds):
                item = items[i % n]
                if tracer is not None:
                    tracer.new_op()
                stolen = calibrator.stolen if calibrator else 0.0
                t0 = clock()
                out = wl.run(item)
                t1 = clock()
                if calibrator is not None:
                    stolen = calibrator.stolen - stolen
                self.latencies.append(t1 - t0 - stolen)
                self.spans.append((t0, t1))
                self.records.append((item, out))
                self.ops += wl.ops(item)
                i += 1
            self.wall = clock() - start
        finally:
            if calibrator is not None:
                calibrator.stop()


def _environment():
    import mpmath
    import numpy
    threads = os.environ.get("GEOTHERMO_THREADS", "unset")
    return (f"nproc={os.cpu_count()} python={platform.python_version()} "
            f"numpy={numpy.__version__} mpmath={mpmath.__version__} "
            f"mpmath_backend={mpmath.libmp.BACKEND} "
            f"GEOTHERMO_THREADS={threads}")


def _nearest_rank(values, q):
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def _end_to_end(wl, p, cal, setup_s):
    """Latencies rescaled by the calibration kernel around each query;
    then each replaced by the median over the run of its input's, so a
    transient stall does not become the tail and the tail left is that of
    the inputs."""
    scaled = [t * cal.scale(a, b) for t, (a, b) in zip(p.latencies, p.spans)]
    by_input = {}
    for (item, _), t in zip(p.records, scaled):
        by_input.setdefault(id(item), []).append(t)
    median = {k: statistics.median(v) for k, v in by_input.items()}
    latencies = [median[id(item)] for item, _ in p.records]
    p99 = _nearest_rank(latencies, 0.99)
    beyond = sum(t > p99 for t in latencies)
    raw_rate = p.ops / sum(p.latencies)
    print(f"# {wl.name}: {len(p.latencies)} queries, {p.ops} output points "
          f"in {p.wall:.3f} s; {len(by_input)} distinct inputs; "
          f"{beyond} samples beyond p99; {raw_rate:.2f} points/s wall; "
          f"{len(cal.durations)} kernels, median "
          f"{cal.median() * 1e3:.4f} ms")
    return {
        "setup_s": setup_s,
        "points_per_s": p.ops / sum(scaled),
        "query_p50_ms": _nearest_rank(latencies, 0.50) * 1e3,
        "query_p99_ms": p99 * 1e3,
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def _gate(wl, records):
    """The verdict on one record per distinct input.

    Each input is judged once, on its first output in the run; an input the
    run did not reach is run now, untimed.  ``attempted`` and ``failed``
    therefore depend on the seed only, not on how many queries the run's
    time allowed.  An input whose repeated outputs differ is one more
    failure.
    """
    first, unstable = {}, set()
    for item, out in records:
        seen = first.setdefault(id(item), (item, out))
        if seen[1] is not out and not wl.same(seen[1], out):
            unstable.add(id(item))
    for item in wl.inputs:
        if id(item) not in first:
            first[id(item)] = (item, wl.run(item))
    verdict = wl.check(list(first.values()))
    for _ in unstable:
        verdict.expect(False)
    return verdict


def _as_metrics(values, section):
    """The metrics BENCHMARK.json lists in ``section``, with its units."""
    with open(ROOT / "BENCHMARK.json") as fh:
        listed = json.load(fh)[section]
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in listed}


def _per_layer(wl, specs_mod, untraced, seed):
    import tracing

    setup_tracer = tracing.Tracer()
    setup_tracer.install()
    try:
        specs_mod.build()
    finally:
        setup_tracer.uninstall()
    setup_dsl = sum(b - a for name, _, a, b, _ in setup_tracer.spans
                    if name.startswith("dsl."))

    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = Pass(wl, count=len(untraced.records), tracer=tracer)
    finally:
        tracer.uninstall()
    spans_path = OUT / f"spans-{wl.name}-{seed}.csv.gz"
    tracer.write(spans_path)

    stats = tracing.SpanStats(tracer.spans)
    layers = tracing.layer_metrics(tracer, stats, traced.ops, traced.wall,
                                   untraced.wall)
    layers["dsl.setup_compile_ms"] = setup_dsl * 1e3
    self_ms = {k: round(v * 1e3 / traced.ops, 4)
               for k, v in sorted(stats.layer_self().items())}
    print(f"# traced {len(traced.records)} queries, {len(tracer.spans)} spans "
          f"-> {spans_path.relative_to(ROOT)}")
    print(f"# self ms per output point by layer: {json.dumps(self_ms)}")
    return traced, layers


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "geothermo" / "__init__.py").is_file():
        print(f"perfbench: no geothermo package under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    _single_threaded_env()
    sys.path.insert(0, str(ROOT / "src"))
    import specs as specs_mod
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r} "
              f"(have {', '.join(workloads.WORKLOADS)})", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir()
    try:
        setup_s = _setup_seconds() if args.trace == 0 else None
        specs = specs_mod.build()
        wl = workloads.WORKLOADS[args.workload](args.seed, specs, workdir)
        wl.warm_up()
        print(f"# env {_environment()}")
        if args.trace == 0:
            cal = calibrate.Calibrator()
            p = Pass(wl, seconds=args.seconds, calibrator=cal)
            metrics = _as_metrics(_end_to_end(wl, p, cal, setup_s),
                                  "end_to_end")
            verdict = _gate(wl, p.records)
        else:
            untraced = Pass(wl, seconds=args.seconds / 2)
            traced, layers = _per_layer(wl, specs_mod, untraced, args.seed)
            verdict = _gate(wl, untraced.records + traced.records)
            layers["gate.failed_frac"] = verdict.failed / verdict.attempted
            layers["oracle.max_rel_dev"] = verdict.max_rel_dev
            metrics = _as_metrics(layers, "per_layer")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(f"# gate: {verdict.attempted} checked, {verdict.failed} outside the "
          f"strict tolerance, {verdict.gross} outside the loose one; "
          f"max rel dev {verdict.max_rel_dev:.3e}")
    print(json.dumps({"correct": verdict.correct,
                      "attempted": verdict.attempted,
                      "failed": verdict.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
