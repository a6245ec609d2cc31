"""hornvol benchmark: three seeded closed-loop workloads, end to end or traced.

Run from the repository root:

    python3 perfbench/run.py --workload lr_sweep --seed 1 --seconds 30 --trace 0

--trace 0 prints the end-to-end metrics; --trace 1 wraps the hornvol
functions listed in perfbench/layers.json and prints the per-layer metrics.
Either way the last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics; the line before it holds the details
(tail percentile, item count, fail ratio) and the provenance block.

Timings are calibrated.  On a shared machine the speed of a core switches
between fast and slow states many times a second, and the share of slow time
drifts by tens of percent over seconds, for every program alike.  Between
items the run times a fixed pure-Python kernel, once per CALIBRATION_EVERY_S
of elapsed time (up to CALIBRATION_BURST runs after a long item).  Each item's
wall and CPU time is multiplied by CALIBRATION_REF_S / (mean kernel time
within CALIBRATION_WINDOW_S of the item), which expresses it on a machine
where the kernel takes CALIBRATION_REF_S.  setup_s is scaled the same way
inside each probe.  The detail line also gives the uncalibrated values.

A run measures a fixed number of units, seconds * units_per_second of the
workload, so that two commits measure the same items for the same seed.
Starting new items stops at a hard deadline of 4 * seconds so the run still
ends in time if the program gets much slower.  The traced run measures half
as many units, once untraced in a fresh child process and once traced, each
with half the deadline, and reports the ratio of the two work_per_s values.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from fractions import Fraction
from importlib import metadata
from pathlib import Path

from tracer import Tracer, metric_prefix
from workloads import WORKLOADS, setup

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_PROBES = 5
TAIL_LADDER = (99.99, 99.9, 99.0, 95.0, 90.0, 75.0, 60.0, 50.0)
DEADLINE_FACTOR = 4
POLYGON_STRIDE = 10
CALIBRATION_REF_S = 0.002
CALIBRATION_EVERY_S = 0.1
CALIBRATION_BURST = 20
CALIBRATION_WINDOW_S = 2.0


def pin_threads() -> dict[str, str]:
    """One BLAS/OpenMP thread unless set, never more than nproc."""
    nproc = os.cpu_count() or 1
    for var in THREAD_VARS:
        value = os.environ.get(var, "1")
        if not value.isdigit() or not 1 <= int(value) <= nproc:
            value = "1"
        os.environ[var] = value
    return {var: os.environ[var] for var in THREAD_VARS}


def import_hornvol_from_checkout() -> None:
    if not (SRC / "hornvol" / "__init__.py").is_file():
        sys.exit(f"error: {SRC / 'hornvol'} not found; run from a hornvol checkout")
    sys.path.insert(0, str(SRC))
    import hornvol

    if Path(hornvol.__file__).resolve().parent != SRC / "hornvol":
        sys.exit(f"error: imported hornvol from {hornvol.__file__}, not from {SRC}")


# ---------------------------------------------------------------------------
# measurement


def calibration_kernel() -> int:
    """Fixed pure-Python work (small Fractions, tuples, a dict) that tracks core speed."""
    acc: dict = {}
    total = 0
    for i in range(1, 400):
        v = Fraction(i, i + 1) * Fraction(i + 2, i + 3) - Fraction(i + 1, i + 2)
        key = (i % 17, v.denominator % 7)
        acc[key] = acc.get(key, 0) + v.numerator
        total += acc[key] % 5
    return total


def calibration_sample() -> float:
    t0 = time.perf_counter()
    calibration_kernel()
    return time.perf_counter() - t0


def calibrate(samples, runs: int) -> None:
    for _ in range(runs):
        samples.append((time.perf_counter(), calibration_sample()))


def speed_factors(spans, samples) -> list[float]:
    """CALIBRATION_REF_S / mean local kernel time, per (start, end) span."""
    times = [t for t, _ in samples]
    out = []
    lo = 0
    for start, end in spans:
        while lo < len(times) and times[lo] < start - CALIBRATION_WINDOW_S:
            lo += 1
        hi = lo
        while hi < len(times) and times[hi] <= end + CALIBRATION_WINDOW_S:
            hi += 1
        out.append(CALIBRATION_REF_S / statistics.fmean(c for _, c in samples[lo:hi]))
    return out


def measure(wl, items, tracer=None, keep_outputs=False, deadline_s=math.inf):
    """Run the items in order, timing each; checks run outside the timing.

    Returns a dict with per-item wall and CPU seconds (raw and calibrated),
    exact/failed counts, workload counters and, if asked, the outputs.
    """
    wl.start()
    counters: Counter = Counter()
    walls, cpus, spans, outputs = [], [], [], []
    incorrect = failed = 0
    perf, cpu = time.perf_counter, time.process_time
    deadline = perf() + deadline_s
    samples: list[tuple[float, float]] = []
    calibrate(samples, CALIBRATION_BURST)
    for i, item in enumerate(items):
        if perf() > deadline:
            break
        due = int((perf() - samples[-1][0]) / CALIBRATION_EVERY_S)
        calibrate(samples, min(due, CALIBRATION_BURST))
        error = None
        if tracer is not None:
            tracer.begin_item(i)
        c0, t0 = cpu(), perf()
        try:
            out = wl.run(item)
        except Exception as exc:  # a raised item is a failed item, not a crash
            out, error = None, exc
        t1, c1 = perf(), cpu()
        if tracer is not None:
            tracer.end_item()
        walls.append(t1 - t0)
        cpus.append(c1 - c0)
        spans.append((t0, t1))
        if error is None:
            try:
                exact_ok, all_ok = wl.check(item, out, counters)
            except Exception as exc:
                exact_ok, all_ok, error = True, False, exc
        else:
            exact_ok, all_ok = True, False
        if error is not None:
            counters["bench.raised"] += 1
            print(f"item {i} raised {type(error).__name__}: {error}", file=sys.stderr)
        if tracer is not None:
            # finding a polygon's dimension costs more than counting its points,
            # so only the polygons of every POLYGON_STRIDE-th item are examined
            polygons = tracer.pop_results("bzpolytope.bz_polygon_b2")
            if i % POLYGON_STRIDE == 0:
                counters["bzpolytope.polygons"] += len(polygons)
                counters["bzpolytope.full"] += sum(P.dim == 2 for P in polygons)
        incorrect += not exact_ok
        failed += not all_ok
        if keep_outputs:
            outputs.append(out)
    calibrate(samples, CALIBRATION_BURST)
    factors = speed_factors(spans, samples)
    return {"walls": [w * f for w, f in zip(walls, factors)],
            "cpus": [c * f for c, f in zip(cpus, factors)],
            "raw_walls": walls, "raw_cpus": cpus,
            "calibration_s": [c for _, c in samples],
            "incorrect": incorrect, "failed": failed, "counters": counters, "outputs": outputs}


def chunk_rate(walls, chunk: int) -> float:
    """Median over whole chunks of items per second; all items if no whole chunk."""
    n = len(walls) // chunk
    if n == 0:
        return len(walls) / sum(walls)
    return statistics.median(chunk / sum(walls[k * chunk:(k + 1) * chunk]) for k in range(n))


def tail(walls) -> tuple[float, float, int]:
    """(percentile, value, items beyond) for the highest ladder percentile
    with at least ten items beyond it (nearest-rank); p50 if none has."""
    ordered = sorted(walls)
    n = len(ordered)
    for q in TAIL_LADDER:
        rank = max(1, math.ceil(q / 100 * n))
        if n - rank >= 10 or q == TAIL_LADDER[-1]:
            return q, ordered[rank - 1], n - rank
    raise AssertionError("unreachable")


def setup_probe_seconds(workload: str) -> list[tuple[float, float]]:
    """(setup seconds, calibration kernel seconds) of fresh interpreters, timed from inside."""
    probe = HERE / "setup_probe.py"
    out = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run([sys.executable, str(probe), workload], cwd=ROOT,
                              capture_output=True, text=True, timeout=120, check=True)
        setup_s, kernel_s = (float(v) for v in done.stdout.split()[-2:])
        out.append((setup_s, kernel_s))
    return out


def untraced_twin_rate(args, units: int) -> float:
    half = math.ceil(args.seconds / 2)
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(half), "--trace", "0",
           "--units", str(units)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=DEADLINE_FACTOR * half + 60, check=True)
    return json.loads(done.stdout.splitlines()[-1])["metrics"]["work_per_s"]["value"]


# ---------------------------------------------------------------------------
# reporting


def provenance(args, units: int, n_items: int, threads) -> dict:
    import hornvol

    commit = None
    if (ROOT / ".git").exists():
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=10).stdout.strip() or None
    src_lines = sum(len(p.read_text().splitlines()) for p in (SRC / "hornvol").glob("*.py"))
    return {
        "git_commit": commit,
        "hornvol_version": hornvol.__version__,
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "nproc": os.cpu_count(),
        "threads": threads,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "units": units,
        "items": n_items,
        "src_hornvol_lines": src_lines,
    }


def lru_caches() -> dict:
    """The multiplicity caches whose hit ratios are reported (take before tracing wraps them)."""
    from hornvol import multiplicity

    return {
        "freudenthal": multiplicity._freudenthal_cached,
        "kostant_b2": multiplicity.kostant_partition_b2,
        "kostant_rec": multiplicity._kostant_rec,
    }


def cache_counts(caches) -> dict[str, tuple[int, int]]:
    return {name: (fn.cache_info().hits, fn.cache_info().misses) for name, fn in caches.items()}


def per_layer_metrics(tracer, result, before, after, overhead_ratio, names) -> dict:
    c = result["counters"]
    values: dict[str, float] = dict(tracer.summary())
    for cache, (h0, m0) in before.items():
        hits, misses = after[cache][0] - h0, after[cache][1] - m0
        values[f"multiplicity.{cache}.hits"] = hits
        values[f"multiplicity.{cache}.misses"] = misses
        values[f"multiplicity.{cache}.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    for key in ("multiplicity.triples", "bzpolytope.polygons", "volume.piecewise.cells",
                "volume.piecewise.walls", "volume.piecewise.violation_walls", "sampler.samples",
                "sampler.outside_support", "cli.exit_nonzero"):
        values[key] = c[key]
    values["multiplicity.nonzero_ratio"] = (
        c["multiplicity.nonzero"] / c["multiplicity.triples"] if c["multiplicity.triples"] else 0.0)
    values["bzpolytope.full_ratio"] = (
        c["bzpolytope.full"] / c["bzpolytope.polygons"] if c["bzpolytope.polygons"] else 0.0)
    n = len(result["walls"])
    values["bench.items"] = n
    values["bench.fail_ratio"] = result["failed"] / n
    values["bench.trace_overhead_ratio"] = overhead_ratio
    return {name: {"value": values[name], "unit": unit} for name, unit in names}


def run_traced(args, wl, items, units: int, bench) -> tuple[dict, dict, dict]:
    layers = json.loads((HERE / "layers.json").read_text())
    targets = [(f["module"], f["name"]) for f in layers["functions"]]
    twin_rate = untraced_twin_rate(args, units)
    caches = lru_caches()
    tracer = Tracer(targets, keep_results={metric_prefix("bzpolytope", "bz_polygon_b2")})
    tracer.install()
    before = cache_counts(caches)
    result = measure(wl, items, tracer, deadline_s=DEADLINE_FACTOR * args.seconds / 2)
    after = cache_counts(caches)
    rate = chunk_rate(result["walls"], wl.chunk)
    names = [(m["name"], m["unit"]) for m in bench["per_layer"]]
    metrics = per_layer_metrics(tracer, result, before, after, rate / twin_rate, names)
    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.csv.gz")
    return result, metrics, {}


def run_untraced(args, wl, items, bench) -> tuple[dict, dict, dict]:
    result = measure(wl, items, deadline_s=DEADLINE_FACTOR * args.seconds)
    walls, cpus = result["walls"], result["cpus"]
    raw_walls, raw_cpus = result["raw_walls"], result["raw_cpus"]
    q, tail_s, beyond = tail(walls)
    probes = setup_probe_seconds(args.workload)
    values = {
        "work_per_s": chunk_rate(walls, wl.chunk),
        "item_p50_ms": statistics.median(walls) * 1e3,
        "item_tail_ms": tail_s * 1e3,
        "cpu_ms_per_item": sum(cpus) / len(cpus) * 1e3,
        "setup_s": statistics.median(s * CALIBRATION_REF_S / k for s, k in probes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in bench["end_to_end"]}
    detail = {
        "item_tail_percentile": q,
        "items_beyond_tail": beyond,
        "bench.fail_ratio": result["failed"] / len(walls),
        "uncalibrated": {
            "work_per_s": chunk_rate(raw_walls, wl.chunk),
            "item_p50_ms": statistics.median(raw_walls) * 1e3,
            "item_tail_ms": sorted(raw_walls)[len(raw_walls) - 1 - beyond] * 1e3,
            "cpu_ms_per_item": sum(raw_cpus) / len(raw_cpus) * 1e3,
            "setup_s": statistics.median(s for s, _ in probes),
        },
        "calibration_kernel_ms": {
            "median": statistics.median(result["calibration_s"]) * 1e3,
            "min": min(result["calibration_s"]) * 1e3,
            "max": max(result["calibration_s"]) * 1e3,
        },
    }
    return result, metrics, detail


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--units", type=int, default=None,
                    help="measure this many units instead of seconds * units_per_second")
    args = ap.parse_args(argv)
    if args.seconds < 1 or (args.units is not None and args.units < 1):
        ap.error("--seconds and --units must be >= 1")

    threads = pin_threads()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    import_hornvol_from_checkout()
    setup(args.workload)
    wl = WORKLOADS[args.workload]()
    units = args.units or math.ceil(args.seconds * wl.units_per_second)
    if args.trace:
        units = math.ceil(units / 2)
    items = wl.inputs(args.seed, units)
    if args.trace:
        result, metrics, detail = run_traced(args, wl, items, units, bench)
    else:
        result, metrics, detail = run_untraced(args, wl, items, bench)

    n = len(result["walls"])
    counters = result["counters"]
    detail.update(items=n, incorrect=result["incorrect"], raised=counters["bench.raised"],
                  failed_checks={k[5:]: v for k, v in counters.items() if k.startswith("fail.")},
                  provenance=provenance(args, units, n, threads))
    report = {"correct": result["incorrect"] == 0, "attempted": n, "failed": result["failed"],
              "metrics": metrics}
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"detail": detail, **report, "item_ms": [round(w * 1e3, 4) for w in result["walls"]]}) + "\n")
    print(json.dumps({"detail": detail}))
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
