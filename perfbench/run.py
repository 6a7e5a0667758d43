"""Benchmark of the tiledorder pipeline.

    python3 perfbench/run.py --workload matrix --seed 1 --seconds 28 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 28

Run from a checkout: the package is imported from ``src/`` next to this
directory, nothing is installed.  One process runs one workload as a closed
loop with one client and no threads: the next job starts when the previous
one returns (for ``cli``, when its one subprocess has exited).  The job list
is repeated while the next pass still fits in ``--seconds``; each output is
checked against the oracles in ``jobs.py`` outside the timing.

The shared host's speed drifts, so every end-to-end time is rescaled to a
fixed machine speed (``speed.py``): a fixed reference is timed before each
job and in each setup trial, and each time is divided by the reference's
slowness (measured over nominal time) around it.  The process and its
subprocesses are pinned to one CPU, so the reference runs where the jobs
run.  ``wall_s`` is the rescaled time one pass of the job list spends in
the program: the sum of its rescaled job latencies.  The raw times are
printed too.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes and prints the per-layer metrics: self time per
layer from the spans of ``spans.py``, exact counts per pass, and the tracing
overhead.  The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  Runtime files go to ``.perfbench/``
at the checkout root.  See ``layers.json`` for what each metric should move.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import speed

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
SETUP_TRIALS = 11

# Setup in a fresh interpreter: import the package, then warm up on tiny
# inputs.  Prints import seconds, warm-up seconds and the median slowness of
# the Python reference around them.
SETUP_CODE = """
import statistics, sys, time
src, bench, name, workdir = sys.argv[1:]
sys.path[:0] = [src, bench]
import speed
slowness = [speed.PYTHON.slowness() for _ in range(3)]
t0 = time.perf_counter()
import tiledorder, tiledorder.cli
t1 = time.perf_counter()
import jobs
workload = jobs.make(name, workdir, src)
warm = workload.warm_up_jobs()
t2 = time.perf_counter()
workload.warm_up(warm)
t3 = time.perf_counter()
slowness += [speed.PYTHON.slowness() for _ in range(3)]
print(t1 - t0, t3 - t2, statistics.median(slowness))
"""

LAYER_TIMES = (  # (metric, span name, scale to the metric's unit)
    ("orders.from_rows_s", "orders.from_rows", 1),
    ("orders.morita_shift_s", "orders.morita_shift", 1),
    ("orders.validate_s", "orders.validate", 1),
    ("gorenstein.detect_s", "gorenstein.detect", 1),
    ("gorenstein.cyclic_order_s", "gorenstein.cyclic_order", 1),
    ("conjugation.equivariant_data_s", "conjugation.equivariant_data", 1),
    ("conjugation.normalize_s", "conjugation.normalize", 1),
    ("conjugation.negative_cycle_s", "conjugation.negative_cycle", 1),
    ("tilting.poset_s", "tilting.poset", 1),
    ("tilting.hasse_s", "tilting.hasse", 1),
    ("files.read_s", "files.read", 1),
    ("files.emit_s", "files.emit", 1),
    ("cli.main_ms", "cli.main", 1000),
    ("bench.other_s", "job", 1),
)
COUNT_UNITS = {"files.bytes_out": "bytes"}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    choices = ("matrix", "poset", "reject", "cli", "all")
    parser.add_argument("--workload", required=True, choices=choices)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def p90(values):
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def inputs_digest(job_list) -> str:
    data = json.dumps([[job.kind, job.inputs] for job in job_list], sort_keys=True)
    return hashlib.sha256(data.encode()).hexdigest()


def setup_trials(name, workdir):
    """(import s, warm-up s, slowness), each from a fresh interpreter."""
    trials = []
    for _ in range(SETUP_TRIALS):
        res = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, str(SRC), str(BENCH), name, str(workdir)],
            capture_output=True,
            text=True,
            cwd=workdir,
            timeout=120,
        )
        if res.returncode != 0:
            raise RuntimeError(f"setup failed: {res.stderr.strip()[-500:]}")
        trials.append(tuple(map(float, res.stdout.split())))
    return trials


def run_pass(workload, job_list, failures, tracer=None):
    """One closed-loop pass; returns the job latencies in ns, and the
    slowness of the workload's reference before each job and after the last.

    Each output is checked as soon as its job returns, outside the timing,
    and then dropped, so the heap the program runs in does not grow with
    the pass.
    """
    workload.before_pass(job_list)
    gc.collect()
    latencies, slowness = [], []
    for k, job in enumerate(job_list):
        slowness.append(workload.reference.slowness())
        if tracer is not None:
            tracer.begin_job(k)
        start = time.perf_counter_ns()
        try:
            out = workload.run(job)
        except Exception as exc:  # a rejection or a crash is the job's output
            out = exc
        end = time.perf_counter_ns()
        if tracer is not None:
            tracer.end_job()
        latencies.append(end - start)
        error = workload.check(job, out)
        del out
        if error is not None:
            failures.append(f"job {k} ({job.kind}): {error}")
    slowness.append(workload.reference.slowness())
    return latencies, slowness


def measure(args, jobs, spans, workdir):
    workload = jobs.make(args.workload, str(workdir), str(SRC))
    trials = setup_trials(args.workload, workdir)
    workload.warm_up(workload.warm_up_jobs())
    for reference in (speed.PYTHON, workload.reference):
        for _ in range(10):
            reference.slowness()

    t = time.perf_counter()
    job_list = workload.make_jobs(random.Random(f"{args.workload}:{args.seed}"))
    gen_s = time.perf_counter() - t
    digest = inputs_digest(job_list)

    # The inputs and expected values stay alive all run; keep the collector
    # from scanning them during the passes.
    gc.collect()
    gc.freeze()

    failures = []
    walls, latencies, raw_walls, raw_latencies, slowness = [], [], [], [], []
    traced_walls, layer_passes, count_passes = [], [], []
    tracer = spans.Tracer()
    in_process = jobs.make(args.workload, str(workdir), str(SRC), in_process=True)
    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        raw, slow = run_pass(in_process if args.trace else workload, job_list, failures)
        lat = speed.rescale(raw, slow)
        walls.append(sum(lat) / 1e9)
        latencies += lat
        raw_walls.append(sum(raw) / 1e9)
        raw_latencies += raw
        slowness += slow
        if args.trace:
            first, before = len(tracer.spans), Counter(tracer.counts)
            with tracer.installed():
                raw, slow = run_pass(in_process, job_list, failures, tracer)
            traced_walls.append(sum(speed.rescale(raw, slow)) / 1e9)
            layer_passes.append(tracer.self_times(first))
            count_passes.append(tracer.counts - before)
        now = time.perf_counter()
        if now - start + (now - round_start) > args.seconds:
            break

    attempted = len(job_list) * (len(walls) + len(traced_walls))
    setup = [(imp + warm) / slow for imp, warm, slow in trials]
    print(
        f"workload {args.workload}  seed {args.seed}  trace {args.trace}"
        f"  jobs {len(job_list)}  passes {len(walls)}"
    )
    print(f"inputs_sha256 {digest}")
    print(f"gen_s {gen_s:.6f} s  (input generation, not part of any metric)")
    metrics = {}

    def report(name, value, unit, samples):
        metrics[name] = {"value": value, "unit": unit}
        print(f"  {name:<32} {value:>16.6f} {unit:<6} samples={samples}")

    if not args.trace:
        print(
            f"raw (not rescaled): wall_s {statistics.median(raw_walls):.6f} s"
            f"  job_p50_ms {statistics.median(raw_latencies) / 1e6:.6f} ms"
            f"  job_p90_ms {p90(raw_latencies) / 1e6:.6f} ms"
            f"  setup_s {statistics.median(imp + warm for imp, warm, _ in trials):.6f} s"
        )
        print(
            f"reference {workload.reference.work.__name__}: median slowness"
            f" {statistics.median(slowness):.4f}, samples={len(slowness)}"
        )
        report("wall_s", statistics.median(walls), "s", len(walls))
        report("job_p50_ms", statistics.median(latencies) / 1e6, "ms", len(latencies))
        report("job_p90_ms", p90(latencies) / 1e6, "ms", len(latencies))
        report("setup_s", statistics.median(setup), "s", len(setup))
        if args.workload == "cli":  # the largest of the job subprocesses
            report("peak_rss_mb", workload.child_rss_kb / 1024, "MB", len(latencies))
        else:
            rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            report("peak_rss_mb", rss_kb / 1024, "MB", 1)
    else:
        if tracer.missing:
            print(f"untraced (not found in the package): {', '.join(tracer.missing)}")
        for metric, span, scale in LAYER_TIMES:
            value = statistics.median([p.get(span, 0.0) for p in layer_passes]) * scale
            report(metric, value, "ms" if scale == 1000 else "s", len(layer_passes))
        import_ms = statistics.median([imp for imp, _, _ in trials]) * 1000
        report("cli.import_ms", import_ms, "ms", len(trials))
        for name in spans.COUNT_NAMES:
            value = statistics.median([c[name] for c in count_passes])
            report(name, value, COUNT_UNITS.get(name, "count"), len(count_passes))
        ratio = statistics.median(traced_walls) / statistics.median(walls)
        report("trace.overhead_ratio", ratio, "ratio", len(traced_walls))
        spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
        tracer.write(spans_path)
        print(f"spans written to {spans_path.relative_to(ROOT)}")
    print(f"error_rate {len(failures)}/{attempted} = {len(failures) / attempted:.6f}")
    for line in failures[:10]:
        print(f"FAILED {line}")
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }


def run_all(args):
    """Every workload in its own fresh process, then one combined summary."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in ("matrix", "poset", "reject", "cli"):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name]
        cmd += ["--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        res = subprocess.run(cmd, capture_output=True, text=True)
        sys.stdout.write(res.stdout)
        sys.stderr.write(res.stderr)
        if res.returncode != 0:
            return res.returncode
        result = json.loads(res.stdout.strip().splitlines()[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        combined["metrics"].update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(combined))
    return 0


def main(argv=None):
    args = parse_args(argv)
    sys.path[:0] = [str(SRC), str(BENCH)]
    try:
        import tiledorder.cli
    except ImportError as exc:
        print(f"perfbench: cannot import tiledorder from {SRC}: {exc}", file=sys.stderr)
        return 2
    if SRC not in Path(tiledorder.cli.__file__).resolve().parents:
        print(f"perfbench: tiledorder was imported from outside {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    import jobs
    import spans

    # One CPU for the run and its subprocesses: the reference that rescales
    # the times is then timed on the CPU the jobs run on (the vCPUs of the
    # host differ in speed from moment to moment).
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    print(f"pinned to cpu {cpu}")
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"{args.workload}-{os.getpid()}"
    workdir.mkdir()
    try:
        result = measure(args, jobs, spans, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
