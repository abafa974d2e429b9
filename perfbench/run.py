"""Benchmark of the gkzfactors library: one workload, one seed, one run.

    python3 perfbench/run.py --workload scan --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; the library is imported from `src/`.  The
run is a closed loop with one client: one process, no threads, the next op
starts when the previous one has returned.

With `--trace 0` the last stdout line holds the end-to-end metrics; with
`--trace 1` it holds calls and self time per library function, measured by
wrapping the functions from outside (see tracing.py), plus the tracing overhead.
The line before it is the machine record of the run, which is also written,
with the spans of a traced run, to `.perfbench_out/` in the checkout.

Times are scaled by the host's speed around them (see hostspeed.py),
measured between ops; the record keeps the wall-clock figures next to them.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
sys.path.insert(0, str(HERE))

import hostspeed  # noqa: E402
import tracing  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402

PACKAGE = "gkzfactors"
MODULES = ("errors", "intlin", "semigroup", "cones", "degrees", "resonance",
           "factors", "bruteforce", "cli")
SETUP_REPEATS = 9
SAMPLE_EVERY_S = 0.05  # op time between two host-speed samples


def fresh_library():
    """Import the library afresh, as a new process would."""
    for name in [n for n in sys.modules if n == PACKAGE or n.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    return SimpleNamespace(**{m: importlib.import_module(f"{PACKAGE}.{m}")
                              for m in MODULES})


def set_up(workload_cls, seed, host):
    """SETUP_REPEATS fresh set-ups; returns the last one and, for each,
    (wall seconds, first host sample after it, sample count after it)."""
    times = []
    lib = workload = None
    for _ in range(SETUP_REPEATS):
        del lib, workload  # one set-up in memory at a time
        first = len(host.samples)
        start = time.perf_counter()
        lib = fresh_library()
        workload = workload_cls(lib, seed)
        took = time.perf_counter() - start
        host.sample()
        times.append((took, first, len(host.samples)))
    return lib, workload, times


def closed_loop(workload, seconds, min_ops, host, schedule=None):
    """Run ops back to back and check each one's output as it returns.

    Returns ([(op, wall latency, first, last host sample, problems)], wall
    seconds).  Without a schedule the loop cycles through `workload.ops` and
    stops once `seconds` have passed and `min_ops` ops have run, at the end
    of a pass when the workload asks for whole passes.  The host's speed is
    sampled after each op, once per SAMPLE_EVERY_S of op time, outside the
    latencies; checking, too, happens outside them.  Payloads are not kept,
    so that they do not count in the peak memory.
    """
    done = []
    clock = time.perf_counter
    start = clock()
    ops = workload.ops
    owed = 0.0
    k = 0
    while True:
        if schedule is not None:
            if k == len(schedule):
                break
            op = schedule[k]
        else:
            if ((k % len(ops) == 0 or not workload.whole_passes) and k >= min_ops
                    and clock() - start >= seconds):
                break
            op = ops[k % len(ops)]
        first = len(host.samples)
        t0 = clock()
        try:
            result = workload.run(op)
        except Exception as exc:  # an op that raises is a failed op
            result = exc
        latency = clock() - t0
        if isinstance(result, Exception):
            problems = [f"{workload.key(op)}: raised {type(result).__name__}: {result}"]
        else:
            problems = workload.check(op, result)[:1]
        owed += latency
        while owed >= SAMPLE_EVERY_S:
            host.sample()
            owed -= SAMPLE_EVERY_S
        done.append((op, latency, first, len(host.samples), problems))
        k += 1
    return done, clock() - start


def tail_rank(n, pct):
    """1-based rank of the pct-th percentile: the first value above pct% of all.

    With whole passes over few distinct inputs this lands on the fastest
    replay of one input rather than on the slowest replay of the one before.
    """
    return min(n, n * pct // 100 + 1)


def percentile(sorted_values, pct):
    return sorted_values[tail_rank(len(sorted_values), pct) - 1]


def median_of_inputs(keys, latencies):
    """Median over distinct inputs of each input's mean latency.

    Workloads with few inputs (four fixtures, ten curves) have latency
    clusters far apart, and the median of all ops would jump between two
    clusters from run to run; this one moves smoothly.  An input is replayed
    only a few times in a run, and the mean of those few replays varied less
    from run to run than their median did.
    """
    by_input: dict = {}
    for key, latency in zip(keys, latencies):
        by_input.setdefault(key, []).append(latency)
    return statistics.median(statistics.fmean(v) for v in by_input.values())


def machine():
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "nproc": os.cpu_count(), "cpu": cpu, "platform": platform.platform()}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=25)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (ROOT / "src" / PACKAGE / "__init__.py").is_file():
        print(f"error: no {PACKAGE} sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    workload_cls = WORKLOADS[args.workload]
    host = hostspeed.HostSpeed()
    lib, workload, setup_times = set_up(workload_cls, args.seed, host)
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "run_seconds": args.seconds, "setup_repeats": SETUP_REPEATS,
              "setup_wall_s": [t[0] for t in setup_times], "machine": machine(),
              "references": workload.references is not None}

    if args.trace:
        metrics, done = traced_run(lib, workload, args.seconds, host, record)
    else:
        done, elapsed = closed_loop(workload, args.seconds, workload.min_ops, host)
        host.pad()
        n, pct = len(done), workload.tail_pct
        wall = [d[1] for d in done]
        scaled = [d[1] / host.slowdown(d[2], d[3]) for d in done]
        keys = [workload.key(d[0]) for d in done]
        setup_scaled = [t[0] / host.slowdown(t[1], t[2]) for t in setup_times]
        record.update(
            ops=n, measured_s=elapsed, tail_percentile=pct,
            ops_beyond_tail=n - tail_rank(n, pct),
            host_slowdown=statistics.median(host.samples) / hostspeed.REFERENCE_S,
            host_samples=len(host.samples),
            wall={"ops_per_s": n / sum(wall),
                  "op_p50_ms": 1000 * median_of_inputs(keys, wall),
                  "op_tail_ms": 1000 * percentile(sorted(wall), pct),
                  "setup_s": statistics.median(t[0] for t in setup_times)})
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics = {
            "ops_per_s": (n / sum(scaled), "1/s"),
            "op_p50_ms": (1000 * median_of_inputs(keys, scaled), "ms"),
            "op_tail_ms": (1000 * percentile(sorted(scaled), pct), "ms"),
            "setup_s": (statistics.median(setup_scaled), "s"),
            "peak_rss_mb": (rss_mb, "MB"),
        }

    problems = [msg for d in done for msg in d[4]]
    failed = sum(bool(d[4]) for d in done)
    record.update(failed_share=failed / len(done), problems=problems[:20])
    metrics = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    OUT.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{name}.json").write_text(json.dumps(dict(record, metrics=metrics), indent=1))
    print(json.dumps({"record": record}))
    print(json.dumps({"correct": failed == 0, "attempted": len(done),
                      "failed": failed, "metrics": metrics}))
    return 0


def traced_run(lib, workload, seconds, host, record):
    """Trace ops for half the run; each op also runs untraced right before or
    after its traced run, in turn, so that host drift cancels in the overhead.
    Returns the metrics and every op run, traced or not."""
    modules = [m for n, m in sorted(sys.modules.items())
               if n == PACKAGE or n.startswith(PACKAGE + ".")]
    tracer = tracing.Tracer(lib.errors.ComputationLimitError)
    tracer.install(lib, modules)
    tracer.disable()
    done, plain = [], []
    traced_s = plain_s = 0.0
    ops = workload.ops
    try:
        while traced_s < seconds / 2 or len(done) < workload.min_ops // 2:
            k = len(done)
            for traced in ((True, False) if k % 2 == 0 else (False, True)):
                if traced:
                    tracer.op = k
                    tracer.enable()
                (single,), _ = closed_loop(workload, 0, 0, host,
                                           schedule=[ops[k % len(ops)]])
                tracer.disable()
                if traced:
                    done.append(single)
                    traced_s += single[1]
                else:
                    plain.append(single)
                    plain_s += single[1]
    finally:
        tracer.uninstall()
    metrics = tracer.layer_metrics(len(done))
    metrics["trace.overhead_share"] = (1 - plain_s / traced_s, "ratio")
    OUT.mkdir(exist_ok=True)
    spans = OUT / f"{workload.name}-seed{workload.seed}-spans.jsonl"
    tracer.write(spans)
    record.update(ops=len(done), traced_s=traced_s, untraced_s=plain_s,
                  spans=len(tracer), spans_file=str(spans.relative_to(ROOT)),
                  missing_functions=tracer.missing)
    return metrics, done + plain


if __name__ == "__main__":
    sys.exit(main())
