"""Paired benchmark runs of two source trees, summarised into one JSON file.

Runs ``perfbench/run.py`` (``--trace 0``) from an old and a new root for each
workload and seed, alternating which root goes first from pair to pair so
that slow drift of a shared host falls on both sides alike.  Keeps each run's
result line and machine record, and writes, per workload and seed, the
median and quartiles of every end-to-end metric on each side, the ratio of
the medians, how many pairs the new tree won, and three verdicts per metric:
``within_bound`` (the new median is worse than the old one by at most the
metric's ``bound`` in ``BENCHMARK.json``, as a share of the old median),
``gain_holds`` (the new tree won at least 9 pairs in 10, and its median is
better than the old one by more than the old runs' quartile spread) and
``unresolved`` (the old runs' quartile spread is wider than the bound as a
share of the old median, so a change within the bound cannot be told from
noise, and not every new run is better than every old run).
Each side's median op count (``attempted``) goes next to them, since a run's
``peak_rss_mb`` grows with the ops it ran, and so does ``rss_per_op``: a
least-squares line of ``peak_rss_mb`` against ``attempted`` over every run of
both sides (KB per op and an intercept in MB), and the ``peak_rss_mb`` ratio
that line predicts from the change in median ``attempted`` alone.  A ratio
near the measured one puts the change in memory on the harness's per-op
records, not on the library.  Beside it, ``rss_bound_ops_ratio`` is the
ratio of op counts to the old median at which that line reaches the old
side's predicted ``peak_rss_mb`` plus its bound: how much faster a change
may run before the per-op records alone fail the bound.  ``--traced`` adds
one traced pair (``--trace 1``) per named workload at the first seed, kept
under "traced" as each side's nonzero per-layer metrics, to show which layer
a change moved.  The machine record gains ``dont_write_bytecode``, the flag
a run starts with: when it is 1, every fresh import in a run's set-up
compiles the library from source (a new checkout has no bytecode cache), so
``setup_s`` includes that compile time.  Standard library only.

    python3 tools/bench_pairs.py OLD_ROOT NEW_ROOT --workloads gaps,fixtures \\
        --seeds 1,2 --pairs 10 --seconds 25 --traced gaps --out BENCH.json

A root is a checkout holding ``perfbench/run.py`` and ``src/gkzfactors``,
such as a ``git archive`` of another commit.  The metrics and which way is
better are read from the new root's ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def run_once(root: Path, workload: str, seed: int, seconds: float, trace: int = 0) -> dict:
    """The result line of one run, with its machine record under "record"."""
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                          cwd=root, capture_output=True, text=True, check=True)
    *_, record, result = done.stdout.strip().splitlines()
    return dict(json.loads(result), record=json.loads(record)["record"])


def bytecode_flag() -> int:
    """sys.flags.dont_write_bytecode in a process started as the runs are."""
    probe = "import sys; print(sys.flags.dont_write_bytecode)"
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          check=True)
    return int(done.stdout)


def spread(values: list) -> dict:
    """Median and quartiles (inclusive method) of a list of numbers."""
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summarise(pairs: list, end_to_end: list) -> dict:
    """Per metric: each side's spread, the ratio new/old of the medians, the
    pairs in which the new run was better, and the three verdicts."""
    out = {}
    for metric in end_to_end:
        name, higher = metric["name"], metric["better"] == "higher"
        old = [p["old"]["metrics"][name]["value"] for p in pairs]
        new = [p["new"]["metrics"][name]["value"] for p in pairs]
        old_s, new_s = spread(old), spread(new)
        wins = sum((b > a) if higher else (b < a) for a, b in zip(old, new))
        gain = (new_s["median"] - old_s["median"]) * (1 if higher else -1)
        all_better = min(new) > max(old) if higher else max(new) < min(old)
        out[name] = {"unit": metric["unit"], "better": metric["better"],
                     "old": old_s, "new": new_s,
                     "ratio": new_s["median"] / old_s["median"] if old_s["median"] else None,
                     "new_wins": wins, "pairs": len(pairs),
                     "within_bound": gain >= -metric["bound"] * abs(old_s["median"]),
                     "gain_holds": 10 * wins >= 9 * len(pairs)
                     and gain > old_s["q3"] - old_s["q1"],
                     "unresolved": old_s["q3"] - old_s["q1"]
                     > metric["bound"] * abs(old_s["median"]) and not all_better}
    return out


def rss_per_op(pairs: list) -> dict | None:
    """The line peak_rss_mb = intercept + slope * attempted fitted to every
    run, with the slope in KB (1024 bytes) per op, and the ratio new/old it
    predicts at the two sides' median op counts; None when every run made
    the same number of ops."""
    runs = [p[side] for p in pairs for side in ("old", "new")]
    try:
        slope, intercept = statistics.linear_regression(
            [r["attempted"] for r in runs], [r["metrics"]["peak_rss_mb"]["value"] for r in runs])
    except statistics.StatisticsError:
        return None
    old, new = (statistics.median(p[side]["attempted"] for p in pairs) for side in ("old", "new"))
    return {"kb_per_op": slope * 1024, "intercept_mb": intercept,
            "predicted_ratio": (intercept + slope * new) / (intercept + slope * old)}


def rss_bound_ops_ratio(fit: dict | None, ops: float, bound: float | None) -> float | None:
    """r with intercept + slope * r * ops = (1 + bound) * (intercept + slope * ops),
    that is r = 1 + bound * (intercept + slope * ops) / (slope * ops), for the
    `rss_per_op` line `fit`; None when the line does not rise, or when the
    line or the bound is missing."""
    if fit is None or bound is None or fit["kb_per_op"] <= 0:
        return None
    slope = fit["kb_per_op"] / 1024
    return 1 + bound * (fit["intercept_mb"] + slope * ops) / (slope * ops)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("old", type=Path, help="root of the reference tree")
    p.add_argument("new", type=Path, help="root of the tree under test")
    p.add_argument("--workloads", required=True, help="comma-separated workload names")
    p.add_argument("--seeds", default="1", help="comma-separated seeds")
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seconds", type=float, default=25)
    p.add_argument("--traced", default="", help="comma-separated workloads to trace one pair of")
    p.add_argument("--out", type=Path, required=True, help="JSON file to write")
    args = p.parse_args(argv)
    spec = json.loads((args.new / "BENCHMARK.json").read_text())
    rss_bound = next((m["bound"] for m in spec["end_to_end"] if m["name"] == "peak_rss_mb"), None)
    roots = {"old": args.old, "new": args.new}

    report = {"seconds": args.seconds, "pairs": args.pairs, "order": "alternating",
              "runs": {}, "summary": {}}
    for workload in args.workloads.split(","):
        for seed in (int(s) for s in args.seeds.split(",")):
            pairs = []
            for i in range(args.pairs):
                sides = ("old", "new") if i % 2 == 0 else ("new", "old")
                pair = {side: run_once(roots[side], workload, seed, args.seconds)
                        for side in sides}
                pairs.append(pair)
                print(f"{workload} seed {seed} pair {i + 1}/{args.pairs}: " + ", ".join(
                    f"{side} ops_per_s {pair[side]['metrics']['ops_per_s']['value']:.2f}"
                    for side in ("old", "new")), file=sys.stderr, flush=True)
            label = f"{workload}/seed{seed}"
            report["runs"][label] = pairs
            attempted = {side: statistics.median(p[side]["attempted"] for p in pairs)
                         for side in roots}
            fit = rss_per_op(pairs)
            report["summary"][label] = dict(
                summarise(pairs, spec["end_to_end"]),
                attempted=attempted,
                rss_per_op=fit,
                rss_bound_ops_ratio=rss_bound_ops_ratio(fit, attempted["old"], rss_bound),
                all_correct=all(p[s]["correct"] for p in pairs for s in p),
                failed=sum(p[s]["failed"] for p in pairs for s in p))
    seed = int(args.seeds.split(",")[0])
    for workload in filter(None, args.traced.split(",")):
        pair = {side: run_once(roots[side], workload, seed, args.seconds, trace=1)
                for side in roots}
        report.setdefault("traced", {})[f"{workload}/seed{seed}"] = {
            side: {name: m["value"] for name, m in pair[side]["metrics"].items() if m["value"]}
            for side in roots}
    report["machine"] = dict(next(iter(report["runs"].values()))[0]["old"]["record"]["machine"],
                             dont_write_bytecode=bytecode_flag())
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
