"""`tools/bench_pairs` on synthetic pairs: the three verdicts of `summarise`,
the memory-against-ops line of `rss_per_op`, and the report's machine block
and traced pairs."""

import importlib.util
import json
from pathlib import Path

BENCH_PAIRS = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
HIGHER = {"name": "ops_per_s", "unit": "1/s", "better": "higher", "bound": 0.25}
LOWER = {"name": "op_p50_ms", "unit": "ms", "better": "lower", "bound": 0.25}
# median 100, quartiles 60 and 140 (inclusive method): a spread of 80, wider
# than the bound's 25
WIDE = [20, 60, 100, 140, 180] * 2


def _module():
    spec = importlib.util.spec_from_file_location("bench_pairs", BENCH_PAIRS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _summarise(metric, old, new):
    module = _module()
    name = metric["name"]
    pairs = [{side: {"metrics": {name: {"value": v}}} for side, v in (("old", a), ("new", b))}
             for a, b in zip(old, new, strict=True)]
    return module.summarise(pairs, [metric])[name]


def _verdicts(out):
    return out["within_bound"], out["gain_holds"], out["unresolved"]


def test_summarise_verdicts_on_synthetic_pairs():
    tight = [100, 99, 101, 100, 98, 102, 100, 101, 99, 100]
    # a narrow parent spread resolves the metric either way
    assert _verdicts(_summarise(HIGHER, tight, tight)) == (True, False, False)
    assert _verdicts(_summarise(HIGHER, tight, [x * 0.7 for x in tight])) == (False, False, False)
    # a wide one leaves a level change unresolved, whichever way is better
    assert _verdicts(_summarise(HIGHER, WIDE, WIDE)) == (True, False, True)
    assert _verdicts(_summarise(LOWER, WIDE, WIDE[::-1])) == (True, False, True)
    # unless every new run is better than every old run
    out = _summarise(HIGHER, WIDE, [x + 200 for x in WIDE])
    assert _verdicts(out) == (True, True, False) and out["new_wins"] == 10
    assert _verdicts(_summarise(LOWER, WIDE, [x / 100 for x in WIDE])) == (True, True, False)
    # one new run that ties the best old run is enough to keep it unresolved
    assert _summarise(HIGHER, WIDE, [180] + [x + 200 for x in WIDE[1:]])["unresolved"]


def _run(attempted, rss):
    return {"attempted": attempted, "metrics": {"peak_rss_mb": {"value": rss}}}


def test_rss_per_op_fits_memory_against_ops():
    rss_per_op = _module().rss_per_op
    # 20 MB plus 0.5 KB per op, exactly, on both sides: the medians of 2048
    # and 4096 ops predict 22 MB over 21 MB
    line = lambda ops: 20 + ops * 0.5 / 1024  # noqa: E731
    pairs = [{"old": _run(ops, line(ops)), "new": _run(ops + 2048, line(ops + 2048))}
             for ops in (1024, 2048, 3072)]
    fit = rss_per_op(pairs)
    assert abs(fit["kb_per_op"] - 0.5) < 1e-9 and abs(fit["intercept_mb"] - 20) < 1e-9
    assert abs(fit["predicted_ratio"] - 22 / 21) < 1e-12
    # memory that does not follow the ops leaves a flat line and a ratio of 1
    flat = [{"old": _run(ops, 24.0), "new": _run(ops + 2000, 24.0)} for ops in (100, 300)]
    assert rss_per_op(flat) == {"kb_per_op": 0.0, "intercept_mb": 24.0, "predicted_ratio": 1.0}
    # every run of the same length leaves the slope undetermined
    assert rss_per_op([{"old": _run(60, 23.0), "new": _run(60, 23.5)}]) is None


def test_machine_record_says_whether_the_library_is_compiled(monkeypatch, tmp_path):
    # the runs inherit the environment, so PYTHONDONTWRITEBYTECODE decides
    # whether each fresh import compiles the library from source
    module = _module()
    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")
    assert module.bytecode_flag() == 1
    monkeypatch.delenv("PYTHONDONTWRITEBYTECODE")
    assert module.bytecode_flag() == 0
    # and main writes it into the report's machine block, next to the run's
    # own machine record; a traced pair keeps each side's nonzero metrics
    spec = {"end_to_end": [HIGHER, LOWER]}
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(spec))
    machine = {"python": "3.11.7", "nproc": 2}

    def fake_run(root, workload, seed, seconds, trace=0):
        metrics = {"ops_per_s": 100.0, "op_p50_ms": 10.0, "peak_rss_mb": 30.0} if not trace else \
            {"member.calls_per_op": 19.7 if root.name == "old" else 10.5, "unused.calls": 0}
        return {"metrics": {k: {"value": v} for k, v in metrics.items()}, "attempted": 50,
                "correct": True, "failed": 0, "record": {"machine": machine}}
    monkeypatch.setattr(module, "run_once", fake_run)
    old, new, out = tmp_path / "old", tmp_path, tmp_path / "out.json"
    assert module.main([str(old), str(new), "--workloads", "gaps", "--pairs", "2",
                        "--traced", "gaps", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["machine"] == dict(machine, dont_write_bytecode=0)
    assert report["traced"] == {"gaps/seed1": {"old": {"member.calls_per_op": 19.7},
                                               "new": {"member.calls_per_op": 10.5}}}


def test_rss_bound_ops_ratio_reaches_the_bound(monkeypatch, tmp_path):
    module = _module()
    # 20 MB plus 0.5 KB per op, exactly: at the old median of 2048 ops the
    # line reads 21 MB, and it reaches 21 * 1.15 = 24.15 MB at 8499.2 ops
    line = lambda ops: 20 + ops * 0.5 / 1024  # noqa: E731
    pairs = [{"old": _run(ops, line(ops)), "new": _run(ops + 2048, line(ops + 2048))}
             for ops in (1024, 2048, 3072)]
    r = module.rss_bound_ops_ratio(module.rss_per_op(pairs), 2048, 0.15)
    assert abs(r - 8499.2 / 2048) < 1e-9 and abs(line(r * 2048) - 1.15 * line(2048)) < 1e-9
    # a flat line never reaches it, nor is there a ratio without a line or a bound
    flat = [{"old": _run(ops, 24.0), "new": _run(ops + 2000, 24.0)} for ops in (100, 300)]
    assert module.rss_bound_ops_ratio(module.rss_per_op(flat), 200, 0.15) is None
    assert module.rss_bound_ops_ratio(None, 200, 0.15) is None
    assert module.rss_bound_ops_ratio(module.rss_per_op(pairs), 2048, None) is None
    # the scan fit of BENCH_23.json leaves about half again as many ops
    report = json.loads((BENCH_PAIRS.parents[1] / "BENCH_23.json").read_text())
    scan = report["summary"]["scan/seed1"]
    assert round(module.rss_bound_ops_ratio(scan["rss_per_op"], scan["attempted"]["old"], 0.15),
                 2) == 1.51
    # main writes it beside rss_per_op, with the peak_rss_mb bound of BENCHMARK.json
    rss = {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.15}
    (tmp_path / "BENCHMARK.json").write_text(json.dumps({"end_to_end": [rss]}))
    runs = iter([1024, 3072, 3072, 1024])  # old first in pair 1, new first in pair 2

    def fake_run(*args, **kwargs):
        ops = next(runs)
        return {"attempted": ops, "correct": True, "failed": 0, "record": {"machine": {}},
                "metrics": {"ops_per_s": {"value": ops / 25}, "peak_rss_mb": {"value": line(ops)}}}
    monkeypatch.setattr(module, "run_once", fake_run)
    monkeypatch.setattr(module, "bytecode_flag", lambda: 0)
    out = tmp_path / "out.json"
    assert module.main([str(tmp_path), str(tmp_path), "--workloads", "scan", "--pairs", "2",
                        "--out", str(out)]) == 0
    summary = json.loads(out.read_text())["summary"]["scan/seed1"]
    assert summary["attempted"] == {"old": 1024, "new": 3072}
    assert abs(summary["rss_bound_ops_ratio"]
               - module.rss_bound_ops_ratio(summary["rss_per_op"], 1024, 0.15)) < 1e-12
    assert summary["rss_bound_ops_ratio"] > 1
