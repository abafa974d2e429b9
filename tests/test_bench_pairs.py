"""`tools/bench_pairs.summarise` on synthetic pairs: its three verdicts."""

import importlib.util
from pathlib import Path

BENCH_PAIRS = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
HIGHER = {"name": "ops_per_s", "unit": "1/s", "better": "higher", "bound": 0.25}
LOWER = {"name": "op_p50_ms", "unit": "ms", "better": "lower", "bound": 0.25}
# median 100, quartiles 60 and 140 (inclusive method): a spread of 80, wider
# than the bound's 25
WIDE = [20, 60, 100, 140, 180] * 2


def _summarise(metric, old, new):
    spec = importlib.util.spec_from_file_location("bench_pairs", BENCH_PAIRS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
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
