"""`tools/ladder` on its inputs and on the three outcomes of one stage."""

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _module():
    spec = importlib.util.spec_from_file_location("ladder", ROOT / "tools" / "ladder.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_ladder_inputs_are_the_draws_then_the_walls():
    ladder = _module()
    before = sorted((ROOT / "perfbench").rglob("*"))
    rungs = ladder.ladder_inputs(1)
    assert sorted((ROOT / "perfbench").rglob("*")) == before  # it writes nothing there
    assert len(rungs) == 24 + 6
    assert [name for name, _m in rungs[-6:]] == list(ladder.WALLS)
    for (r, c), start in zip(ladder.SIZES, range(0, 24, 4)):
        for name, m in rungs[start:start + 4]:
            assert name.startswith(f"draw{r}x{c}-")
            assert len(m) == r and all(len(row) == c for row in m) and m[0] == [1] * c


def test_stage_outcomes(tmp_path):
    ladder = _module()
    path = tmp_path / "input.json"
    path.write_text(json.dumps({"matrix": [[2, 3]]}))
    normality = ladder.run_stage("normality", ROOT / "src", path, 60)
    assert (normality["outcome"], normality["normal"], normality["hole"]) == ("answer", False, [1])
    assert ladder.run_stage("conductor", ROOT / "src", path, 60)["conductor"] == 1
    assert ladder.run_stage("gap-factors", ROOT / "src", path, 0.001) == {"outcome": "cap",
                                                                        "cap_s": 0.001}
    path.write_text(json.dumps({"matrix": ladder.WALLS["wall-k32"]}))
    limit = ladder.run_stage("gap-factors", ROOT / "src", path, 60)
    assert (limit["outcome"], limit["limit_stage"], limit["used"], limit["limit"]) == \
        ("limit", "degrees.qdeg_components", 265748440, 200000)


def test_locus_stages_and_the_gamma_wall(tmp_path):
    ladder = _module()
    path = tmp_path / "input.json"
    path.write_text(json.dumps({"matrix": [[2, 3]]}))
    # sres on [-2, 2] is {-2, -1, 1}; dres holds only 2 there, the rest is uncertified
    assert ladder.run_stage("sets sres", ROOT / "src", path, 60)["true"] == 3
    assert ladder.run_stage("sets dres", ROOT / "src", path, 60)["true"] == 1
    _name, matrix, (stage,) = ladder.GAMMA_WALL
    assert (matrix, stage) == ([[2, 3]], "resonance --gamma 1000000")
    command = ladder.stage_command(stage, ROOT / "src", path)
    assert command[-5:] == ["resonance", str(path), "--gamma", "1000000", "--json"]
    wall = ladder.run_stage(stage, ROOT / "src", path, 60)
    assert (wall["outcome"], wall["limit_stage"], wall["used"]) == \
        ("limit", "semigroup.member", 200001)
    path.write_text(json.dumps({"matrix": [[1, 1], [0, 1], [1, 0], [2, 1]]}))
    assert ladder.stage_command("sets dres", ROOT / "src", path)[-4:] == \
        ["dres", str(path), "--box=-1:1,-1:1,-1:1,-1:1", "--json"]
    path.write_text(json.dumps({"matrix": [[1, 1], [0, 1], [1, 0]]}))
    assert ladder.stage_command("sets sres", ROOT / "src", path)[-2] == "--box=-2:2,-2:2,-2:2"
