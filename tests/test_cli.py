"""Command-line interface: exit codes, JSON shape, determinism, fixtures."""

import contextlib
import copy
import io
import json
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gkzfactors import cli


def _run(argv, stdin_text=None, capsys=None):
    if stdin_text is not None:
        old = sys.stdin
        sys.stdin = io.StringIO(stdin_text)
        try:
            code = cli.main(argv)
        finally:
            sys.stdin = old
    else:
        code = cli.main(argv)
    out = capsys.readouterr().out if capsys is not None else ""
    return code, out


def _doc(matrix, **extra):
    body = {"matrix": matrix}
    body.update(extra)
    return json.dumps(body)


def test_faces_json_roundtrip(tmp_path, capsys):
    path = tmp_path / "doc.json"
    path.write_text(_doc([[1, 0], [0, 1]]))
    code, out = _run(["faces", str(path), "--json"], capsys=capsys)
    assert code == 0
    payload = json.loads(out)
    assert len(payload["faces"]) == 4
    assert payload["rank"] == 2


def test_stdin_input(capsys):
    code, out = _run(["normality", "-", "--json"],
                     stdin_text=_doc([[2, 3]]), capsys=capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["normal"] is False
    assert payload["hole"] == [1]


def test_determinism(tmp_path, capsys):
    path = tmp_path / "doc.json"
    path.write_text(_doc([[1, 0, 1], [0, 2, 1]], gamma=["0", "0"]))
    _, first = _run(["factors", "compare", str(path), "--json"], capsys=capsys)
    _, second = _run(["factors", "compare", str(path), "--json"], capsys=capsys)
    assert first == second
    json.loads(first)  # valid JSON


def test_text_rendering(tmp_path, capsys):
    path = tmp_path / "doc.json"
    path.write_text(_doc([[2, 3]], gamma=["1/2"]))
    code, out = _run(["resonance", str(path)], capsys=capsys)
    assert code == 0
    assert "res" in out and "{" not in out.splitlines()[0]


def test_exit_code_domain_error(tmp_path, capsys):
    path = tmp_path / "doc.json"
    path.write_text(_doc([[2, 3]], gamma=["1/2", "3"]))  # wrong length
    code, _ = _run(["resonance", str(path), "--json"], capsys=capsys)
    assert code == 2


def test_wrong_set_name_and_lengths_exit_2(tmp_path, capsys):
    # argparse checks the set name, the library the box, γ and character
    # lengths: each exits 2 with nothing on stdout
    path = tmp_path / "doc.json"
    path.write_text(_doc([[2, 3]]))
    with pytest.raises(SystemExit) as info:
        cli.main(["sets", "nosuch", "--box=-1:1", str(path)])
    assert info.value.code == 2 and capsys.readouterr().out == ""
    for argv in (["sets", "sres", "--box=-1:1,-1:1"], ["resonance", "--gamma", "1,2"],
                 ["factors", "perverse", "--character", "1,2"]):
        code = cli.main(argv + [str(path), "--json"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == "", argv
        assert captured.err.startswith("error:") and "Traceback" not in captured.err, argv


def test_exit_code_bad_document(tmp_path, capsys):
    path = tmp_path / "doc.json"
    for matrix in ([[1, "x"]], [[True, 2]]):
        path.write_text(json.dumps({"matrix": matrix}))
        code, _ = _run(["faces", str(path)], capsys=capsys)
        assert code == 2, matrix


def test_non_utf8_document_is_invalid_input(tmp_path, capsys):
    path = tmp_path / "doc.json"
    path.write_bytes(b'\xff\xfe{"matrix": [[1]]}')
    code = cli.main(["faces", str(path)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error:") and "Traceback" not in captured.err


# every subcommand that takes an input document, with its required arguments
DOCUMENT_COMMANDS = (["faces"], ["normality"], ["resonance", "--gamma", "0"],
                     ["sets", "sres", "--box=-1:1"],
                     ["factors", "dmod", "--gamma", "0"],
                     ["factors", "perverse"],
                     ["factors", "compare", "--gamma", "0"],
                     ["gap-factors"])


def test_rank_zero_matrix_is_invalid_input(tmp_path, capsys):
    path = tmp_path / "doc.json"
    path.write_text(_doc([[0, 0]]))
    for argv in DOCUMENT_COMMANDS:
        code = cli.main(argv + [str(path)])
        err = capsys.readouterr().err
        assert code == 2, argv
        assert err.startswith("error:") and "Traceback" not in err, argv


def _assert_invalid(path, argvs, capsys):
    for argv in argvs:
        code = cli.main(argv + [str(path)])
        err = capsys.readouterr().err
        assert code == 2, argv
        assert err.startswith("error:") and "Traceback" not in err, argv


def test_scalar_matrix_is_invalid_input(tmp_path, capsys):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps({"matrix": 5}))
    _assert_invalid(path, DOCUMENT_COMMANDS, capsys)


def test_scalar_gamma_is_invalid_input(tmp_path, capsys):
    path = tmp_path / "doc.json"
    path.write_text(_doc([[2, 3]], gamma=3))
    _assert_invalid(path, [["resonance"], ["factors", "dmod"]], capsys)


def test_scalar_character_is_invalid_input(tmp_path, capsys):
    path = tmp_path / "doc.json"
    path.write_text(_doc([[2, 3]], character=3))
    _assert_invalid(path, [["factors", "perverse"]], capsys)


# small documents that are often malformed: scalars where lists belong,
# empty rows and columns, booleans, duplicate columns, malformed parameters
_entries = st.sampled_from([1, 0, -1, 2, -2])
_scalars = st.one_of(st.none(), st.booleans(), _entries, st.text(max_size=3))
_rows = st.one_of(_scalars, st.lists(st.one_of(_entries, _entries, st.booleans()), max_size=3))
_duplicated = st.lists(st.lists(_entries, min_size=1, max_size=2), min_size=1, max_size=2).map(
    lambda cols: [list(r) for r in zip(*(cols + cols[:1]))])  # the first column twice
_matrices = st.one_of(_duplicated, _duplicated, _duplicated, _scalars, st.lists(_rows, max_size=3))
_rationals = st.one_of(_entries, st.sampled_from(["1/2", "-3/2", "1/0", "x", "", True]))
_vectors = st.lists(_entries, min_size=1, max_size=2)
_params = st.one_of(_vectors, _vectors, _vectors, _scalars,
                    st.lists(_rationals, min_size=1, max_size=2),
                    st.lists(_rationals, min_size=1, max_size=2).map(lambda v: ",".join(map(str, v))))


# the document commands that read their parameters from the document
_commands = st.sampled_from([["faces"], ["normality"], ["resonance"], ["factors", "dmod"],
                             ["factors", "perverse"], ["factors", "compare"], ["gap-factors"]])
# non-pointed on purpose: the first column next to its negative, for every
# command (sets gets a box of the matrix's dimension)
_nonpointed = st.lists(st.lists(_entries, min_size=1, max_size=3), min_size=1, max_size=2).map(
    lambda cols: [list(r) for r in zip(*(cols + [[-x for x in cols[0]]]))])
_with_sets = st.one_of(_commands, st.sampled_from(["sres", "dres", "wres"]).map(
    lambda name: ["sets", name]))
# entries up to 10^18 for the cone commands
_huge_entries = st.one_of(_entries, st.integers(-10 ** 18, 10 ** 18))
_huge = st.integers(1, 3).flatmap(lambda n: st.lists(
    st.lists(_huge_entries, min_size=n, max_size=n), min_size=1, max_size=3)).map(
    lambda cols: [list(r) for r in zip(*cols)])
_stressed = st.one_of(st.tuples(_with_sets, _nonpointed),
                      st.tuples(st.sampled_from([["faces"], ["normality"]]), _huge))


def _assert_documented_exit(argv, matrix, gamma, character):
    # the document ends in exit 0 with JSON on stdout, or in a typed error
    if argv[0] == "sets":
        argv = argv + ["--box=" + ",".join(["-1:1"] * len(matrix))]
    doc = {"matrix": matrix}
    for key, value in (("gamma", gamma), ("character", character)):
        if value is not None:
            doc[key] = value
    out, err, old = io.StringIO(), io.StringIO(), sys.stdin
    sys.stdin = io.StringIO(json.dumps(doc))
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv + ["-", "--json"])
    finally:
        sys.stdin = old
    assert code in (0, 2, 3, 4), (argv, doc)
    assert "Traceback" not in err.getvalue()
    if code == 0:
        json.loads(out.getvalue())
    else:
        assert out.getvalue() == "" and err.getvalue().startswith(("error:", "computation limit"))


@settings(max_examples=150, deadline=None)
@given(_commands, _matrices, st.one_of(_params, st.just(None)), st.one_of(_params, st.just(None)))
def test_cli_fuzz_ends_in_a_documented_exit(argv, matrix, gamma, character):
    _assert_documented_exit(argv, matrix, gamma, character)


@settings(max_examples=100, deadline=None)
@given(_stressed, st.one_of(_params, st.just(None)), st.one_of(_params, st.just(None)))
def test_cli_fuzz_nonpointed_and_huge_documents(command, gamma, character):
    _assert_documented_exit(*command, gamma, character)


# the parameter each fixture pins: its resonance/dmod γ, or for the fixtures
# without one, one of its dres probes (coprime-pair: the bounded negative)
GOLDEN_GAMMA = {"coprime-pair": "-2", "folded-cube": "0,0,0",
                "nonnormal-wedge": "0,0", "slanted-wedge": "3,1/2"}

# golden file suffix -> command line (before the input path)
GOLDEN_COMMANDS = {
    "faces": ["faces"],
    "normality": ["normality"],
    "resonance": ["resonance", "--gamma={gamma}"],
    "dmod": ["factors", "dmod", "--gamma={gamma}"],
    "perverse": ["factors", "perverse"],
    "compare": ["factors", "compare", "--gamma={gamma}"],
    "gap-factors": ["gap-factors"],
}


def test_golden_faces_and_normality_output(capsys):
    golden = Path(__file__).parent / "golden"
    for fixture in cli._fixture_files():
        name = fixture.name.removesuffix(".json")
        for suffix, argv in GOLDEN_COMMANDS.items():
            argv = [a.format(gamma=GOLDEN_GAMMA[name]) for a in argv]
            code, out = _run(argv + [str(fixture), "--json"], capsys=capsys)
            assert code == 0, (name, suffix)
            assert out == (golden / f"{name}.{suffix}.json").read_text(), \
                (name, suffix)


def _text_transcript(fixture, capsys) -> str:
    """Every GOLDEN_COMMANDS command's text output on one fixture under
    --strict, each after a line naming the golden suffix and the exit code."""
    name = fixture.name.removesuffix(".json")
    parts = []
    for suffix, argv in GOLDEN_COMMANDS.items():
        argv = [a.format(gamma=GOLDEN_GAMMA[name]) for a in argv]
        code, out = _run(argv + [str(fixture), "--strict"], capsys=capsys)
        parts.append(f"=== {suffix}: exit {code}\n{out}")
    return "".join(parts)


def test_golden_text_output(capsys):
    # the text renderer and the --strict exit code, pinned per fixture
    golden = Path(__file__).parent / "golden"
    for fixture in cli._fixture_files():
        name = fixture.name.removesuffix(".json")
        assert _text_transcript(fixture, capsys) == (golden / f"{name}.text").read_text(), name


def test_golden_gap_factors_deep_search(tmp_path, capsys):
    # 11 gap labels on two faces, and 4 labels on one face of a 3x5
    # configuration whose facet values are not those of FacetFunctional.witness
    for matrix, name in (([[2, 2, 3, 3], [0, 0, 3, 2]], "gap-2x4"),
                         ([[1, 1, 1, 1, 1], [3, -1, 1, 3, 1], [1, 3, -1, 0, 2]], "gap-3x5")):
        path = tmp_path / "doc.json"
        path.write_text(_doc(matrix))
        code, out = _run(["gap-factors", str(path), "--json"], capsys=capsys)
        assert code == 0
        golden = Path(__file__).parent / "golden" / f"{name}.gap-factors.json"
        assert out == golden.read_text(), name


def test_exit_code_budget(tmp_path, capsys, monkeypatch):
    from gkzfactors.errors import ComputationLimitError

    def boom(*a, **k):
        raise ComputationLimitError("synthetic budget exhaustion",
                                    stage="resonance.classify", used=11, limit=10)

    monkeypatch.setattr(cli.resonance, "classify", boom)
    path = tmp_path / "doc.json"
    path.write_text(_doc([[2, 3]], gamma=["0"]))
    code = cli.main(["resonance", str(path), "--json"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert "stage resonance.classify, used 11, limit 10" in captured.err


def test_gap_factors_box_over_budget(tmp_path, capsys):
    # k* = 32: face () alone has 528*759*660 facet-value tuples, so the
    # enumeration is refused before it starts
    path = tmp_path / "doc.json"
    path.write_text(_doc([[0, -1, -2, -2], [1, 2, 0, 3], [-2, 3, 3, 3]]))
    code = cli.main(["gap-factors", str(path), "--json"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert "stage degrees.qdeg_components, used 265748440, limit 200000" in captured.err


def test_exit_code_strict(tmp_path, capsys):
    path = tmp_path / "doc.json"
    path.write_text(_doc([[2, 3]], gamma=["-2"]))
    code, out = _run(["resonance", str(path), "--json"], capsys=capsys)
    assert code == 0
    assert "false_up_to_bounds" in out
    code, _ = _run(["resonance", str(path), "--json", "--strict"],
                   capsys=capsys)
    assert code == 4


def test_sets_box_parsing(tmp_path, capsys):
    path = tmp_path / "doc.json"
    path.write_text(_doc([[2, 3]]))
    code, out = _run(["sets", "sres", str(path), "--box=-3:3", "--json"],
                     capsys=capsys)
    assert code == 0
    payload = json.loads(out)
    verdicts = {cell["gamma"][0]: cell["verdict"] for cell in payload["grid"]}
    assert verdicts["-1"] == "true" and verdicts["2"] == "false"


def test_verify_fixtures(capsys):
    code, out = _run(["verify", "--fixtures", "--json"], capsys=capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] is True
    assert len(payload["fixtures"]) == 4


def test_verify_filter(capsys):
    code, out = _run(["verify", "--fixtures", "--filter", "coprime", "--json"],
                     capsys=capsys)
    assert code == 0
    payload = json.loads(out)
    assert [f["name"] for f in payload["fixtures"]] == ["coprime-pair"]
    # a filter that matches no fixture checks nothing, so it is an input error
    code = cli.main(["verify", "--fixtures", "--filter", "nosuch", "--json"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error:") and "'nosuch'" in captured.err


def test_run_fixture_builds_one_configuration(tmp_path, capsys, monkeypatch):
    # one Configuration per fixture, and one per document command
    built = []
    init = cli.Configuration.__init__

    def counted(self, matrix):
        built.append(matrix)
        init(self, matrix)
    monkeypatch.setattr(cli.Configuration, "__init__", counted)
    for path in cli._fixture_files():
        built.clear()
        assert cli.run_fixture(json.loads(path.read_text())) == []
        assert len(built) == 1, path.name
    path = tmp_path / "doc.json"
    path.write_text(_doc([[2, 3]]))
    for argv in DOCUMENT_COMMANDS:
        built.clear()
        code = cli.main(argv + [str(path), "--json"])
        capsys.readouterr()
        assert code == 0 and len(built) == 1, argv


def test_corrupted_fixture_detected():
    fixtures = {}
    for p in cli._fixture_files():
        fix = json.loads(p.read_text())
        fixtures[fix["name"]] = fix
    fix = copy.deepcopy(fixtures["coprime-pair"])
    fix["expect"]["normality"]["normal"] = True
    mismatches = cli.run_fixture(fix)
    assert mismatches


def test_gap_factors(tmp_path, capsys):
    path = tmp_path / "doc.json"
    path.write_text(_doc([[2, 3]]))
    code, out = _run(["gap-factors", str(path), "--json"], capsys=capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["advisory"] is True
    assert len(payload["labels"]) == 1


def test_verify_suite_small(capsys):
    code, out = _run(["verify", "--suite", "--instances", "4", "--json"],
                     capsys=capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] is True


def test_verify_suite_rejects_negative_instances(capsys):
    # a negative count would check nothing and report ok
    code = cli.main(["verify", "--suite", "--instances", "-3", "--json"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error:") and "Traceback" not in captured.err
