"""The four workloads: their set-up, their ops and how each op is checked.

A workload is built from freshly imported library modules (`lib`, a
namespace with one attribute per `gkzfactors` module) and a seed.  `ops` is
the list a run cycles through; `run(op)` returns the op's JSON-ready payload;
`check(op, payload)` returns a list of problems (empty when correct).

Payloads are compared with stored reference payloads when the seed is
`DEFAULT_SEED`, and checked against seed-independent invariants otherwise.
"""

from __future__ import annotations

import gzip
import json
from fractions import Fraction
from importlib import resources
from pathlib import Path

import inputs

DEFAULT_SEED = 1
REFERENCES = Path(__file__).resolve().parent / "references"


def fr(x) -> str:
    return str(Fraction(x))


def frs(v) -> list:
    return [fr(x) for x in v]


def canonical(payload) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def load_references(name: str) -> dict:
    with gzip.open(REFERENCES / f"{name}.json.gz", "rt") as fh:
        return json.load(fh)


class Workload:
    name = ""
    # A run over few distinct inputs replays each equally often, so that the
    # percentiles do not jump between inputs; otherwise it stops on time.
    whole_passes = False
    tail_pct = 90    # the op_tail_ms percentile
    min_ops = 110    # ops needed for 10 beyond the tail percentile

    def __init__(self, lib, seed: int):
        self.lib = lib
        self.seed = seed
        self.references = None
        if self.name != "fixtures":
            refs = load_references(self.name)
            if refs["seed"] == seed:
                self.references = refs["payloads"]

    def key(self, op) -> str:
        raise NotImplementedError

    def check(self, op, payload) -> list:
        if self.references is not None:
            want = self.references.get(self.key(op))
            if want is None:
                return [f"{self.key(op)}: no reference payload"]
            if canonical(want) != canonical(payload):
                return [f"{self.key(op)}: payload differs from the reference"]
            return []
        return self.invariants(op, payload)


class Fixtures(Workload):
    """Cold: replay each golden fixture through `cli.run_fixture`."""

    name = "fixtures"
    whole_passes = True

    def __init__(self, lib, seed):
        super().__init__(lib, seed)
        root = resources.files(lib.cli.__package__) / "fixtures"
        fixtures = {}
        for path in root.iterdir():
            if path.name.endswith(".json"):
                fix = json.loads(path.read_text())
                fixtures[fix["name"]] = fix
        self.fixtures = fixtures
        self.ops = inputs.fixture_order(seed, fixtures)

    def key(self, op):
        return op

    def run(self, op):
        return self.lib.cli.run_fixture(self.fixtures[op])

    def check(self, op, payload):
        # the fixtures carry their own hand-written expectations
        return [f"{op}: {d}" for d in payload]


class Scan(Workload):
    """Warm: the resonance payload at rational grid points of held configurations."""

    name = "scan"
    tail_pct = 95
    min_ops = 220

    def __init__(self, lib, seed):
        super().__init__(lib, seed)
        self.matrices, self.ops = inputs.scan_inputs(seed)
        self.normal = [inputs.scan_normal(m) for m in self.matrices]
        self.configs = []
        for m in self.matrices:
            config = lib.cones.Configuration(m)
            config.all_faces()
            config.is_normal()
            lib.degrees.facet_bounds(config)
            self.configs.append(config)

    def key(self, op):
        i, gamma = op
        return f"{i}|{','.join(frs(gamma))}"

    def run(self, op):
        rs = self.lib.resonance
        i, gamma = op
        config = self.configs[i]
        prof = rs.classify(config, gamma)
        return {
            "facet_values": [[list(idx), fr(v)] for idx, v in prof.facet_values],
            "nonresonant": prof.is_nonresonant,
            "weak_nonresonant": prof.is_weak,
            "semi_nonresonant": prof.is_semi,
            "resonant_facets": [list(idx) for idx in prof.resonant_facets],
            "res": rs.in_res(config, gamma),
            "sres": rs.in_sres(config, gamma),
            "dres": rs.in_dres(config, gamma).verdict,
            "wres": rs.in_wres(config, gamma).verdict,
            "SRes": rs.in_SRes(config, gamma),
            "DRes": rs.in_DRes(config, gamma),
        }

    def invariants(self, op, p):
        out = []
        if p["sres"] and p["wres"] != "true":
            out.append("sres without wres")
        if p["wres"] == "true" and not p["res"]:
            out.append("wres without res")
        if p["dres"] == "true" and not p["DRes"]:
            out.append("dres without DRes")
        if p["res"] == p["nonresonant"]:
            out.append("res disagrees with the facet values")
        if self.normal[op[0]]:
            if p["sres"] != (not p["semi_nonresonant"]):
                out.append("normal input: sres is not the semi-resonant locus")
            if (p["dres"] == "true") != p["DRes"]:
                out.append("normal input: dres is not DRes")
            if (p["wres"] == "true") != (not p["weak_nonresonant"]):
                out.append("normal input: wres is not the weakly resonant locus")
        return [f"{self.key(op)}: {d}" for d in out]


class Cones(Workload):
    """Cold: faces, normality and the trivial perverse table of a fresh configuration."""

    name = "cones"
    whole_passes = True

    def __init__(self, lib, seed):
        super().__init__(lib, seed)
        self.matrices = inputs.cones_inputs(seed)
        self.ops = list(range(len(self.matrices)))

    def key(self, op):
        return str(op)

    def run(self, op):
        lib = self.lib
        config = lib.cones.Configuration(self.matrices[op])
        normal, hole = config.is_normal()
        table = lib.factors.perverse_report(config, lib.factors.trivial_class(config))
        return {
            "faces": [[list(f.indices), f.codim] for f in config.all_faces()],
            "facets": [[list(f.face.indices), frs(f.l)] for f in config.facets()],
            "normal": normal,
            "hole": list(hole) if hole is not None else None,
            "hilbert_basis": sorted(list(h) for h in config.saturation_hilbert_basis()),
            "perverse": [[[list(l.face_indices), frs(l.cls.canonical), l.cls.order]
                          for l in level] for level in table.factors],
            "flags": table.flags,
            "certification": table.certification,
        }

    def invariants(self, op, p):
        cols = inputs.columns(self.matrices[op])
        out = []
        for idx, l in p["facets"]:
            vals = [sum(Fraction(a) * x for a, x in zip(l, c)) for c in cols]
            if any(v < 0 or v.denominator != 1 for v in vals):
                out.append(f"facet {idx}: values on columns not in N")
            if [j for j, v in enumerate(vals) if v == 0] != idx:
                out.append(f"facet {idx}: zero set is not the facet")
        if p["normal"] != (p["hole"] is None):
            out.append("normality verdict and hole disagree")
        if len(p["perverse"]) != 4 or len(p["perverse"][0]) != 1:
            out.append("perverse table is not one trivial factor at codim 0")
        if p["normal"]:
            faces = [tuple(lbl[0]) for level in p["perverse"] for lbl in level]
            if len(faces) != len(set(faces)):
                out.append("normal input: a face carries two factors")
        return [f"{self.key(op)}: {d}" for d in out]


class Gaps(Workload):
    """Cold: conductor and saturation-gap labels of monomial space curves."""

    name = "gaps"
    whole_passes = True
    tail_pct = 70
    min_ops = 40

    def __init__(self, lib, seed):
        super().__init__(lib, seed)
        self.matrices = inputs.gap_curves(seed)
        self.ops = list(range(len(self.matrices)))

    def key(self, op):
        return json.dumps(self.matrices[op])

    def run(self, op):
        lib = self.lib
        config = lib.cones.Configuration(self.matrices[op])
        labels = lib.factors.gap_factor_candidates(config)
        return {
            "conductor": lib.degrees.conductor_multiplier(config),
            "labels": [[l.codim, list(l.face_indices), frs(l.cls.representative),
                        frs(l.cls.canonical), l.cls.order] for l in labels],
        }

    def invariants(self, op, p):
        normal = inputs.curve_normal(self.matrices[op])
        out = []
        if (not p["labels"]) != normal:
            out.append("gap list empty does not match normality")
        if (p["conductor"] == 0) != normal:
            out.append("conductor zero does not match normality")
        return [f"{self.key(op)}: {d}" for d in out]


WORKLOADS = {w.name: w for w in (Fixtures, Scan, Cones, Gaps)}
