"""Write the reference payloads of the default seed and cross-check them.

    python3 perfbench/make_references.py

Run from the root of a checkout whose library is trusted.  For the scan,
cones and gaps workloads it runs every op of `DEFAULT_SEED` once, checks the
payloads against the independent brute-force oracles of
`gkzfactors.bruteforce` where those finish, and writes
`perfbench/references/<workload>.json.gz` with the payloads and a record of
which oracle checked what.  It exits non-zero, writing nothing, on the first
disagreement.
"""

from __future__ import annotations

import gzip
import json
import random
import sys
import time
from fractions import Fraction
from types import SimpleNamespace

import run
import workloads
import inputs

PULLBACK_SAMPLE = 8      # cones configurations whose every face is counted
PULLBACK_ORDER = 12      # character order bound of the pullback oracle
REGION_SAMPLE = 3        # integer scan points per configuration
MEMBER_RADIUS = 6        # coefficient bound of the membership oracle
# On the 3x4 draws the dres oracle takes 10-50 s per point, and the sres
# oracle's ray depth of 4 is too shallow: at gamma = (1,1,1) on
# [[1,1,1,1],[-2,-2,0,2],[2,-2,-2,0]] it accepts b = (3,-6,6) on face {2,3},
# yet b + 5*(1,0,-2) - a_A = (4,-4,-2) = a_1 + 2a_2 + a_4 lies in NA, and a
# depth that reaches it does not finish.  So sres, dres and wres are
# cross-checked on the rank-2 wedge only.
REGION_SETS = ("res", "SRes", "DRes")
WEDGE_SETS = REGION_SETS + ("sres", "dres", "wres")


class Disagreement(Exception):
    pass


def expect(ok, what):
    if not ok:
        raise Disagreement(what)


def facets_agree(bf, matrix, payload_facets):
    oracle = {tuple(idx): tuple(h) for idx, h in bf.bf_facets(matrix)}
    prod = {tuple(idx): tuple(Fraction(x) for x in l) for idx, l in payload_facets}
    expect(oracle == prod, f"bf_facets disagrees on {matrix}")


def not_in_semigroup(bf, matrix, point):
    query = SimpleNamespace(shift=(0,) * len(matrix), lattice_part=(),
                            generators=tuple(inputs.columns(matrix)))
    return not bf.bf_member(query, tuple(point), MEMBER_RADIUS)


def check_scan(lib, wl, payloads):
    bf = lib.bruteforce
    log = []
    for config, matrix in zip(wl.configs, wl.matrices):
        facets = [[list(f.face.indices), [str(x) for x in f.l]] for f in config.facets()]
        facets_agree(bf, matrix, facets)
        normal, hole = config.is_normal()
        expect(normal == inputs.scan_normal(matrix), f"normality of {matrix}")
        if hole is not None:
            expect(not_in_semigroup(bf, matrix, hole), f"hole {hole} of {matrix}")
    log.append({"oracle": "bf_facets", "checked": "facet sets and functionals "
                "of every scan configuration", "count": len(wl.matrices)})
    log.append({"oracle": "bf_member", "checked": "the normality hole of every "
                "non-normal scan configuration is outside NA "
                f"(coefficients up to {MEMBER_RADIUS})",
                "count": sum(not inputs.scan_normal(m) for m in wl.matrices)})
    log.append({"oracle": "degree_one_holes (benchmark)", "checked": "is_normal "
                "of every scan configuration", "count": len(wl.matrices)})

    rng = random.Random(f"region:{workloads.DEFAULT_SEED}")
    cfg = bf.OracleConfig(box_radius=6, shift_bound=8, power_bound=4)
    points = 0
    for i, matrix in enumerate(wl.matrices):
        ints = sorted({g for j, g in wl.ops if j == i
                       and all(x.denominator == 1 for x in g)})
        for gamma in rng.sample(ints, REGION_SAMPLE):
            box = [(int(x), int(x)) for x in gamma]
            p = payloads[wl.key((i, gamma))]
            for name in (WEDGE_SETS if matrix == inputs.WEDGE else REGION_SETS):
                got = p[name] if isinstance(p[name], str) else str(p[name]).lower()
                got = "false" if got == "false_up_to_bounds" else got
                want = bf.bf_region(matrix, name, box, cfg)[0]["verdict"]
                expect(got == want, f"bf_region {name} at {gamma} on {matrix}: "
                       f"{got} != {want}")
            points += 1
    log.append({"oracle": "bf_region", "checked": "res, SRes and DRes at "
                f"{REGION_SAMPLE} seeded integer scan points of every configuration; "
                "sres, dres and wres at those of the wedge only (box radius 6, "
                "shift bound 8, power bound 4)", "count": points})
    return log


def check_cones(lib, wl, payloads):
    bf = lib.bruteforce
    holes = 0
    for op, matrix in enumerate(wl.matrices):
        p = payloads[wl.key(op)]
        facets_agree(bf, matrix, p["facets"])
        if p["hole"] is not None:
            expect(not_in_semigroup(bf, matrix, p["hole"]),
                   f"hole {p['hole']} of {matrix}")
            holes += 1
    counted = 0
    for op, matrix in enumerate(wl.matrices[:PULLBACK_SAMPLE]):
        p = payloads[wl.key(op)]
        by_face = {}
        for level in p["perverse"]:
            for face, _canonical, _order in level:
                by_face[tuple(face)] = by_face.get(tuple(face), 0) + 1
        for face, _codim in p["faces"]:
            want = bf.bf_pullback_count(matrix, tuple(face), (0,) * len(matrix),
                                        PULLBACK_ORDER)
            expect(by_face.get(tuple(face), 0) == want,
                   f"bf_pullback_count at face {face} of {matrix}")
            counted += 1
    return [
        {"oracle": "bf_facets", "checked": "facet sets and functionals of every "
         "cones configuration", "count": len(wl.matrices)},
        {"oracle": "bf_member", "checked": "every reported normality hole is "
         f"outside NA (coefficients up to {MEMBER_RADIUS})", "count": holes},
        {"oracle": "bf_pullback_count", "checked": "perverse factor count at "
         f"every face of the first {PULLBACK_SAMPLE} configurations (character "
         f"order up to {PULLBACK_ORDER})", "count": counted},
    ]


def check_gaps(lib, wl, payloads):
    bf = lib.bruteforce
    bases = 0
    for op, matrix in enumerate(wl.matrices):
        p = payloads[wl.key(op)]
        expect(wl.invariants(op, p) == [], f"gap invariants of {matrix}")
        for _codim, _face, rep, _canonical, _order in p["labels"]:
            point = tuple(int(Fraction(x)) for x in rep)
            expect(not_in_semigroup(bf, matrix, point),
                   f"gap label base {point} of {matrix} lies in NA")
            bases += 1
    return [
        {"oracle": "curve_normal (benchmark)", "checked": "the gap list is empty "
         "and the conductor is 0 exactly on the normal curve", "count": len(wl.matrices)},
        {"oracle": "bf_member", "checked": "every gap label's base point is "
         f"outside NA (coefficients up to {MEMBER_RADIUS})", "count": bases},
    ]


CHECKS = {"scan": check_scan, "cones": check_cones, "gaps": check_gaps}


def main() -> int:
    sys.path.insert(0, str(run.ROOT / "src"))
    workloads.load_references = lambda name: {"seed": None, "payloads": {}}
    seed = workloads.DEFAULT_SEED
    out = {}
    for name, check in CHECKS.items():
        lib = run.fresh_library()
        wl = workloads.WORKLOADS[name](lib, seed)
        start = time.perf_counter()
        payloads = {}
        for op in wl.ops:
            payloads.setdefault(wl.key(op), wl.run(op))
        took = time.perf_counter() - start
        try:
            log = check(lib, wl, payloads)
        except Disagreement as exc:
            print(f"{name}: {exc}", file=sys.stderr)
            return 1
        print(f"{name}: {len(payloads)} payloads in {took:.1f} s; "
              f"oracles {time.perf_counter() - start - took:.1f} s", file=sys.stderr)
        out[name] = {"seed": seed, "cross_checks": log, "payloads": payloads}
    workloads.REFERENCES.mkdir(exist_ok=True)
    for name, doc in out.items():
        path = workloads.REFERENCES / f"{name}.json.gz"
        with gzip.GzipFile(path, "wb", mtime=0) as fh:
            fh.write(json.dumps(doc, sort_keys=True, separators=(",", ":")).encode())
        (workloads.REFERENCES / f"{name}.checks.json").write_text(
            json.dumps(doc["cross_checks"], indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
