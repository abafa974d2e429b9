"""Command-line front end.

Commands take one input document (JSON file path or ``-`` for stdin):

    {"matrix": [[2, 3]], "gamma": ["1/2"], "character": ["0"]}

Other keys, such as a "bounds" object, are ignored.  Each ``cmd_*`` returns
its payload in library values (``Fraction``s, tuples, ``TriState``s);
``_plain`` turns a payload into JSON values once, in ``main`` before it is
rendered and in ``run_fixture`` before it is compared, so all rational
numbers cross the boundary as exact "p/q" strings.  Exit codes: 0 success,
2 invalid input, 3 computation budget exceeded, 4 a bounded
(``false_up_to_bounds``) verdict was demanded as definite via ``--strict``.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from importlib import resources
from pathlib import Path

from . import bruteforce, factors, resonance
from .cones import Configuration
from .errors import ComputationLimitError, DomainError, GKZError
from .resonance import TriState

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_LIMIT = 3
EXIT_STRICT = 4


# ---------------------------------------------------------------------------
# exact-rational (de)serialization
# ---------------------------------------------------------------------------

def _parse_fr(s) -> Fraction:
    try:
        return Fraction(str(s))
    except (ValueError, ZeroDivisionError) as exc:
        raise DomainError(f"not an exact rational: {s!r}") from exc


def _parse_vec(v):
    """A list of exact rationals, or one comma-separated string of them."""
    if isinstance(v, str):
        v = v.split(",")
    if not isinstance(v, list):
        raise DomainError(f"expected a list of exact rationals, not {v!r}")
    return tuple(_parse_fr(x) for x in v)


def _cls(c: factors.LocalSystemClass):
    return {"face": c.face_indices, "representative": c.representative,
            "canonical": c.canonical, "order": c.order, "trivial": c.is_trivial}


def _label(l: factors.FactorLabel):
    return {"codim": l.codim, "face": l.face_indices,
            "class": _cls(l.cls), "multiplicity": l.multiplicity}


def _filtration(r: factors.FiltrationReport):
    return {
        "kind": r.kind,
        "matrix": r.matrix,
        "parameter": r.parameter if r.kind == "dmod" else _cls(r.parameter),
        "factors": {i: [_label(l) for l in level] for i, level in enumerate(r.factors)},
        "flags": r.flags,
        "certification": r.certification,
        "notes": r.notes,
    }


def _plain(obj):
    """A payload of library values as JSON values: a `Fraction` as its exact
    "p/q" string, a tuple as a list, a dict key as a string, and a `TriState`
    as {"verdict", "bounds"} with the bounds sorted by key."""
    if isinstance(obj, TriState):
        obj = {"verdict": obj.verdict, "bounds": dict(sorted(obj.bounds.items()))}
    if isinstance(obj, dict):
        return {str(k): _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, Fraction):
        return str(obj)
    return obj


def _has_bounded_verdict(obj) -> bool:
    if isinstance(obj, dict):
        if obj.get("verdict") == "false_up_to_bounds":
            return True
        return any(_has_bounded_verdict(v) for v in obj.values())
    if isinstance(obj, list):
        return any(_has_bounded_verdict(v) for v in obj)
    return False


# ---------------------------------------------------------------------------
# input documents
# ---------------------------------------------------------------------------

def _load_document(path: str) -> dict:
    try:
        doc = json.loads(sys.stdin.read() if path == "-" else Path(path).read_text())
    except (OSError, ValueError) as exc:  # ValueError: bad JSON or bad encoding
        raise DomainError(f"cannot read input document: {exc}") from exc
    if not isinstance(doc, dict) or "matrix" not in doc:
        raise DomainError("input document must be an object with a 'matrix'")
    m = doc["matrix"]
    if (not isinstance(m, list) or not m or not all(isinstance(r, list) for r in m)
            or len({len(r) for r in m}) != 1
            or not all(type(x) is int for r in m for x in r)):  # no bools
        raise DomainError("'matrix' must be a rectangular integer array")
    return doc


def _gamma(doc: dict, args):
    raw = getattr(args, "gamma", None) or doc.get("gamma")
    if raw is None:
        raise DomainError("a parameter is required ('gamma' in the document "
                          "or --gamma)")
    return _parse_vec(raw)


def _character(doc: dict, args, config: Configuration) -> factors.LocalSystemClass:
    raw = getattr(args, "character", None) or doc.get("character")
    if raw is None:
        return factors.trivial_class(config)
    return factors.class_of(config, tuple(range(config.N)), _parse_vec(raw))


# ---------------------------------------------------------------------------
# command payloads
# ---------------------------------------------------------------------------

def cmd_faces(config, doc, args):
    return {
        "matrix": doc["matrix"],
        "rank": config.rank,
        "pointed": config.is_pointed(),
        "faces": [{"columns": f.indices, "codim": f.codim} for f in config.all_faces()],
        "facets": [{"columns": f.face.indices, "functional": f.l} for f in config.facets()],
    }


def cmd_normality(config, doc, args):
    normal, hole = config.is_normal()
    return {
        "matrix": doc["matrix"],
        "normal": normal,
        "hole": hole,
        "hilbert_basis": sorted(config.saturation_hilbert_basis()),
    }


def cmd_resonance(config, doc, args):
    gamma = _gamma(doc, args)
    prof = resonance.classify(config, gamma)
    sres = resonance.in_sres(config, gamma)
    dres = resonance.in_dres(config, gamma)
    return {
        "matrix": doc["matrix"],
        "gamma": gamma,
        "facet_values": [{"face": idx, "value": v} for idx, v in prof.facet_values],
        "nonresonant": prof.is_nonresonant,
        "weak_nonresonant": prof.is_weak,
        "semi_nonresonant": prof.is_semi,
        "resonant_facets": prof.resonant_facets,
        "sets": {
            "res": not prof.is_nonresonant,
            "sres": sres,
            "dres": dres,
            "wres": resonance.wres_from(sres, dres),
            "SRes": resonance.in_SRes(config, gamma),
            "DRes": resonance.in_DRes(config, gamma),
        },
    }


def _parse_box(spec: str):
    box = []
    for part in spec.split(","):
        lo, _, hi = part.partition(":")
        box.append((_parse_fr(lo), _parse_fr(hi)))
    return box


def cmd_sets(config, doc, args):
    box = _parse_box(args.box)
    step = _parse_fr(args.step)
    return {
        "matrix": doc["matrix"],
        "set": args.name,
        "box": box,
        "step": step,
        "grid": resonance.region_scan(config, args.name, box, step),
    }


def cmd_factors(config, doc, args):
    if args.table == "dmod":
        return _filtration(factors.dmod_report(config, _gamma(doc, args)))
    if args.table == "perverse":
        return _filtration(factors.perverse_report(config,
                                                   _character(doc, args, config)))
    cmp = factors.rh_compare(config, _gamma(doc, args))
    return {
        "dmod": _filtration(cmp.dmod),
        "perverse": _filtration(cmp.perverse),
        "levels": cmp.levels,
        "matched": cmp.matched,
        "asserted": cmp.asserted,
        "notes": cmp.notes,
    }


def cmd_gap_factors(config, doc, args):
    return {
        "matrix": doc["matrix"],
        "advisory": True,
        "note": ("labels of witnessed saturation-gap classes; candidate extra "
                 "bottom-layer factors, not a certified classification"),
        "labels": [_label(l) for l in factors.gap_factor_candidates(config)],
    }


# ---------------------------------------------------------------------------
# fixtures and suites
# ---------------------------------------------------------------------------

def _fixture_files():
    root = resources.files("gkzfactors") / "fixtures"
    return sorted(p for p in root.iterdir() if p.name.endswith(".json"))


def _diff(expected, actual, path=""):
    """Flat list of mismatch strings between two JSON-like values."""
    if isinstance(expected, dict) and isinstance(actual, dict):
        out = []
        for k, v in expected.items():
            if k not in actual:
                out.append(f"{path}/{k}: missing")
            else:
                out.extend(_diff(v, actual[k], f"{path}/{k}"))
        return out
    if isinstance(expected, list) and isinstance(actual, list):
        if len(expected) != len(actual):
            return [f"{path}: length {len(actual)} != expected {len(expected)}"]
        return [d for i, (e, a) in enumerate(zip(expected, actual))
                for d in _diff(e, a, f"{path}[{i}]")]
    if expected != actual:
        return [f"{path}: {actual!r} != expected {expected!r}"]
    return []


def run_fixture(fix: dict) -> list:
    """Evaluate one golden fixture; returns a list of mismatch strings.

    The fixture's matrix gets one `Configuration`, built here: every command
    and every set probe of the fixture runs on it, as each command run by
    `main` runs on the one configuration built for its document.
    """
    doc = {"matrix": fix["matrix"]}
    config = Configuration(doc["matrix"])
    expect = fix["expect"]
    mismatches = []

    def check(key, cmd, table=None):
        """Compare one command's payload with the expectation under `key`,
        whose "gamma" and "character" entries are the command's inputs."""
        if key in expect:
            sub = dict(expect[key])
            ns = argparse.Namespace(gamma=sub.pop("gamma", None),
                                    character=sub.pop("character", None), table=table)
            mismatches.extend(_diff(sub, _plain(cmd(config, doc, ns)), key))

    check("faces", cmd_faces)
    check("normality", cmd_normality)
    check("resonance", cmd_resonance)
    for probe in expect.get("set_probes", []):
        gamma = _parse_vec(probe["gamma"])
        name = probe["name"]
        verdict = resonance.SET_VERDICTS[name](config, gamma)
        if verdict != probe["verdict"]:
            mismatches.append(f"set_probe {name}@{probe['gamma']}: "
                              f"{verdict} != expected {probe['verdict']}")
    for spec in expect.get("sets", []):
        ns = argparse.Namespace(name=spec["name"], box=spec["box"],
                                step=spec.get("step", "1"))
        payload = _plain(cmd_sets(config, doc, ns))
        truth = [c["gamma"] for c in payload["grid"] if c["verdict"] == "true"]
        mismatches += _diff(spec["true_points"], truth,
                            f"sets/{spec['name']}")
    check("dmod", cmd_factors, "dmod")
    check("perverse", cmd_factors, "perverse")
    check("compare", cmd_factors, "compare")
    check("gap_factors", cmd_gap_factors)
    return mismatches


def cmd_verify(args):
    fixtures = [json.loads(path.read_text()) for path in _fixture_files()]
    if args.filter:
        fixtures = [fix for fix in fixtures if args.filter in fix["name"]]
        if not fixtures:
            raise DomainError(f"no fixture name contains --filter {args.filter!r}")
    payload = {"fixtures": [], "suite": None, "ok": True}
    if args.suite:
        rep = bruteforce.property_suite(instances=args.instances)
        payload["suite"] = {"instances": rep.instances, "checks": rep.checks,
                            "failures": rep.failures, "notes": rep.notes}
        payload["ok"] = payload["ok"] and rep.ok
    if args.fixtures or not args.suite:
        for fix in fixtures:
            mismatches = run_fixture(fix)
            payload["fixtures"].append({"name": fix["name"],
                                        "ok": not mismatches,
                                        "diff": mismatches})
            payload["ok"] = payload["ok"] and not mismatches
    return payload


# ---------------------------------------------------------------------------
# rendering and dispatch
# ---------------------------------------------------------------------------

def _render_text(payload, out):
    def walk(obj, indent=0):
        pad = "  " * indent
        if isinstance(obj, dict):
            for k, v in obj.items():
                if isinstance(v, (dict, list)) and v:
                    out.write(f"{pad}{k}:\n")
                    walk(v, indent + 1)
                else:
                    out.write(f"{pad}{k}: {v if v != [] else '[]'}\n")
        elif isinstance(obj, list):
            for v in obj:
                if isinstance(v, (dict, list)):
                    walk(v, indent)
                    out.write("\n" if indent == 0 else "")
                else:
                    out.write(f"{pad}- {v}\n")
        else:
            out.write(f"{pad}{obj}\n")
    walk(payload)


def build_parser() -> argparse.ArgumentParser:
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--json", action="store_true",
                        help="machine-readable output with exact 'p/q' rationals")
    shared.add_argument("--strict", action="store_true",
                        help="exit 4 when any verdict is only false-up-to-bounds")
    p = argparse.ArgumentParser(
        prog="gkzfactors",
        description="Exact combinatorial classification of composition-factor "
                    "labels for hypergeometric systems attached to an integer "
                    "configuration.")
    sub = p.add_subparsers(dest="command", required=True)

    def add(name, help):
        return sub.add_parser(name, help=help, parents=[shared])

    def common(sp, run, gamma=False, character=False):
        sp.set_defaults(run=run)
        sp.add_argument("input", help="JSON input document, or '-' for stdin")
        if gamma:
            sp.add_argument("--gamma", help="comma-separated exact rationals")
        if character:
            sp.add_argument("--character",
                            help="comma-separated exact rationals")

    common(add("faces", "face lattice and facet functionals"), cmd_faces)
    common(add("normality", "normality, hole, Hilbert basis"), cmd_normality)
    common(add("resonance", "facet values, flags, set memberships"), cmd_resonance,
           gamma=True)
    sp = add("sets", "grid scan of one resonance locus")
    sp.add_argument("name", choices=resonance.SET_NAMES)
    sp.add_argument("--box", required=True,
                    help="per-axis lo:hi ranges, comma-separated "
                         "(use --box=-6:6 for negative bounds)")
    sp.add_argument("--step", default="1")
    common(sp, cmd_sets)
    sp = add("factors", "composition-factor tables")
    sp.add_argument("table", choices=("dmod", "perverse", "compare"))
    common(sp, cmd_factors, gamma=True, character=True)
    common(add("gap-factors", "advisory saturation-gap factor labels"), cmd_gap_factors)
    sp = add("verify", "golden fixtures and randomized suite")
    sp.add_argument("--suite", action="store_true")
    sp.add_argument("--fixtures", action="store_true")
    sp.add_argument("--filter", default=None)
    sp.add_argument("--instances", type=int, default=12)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "verify":
            payload = cmd_verify(args)
        else:
            doc = _load_document(args.input)
            payload = args.run(Configuration(doc["matrix"]), doc, args)
    except ComputationLimitError as exc:
        print(f"computation limit exceeded: {exc}", file=sys.stderr)
        return EXIT_LIMIT
    except (DomainError, GKZError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID

    payload = _plain(payload)
    if args.json:
        json.dump(payload, sys.stdout, indent=2)
        sys.stdout.write("\n")
    else:
        _render_text(payload, sys.stdout)

    if args.command == "verify" and not payload["ok"]:
        return 1
    if args.strict and _has_bounded_verdict(payload):
        return EXIT_STRICT
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
