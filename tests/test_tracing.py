"""The benchmark's tracer, installed on the library: every wrapped name is
found and rebound, a traced fixture still passes, and uninstalling restores
every binding."""

import importlib.util
import json
import sys
from pathlib import Path
from types import SimpleNamespace

import gkzfactors
from gkzfactors import cli
from gkzfactors.cones import Configuration
from gkzfactors.errors import ComputationLimitError

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
MODULES = ("errors", "intlin", "semigroup", "cones", "degrees", "resonance",
           "factors", "bruteforce", "cli")
# names the tracer lists that the library no longer defines
DELETED = {"cones.Configuration.face_span_lattice"}


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _bindings(modules):
    """Every module-level binding of the package, and Configuration's methods."""
    out = {(m.__name__, name): value for m in modules for name, value in vars(m).items()}
    out.update({("Configuration", name): value for name, value in vars(Configuration).items()})
    return out


def test_traced_fixture_run_and_uninstall():
    tracing = _tracing()
    lib = SimpleNamespace(**{m: getattr(gkzfactors, m) for m in MODULES})
    modules = [m for n, m in sorted(sys.modules.items())
               if n == "gkzfactors" or n.startswith("gkzfactors.")]
    before = _bindings(modules)
    (path,) = [p for p in cli._fixture_files() if p.name == "nonnormal-wedge.json"]
    fixture = json.loads(path.read_text())
    tracer = tracing.Tracer(ComputationLimitError)
    tracer.install(lib, modules)  # raises RuntimeError if a by-name import stays unwrapped
    try:
        tracer.op = 0
        assert cli.run_fixture(fixture) == []
    finally:
        tracer.uninstall()
    metrics = tracer.layer_metrics(1)
    names = [n for n in tracer.names if n.startswith("cones.Configuration.")]
    assert {n for n in tracer.missing if n.startswith("cones.")} <= DELETED, tracer.missing
    for name in set(names) - DELETED:
        assert metrics[f"{name}.calls"][0] >= 1, name
    after = _bindings(modules)
    assert after.keys() == before.keys()
    assert [k for k in before if after[k] is not before[k]] == []
