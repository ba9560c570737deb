"""The benchmark tracer (perfbench/tracer.py) still fits the package.

It wraps every callable in its ``TRACED`` list and must restore each
binding on exit.  A traced name that the package renames or deletes makes
this test fail, not only a traced benchmark run.  The tracer file is only
read, never changed.
"""

import importlib.util
import json
import sys
from pathlib import Path

import tcclasses.cli  # noqa: F401  (puts every traced module in sys.modules)

from conftest import run_fresh_python

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def bindings() -> dict:
    """Every attribute of the package's modules and of their classes."""
    out = {}
    for key, module in list(sys.modules.items()):
        if module is None or not (key == "tcclasses" or key.startswith("tcclasses.")):
            continue
        for name, value in vars(module).items():
            out[(key, name)] = value
            if isinstance(value, type) and value.__module__ == key:
                for attr, raw in vars(value).items():
                    out[(key, name, attr)] = raw
    return out


def test_every_traced_name_is_wrapped_and_restored():
    tracer = load_tracer()
    before = bindings()
    with tracer.Tracer().installed():
        during = bindings()
        for module, qualname, _ in tracer.TRACED:
            path = (f"tcclasses.{module}", *qualname.split("."))
            assert during[path] is not before[path], path
    after = bindings()
    assert after.keys() == before.keys()
    assert [k for k in before if after[k] is not before[k]] == []


def test_tracer_sees_the_handler_of_a_cached_parser(tmp_path):
    tracer = load_tracer()
    argv = ["decompose", "--group", "U", "--rank", "2", "--a", "1", "--b", "1",
            "--out", str(tmp_path / "out.json")]
    assert tcclasses.cli.main(argv) == 0  # builds and caches the parser
    with tracer.Tracer().installed() as traced:
        assert tcclasses.cli.main(argv) == 0
    assert traced.stats["cli.cmd_decompose"][0] == 1
    spans = {span["name"]: span for span in traced.spans}
    assert spans["cli.cmd_decompose"]["parent"] == spans["cli.main"]["id"]


LAZY_CHERNWEIL = r"""
import importlib.util, json, sys, types

tracer_path, out = sys.argv[1:]
import tcclasses.cli as cli

spec = importlib.util.spec_from_file_location("perfbench_tracer", tracer_path)
tracer = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracer)
lazy = type(sys.modules["tcclasses.chernweil"]) is not types.ModuleType
names = [q for m, q, _ in tracer.TRACED if m == "chernweil"]


def binding(q):
    owner, _, attr = q.rpartition(".")
    module = sys.modules["tcclasses.chernweil"]
    return vars(getattr(module, owner))[attr] if owner else getattr(module, attr)


with tracer.Tracer().installed() as traced:
    during = {q: binding(q) for q in names}
    code = cli.main(["chern2", "--example", "constant", "--grid", "16", "--out", out])
print(json.dumps({
    "lazy_before_install": lazy,
    "code": code,
    "wrapped": [hasattr(during[q], "__wrapped__") for q in names],
    "restored": [binding(q) is during[q].__wrapped__ for q in names],
    "integrate_calls": traced.stats["chernweil.integrate_chart"][0],
}))
"""


def test_tracer_installs_over_the_lazy_chernweil(tmp_path):
    out = json.loads(run_fresh_python(LAZY_CHERNWEIL, str(TRACER_PATH),
                                      str(tmp_path / "out.json")))
    assert out["lazy_before_install"]
    assert out["code"] == 0
    assert out["wrapped"] == [True] * len(out["wrapped"]) and out["wrapped"]
    assert out["restored"] == [True] * len(out["restored"])
    # constant is mirrored: one chart pass on the grid, one on the halved grid.
    assert out["integrate_calls"] == 2
