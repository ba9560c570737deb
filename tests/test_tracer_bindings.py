"""The benchmark tracer (perfbench/tracer.py) still fits the package.

It wraps every callable in its ``TRACED`` list and must restore each
binding on exit.  A traced name that the package renames or deletes makes
this test fail, not only a traced benchmark run.  The tracer file is only
read, never changed.
"""

import importlib.util
import sys
from pathlib import Path

import tcclasses.cli  # noqa: F401  (imports every traced module)

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
