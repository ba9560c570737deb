"""Exact-only runs never import numpy: ``tcclasses.chernweil`` loads on first use.

No job imports ``dataclasses`` (which pulls in ``inspect``, ``ast``,
``dis`` and ``tokenize``): the records of every module, ``chernweil``'s
included, are named tuples.  No job imports ``numpy.polynomial``:
``chernweil`` builds its own Gauss-Legendre rules.  Each
check runs in a fresh interpreter, since this test process has already
imported numpy and the whole package.
"""

import json

from conftest import run_fresh_python

#: The names ``tcclasses`` serves from ``tcclasses.chernweil``.
CHERNWEIL_EXPORTS = (
    "ClutchingFunction", "CocyclePair", "PartitionProfile", "QuadratureGrid", "SU2Map",
    "build_clutching_pair", "build_example_cocycles", "chern2", "clutching_example",
    "f2_moment", "mapping_degree", "standard_profile",
)

EXACT_JOBS_THEN_CHERN2 = r"""
import json, sys, types
from pathlib import Path

tmp = Path(sys.argv[1])


def loaded():
    # type() does not go through the lazy module's attribute hook.
    body = type(sys.modules["tcclasses.chernweil"]) is types.ModuleType
    return {"numpy": "numpy" in sys.modules, "chernweil": body,
            "dataclasses": "dataclasses" in sys.modules,
            "numpy.polynomial": "numpy.polynomial" in sys.modules}


import tcclasses.cli as cli

steps = {"import": loaded()}
poly = tmp / "p.json"
poly.write_text(json.dumps({"rank": 2, "terms": [{"coeff": "3/2", "x": [2, 1], "y": [0, 1]},
                                                 {"coeff": -1, "y": [1, 0]}]}))
jobs = {
    "decompose": ["decompose", "--group", "Sp", "--rank", "2", "--a", "2", "--b", "2"],
    "verify": ["verify", "--group", "SU", "--rank", "2", "--max-degree", "3", "--cases", "5"],
    "powermap": ["powermap", "--k", "3", "--in", str(poly)],
    "normalform": ["normalform", "--group", "U", "--rank", "2", "--in", str(poly)],
    "chern2": ["chern2", "--example", "constant", "--grid", "16"],
}
for name, argv in jobs.items():
    code = cli.main(argv + ["--out", str(tmp / f"{name}.json")])
    steps[name] = dict(loaded(), code=code)
print(json.dumps(steps))
"""


def test_exact_jobs_leave_numpy_unloaded(tmp_path):
    steps = json.loads(run_fresh_python(EXACT_JOBS_THEN_CHERN2, str(tmp_path)))
    unloaded = {"numpy": False, "chernweil": False, "dataclasses": False,
                "numpy.polynomial": False}
    assert steps["import"] == unloaded
    for name in ("decompose", "verify", "powermap", "normalform"):
        assert steps[name] == dict(unloaded, code=0), name
    # The quadrature builds its Gauss-Legendre rules itself: numpy.polynomial stays unloaded.
    assert steps["chern2"] == {"numpy": True, "chernweil": True, "dataclasses": False,
                               "numpy.polynomial": False, "code": 0}


EXPORTS = r"""
import json, sys
import tcclasses

names = sys.argv[1:]
print(json.dumps({
    "same": [getattr(tcclasses, n) is getattr(tcclasses.chernweil, n) for n in names],
    "listed": [n in dir(tcclasses) for n in names],
    "scalar_oracle_gone": not hasattr(tcclasses, "SU2Matrix"),
}))
"""


def test_former_exports_resolve_to_the_chernweil_objects():
    out = json.loads(run_fresh_python(EXPORTS, *CHERNWEIL_EXPORTS))
    assert out["same"] == [True] * len(CHERNWEIL_EXPORTS)
    assert out["listed"] == [True] * len(CHERNWEIL_EXPORTS)
    assert out["scalar_oracle_gone"]
