"""Per-layer tracing of tcclasses from outside the package.

``Tracer.installed()`` wraps a fixed list of the public functions and
methods of ``polyring``, ``weyl``, ``groebner``, ``generators``,
``chernweil`` and ``cli``; leaving the context restores the originals.
No file of the package changes.

- A module-level function is also bound under its name in every module
  that imported it (``from .x import y`` in ``cli``, ``generators``,
  ``groebner`` and ``tcclasses/__init__``), so each such binding is
  replaced too.  A method is replaced on its class.
- Coarse calls (a CLI job, ``decompose``, ``create``, ``evaluate``,
  ``buchberger``, ``integrate_chart``, ...) record a span with its parent
  span and the span of its CLI job.  Hot methods such as ``Polynomial.__init__`` only add to
  per-name aggregates: calls, self time and outermost inclusive time.
- Hot leaf helpers (``monomial_key``, ``leading_term``, ``_re_A``) are
  not wrapped: a wrapper on each of their millions of calls would cost
  more than they do.  Their time is self time of their caller.
- ``integrate_chart``'s default ``integrand=_re_A`` is bound when the
  function is defined, so the integrand cannot be wrapped from outside;
  integrand time is part of ``chernweil.integrate_self_s`` (integrand
  plus the weighted reduction).
"""

from __future__ import annotations

import contextlib
import sys
import time
from collections import defaultdict

#: (module, qualified name, coarse) of every wrapped callable.  Coarse
#: callables get spans; all of them get aggregates.
TRACED = (
    ("polyring", "Polynomial.__init__", False),
    ("polyring", "Polynomial.__mul__", False),
    ("polyring", "Polynomial.__add__", False),
    ("polyring", "substitute", False),
    ("weyl", "enumerate_group", False),
    ("weyl", "act", False),
    ("weyl", "symmetrize", False),
    ("groebner", "normal_form", False),
    ("groebner", "buchberger", True),
    ("groebner", "ideal_for_group", True),
    ("groebner", "equal_mod_ideal", True),
    ("generators", "iota", False),
    ("generators", "power_map", False),
    ("generators", "GeneratorExpr.evaluate", True),
    ("generators", "DecompositionResult.create", True),
    ("generators", "decompose", True),
    ("chernweil", "SU2Map.__call__", False),
    ("chernweil", "SU2Map.partials", False),
    ("chernweil", "clutching_example", True),
    ("chernweil", "integrate_chart", True),
    ("chernweil", "a_form_integral", True),
    ("chernweil", "chern2", True),
    ("chernweil", "mapping_degree", True),
    ("cli", "main", True),
    ("cli", "build_parser", False),
    ("cli", "cmd_decompose", True),
    ("cli", "cmd_verify", True),
    ("cli", "cmd_chern2", True),
)

#: Every per-layer metric: (unit, better, [(end-to-end metric, workload)
#: it should move]).  BENCHMARK.json's per_layer list follows this table.
LAYER_METRICS = {
    "polyring.init_calls": ("count", "lower", [("batch_s", "verify-suite"), ("batch_s", "decompose-sweep")]),
    "polyring.init_self_s": ("s", "lower", [("batch_s", "verify-suite"), ("batch_s", "decompose-sweep")]),
    "polyring.mul_calls": ("count", "lower", [("batch_s", "decompose-sweep"), ("job_p90_s", "decompose-sweep")]),
    "polyring.mul_self_s": ("s", "lower", [("batch_s", "decompose-sweep"), ("job_p90_s", "decompose-sweep")]),
    "polyring.add_self_s": ("s", "lower", [("batch_s", "decompose-sweep"), ("job_p90_s", "decompose-sweep")]),
    "polyring.substitute_s": ("s", "lower", [("batch_s", "decompose-sweep"), ("job_p90_s", "decompose-sweep")]),
    "weyl.symmetrize_calls": ("count", "lower", [("batch_s", "verify-suite")]),
    "weyl.symmetrize_s": ("s", "lower", [("batch_s", "verify-suite")]),
    "weyl.act_calls": ("count", "lower", [("batch_s", "verify-suite")]),
    "weyl.act_self_s": ("s", "lower", [("batch_s", "verify-suite")]),
    "weyl.enumerate_group_s": ("s", "lower", [("batch_s", "verify-suite")]),
    "groebner.ideal_s": ("s", "lower", [("batch_s", "decompose-sweep")]),
    "groebner.buchberger_s": ("s", "lower", [("batch_s", "decompose-sweep")]),
    "groebner.buchberger_reductions": ("count", "lower", [("batch_s", "decompose-sweep")]),
    "groebner.buchberger_useful_ratio": ("ratio", "higher", [("batch_s", "decompose-sweep")]),
    "groebner.normal_form_calls": ("count", "lower", [("job_p90_s", "decompose-sweep")]),
    "groebner.normal_form_s": ("s", "lower", [("job_p90_s", "decompose-sweep")]),
    "groebner.normal_form_terms_in": ("count", "lower", [("job_p90_s", "decompose-sweep")]),
    "generators.decompose_s": ("s", "lower", [("batch_s", "decompose-sweep"), ("job_p90_s", "decompose-sweep")]),
    "generators.certify_s": ("s", "lower", [("batch_s", "decompose-sweep"), ("job_p90_s", "decompose-sweep")]),
    "generators.evaluate_s": ("s", "lower", [("batch_s", "decompose-sweep"), ("job_p90_s", "decompose-sweep")]),
    "generators.iota_calls": ("count", "lower", [("batch_s", "decompose-sweep"), ("job_p90_s", "decompose-sweep")]),
    "generators.iota_s": ("s", "lower", [("batch_s", "decompose-sweep"), ("job_p90_s", "decompose-sweep")]),
    "generators.power_map_s": ("s", "lower", [("batch_s", "decompose-sweep"), ("job_p90_s", "decompose-sweep")]),
    "generators.expr_terms": ("count", "lower", [("batch_s", "decompose-sweep"), ("job_p90_s", "decompose-sweep")]),
    "chernweil.example_s": ("s", "lower", [("batch_s", "chern2-quadrature")]),
    "chernweil.value_self_s": ("s", "lower", [("batch_s", "chern2-quadrature")]),
    "chernweil.partials_self_s": ("s", "lower", [("batch_s", "chern2-quadrature")]),
    "chernweil.integrate_calls": ("count", "lower", [("batch_s", "chern2-quadrature")]),
    "chernweil.integrate_self_s": ("s", "lower", [("batch_s", "chern2-quadrature"), ("peak_rss_mb", "chern2-quadrature")]),
    "chernweil.nodes": ("count", "lower", [("batch_s", "chern2-quadrature"), ("peak_rss_mb", "chern2-quadrature")]),
    "chernweil.node_rate": ("Mnode/s", "higher", [("batch_s", "chern2-quadrature")]),
    "cli.jobs": ("count", "higher", [("job_p50_s", "decompose-sweep")]),
    "cli.job_self_s": ("s", "lower", [("job_p50_s", "decompose-sweep")]),
}

#: Layers predicted to do no work at all on a workload: every metric
#: with one of these prefixes reads zero there.
IDLE_LAYERS = {
    "decompose-sweep": ("weyl.", "chernweil."),
    "verify-suite": (),
    "chern2-quadrature": ("polyring.", "groebner."),
}


def mapped_metrics(workload: str) -> list[str]:
    """Layer metrics predicted to move an end-to-end metric on ``workload``."""
    return [name for name, (_, _, moves) in LAYER_METRICS.items()
            if any(w == workload for _, w in moves)]


class Tracer:
    """Aggregates and spans for the callables in ``TRACED``."""

    def __init__(self):
        self.stats: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])  # calls, self, total
        self.depth: dict[str, int] = defaultdict(int)
        self.spans: list[dict] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[list] = []  # [child time, span id for children]
        self._restore: list[tuple] = []

    # -- wrapping -------------------------------------------------------

    def _wrap(self, name: str, fn, coarse: bool):
        stats, depth, stack, spans = self.stats[name], self.depth, self._stack, self.spans
        hook = getattr(self, "_after_" + name.rsplit(".", 1)[-1], None)
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            parent = stack[-1][1] if stack else None
            span = None
            if coarse:
                span = len(spans)
                job = span if parent is None else spans[parent]["job"]
                spans.append({"id": span, "parent": parent, "job": job, "name": name})
            frame = [0.0, parent if span is None else span]
            stack.append(frame)
            depth[name] += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                depth[name] -= 1
                stats[0] += 1
                stats[1] += dt - frame[0]
                if not depth[name]:
                    stats[2] += dt
                if stack:
                    stack[-1][0] += dt
                if span is not None:
                    spans[span]["start"] = t0
                    spans[span]["end"] = t0 + dt
            if hook is not None:
                hook(args, kwargs, result, dt)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Wrap every callable in ``TRACED`` for the duration of the block."""
        modules = [m for key, m in sorted(sys.modules.items())
                   if m is not None and (key == "tcclasses" or key.startswith("tcclasses."))]
        try:
            for mod_name, qualname, coarse in TRACED:
                module = sys.modules[f"tcclasses.{mod_name}"]
                name = f"{mod_name}.{qualname}"
                if "." in qualname:
                    cls_name, attr = qualname.split(".")
                    cls = getattr(module, cls_name)
                    raw = cls.__dict__[attr]
                    if isinstance(raw, classmethod):
                        new = classmethod(self._wrap(name, raw.__func__, coarse))
                    else:
                        new = self._wrap(name, raw, coarse)
                    self._restore.append((cls, attr, raw))
                    setattr(cls, attr, new)
                else:
                    original = getattr(module, qualname)
                    new = self._wrap(name, original, coarse)
                    for mod in modules:
                        for key, value in list(vars(mod).items()):
                            if value is original:
                                self._restore.append((mod, key, original))
                                setattr(mod, key, new)
            yield self
        finally:
            while self._restore:
                target, attr, original = self._restore.pop()
                setattr(target, attr, original)

    # -- hooks run after a call returns -------------------------------

    def _after_normal_form(self, args, kwargs, result, dt):
        if self.depth["groebner.buchberger"]:
            self.counters["buchberger_reductions"] += 1
            self.counters["buchberger_useful"] += not result.is_zero()
        else:
            self.counters["normal_form_calls"] += 1
            self.counters["normal_form_s"] += dt
            self.counters["normal_form_terms_in"] += len(args[0].terms)

    def _after_integrate_chart(self, args, kwargs, result, dt):
        grid = args[1] if len(args) > 1 else kwargs["grid"]
        self.counters["nodes"] += (len(grid.alpha_nodes) * len(grid.beta_nodes)
                                   * len(grid.r_nodes))

    # -- results ----------------------------------------------------------

    def layer_metrics(self, reports: list[dict]) -> dict[str, float]:
        """Every metric of ``LAYER_METRICS`` from the aggregates and job reports."""
        s, c = self.stats, self.counters

        def calls(n):
            return s[n][0] if n in s else 0

        def self_s(n):
            return s[n][1] if n in s else 0.0

        def total(n):
            return s[n][2] if n in s else 0.0

        reductions = c["buchberger_reductions"]
        integrate_s = total("chernweil.integrate_chart")
        expr_terms = sum(len(r["outputs"].get("terms", [])) for r in reports
                         if r.get("command") == "decompose")
        values = {
            "polyring.init_calls": calls("polyring.Polynomial.__init__"),
            "polyring.init_self_s": self_s("polyring.Polynomial.__init__"),
            "polyring.mul_calls": calls("polyring.Polynomial.__mul__"),
            "polyring.mul_self_s": self_s("polyring.Polynomial.__mul__"),
            "polyring.add_self_s": self_s("polyring.Polynomial.__add__"),
            "polyring.substitute_s": total("polyring.substitute"),
            "weyl.symmetrize_calls": calls("weyl.symmetrize"),
            "weyl.symmetrize_s": total("weyl.symmetrize"),
            "weyl.act_calls": calls("weyl.act"),
            "weyl.act_self_s": self_s("weyl.act"),
            "weyl.enumerate_group_s": total("weyl.enumerate_group"),
            "groebner.ideal_s": total("groebner.ideal_for_group"),
            "groebner.buchberger_s": total("groebner.buchberger"),
            "groebner.buchberger_reductions": int(reductions),
            "groebner.buchberger_useful_ratio":
                c["buchberger_useful"] / reductions if reductions else 0.0,
            "groebner.normal_form_calls": int(c["normal_form_calls"]),
            "groebner.normal_form_s": c["normal_form_s"],
            "groebner.normal_form_terms_in": int(c["normal_form_terms_in"]),
            "generators.decompose_s": total("generators.decompose"),
            "generators.certify_s": total("generators.DecompositionResult.create"),
            "generators.evaluate_s": total("generators.GeneratorExpr.evaluate"),
            "generators.iota_calls": calls("generators.iota"),
            "generators.iota_s": total("generators.iota"),
            "generators.power_map_s": total("generators.power_map"),
            "generators.expr_terms": expr_terms,
            "chernweil.example_s": total("chernweil.clutching_example"),
            "chernweil.value_self_s": self_s("chernweil.SU2Map.__call__"),
            "chernweil.partials_self_s": self_s("chernweil.SU2Map.partials"),
            "chernweil.integrate_calls": calls("chernweil.integrate_chart"),
            "chernweil.integrate_self_s": self_s("chernweil.integrate_chart"),
            "chernweil.nodes": int(c["nodes"]),
            "chernweil.node_rate": c["nodes"] / integrate_s / 1e6 if integrate_s else 0.0,
            "cli.jobs": calls("cli.main"),
            "cli.job_self_s": sum(self_s(n) for n in s if n.startswith("cli.")),
        }
        assert values.keys() == LAYER_METRICS.keys()
        return values
