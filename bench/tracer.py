"""In-memory tracing of calls into filippov, installed from outside the
package: nothing under src/ knows about it.

Two kinds of probe:

* spans wrap the public functions of each layer.  A span records its name,
  parent, start and end, and the counters that moved while it was open, so
  every count is attributed to the enclosing span.  Self time is the span's
  duration minus its child spans and the hot calls made directly inside it.
* hot calls (polynomial, trigonometric-coefficient, regularized-field and
  transition-function evaluations, and the solver's RHS and event callbacks)
  are too frequent for one record each; they only bump global counters and
  accumulate time.  Nested hot calls count but do not add time twice, and
  per-call times subtract the calibrated wrapper cost of the hot calls
  nested inside them.

`install()` must run before `filippov` is imported, because flow.py binds
`solve_ivp` with `from scipy.integrate import solve_ivp`; functions imported
with `from .x import y` are rebound in every module of the package.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import warnings
from time import perf_counter

# hot-call counters: name -> index into Tracer.calls / Tracer.secs
HOT = ("polys.eval", "compactify.trig", "regularize.phi",
       "regularize.field.smoothstep1", "regularize.field.bump",
       "regularize.field.other", "flow.rhs", "flow.event", "dline.classify")
# counters fed by span results and the solver
EXTRA = ("nfev", "steps", "arcs", "cycles", "singularities", "quad_warnings")
COUNTERS = HOT + EXTRA

# public functions, wrapped as spans: module -> [(function, span name)]
SPANS = {
    "polys": [("univariate_roots", "polys.roots")],
    "dline": [("segment_d", "dline.census"),
              ("fz_singularities", "dline.census"),
              ("fold_points", "dline.census")],
    "compactify": [("infinity_singularities", "compactify.infinity"),
                   ("s1_elementarity", "compactify.s1")],
    "regularize": [("emergent_singularities", "regularize.emergent"),
                   ("regularized_cycle_search", "regularize.cycle_search")],
    "flow": [("integrate_smooth", "flow.smooth_arc"),
             ("advance_hybrid", "flow.hybrid_run"),
             ("return_map", "flow.return_map"),
             ("find_closed_polytrajectories", "flow.census"),
             ("probe_saddle_connections", "flow.connections")],
    "stability": [("check_gm", "stability.check_gm"),
                  ("interior_singularities", "stability.interior")],
    "portrait": [("render_portrait", "portrait.render")],
    "fieldspec": [("parse", "fieldspec.parse")],
    "cli": [("dumps_report", "cli.emit"), ("write_atomic", "cli.emit")],
}

# counters taken from a span's return value
RESULT_COUNTS = {
    "flow.hybrid_run": ("arcs", lambda r: len(r.arcs)),
    "flow.census": ("cycles", len),
    "regularize.emergent": ("singularities", len),
}


class Tracer:
    def __init__(self):
        n = len(COUNTERS)
        self.calls = [0] * n        # hot calls and extra counters
        self.secs = [0.0] * len(HOT)
        self.nested = [0] * len(HOT)  # hot calls made inside each kind
        self.hot_count = 0
        self.hot_depth = 0
        self.hot_outer = 0.0        # time of outermost hot calls
        self.hot_cost = 0.0         # seconds a wrapper adds to a hot call
        self.stack: list[list] = []
        self.open_names: dict[str, int] = {}
        self.spans: list[tuple] = []

    # -- spans ---------------------------------------------------------
    def open_span(self, name: str) -> list:
        outer = self.open_names.get(name, 0) == 0
        self.open_names[name] = self.open_names.get(name, 0) + 1
        parent = self.stack[-1][0] if self.stack else -1
        # [id, parent, name, outermost, start, counters at start,
        #  hot_outer at start, child duration, child hot time]
        rec = [len(self.spans) + len(self.stack), parent, name, outer,
               perf_counter(), list(self.calls), self.hot_outer, 0.0, 0.0]
        self.stack.append(rec)
        return rec

    def close_span(self, rec: list) -> None:
        end = perf_counter()
        self.stack.pop()
        self.open_names[rec[2]] -= 1
        dur = end - rec[4]
        hot = self.hot_outer - rec[6]
        self_s = dur - rec[7] - (hot - rec[8])
        counts = {COUNTERS[i]: v - rec[5][i]
                  for i, v in enumerate(self.calls) if v != rec[5][i]}
        if self.stack:
            self.stack[-1][7] += dur
            self.stack[-1][8] += hot
        self.spans.append((rec[0], rec[1], rec[2], rec[3], rec[4], end,
                           self_s, counts))

    def span(self, name: str, fn):
        idx = COUNTERS.index
        result_count = RESULT_COUNTS.get(name)
        if result_count is not None:
            slot, measure = idx(result_count[0]), result_count[1]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = self.open_span(name)
            try:
                out = fn(*args, **kwargs)
                if result_count is not None:
                    self.calls[slot] += measure(out)
                return out
            finally:
                self.close_span(rec)
        return wrapper

    # -- hot calls -----------------------------------------------------
    def hot(self, name_of, fn):
        """Wrap fn; name_of(args) gives the HOT counter name."""
        calls, secs, nested = self.calls, self.secs, self.nested

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = name_of(args)
            self.hot_depth += 1
            n0 = self.hot_count
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                self.hot_depth -= 1
                calls[i] += 1
                secs[i] += dt
                nested[i] += self.hot_count - n0
                self.hot_count += 1
                if self.hot_depth == 0:
                    self.hot_outer += dt
        return wrapper

    def calibrate(self, calls: int = 20000, repeats: int = 7) -> None:
        """Measure hot_cost: what an enclosing timer sees of one wrapped
        method call beyond the call itself (best of `repeats`)."""
        class Plain:
            def __call__(self, x, y):
                return x

        class Wrapped(Plain):
            __call__ = Tracer().hot_fixed(HOT[0], Plain.__call__)

        plain, wrapped = Plain(), Wrapped()
        best = float("inf")
        for _ in range(repeats):
            t0 = perf_counter()
            for _ in range(calls):
                plain(0.5, 0.25)
            t1 = perf_counter()
            for _ in range(calls):
                wrapped(0.5, 0.25)
            t2 = perf_counter()
            best = min(best, ((t2 - t1) - (t1 - t0)) / calls)
        self.hot_cost = max(best, 0.0)

    def hot_fixed(self, name: str, fn):
        i = HOT.index(name)
        return self.hot(lambda args: i, fn)

    # -- solver --------------------------------------------------------
    def wrap_solve_ivp(self, solve_ivp):
        nfev, steps = COUNTERS.index("nfev"), COUNTERS.index("steps")

        def wrap_event(ev):
            w = self.hot_fixed("flow.event", ev)
            for attr in ("terminal", "direction"):
                if hasattr(ev, attr):
                    setattr(w, attr, getattr(ev, attr))
            return w

        @functools.wraps(solve_ivp)
        def traced(fun, t_span, y0, *args, events=None, **kwargs):
            fun = self.hot_fixed("flow.rhs", fun)
            if events is not None:
                events = ([wrap_event(e) for e in events]
                          if isinstance(events, (list, tuple))
                          else wrap_event(events))
            rec = self.open_span("flow.solve_ivp")
            try:
                sol = solve_ivp(fun, t_span, y0, *args, events=events,
                                **kwargs)
                self.calls[nfev] += int(sol.nfev)
                self.calls[steps] += len(sol.t) - 1
                return sol
            finally:
                self.close_span(rec)
        return traced

    def count_warning(self) -> None:
        if any(n.startswith("compactify.") and c > 0
               for n, c in self.open_names.items()):
            self.calls[COUNTERS.index("quad_warnings")] += 1

    # -- per-layer metrics ---------------------------------------------
    def snapshot(self) -> tuple:
        return len(self.spans), list(self.secs), list(self.nested)

    def layer_metrics(self, start: tuple) -> dict:
        """Per-layer metrics of the spans closed since `start` (a
        snapshot); the last of them must be the root span of the pass."""
        first, secs0, nested0 = start
        spans = self.spans[first:]
        counts = spans[-1][7]
        secs = {name: self.secs[i] - secs0[i] for i, name in enumerate(HOT)}
        outer = [s for s in spans if s[3]]
        by_id = {s[0]: s for s in spans}

        def n(key):
            return counts.get(key, 0)

        def per(a, b):
            return a / b if b else 0.0

        def number(name):
            return sum(1 for s in outer if s[2] == name)

        def total(name):
            return sum(s[5] - s[4] for s in outer if s[2] == name)

        def inside(name, key):
            return sum(s[7].get(key, 0) for s in outer if s[2] == name)

        def under(span, name):
            while span[1] in by_id:
                span = by_id[span[1]]
                if span[2] == name:
                    return True
            return False

        def us_per_call(name):
            # less the wrapper cost of the hot calls nested inside
            i = HOT.index(name)
            nested = self.nested[i] - nested0[i]
            return per((secs[name] - nested * self.hot_cost) * 1e6, n(name))

        fields = ("regularize.field.smoothstep1", "regularize.field.bump",
                  "regularize.field.other")
        arcs = number("flow.smooth_arc")
        runs = number("flow.hybrid_run")
        maps = number("flow.return_map")
        return {
            "polys.eval_calls": (n("polys.eval"), "count"),
            "polys.eval_us": (us_per_call("polys.eval"), "us"),
            "polys.roots_calls": (number("polys.roots"), "count"),
            "polys.roots_s": (total("polys.roots"), "s"),
            "dline.classify_calls": (n("dline.classify"), "count"),
            "dline.census_s": (total("dline.census"), "s"),
            "compactify.trig_evals": (n("compactify.trig"), "count"),
            "compactify.infinity_s": (total("compactify.infinity"), "s"),
            "compactify.s1_s": (total("compactify.s1"), "s"),
            "compactify.quad_warnings": (n("quad_warnings"), "count"),
            "regularize.field_evals": (sum(n(k) for k in fields), "count"),
            "regularize.field_eval_us.smoothstep1": (
                us_per_call("regularize.field.smoothstep1"), "us"),
            "regularize.field_eval_us.bump": (
                us_per_call("regularize.field.bump"), "us"),
            "regularize.phi_evals": (n("regularize.phi"), "count"),
            "regularize.emergent_s": (total("regularize.emergent"), "s"),
            "regularize.singularities_found": (n("singularities"), "count"),
            "regularize.cycle_search_s": (total("regularize.cycle_search"),
                                          "s"),
            "flow.solver_calls": (number("flow.solve_ivp"), "count"),
            "flow.nfev": (n("nfev"), "count"),
            "flow.steps": (n("steps"), "count"),
            "flow.solver_self_s": (
                sum(s[6] for s in outer if s[2] == "flow.solve_ivp")
                - (n("flow.rhs") + n("flow.event")) * self.hot_cost, "s"),
            "flow.smooth_arcs": (arcs, "count"),
            "flow.nfev_per_smooth_arc": (
                per(inside("flow.smooth_arc", "nfev"), arcs), "count"),
            "flow.hybrid_runs": (runs, "count"),
            "flow.arcs_per_hybrid_run": (per(n("arcs"), runs), "count"),
            "flow.return_map_calls": (maps, "count"),
            "flow.nfev_per_return_map": (
                per(inside("flow.return_map", "nfev"), maps), "count"),
            "flow.census_s": (total("flow.census"), "s"),
            "flow.connections_s": (total("flow.connections"), "s"),
            "flow.cycles_found": (n("cycles"), "count"),
            "stability.check_gm_s": (total("stability.check_gm"), "s"),
            "stability.interior_s": (total("stability.interior"), "s"),
            "portrait.render_s": (total("portrait.render"), "s"),
            "portrait.streak_arcs": (
                sum(1 for s in outer if s[2] == "flow.smooth_arc"
                    and under(s, "portrait.render")), "count"),
            "fieldspec.parse_s": (total("fieldspec.parse"), "s"),
            "cli.emit_s": (total("cli.emit"), "s"),
        }

    # -- output --------------------------------------------------------
    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(
                    {"id": s[0], "parent": s[1], "name": s[2],
                     "outermost": s[3], "start": s[4], "end": s[5],
                     "self_s": s[6], "counts": s[7]}) + "\n")


def _rebind(mods: dict, original, wrapped) -> None:
    """Replace `original` wherever a filippov module holds it by name."""
    for mod in mods.values():
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, wrapped)


def install() -> Tracer:
    """Wrap scipy's solve_ivp, then import filippov and wrap its layers."""
    if any(m == "filippov" or m.startswith("filippov.") for m in sys.modules):
        raise RuntimeError("install the tracer before importing filippov")
    tr = Tracer()
    tr.calibrate()
    import scipy.integrate
    from scipy.integrate import IntegrationWarning

    scipy.integrate.solve_ivp = tr.wrap_solve_ivp(scipy.integrate.solve_ivp)

    mods = {name: importlib.import_module(f"filippov.{name}")
            for name in ("polys", "dline", "compactify", "regularize", "flow",
                         "stability", "portrait", "fieldspec", "cli")}
    for modname, entries in SPANS.items():
        for fname, span_name in entries:
            original = getattr(mods[modname], fname)
            _rebind(mods, original, tr.span(span_name, original))

    polys, comp, reg = mods["polys"], mods["compactify"], mods["regularize"]
    polys.BivariatePolynomial.__call__ = tr.hot_fixed(
        "polys.eval", polys.BivariatePolynomial.__call__)
    comp.TrigCoefficient.__call__ = tr.hot_fixed(
        "compactify.trig", comp.TrigCoefficient.__call__)
    reg.TransitionFunction.__call__ = tr.hot_fixed(
        "regularize.phi", reg.TransitionFunction.__call__)

    field_slot = {("smoothstep", 1): HOT.index("regularize.field.smoothstep1"),
                  ("bump", 0): HOT.index("regularize.field.bump")}
    other = HOT.index("regularize.field.other")

    def field_name(args):
        phi = args[0].phi
        return field_slot.get((phi.family, phi.parameter), other)

    reg.RegularizedField.__call__ = tr.hot(
        field_name, reg.RegularizedField.__call__)
    _rebind(mods, mods["dline"].classify_point,
            tr.hot_fixed("dline.classify", mods["dline"].classify_point))

    warnings.simplefilter("always", IntegrationWarning)
    previous = warnings.showwarning

    def showwarning(message, category, *rest):
        if issubclass(category, IntegrationWarning):
            tr.count_warning()
        else:
            previous(message, category, *rest)
    warnings.showwarning = showwarning
    return tr
