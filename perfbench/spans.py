"""Span tracer that wraps rampflow's public functions from outside.

Each wrap point replaces a module attribute at the place its caller looks
it up (``rampflow.cli.tts_bounds``, ``rampflow.simulator.step``,
``rampflow.lp.linprog``, ...), so the package source stays untouched and
the untraced runs execute exactly the shipped code. Controllers are timed
through a proxy object handed to ``simulate`` by wrapping the factories
that build them.

Calls made thousands of times per operation (``step``, ``compute_rates``
and the fundamental-diagram evaluations) are aggregated into counts and
times only; every other call becomes a span (name, start, end, parent,
run id) kept in memory and written out once when the run ends. A span's
self time is its duration minus the time covered by its child spans.
"""

from __future__ import annotations

import importlib
import json
import statistics
import time

ROOT_SPAN = "bench.op"

# (module, attribute, span name, recorded as a span node rather than
# only aggregated)
_FUNCTION_WRAPS = [
    ("rampflow.cli", "main", "cli.main", True),
    ("rampflow.cli", "load_scenario", "scenarios.load_scenario", True),
    ("rampflow.cli", "read_demand_csv", "scenarios.read_demand_csv", True),
    ("rampflow.scenarios", "synth_demand", "scenarios.synth_demand", True),
    ("rampflow.scenarios", "uncertainty_campaign",
     "scenarios.uncertainty_campaign", True),
    ("rampflow.scenarios", "sample_controller_model",
     "controllers.sample_controller_model", True),
    ("rampflow.scenarios", "simulate", "simulator.simulate", True),
    ("rampflow.cli", "simulate", "simulator.simulate", True),
    ("rampflow.cumulative", "simulate", "simulator.simulate", True),
    ("rampflow.lp", "simulate", "simulator.simulate", True),
    ("rampflow.simulator", "step", "simulator.step", False),
    ("rampflow.cli", "tts_bounds", "cumulative.tts_bounds", True),
    ("rampflow.cli", "restrictiveness_report",
     "cumulative.restrictiveness_report", True),
    ("rampflow.cumulative", "restrictiveness_report",
     "cumulative.restrictiveness_report", True),
    ("rampflow.lp", "build_lp", "lp.build_lp", True),
    ("rampflow.lp", "solve_lp", "lp.solve_lp", True),
    ("rampflow.lp", "linprog", "lp.highs", True),
    ("rampflow.lp", "certify_relaxation", "lp.certify_relaxation", True),
    ("rampflow.lp", "export_lp_text", "lp.export_lp_text", True),
    ("rampflow.cli", "trajectory_csv_text", "reports.trajectory_csv_text",
     True),
    ("rampflow.cli", "restrictiveness_csv_text",
     "reports.restrictiveness_csv_text", True),
    ("rampflow.reports", "campaign_csv_text", "reports.campaign_csv_text",
     True),
    ("rampflow.cli", "dumps_json", "reports.dumps_json", True),
]

# factories whose controllers get a timing proxy
_CONTROLLER_FACTORIES = [
    ("rampflow.scenarios", "make_controller"),
    ("rampflow.cli", "make_controller"),
    ("rampflow.cumulative", "make_controller"),
    ("rampflow.lp", "RateSchedule"),
]

LAYERS = ("model", "simulator", "controllers", "cumulative", "lp",
          "scenarios", "reports", "cli")


class _Stat:
    __slots__ = ("calls", "total", "self_time")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0


class _TimedController:
    """Proxy that times ``compute_rates`` of the controller it wraps."""

    def __init__(self, inner, compute_rates):
        self._inner = inner
        self.compute_rates = compute_rates

    def __getattr__(self, name):
        return getattr(self._inner, name)


class Tracer:
    """In-memory span store plus the patch set that feeds it.

    ``install`` patches the wrap points and ``uninstall`` restores the
    originals; the benchmark installs the tracer only around traced
    operations, so untraced operations in the same process run unpatched.
    """

    def __init__(self):
        self.spans: list[tuple] = []   # (id, name, start, end, parent, run)
        self.stats: dict[str, _Stat] = {}
        self.gauges: dict[str, float] = {}
        self.counters: dict[str, int] = {}
        self.run = -1
        self._stack: list[list] = [[0.0, None]]   # [child time, span id]
        self._patched: list[tuple] = []
        self._epoch = time.perf_counter()

    # -- span machinery ---------------------------------------------------

    def _stat(self, name: str) -> _Stat:
        return self.stats.setdefault(name, _Stat())

    def _count(self, key: str, by: int = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + by

    def wrap(self, name: str, fn, record: bool = True, hook=None):
        """Return ``fn`` timed under ``name``.

        ``hook(args, kwargs)`` runs before the call and may return a
        function that receives the result.
        """
        stat = self._stat(name)
        stack = self._stack
        spans = self.spans
        clock = time.perf_counter

        def traced(*args, **kwargs):
            finish = hook(args, kwargs) if hook is not None else None
            span_id = len(spans) if record else stack[-1][1]
            frame = [0.0, span_id]
            if record:
                spans.append(None)   # reserve the id; filled in below
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dt = t1 - t0
                stat.calls += 1
                stat.total += dt
                stat.self_time += dt - frame[0]
                stack[-1][0] += dt
                if record:
                    spans[span_id] = (span_id, name, t0 - self._epoch,
                                      t1 - self._epoch, stack[-1][1],
                                      self.run)
            if finish is not None:
                finish(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def root(self, fn):
        """Run ``fn`` as operation ``self.run + 1`` under the root span."""
        self.run += 1
        return self.wrap(ROOT_SPAN, fn)()

    # -- patching -----------------------------------------------------------

    def _patch(self, owner, attr: str, value) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        hooks = self._hooks()
        for modname, attr, name, record in _FUNCTION_WRAPS:
            mod = importlib.import_module(modname)
            if hasattr(mod, attr):
                self._patch(mod, attr, self.wrap(
                    name, getattr(mod, attr), record, hooks.get(name)))
        model_cls = importlib.import_module("rampflow.model").FreewayModel
        for attr in ("demand", "supply"):
            self._patch(model_cls, attr,
                        self.wrap("model.fd", getattr(model_cls, attr), False))
        for modname, attr in _CONTROLLER_FACTORIES:
            mod = importlib.import_module(modname)
            if hasattr(mod, attr):
                self._patch(mod, attr, self._proxy_factory(getattr(mod, attr)))

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def _proxy_factory(self, factory):
        def make(*args, **kwargs):
            inner = factory(*args, **kwargs)
            return _TimedController(inner, self.wrap(
                "controllers.compute_rates", inner.compute_rates, False))
        return make

    def _hooks(self) -> dict:
        gauges = self.gauges
        fd = self._stat("model.fd")
        sims = self._stat("simulator.simulate")

        def sizes(args, kwargs):
            def done(inst):
                gauges["lp.vars"] = inst.c.shape[0]
                gauges["lp.rows_eq"] = inst.a_eq.shape[0]
                gauges["lp.rows_ub"] = inst.a_ub.shape[0]
                gauges["lp.nnz"] = inst.a_eq.nnz + inst.a_ub.nnz
            return done

        def highs(args, kwargs):
            def done(res):
                gauges["lp.highs_nit"] = int(res.nit)
                gauges["lp.highs_status"] = int(res.status)
            return done

        def text_bytes(key):
            def hook(args, kwargs):
                def done(text):
                    gauges[key] = len(text.encode("utf-8"))
                return done
            return hook

        def restrictiveness(args, kwargs):
            model, traj = args[0], args[1]
            before = fd.calls

            def done(report):
                self._count("rr.pairs", traj.horizon * model.n)
                self._count("rr.fd_calls", fd.calls - before)
            return done

        def cli_main(args, kwargs):
            argv = args[0] if args else kwargs.get("argv")
            if not argv or argv[0] != "bounds":
                return None
            before = sims.calls

            def done(code):
                self._count("bounds.ops")
                self._count("bounds.simulates", sims.calls - before)
            return done

        return {
            "lp.build_lp": sizes,
            "lp.highs": highs,
            "lp.export_lp_text": text_bytes("lp.export_lp_text.bytes"),
            "reports.trajectory_csv_text":
                text_bytes("reports.trajectory_csv_text.bytes"),
            "reports.restrictiveness_csv_text":
                text_bytes("reports.restrictiveness_csv_text.bytes"),
            "cumulative.restrictiveness_report": restrictiveness,
            "cli.main": cli_main,
        }

    # -- results ----------------------------------------------------------

    def per_layer(self, untraced_op_s: list[float],
                  traced_op_s: list[float]) -> dict[str, float]:
        """Per-operation layer figures over the traced operations."""
        ops = max(1, self.run + 1)

        def stat(name):
            return self.stats.get(name, _Stat())

        def ratio(num, den):
            return num / den if den else 0.0

        out: dict[str, float] = {}
        for name in ("simulator.step", "simulator.simulate",
                     "controllers.compute_rates",
                     "controllers.sample_controller_model", "model.fd",
                     "cumulative.restrictiveness_report",
                     "cumulative.tts_bounds", "cli.main",
                     "reports.trajectory_csv_text",
                     "reports.restrictiveness_csv_text",
                     "reports.campaign_csv_text", "reports.dumps_json",
                     "lp.build_lp", "lp.solve_lp", "lp.highs",
                     "lp.certify_relaxation", "lp.export_lp_text",
                     "scenarios.uncertainty_campaign",
                     "scenarios.load_scenario"):
            s = stat(name)
            out[f"{name}.calls"] = s.calls / ops
            out[f"{name}.s"] = s.total / ops
            out[f"{name}.self_s"] = s.self_time / ops
        step = stat("simulator.step")
        out["simulator.step.us_per_call"] = 1e6 * ratio(step.total, step.calls)
        out["lp.highs_s"] = out["lp.highs.s"]
        out["lp.solve_lp.unpack_s"] = out["lp.solve_lp.self_s"]
        for key in ("lp.vars", "lp.rows_eq", "lp.rows_ub", "lp.nnz",
                    "lp.highs_nit", "lp.highs_status",
                    "lp.export_lp_text.bytes",
                    "reports.trajectory_csv_text.bytes",
                    "reports.restrictiveness_csv_text.bytes"):
            out[key] = self.gauges.get(key, 0)
        c = self.counters
        out["cumulative.restrictiveness_report.fd_calls_per_pair"] = ratio(
            c.get("rr.fd_calls", 0), c.get("rr.pairs", 0))
        out["cli.bounds.simulate_per_op"] = ratio(
            c.get("bounds.simulates", 0), c.get("bounds.ops", 0))
        # a bounds call needs exactly two runs: greedy and relaxed greedy
        out["cli.bounds.simulate_useful_frac"] = ratio(
            2 * c.get("bounds.ops", 0), c.get("bounds.simulates", 0))
        for layer in LAYERS:
            out[f"{layer}.self_s"] = sum(
                s.self_time for n, s in self.stats.items()
                if n.split(".", 1)[0] == layer) / ops
        root = stat(ROOT_SPAN)
        out["trace.attributed_frac"] = ratio(root.total - root.self_time,
                                             root.total)
        out["trace.ops"] = float(len(traced_op_s))
        base = statistics.median(untraced_op_s)
        over = statistics.median(traced_op_s) - base
        out["trace.overhead_s"] = over
        out["trace.overhead_frac"] = ratio(over, base)
        return out

    def dump(self, path, header: dict, per_layer: dict) -> None:
        """Write the span tree plus the aggregates as one JSON file."""
        doc = dict(header)
        doc["spans"] = [
            {"id": s[0], "name": s[1], "start": s[2], "end": s[3],
             "parent": s[4], "run": s[5]} for s in self.spans]
        doc["aggregates"] = {
            n: {"calls": s.calls, "s": s.total, "self_s": s.self_time}
            for n, s in sorted(self.stats.items())}
        doc["per_layer"] = per_layer
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1)
            fh.write("\n")
