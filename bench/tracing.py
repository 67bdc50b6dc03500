"""Per-layer tracing of the twohop modules, from outside the program.

``Tracer.install()`` replaces the public functions of every twohop
module, and the GammaSnr / MaxGammaSnr distribution methods on their
classes, with wrappers that record a span (name, start, end, parent) and
a few counters.  The generator ``sweep_eq_samples`` gets one span per
item it yields, so its draws and arithmetic count where they run.
Functions imported by value (``from .numerics import
integrate_semi_infinite``) are replaced under every module that holds
them.  ``uninstall()`` puts the originals back.

Spans live in flat arrays and are reduced to per-layer metrics at the
end: a layer's self time is the time of its spans minus the time of
their child spans.  The integrand that a quadrature calls is recorded as
a span of the layer that asked for the integral, so numerics self time
is pure quadrature bookkeeping.  Only the main thread is traced; the
Monte-Carlo worker threads run below ``simulate_hop``.  The per-sample
helpers ``equivalent_snr`` and ``conditional_sep`` run only under
Monte-Carlo spans in the CLI, so their time counts to montecarlo, not to
the self time of relay or ser.
"""

from __future__ import annotations

import importlib
import threading
import time
from array import array
from collections import Counter

import numpy as np

MODULES = ("cli", "scenario", "diversity", "fading", "numerics", "relay", "ser",
           "montecarlo")

# (module, function) pairs to wrap: every public function, save cli.main and
# its build_parser, which the benchmark times as the op itself.  The span
# name is "<module>.<function>".  effective_distribution reaches the
# per-scheme diversity builders through a table of its own, so their time
# shows as diversity.law_s, not as spans of their own.
FUNCTIONS = {
    "cli": ("cmd_ser_sweep", "cmd_cdf", "cmd_validate", "cmd_compare_cases"),
    "scenario": ("parse_scenario", "load_scenario", "db_to_linear", "linear_to_db"),
    "diversity": ("mrc_effective", "stbc_effective", "mimo_effective", "tas_effective",
                  "effective_distribution"),
    "fading": ("from_nakagami",),
    "numerics": ("integrate_finite", "integrate_semi_infinite",
                 "regularized_lower_gamma", "gaussian_q"),
    "relay": ("equivalent_snr", "end_to_end_cdf", "end_to_end_cdf_grid"),
    "ser": ("conditional_sep", "ser_from_cdf", "ser_direct", "ser_sweep"),
    "montecarlo": ("simulate_hop", "simulate_end_to_end", "empirical_cdf", "mc_ser",
                   "sweep_eq_samples"),
}
GENERATORS = {"montecarlo.sweep_eq_samples"}
METHODS = {"GammaSnr": ("cdf", "pdf"), "MaxGammaSnr": ("cdf", "pdf")}


#: Per-layer metric -> (unit, which direction is better).
UNITS = {
    "cli.calls": ("count", "lower"), "cli.self_s": ("s", "lower"),
    "scenario.load_calls": ("count", "lower"), "scenario.load_s": ("s", "lower"),
    "diversity.law_builds": ("count", "lower"), "diversity.law_s": ("s", "lower"),
    "fading.cdf_calls": ("count", "lower"), "fading.cdf_points": ("count", "lower"),
    "fading.cdf_s": ("s", "lower"),
    "fading.pdf_calls": ("count", "lower"), "fading.pdf_points": ("count", "lower"),
    "fading.pdf_s": ("s", "lower"),
    "numerics.quad_calls": ("count", "lower"), "numerics.quad_rounds": ("count", "lower"),
    "numerics.quad_evals": ("count", "lower"),
    "numerics.quad_nonconverged": ("count", "lower"),
    "numerics.quad_self_s": ("s", "lower"),
    "numerics.gammainc_calls": ("count", "lower"),
    "numerics.gammainc_points": ("count", "lower"), "numerics.gammainc_s": ("s", "lower"),
    "numerics.q_calls": ("count", "lower"), "numerics.q_s": ("s", "lower"),
    "relay.cdf_calls": ("count", "lower"), "relay.cdf_points": ("count", "lower"),
    "relay.cdf_s": ("s", "lower"), "relay.cdf_self_s": ("s", "lower"),
    "relay.evals_per_cdf_point": ("count", "lower"),
    "relay.clamp_warnings": ("count", "lower"), "relay.convergence_errors": ("count", "lower"),
    "ser.ser_calls": ("count", "lower"), "ser.ser_s": ("s", "lower"),
    "ser.ser_self_s": ("s", "lower"), "ser.cdf_points_per_ser_point": ("count", "lower"),
    "ser.nonconverged_points": ("count", "lower"),
    "montecarlo.samples": ("count", "higher"), "montecarlo.simulate_s": ("s", "lower"),
    "montecarlo.samples_per_s": ("1/s", "higher"),
    "montecarlo.empirical_cdf_s": ("s", "lower"), "montecarlo.mc_ser_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"), "trace.overhead_frac": ("ratio", "lower"),
}


def _points(x) -> int:
    return int(np.size(x))


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("l")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        self._main = threading.get_ident()
        self.mods = {m: importlib.import_module(f"twohop.{m}") for m in MODULES}

    # -- span recording ---------------------------------------------------

    def _open(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        index = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.start.append(time.perf_counter())
        self.end.append(0.0)
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.end[index] = time.perf_counter()
        self._stack.pop()

    def _inside(self, layer: str) -> bool:
        """Whether a span of ``layer`` is open (the caller's own span is closed)."""
        prefix = layer + "."
        return any(self.names[self.name_id[i]].startswith(prefix) for i in self._stack)

    def _parent_group(self) -> str | None:
        """Metric group of the innermost open span."""
        return _group(self.names[self.name_id[self._stack[-1]]]) if self._stack else None

    def _caller_layer(self) -> str:
        """Layer of the innermost open span outside numerics."""
        for index in reversed(self._stack):
            layer = self.names[self.name_id[index]].split(".", 1)[0]
            if layer != "numerics":
                return layer
        return "bench"

    def span(self, name: str, fn, count=None):
        """Wrap ``fn`` in a span; ``count(args, result)`` updates counters."""
        tracer = self

        def wrapper(*args, **kwargs):
            if threading.get_ident() != tracer._main:
                return fn(*args, **kwargs)
            index = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                tracer.counts[f"{name}:raised:{type(exc).__name__}"] += 1
                raise
            finally:
                tracer._close(index)
            if count is not None:
                count(args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def generator_span(self, name: str, fn):
        """Wrap generator function ``fn``: one span around each step."""
        tracer = self

        def wrapper(*args, **kwargs):
            inner = fn(*args, **kwargs)
            if threading.get_ident() != tracer._main:
                return inner

            def steps():
                while True:
                    index = tracer._open(name)
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        tracer._close(index)
                    yield item

            return steps()

        wrapper.__wrapped__ = fn
        return wrapper

    # -- installation -----------------------------------------------------

    def _replace_everywhere(self, original, wrapper) -> None:
        for module in self.mods.values():
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._saved.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def install(self) -> None:
        counts = self.counts
        numerics = self.mods["numerics"]
        original_finite = numerics.integrate_finite

        def integrate_finite(f, *args, **kwargs):
            layer = self._caller_layer()
            counter = f"{layer}.integrand"

            def integrand(x):
                counts["numerics.quad_rounds"] += 1
                return f(x)

            traced = self.span(counter, integrand)
            result = original_finite(traced, *args, **kwargs)
            counts["numerics.quad_evals"] += result.evaluations
            counts[f"numerics.quad_evals_for:{layer}"] += result.evaluations
            counts["numerics.quad_nonconverged"] += not result.converged
            return result

        def relay_points(args, result):
            counts["relay.cdf_points"] += _points(args[2])
            if self._inside("ser"):
                counts["relay.cdf_points_under_ser"] += _points(args[2])

        per_call = {
            "relay.end_to_end_cdf": relay_points,
            "numerics.regularized_lower_gamma": lambda a, r: counts.update(
                {"numerics.gammainc_points": _points(r)}),
            "montecarlo.simulate_hop": lambda a, r: counts.update(
                {"montecarlo.samples": _points(r)}),
        }
        for module_name, names in FUNCTIONS.items():
            module = self.mods[module_name]
            for fname in names:
                original = getattr(module, fname)
                inner = integrate_finite if fname == "integrate_finite" else original
                name = f"{module_name}.{fname}"
                wrapper = (self.generator_span(name, inner) if name in GENERATORS
                           else self.span(name, inner, per_call.get(name)))
                self._replace_everywhere(original, wrapper)

        fading = self.mods["fading"]
        for cls_name, methods in METHODS.items():
            cls = getattr(fading, cls_name)
            for method in methods:
                original = vars(cls)[method]
                name = f"fading.{cls_name}.{method}"
                kind = f"fading.{method}_points"
                wrapper = self.span(name, original,
                                    lambda a, r, kind=kind, g=_group(name):
                                    self._parent_group() == g
                                    or counts.update({kind: _points(a[1])}))
                self._saved.append((cls, method, original))
                setattr(cls, method, wrapper)

        relay = self.mods["relay"]
        real_warnings = relay.warnings

        class _CountingWarnings:
            def __getattr__(self, attr):
                return getattr(real_warnings, attr)

            @staticmethod
            def warn(message, *args, **kwargs):
                if "clamped" in str(message):
                    counts["relay.clamp_warnings"] += 1
                return real_warnings.warn(message, *args, **kwargs)

        self._saved.append((relay, "warnings", real_warnings))
        relay.warnings = _CountingWarnings()

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._saved):
            setattr(owner, attr, value)
        self._saved.clear()

    # -- reduction --------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Per-layer counters and times from the recorded spans."""
        n = len(self.start)
        nid = np.frombuffer(self.name_id, dtype=np.int64, count=n)
        parent = np.frombuffer(self.parent, dtype=np.int64, count=n)
        dur = np.frombuffer(self.end, count=n) - np.frombuffer(self.start, count=n)
        nested = parent >= 0
        child_time = np.bincount(parent[nested], weights=dur[nested], minlength=n)
        self_time = dur - child_time
        names = np.array(self.names + ["-"], dtype=object)
        group = np.array([_group(s) for s in names], dtype=object)[nid]
        layer = np.array([s.split(".", 1)[0] for s in names], dtype=object)[nid]
        parent_group = np.where(nested, group[np.maximum(parent, 0)], None)
        # Calls and inclusive times count the spans whose parent is in another
        # group, so MaxGammaSnr.cdf -> GammaSnr.cdf is one fading cdf call.
        outermost = group != parent_group
        span_name = names[nid]

        def calls(g):
            return int(np.count_nonzero((group == g) & outermost))

        def inclusive(g):
            return float(dur[(group == g) & outermost].sum())

        c = self.counts
        cdf_points = c["relay.cdf_points"]
        ser_calls = calls("ser.ser")
        samples = c["montecarlo.samples"]
        simulate_s = inclusive("montecarlo.simulate")
        out = {
            "cli.calls": calls("cli.cmd"),
            "cli.self_s": float(self_time[layer == "cli"].sum()),
            "scenario.load_calls": calls("scenario.load"),
            "scenario.load_s": inclusive("scenario.load"),
            "diversity.law_builds": calls("diversity.law"),
            "diversity.law_s": inclusive("diversity.law"),
        }
        for kind in ("cdf", "pdf"):
            out[f"fading.{kind}_calls"] = calls(f"fading.{kind}")
            out[f"fading.{kind}_points"] = c[f"fading.{kind}_points"]
            out[f"fading.{kind}_s"] = inclusive(f"fading.{kind}")
        out.update({
            "numerics.quad_calls": int(np.count_nonzero(span_name == "numerics.integrate_finite")),
            "numerics.quad_rounds": c["numerics.quad_rounds"],
            "numerics.quad_evals": c["numerics.quad_evals"],
            "numerics.quad_nonconverged": c["numerics.quad_nonconverged"],
            "numerics.quad_self_s": float(self_time[group == "numerics.quad"].sum()),
            "numerics.gammainc_calls": calls("numerics.gammainc"),
            "numerics.gammainc_points": c["numerics.gammainc_points"],
            "numerics.gammainc_s": inclusive("numerics.gammainc"),
            "numerics.q_calls": calls("numerics.q"),
            "numerics.q_s": inclusive("numerics.q"),
            "relay.cdf_calls": int(np.count_nonzero(span_name == "relay.end_to_end_cdf")),
            "relay.cdf_points": cdf_points,
            "relay.cdf_s": inclusive("relay.cdf"),
            "relay.cdf_self_s": float(self_time[(layer == "relay")
                                                & (group != "relay.eq_snr")].sum()),
            "relay.evals_per_cdf_point": (c["numerics.quad_evals_for:relay"] / cdf_points
                                          if cdf_points else 0.0),
            "relay.clamp_warnings": c["relay.clamp_warnings"],
            "relay.convergence_errors": c["relay.end_to_end_cdf:raised:ConvergenceError"],
            "ser.ser_calls": ser_calls,
            "ser.ser_s": inclusive("ser.ser"),
            "ser.ser_self_s": float(self_time[(layer == "ser") & (group != "ser.sep")].sum()),
            "ser.cdf_points_per_ser_point": (c["relay.cdf_points_under_ser"] / ser_calls
                                             if ser_calls else 0.0),
            "ser.nonconverged_points": c["ser.ser_from_cdf:raised:ConvergenceError"],
            "montecarlo.samples": samples,
            "montecarlo.simulate_s": simulate_s,
            "montecarlo.samples_per_s": samples / simulate_s if simulate_s else 0.0,
            "montecarlo.empirical_cdf_s": inclusive("montecarlo.empirical_cdf"),
            "montecarlo.mc_ser_s": inclusive("montecarlo.mc_ser"),
        })
        return out


_GROUPS = {
    "cli.cmd_": "cli.cmd",
    "scenario.load_scenario": "scenario.load",
    "diversity.effective_distribution": "diversity.law",
    "numerics.integrate_": "numerics.quad",
    "numerics.regularized_lower_gamma": "numerics.gammainc",
    "numerics.gaussian_q": "numerics.q",
    "relay.equivalent_snr": "relay.eq_snr",
    "relay.end_to_end_cdf": "relay.cdf",
    "ser.conditional_sep": "ser.sep",
    "ser.ser_from_cdf": "ser.ser",
    "montecarlo.simulate_": "montecarlo.simulate",
    "montecarlo.sweep_eq_samples": "montecarlo.simulate",
}


def _group(name: str) -> str:
    """Metric group of a span name (e.g. both integrate_* are numerics.quad)."""
    if name.startswith("fading."):
        return "fading." + name.rsplit(".", 1)[1]
    for prefix, group in _GROUPS.items():
        if name.startswith(prefix):
            return group
    return name
