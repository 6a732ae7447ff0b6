"""Span recorder for the benchmark's traced run.

The recorder changes no file of bdld.  ``Tracer.install`` replaces each
traced public function at every attribute where a caller looks it up (the
defining module, the package namespace and every module that imported it),
and ``uninstall`` puts the originals back.

A span is ``[name, start, end, parent, op_id, child_s, note]``; ``child_s``
is the time covered by the span's children, so a span's self time is
``end - start - child_s``.  Functions called once per candidate event or per
quadrature node (the tilt's methods, the Lagrangian) are leaves: they are
counted and timed in aggregate per op, and their time is charged to the
enclosing span as child time, instead of recording one span per call.
"""

from __future__ import annotations

import functools
import inspect
import json
import time
from collections import defaultdict

LAYERS = ("chain", "evolve", "simulate", "tilting", "quadrature", "ldp",
          "optimal_paths", "serialize")

# Public entry points that get one span per call.  chain.jump_rates is left
# out: GeneratorMatrix.from_params calls it once per state.
SPANNED = {
    "chain": ("stationary_distribution", "harmonic_partial", "prefix_mass"),
    "evolve": ("endpoint_distribution", "evolve_distribution", "window_probability",
               "window_log_probability", "empirical_rate_curve",
               "stationary_dwell_probability"),
    "simulate": ("sample_path", "occupation_fractions", "lln_point_experiment",
                 "lln_stationary_experiment", "tilted_sample_path",
                 "tilted_window_experiment"),
    "quadrature": ("integrate",),
    "ldp": ("rate_functional", "rate_functional_report"),
    "optimal_paths": ("solve_boundary", "optimal_action", "dual_tilt",
                      "hamiltonian_residual"),
    "serialize": ("write_csv",),
}
SPANNED_METHODS = {"simulate": (("Trajectory", "to_csv"),),
                   "ldp": (("GridPath", "from_descriptor"),)}
LEAF_FUNCTIONS = {"ldp": ("lagrangian",)}
TILT_CLASSES = ("ConstantTilt", "ClosedFormDualTilt", "CallableTilt")
TILT_METHODS = ("value", "up_excess_integral", "down_excess_integral", "sup_bound")


def _argument(fn, name):
    signature = inspect.signature(fn)

    def get(args, kwargs):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        return bound.arguments[name]
    return get


def _notes(module_of):
    """What a few spans record besides their times, read from arguments and
    results after the call returns."""
    ev, sim = module_of["evolve"], module_of["simulate"]
    ev_params = _argument(ev.evolve_distribution, "params")
    ev_t = _argument(ev.evolve_distribution, "t")
    ev_tol = _argument(ev.evolve_distribution, "tol")
    csv_rows = _argument(module_of["serialize"].write_csv, "rows")

    def config_of(fn):
        get = _argument(fn, "config")
        return lambda a, k, r: get(a, k).replications

    def tilted(a, k, r):
        traj = r.trajectory
        final = int(traj.states_after_jump[-1]) if traj.n_jumps else traj.initial_state
        return (r.log_weight, final, traj.n_jumps)

    def rows(a, k, r):
        value = csv_rows(a, k)
        return len(value) if hasattr(value, "__len__") else None

    return {
        "evolve.evolve_distribution":
            lambda a, k, r: (ev_params(a, k).n_states, ev_params(a, k).lam,
                             ev_t(a, k), ev_tol(a, k)),
        "evolve.window_log_probability": lambda a, k, r: r,
        "simulate.sample_path": lambda a, k, r: r.n_jumps,
        "simulate.tilted_sample_path": tilted,
        "simulate.lln_point_experiment": config_of(sim.lln_point_experiment),
        "simulate.lln_stationary_experiment": config_of(sim.lln_stationary_experiment),
        "simulate.tilted_window_experiment": config_of(sim.tilted_window_experiment),
        "quadrature.integrate": lambda a, k, r: r.n_intervals,
        "serialize.write_csv": rows,
    }


class Tracer:
    """Spans and leaf counters of one traced pass; ``op_id`` tags the spans
    of the op being run."""

    FIELDS = ("name", "start", "end", "parent", "op_id", "child_s", "note")

    def __init__(self, package):
        self.package = package
        self.modules = {layer: getattr(package, layer) for layer in LAYERS}
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op_id = -1
        self.leaf_calls: dict[str, int] = defaultdict(int)
        self.leaf_s: dict[tuple[str, int], float] = defaultdict(float)  # by (name, op_id)
        self._undo: list[tuple] = []

    # -- wrappers ---------------------------------------------------------

    def span(self, name, fn, note=None):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            record = [name, 0.0, 0.0, parent, self.op_id, 0.0, None]
            stack.append(len(spans))
            spans.append(record)
            record[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                record[2] = end
                stack.pop()
                if parent >= 0:
                    spans[parent][5] += end - record[1]
            if note is not None:
                record[6] = note(args, kwargs, result)
            return result
        return wrapper

    def leaf(self, name, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        calls, seconds = self.leaf_calls, self.leaf_s

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                calls[name] += 1
                seconds[name, self.op_id] += elapsed
                if stack:
                    spans[stack[-1]][5] += elapsed
        return wrapper

    # -- installation -----------------------------------------------------

    def _replace_everywhere(self, original, replacement) -> None:
        for module in (self.package, *self.modules.values()):
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)
                    self._undo.append((module, attr, original))

    def _replace_attr(self, owner, attr, replacement) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        notes = _notes(self.modules)
        for layer, names in SPANNED.items():
            module = self.modules[layer]
            for name in names:
                label = f"{layer}.{name}"
                original = getattr(module, name)
                self._replace_everywhere(original, self.span(label, original, notes.get(label)))
        for layer, names in LEAF_FUNCTIONS.items():
            for name in names:
                original = getattr(self.modules[layer], name)
                self._replace_everywhere(original, self.leaf(f"{layer}.{name}", original))
        for layer, pairs in SPANNED_METHODS.items():
            for cls_name, attr in pairs:
                cls = getattr(self.modules[layer], cls_name)
                raw = cls.__dict__[attr]
                label = f"{layer}.{cls_name}.{attr}"
                if isinstance(raw, classmethod):
                    self._replace_attr(cls, attr, classmethod(self.span(label, raw.__func__)))
                else:
                    self._replace_attr(cls, attr, self.span(label, raw))
        for cls_name in TILT_CLASSES:
            cls = getattr(self.modules["tilting"], cls_name)
            for attr in TILT_METHODS:
                self._replace_attr(cls, attr, self.leaf(f"tilting.{attr}", cls.__dict__[attr]))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- results ----------------------------------------------------------

    def layer_self_time(self, scale=None) -> dict[str, float]:
        """Self time per layer; op spans count as the ``loop`` layer.
        ``scale[op_id]``, if given, multiplies the time spent in each op."""
        factor = (lambda op_id: 1.0) if scale is None else (lambda op_id: scale[op_id])
        totals = defaultdict(float)
        for name, start, end, _, op_id, child_s, _ in self.spans:
            totals[name.split(".", 1)[0]] += (end - start - child_s) * factor(op_id)
        for (name, op_id), seconds in self.leaf_s.items():
            totals[name.split(".", 1)[0]] += seconds * factor(op_id)
        return totals

    def write(self, path) -> None:
        leaf_s = defaultdict(float)
        for (name, _), seconds in self.leaf_s.items():
            leaf_s[name] += seconds
        with open(path, "w") as fh:
            json.dump({"fields": self.FIELDS, "spans": self.spans,
                       "leaves": {name: [self.leaf_calls[name], leaf_s[name]]
                                  for name in sorted(self.leaf_calls)}},
                      fh, default=repr)
            fh.write("\n")
