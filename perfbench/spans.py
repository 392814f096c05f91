"""Spans around qest's public functions, installed from outside the library.

qest modules import each other's functions by name (`qest.simulate` calls
its own `build_optimal_povm`, `qest.povm` its own `hgm_bound`), so a wrapper
is installed in every qest module namespace that holds the function, and
removed again afterwards.  No library file changes.
"""

import functools
import json
import sys
import time

# (module, attribute) -> span name; the span name is "<layer>.<function>".
TRACED = {
    ("qest.model", "state_from_theta"): "model.state_from_theta",
    ("qest.fisher", "classical_fisher"): "fisher.classical_fisher",
    ("qest.fisher", "sld_fisher"): "fisher.sld_fisher",
    ("qest.bounds", "hgm_bound"): "bounds.hgm_bound",
    ("qest.bounds", "bound_report"): "bounds.bound_report",
    ("qest.bounds", "holevo_bound_k2"): "bounds.holevo_bound_k2",
    ("qest.povm", "build_optimal_povm"): "povm.build_optimal_povm",
    ("qest.povm", "build_optimal_estimator"): "povm.build_optimal_estimator",
    ("qest.povm", "verify_locally_unbiased"): "povm.verify_locally_unbiased",
    ("qest.region", "in_region_D"): "region.in_region_D",
    ("qest.region", "in_region_D3"): "region.in_region_D3",
    ("qest.region", "in_region_H"): "region.in_region_H",
    ("qest.simulate", "run"): "simulate.run",
    ("qest.simulate", "sample_outcomes"): "simulate.sample_outcomes",
}
# Methods are wrapped on their class.
TRACED_METHODS = {("qest.simulate", "SimConfig", "trial_rng"): "simulate.trial_rng"}


class Tracer:
    """Spans [name, start, end, parent index] of the calls made while enabled.

    Spans stay in memory; `write` saves them when the run is over.  Each op
    is a root span named "op", so every span traces back to its op.
    """

    def __init__(self):
        self.spans = []
        self._stack = []
        self._restore = []
        self.enabled = False

    def span(self, name, fn):
        """fn wrapped so that each call made while enabled records a span."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            index = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1])
            stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][2] = clock()

        return traced

    def install(self):
        modules = [m for key, m in sys.modules.items() if key == "qest" or key.startswith("qest.")]
        for (module, attr), name in TRACED.items():
            original = getattr(sys.modules[module], attr)
            wrapper = self.span(name, original)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, key, wrapper)
                        self._restore.append((m, key, original))
        for (module, cls, attr), name in TRACED_METHODS.items():
            owner = getattr(sys.modules[module], cls)
            original = owner.__dict__[attr]
            setattr(owner, attr, self.span(name, original))
            self._restore.append((owner, attr, original))

    def uninstall(self):
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()

    def run_op(self, run, op):
        """run(op) as one root "op" span."""
        self.enabled = True
        try:
            return self.span("op", run)(op)
        finally:
            self.enabled = False

    def layer_stats(self, scale_at):
        """name -> [calls, inclusive seconds, self seconds].

        The spans of each op are scaled by scale_at(start of the op).
        """
        scale, child = [], [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            scale.append(scale[parent] if parent >= 0 else scale_at(start))
            if parent >= 0:
                child[parent] += (end - start) * scale[-1]
        stats = {}
        for (name, start, end, _), factor, inner in zip(self.spans, scale, child):
            entry = stats.setdefault(name, [0, 0.0, 0.0])
            entry[0] += 1
            entry[1] += (end - start) * factor
            entry[2] += (end - start) * factor - inner
        return stats

    def write(self, path):
        """Spans as JSON: {"names": [...], "spans": [[name index, start s, end s, parent]]}."""
        names = sorted({s[0] for s in self.spans})
        index = {name: i for i, name in enumerate(names)}
        rows = [[index[n], round(a, 9), round(b, 9), p] for n, a, b, p in self.spans]
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            json.dump({"names": names, "spans": rows}, fh, separators=(",", ":"))
