"""In-memory span tracer that instruments fidelityq from the outside.

Spans are recorded by wrapping module-level names where their callers look
them up (``fidelityq.model.queue_arrival_row``, ``fidelityq.solver.
bellman_backup``, ...), so the package itself carries no tracing code. A
name that no longer exists is reported as absent instead of failing the
run, so the benchmark keeps working when a later change removes or renames
a layer function.
"""

import contextlib
import functools
import importlib
import json
import time

# fidelityq's layer boundaries: (owner, attribute, span name). Each name is
# wrapped where its caller looks it up, e.g. ``cli.check`` calls
# ``fidelityq.cli.value_iteration`` while the benchmark calls
# ``fidelityq.solver.value_iteration``.
LAYER_SPANS = [
    ("fidelityq.config", "resolve_config", "config.resolve"),
    ("fidelityq.cli", "resolve_config", "config.resolve"),
    ("fidelityq.config", "build_model", "model.build"),
    ("fidelityq.model", "service_pmf", "sojourn.pmf"),
    ("fidelityq.model", "rest_pmf", "sojourn.pmf"),
    ("fidelityq.model", "wait_pmf", "sojourn.pmf"),
    ("fidelityq.model", "skip_pmf", "sojourn.pmf"),
    ("fidelityq.model", "step_powers", "cogchain.step_powers"),
    ("fidelityq.model", "queue_arrival_row", "model.arrival_row"),
    ("fidelityq.solver", "value_iteration", "solver.value_iteration"),
    ("fidelityq.cli", "value_iteration", "solver.value_iteration"),
    ("fidelityq.solver", "bellman_backup", "solver.backup"),
    ("fidelityq.solver", "policy_evaluation", "solver.policy_evaluation"),
    ("fidelityq.cli", "compute_rho", "structure.grade"),
    ("fidelityq.cli", "dominance_margins", "structure.grade"),
    ("fidelityq.cli", "check_value_gap_bounds", "structure.grade"),
    ("fidelityq.cli", "check_value_shape", "structure.grade"),
    ("fidelityq.cli", "verify_threshold_structure", "structure.grade"),
    ("fidelityq.simulate", "monte_carlo_value", "simulate.monte_carlo"),
    ("fidelityq.simulate.PolicySampler", "__init__", "simulate.sampler_init"),
    ("fidelityq.simulate.PolicySampler", "run_batch", "simulate.batch"),
    ("fidelityq.cli", "value_heatmap", "svgplot.heatmap"),
    ("fidelityq.cli", "policy_heatmap", "svgplot.heatmap"),
]


class Tracer:
    """Collects (name, parent, start, end) spans; parents form a tree."""

    def __init__(self):
        self.spans = []  # [name, parent index or -1, start, end]
        self._stack = []
        self.absent = []

    @contextlib.contextmanager
    def span(self, name):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, parent, time.perf_counter(), None])
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[idx][3] = time.perf_counter()

    def _wrap(self, fn, name):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    @contextlib.contextmanager
    def instrument(self, targets):
        """Wrap every ``(dotted owner, attribute, span name)`` in
        ``targets`` for the duration of the block, then restore them."""
        patched = []
        try:
            for owner_path, attr, name in targets:
                owner = _resolve(owner_path)
                original = getattr(owner, attr, None) if owner is not None else None
                if original is None:
                    self.absent.append(f"{owner_path}.{attr}")
                    continue
                setattr(owner, attr, self._wrap(original, name))
                patched.append((owner, attr, original))
            yield
        finally:
            for owner, attr, original in reversed(patched):
                setattr(owner, attr, original)

    # -- queries ------------------------------------------------------------

    def durations(self, name):
        return [s[3] - s[2] for s in self.spans if s[0] == name]

    def total(self, name):
        return sum(self.durations(name))

    def self_times(self, name):
        """Duration of each ``name`` span minus its direct children; child
        spans never overlap because calls nest."""
        child_time = {}
        for s in self.spans:
            if s[1] >= 0:
                child_time[s[1]] = child_time.get(s[1], 0.0) + (s[3] - s[2])
        return [
            (s[3] - s[2]) - child_time.get(i, 0.0)
            for i, s in enumerate(self.spans)
            if s[0] == name
        ]

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump({"absent": self.absent, "spans": self.spans}, fh)


def _resolve(dotted):
    """Import ``a.b`` or ``a.b.Class``; ``None`` if any part is missing."""
    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for attr in parts[cut:]:
            obj = getattr(obj, attr, None)
            if obj is None:
                return None
        return obj
    return None
