"""Spans around the layer boundaries of ionstring, from outside the package.

``Tracer.installed`` replaces every public function defined in each layer
module with a wrapper that records a span, plus the scipy entry points
the layers look up as module globals (``sequences.least_squares``,
``dynamics.expm_multiply``). Calls from one module to another go
through the module attribute, so they are seen; so are calls inside a
module, which look the name up in the module globals. Spans are kept in
memory; ``Tracer.dump`` writes them out when the run ends.

A span is ``[id, parent, job, name, layer, start, end, error, extra]``;
start and end are process CPU times, like the job times of the timed run.
Ids grow with start time, so a child always has a larger id than its
parent.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import time
from collections import Counter
from contextlib import contextmanager

LAYERS = ("chain", "coupling", "dynamics", "entanglement", "sequences", "motion", "stochastics", "export", "cli")
# scipy functions the layers call through a module global of their own
ENTRY_POINTS = (("sequences", "least_squares"), ("dynamics", "expm_multiply"))
# Names the per-layer metrics refer to; one missing is reported absent.
NAMED = (
    "sequences.sense", "sequences.least_squares",
    "dynamics.evolve", "dynamics.build_hamiltonian", "dynamics.expm_multiply",
    "entanglement.simulate_tomography",
    "motion.quantum_cpmg_scan", "motion.thermal_excitation",
    "chain.equilibrium_positions",
    "cli.run_experiment", "cli.emit_figure_data",
)

ID, PARENT, JOB, NAME, LAYER, START, END, ERROR, EXTRA = range(9)

# Per-layer metrics reported by a traced run: (name, unit, better).
# Counts and times are per traced round; every round of a workload
# has the same job mix.
PER_LAYER = (
    ("sequences.calls", "count/round", "lower"),
    ("sequences.busy_s", "s/round", "lower"),
    ("sequences.sense.calls", "count/round", "lower"),
    ("sequences.sense.busy_s", "s/round", "lower"),
    ("sequences.fit_starts", "count/round", "lower"),
    ("sequences.fit_nfev", "count/round", "lower"),
    ("sequences.fit_useful_ratio", "ratio", "higher"),
    ("sequences.sense_skipped", "count/round", "lower"),
    ("dynamics.calls", "count/round", "lower"),
    ("dynamics.busy_s", "s/round", "lower"),
    ("dynamics.evolve.calls", "count/round", "lower"),
    ("dynamics.build_hamiltonian.calls", "count/round", "lower"),
    ("dynamics.build_hamiltonian.busy_s", "s/round", "lower"),
    ("dynamics.expm_multiply.calls", "count/round", "lower"),
    ("dynamics.expm_multiply.busy_s", "s/round", "lower"),
    ("dynamics.state_dim_total", "count/round", "lower"),
    ("entanglement.calls", "count/round", "lower"),
    ("entanglement.busy_s", "s/round", "lower"),
    ("entanglement.simulate_tomography.busy_s", "s/round", "lower"),
    ("motion.calls", "count/round", "lower"),
    ("motion.busy_s", "s/round", "lower"),
    ("motion.quantum_cpmg_scan.busy_s", "s/round", "lower"),
    ("motion.fock_pulse_applications", "count/round", "lower"),
    ("motion.max_leak", "probability", "lower"),
    ("motion.thermal_excitation.calls", "count/round", "lower"),
    ("chain.calls", "count/round", "lower"),
    ("chain.busy_s", "s/round", "lower"),
    ("chain.errors", "count/round", "lower"),
    ("chain.equilibrium_positions.busy_s", "s/round", "lower"),
    ("coupling.calls", "count/round", "lower"),
    ("coupling.busy_s", "s/round", "lower"),
    ("stochastics.calls", "count/round", "lower"),
    ("stochastics.busy_s", "s/round", "lower"),
    ("export.calls", "count/round", "lower"),
    ("export.busy_s", "s/round", "lower"),
    ("export.bytes_written", "bytes/round", "lower"),
    ("cli.self_s", "s/round", "lower"),
    ("error_rate", "ratio", "lower"),
    ("trace.overhead_s", "s/round", "lower"),
)

# Starts whose cost is within this relative distance of the best cost
# of their sense call count as useful.
USEFUL_REL_TOL = 1e-6


def _least_squares_extra(args, kwargs, result):
    return {"cost": float(result.cost), "nfev": int(result.nfev)}


def _expm_multiply_extra(args, kwargs, result):
    operand = kwargs.get("B", args[1] if len(args) > 1 else None)
    return {"dim": int(operand.shape[0])}


def _fock_levels(cutoff: int, nbar: float, initial_fock, thermal_tail: float) -> int:
    """Initial Fock levels evolved, from the scan inputs alone."""
    if initial_fock is not None:
        return 1
    hard_cap = max(0, cutoff - 50)  # the scan keeps 50 levels of margin
    if nbar == 0:
        return 1
    # thermal cumulative weight 1 - r^(n+1) first reaches 1 - tail at n
    r = nbar / (nbar + 1.0)
    n_top = 0
    cumulative = 1.0 - r
    while cumulative < 1.0 - thermal_tail and n_top < hard_cap:
        n_top += 1
        cumulative = 1.0 - r ** (n_top + 1)
    return n_top + 1


def _scan_extra(signature):
    def extra(args, kwargs, result):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        a = bound.arguments
        params = a["params"]
        levels = _fock_levels(params.fock_cutoff, params.nbar, a.get("initial_fock"), a.get("thermal_tail", 1e-4))
        points = len(result.t_wait)
        return {
            "pulse_applications": (params.fock_cutoff + 1) * levels * points * (a["n_pulses"] + 2),
            "max_leak": float(result.max_leak),
        }

    return extra


def _export_extra(signature):
    def extra(args, kwargs, result):
        bound = signature.bind(*args, **kwargs)
        path = bound.arguments.get("path")
        if path is None or not os.path.exists(path):
            return None
        return {"bytes": os.path.getsize(path)}

    return extra


class Tracer:
    """Records spans of wrapped calls; one instance per traced run."""

    def __init__(self):
        self.spans: list[list] = []
        self.job = None
        self.wrapped: list[str] = []
        self.absent: list[str] = []
        self._stack: list[int] = []

    def _wrap(self, fn, name: str, layer: str, extra):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [len(spans), stack[-1] if stack else None, self.job, name, layer, time.process_time(), 0.0, None, None]
            spans.append(span)
            stack.append(span[ID])
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[ERROR] = type(exc).__name__
                raise
            finally:
                span[END] = time.process_time()
                stack.pop()
            if extra is not None:
                try:
                    span[EXTRA] = extra(args, kwargs, result)
                except Exception as exc:  # a counter that no longer fits must not fail the job
                    span[EXTRA] = {"counter_error": repr(exc)}
            return result

        return traced

    def _targets(self):
        """(module, attribute, span name, layer, extra) for every wrap."""
        for layer in LAYERS:
            module = importlib.import_module(f"ionstring.{layer}")
            for attr, obj in sorted(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(obj) or obj.__module__ != module.__name__:
                    continue
                name = f"{layer}.{attr}"
                extra = None
                if name == "motion.quantum_cpmg_scan":
                    extra = _scan_extra(inspect.signature(obj))
                elif layer == "export" and "path" in inspect.signature(obj).parameters:
                    extra = _export_extra(inspect.signature(obj))
                yield module, attr, name, layer, extra
        for layer, attr in ENTRY_POINTS:
            module = importlib.import_module(f"ionstring.{layer}")
            if callable(getattr(module, attr, None)):
                extra = _least_squares_extra if attr == "least_squares" else _expm_multiply_extra
                yield module, attr, f"{layer}.{attr}", layer, extra

    @contextmanager
    def installed(self):
        """Wrap the layer functions for the duration of the block."""
        originals = []
        self.wrapped = []
        try:
            for module, attr, name, layer, extra in self._targets():
                original = getattr(module, attr)
                originals.append((module, attr, original))
                setattr(module, attr, self._wrap(original, name, layer, extra))
                self.wrapped.append(name)
            self.absent = [name for name in NAMED if name not in self.wrapped]
            yield self
        finally:
            for module, attr, original in reversed(originals):
                setattr(module, attr, original)

    def dump(self, path) -> None:
        fields = ("id", "parent", "job", "name", "layer", "start", "end", "error", "extra")
        with open(path, "w") as handle:
            json.dump(
                {"fields": fields, "absent": self.absent, "spans": self.spans},
                handle,
            )


def _is_entry(span, by_id) -> bool:
    """True for a span called from another layer, or from outside."""
    parent = by_id.get(span[PARENT])
    return parent is None or parent[LAYER] != span[LAYER]


def self_times(spans) -> tuple[dict, dict]:
    """Busy (self) time per layer and per span name.

    A span's self time is its duration minus the time covered by child
    spans of *other* layers; a same-layer child's own other-layer
    children are subtracted through it. A layer's busy time sums the
    self time of its entry spans (those whose parent is in another
    layer or absent), so nested same-layer calls are not counted twice
    and the layers' busy times add up to the root spans' duration.
    """
    by_id = {span[ID]: span for span in spans}
    covered = {span[ID]: 0.0 for span in spans}
    for span in sorted(spans, key=lambda s: s[ID], reverse=True):
        parent = by_id.get(span[PARENT])
        if parent is None:
            continue
        if parent[LAYER] == span[LAYER]:
            covered[parent[ID]] += covered[span[ID]]
        else:
            covered[parent[ID]] += span[END] - span[START]
    by_layer: dict[str, float] = {}
    by_name: dict[str, float] = {}
    for span in spans:
        own = span[END] - span[START] - covered[span[ID]]
        by_name[span[NAME]] = by_name.get(span[NAME], 0.0) + own
        if _is_entry(span, by_id):
            by_layer[span[LAYER]] = by_layer.get(span[LAYER], 0.0) + own
    return by_layer, by_name


def layer_metrics(spans, rounds: int) -> dict[str, float]:
    """Every PER_LAYER metric except the run-level ones, per round."""
    by_id = {span[ID]: span for span in spans}
    by_layer, by_name = self_times(spans)
    calls = Counter(span[NAME] for span in spans)
    entries = Counter(span[LAYER] for span in spans if _is_entry(span, by_id))

    def extras(name, key):
        return [span[EXTRA][key] for span in spans if span[NAME] == name and key in (span[EXTRA] or {})]

    starts_by_sense: dict[int, list[float]] = {}
    for span in spans:
        parent = by_id.get(span[PARENT])
        if span[NAME] == "sequences.least_squares" and parent is not None and parent[NAME] == "sequences.sense":
            if "cost" in (span[EXTRA] or {}):
                starts_by_sense.setdefault(parent[ID], []).append(span[EXTRA]["cost"])
    fit_total = sum(len(costs) for costs in starts_by_sense.values())
    fit_useful = 0
    for costs in starts_by_sense.values():
        best = min(costs)
        fit_useful += sum(1 for c in costs if c <= best * (1.0 + USEFUL_REL_TOL))

    totals = {
        "sequences.fit_starts": calls.get("sequences.least_squares", 0),
        "sequences.fit_nfev": sum(extras("sequences.least_squares", "nfev")),
        "sequences.sense_skipped": sum(
            1 for span in spans if span[NAME] == "sequences.sense" and span[ERROR] == "FitError"
        ),
        "dynamics.state_dim_total": sum(extras("dynamics.expm_multiply", "dim")),
        "motion.fock_pulse_applications": sum(extras("motion.quantum_cpmg_scan", "pulse_applications")),
        "chain.errors": sum(1 for span in spans if span[LAYER] == "chain" and span[ERROR] and _is_entry(span, by_id)),
        # write_mode_spectrum_csv calls write_csv: count entry spans only
        "export.bytes_written": sum(
            span[EXTRA]["bytes"]
            for span in spans
            if span[LAYER] == "export" and "bytes" in (span[EXTRA] or {}) and _is_entry(span, by_id)
        ),
        "cli.self_s": by_layer.get("cli", 0.0),
    }
    for layer in LAYERS:
        totals[f"{layer}.calls"] = entries.get(layer, 0)
        totals[f"{layer}.busy_s"] = by_layer.get(layer, 0.0)
    for name, unit, _ in PER_LAYER:
        stem, _, field = name.rpartition(".")
        if stem.count(".") == 1 and field in ("calls", "busy_s"):
            totals[name] = calls.get(stem, 0) if field == "calls" else by_name.get(stem, 0.0)
    out = {name: value / rounds for name, value in totals.items()}
    out["sequences.fit_useful_ratio"] = fit_useful / fit_total if fit_total else 0.0
    leaks = extras("motion.quantum_cpmg_scan", "max_leak")
    out["motion.max_leak"] = max(leaks) if leaks else 0.0
    return out


def function_table(spans) -> list[tuple[str, int, float]]:
    """(name, calls, self seconds) for every span name seen, by self time."""
    _, by_name = self_times(spans)
    calls = Counter(span[NAME] for span in spans)
    return sorted(((n, calls[n], by_name[n]) for n in calls), key=lambda row: -row[2])
