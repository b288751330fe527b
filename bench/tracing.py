"""Spans around the calls into each tcqubits layer, recorded from outside the package.

The package's modules import names directly (`from .reduced import
analytic_elements`), so a call is intercepted by replacing the name in
the module where the caller looks it up, e.g. `tcqubits.cli.analytic_elements`
or `tcqubits.protocols.golden_section_max`. A span is
(op id, span id, parent span id, name, start ns, end ns); spans stay in
memory and are written out when the run ends.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import defaultdict

#: (calling module, attribute, span name). Span names are "<layer>.<function>".
SITES = (
    ("cli", "analytic_elements", "reduced.analytic_elements"),
    ("cli", "assemble_density", "reduced.assemble_density"),
    ("cli", "concurrence", "entanglement.concurrence"),
    ("cli", "fidelity", "entanglement.fidelity"),
    ("cli", "target", "entanglement.target"),
    ("cli", "compare_paths", "oracle.compare_paths"),
    ("cli", "bell1_plan", "protocols.bell1_plan"),
    ("cli", "bell2_plan", "protocols.bell2_plan"),
    ("cli", "werner_solve", "protocols.werner_solve"),
    ("cli", "verify_plan", "protocols.verify_plan"),
    ("cli", "number_state", "fock.number_state"),
    ("cli", "superpose", "fock.superpose"),
    ("cli", "coherent_state", "fock.coherent_state"),
    ("cli", "FieldState", "fock.FieldState"),
    ("protocols", "analytic_elements", "reduced.analytic_elements"),
    ("protocols", "assemble_density", "reduced.assemble_density"),
    ("protocols", "partial_trace", "reduced.partial_trace"),
    ("protocols", "concurrence", "entanglement.concurrence"),
    ("protocols", "fidelity", "entanglement.fidelity"),
    ("protocols", "target", "entanglement.target"),
    ("protocols", "apply_propagator", "propagator.apply_propagator"),
    ("protocols", "golden_section_max", "protocols.golden_section_max"),
    ("protocols", "number_state", "fock.number_state"),
    ("protocols", "superpose", "fock.superpose"),
    ("oracle", "apply_propagator", "propagator.apply_propagator"),
    ("oracle", "evolve_oracle", "oracle.evolve_oracle"),
    ("oracle", "analytic_elements", "reduced.analytic_elements"),
    ("oracle", "assemble_density", "reduced.assemble_density"),
    ("oracle", "partial_trace", "reduced.partial_trace"),
)

ROOT = "cli.main"

#: Per-operation metrics: name -> (span names, "ms" of self time or "calls").
LAYER_METRICS = {
    "cli.self_ms": ((ROOT,), "ms"),
    "fock.ms": (tuple(sorted({s for _, _, s in SITES if s.startswith("fock.")})), "ms"),
    "reduced.analytic_elements.ms": (("reduced.analytic_elements",), "ms"),
    "reduced.analytic_elements.calls": (("reduced.analytic_elements",), "calls"),
    "reduced.assemble_density.ms": (("reduced.assemble_density",), "ms"),
    "reduced.partial_trace.ms": (("reduced.partial_trace",), "ms"),
    "entanglement.concurrence.ms": (("entanglement.concurrence",), "ms"),
    "entanglement.concurrence.calls": (("entanglement.concurrence",), "calls"),
    "entanglement.fidelity.ms": (("entanglement.fidelity",), "ms"),
    "entanglement.fidelity.calls": (("entanglement.fidelity",), "calls"),
    "propagator.apply_propagator.ms": (("propagator.apply_propagator",), "ms"),
    "propagator.apply_propagator.calls": (("propagator.apply_propagator",), "calls"),
    "oracle.evolve_oracle.ms": (("oracle.evolve_oracle",), "ms"),
    "oracle.evolve_oracle.calls": (("oracle.evolve_oracle",), "calls"),
    "oracle.compare_paths.ms": (("oracle.compare_paths",), "ms"),
    "protocols.verify_plan.ms": (("protocols.verify_plan",), "ms"),
    "protocols.golden_section_max.ms": (("protocols.golden_section_max",), "ms"),
    "protocols.golden_section_max.calls": (("protocols.golden_section_max",), "calls"),
    "protocols.werner_solve.ms": (("protocols.werner_solve",), "ms"),
}


class Tracer:
    """Records spans while installed; `op` tags the spans of the current operation."""

    def __init__(self):
        self.spans = []
        self.op = -1
        self._stack = []
        self._next_id = 0
        self._saved = []

    def wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1] if stack else -1
            stack.append(span_id)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((self.op, span_id, parent, name, start, end))

        return traced

    def install(self):
        for module_name, attr, span in SITES:
            module = importlib.import_module(f"tcqubits.{module_name}")
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self.wrap(span, original))

    def uninstall(self):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def write(self, path):
        with open(path, "w") as handle:
            handle.write(json.dumps(["op", "span", "parent", "name", "start_ns", "end_ns"]) + "\n")
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")


def self_times(spans):
    """name -> (total self ns, calls); self time is duration minus direct children."""
    child_ns = defaultdict(int)
    for _, _, parent, _, start, end in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    totals = defaultdict(lambda: [0, 0])
    for _, span_id, _, name, start, end in spans:
        entry = totals[name]
        entry[0] += end - start - child_ns[span_id]
        entry[1] += 1
    return {name: tuple(v) for name, v in totals.items()}


def layer_metrics(spans, ops: int) -> dict:
    """Per-operation self milliseconds and call counts for LAYER_METRICS."""
    totals = self_times(spans)
    out = {}
    for metric, (names, kind) in LAYER_METRICS.items():
        ns = sum(totals.get(n, (0, 0))[0] for n in names)
        calls = sum(totals.get(n, (0, 0))[1] for n in names)
        out[metric] = ns / 1e6 / ops if kind == "ms" else calls / ops
    return out
