"""Spans around the public functions of each qracdiscord module.

The tracer replaces module attributes with timing wrappers for the length
of a ``with tracer.installed():`` block, so calls between the package's
own modules go through the wrappers too. Nothing under ``src/`` changes.
Spans stay in memory and are written out once, at the end of a run.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time
from collections import defaultdict

# Public layer functions, by module. Tiny helpers that run inside every
# objective evaluation (sphere_point, as_bloch, unit_direction,
# golden_section_min) stay unwrapped: their time counts to the caller.
LAYERS = {
    "search": ("grid_search_gd", "refine_local", "sweep_planar", "sweep_preopt_plane",
               "witness_max_numeric"),
    "checks": ("run_checks",),
    "discord": ("quantum_discord", "conditional_entropy_grid", "conditional_ensemble",
                "conditional_ensemble_dense", "conditional_entropy", "discord_pre_opt",
                "mutual_information", "classical_correlation"),
    "optimize": ("refine_on_sphere", "sphere_grid"),
    "geodiscord": ("geometric_discord", "gd8_batch", "planar_gd_closed", "bloch_decompose"),
    "witness": ("witness_max_closed", "success_probability", "witness_value",
                "witness_vectors"),
    "encoding": ("encoding_states", "planar_rotation", "bloch_batch", "cq_state",
                 "reduced_qubit"),
    "linalg": ("eigvalsh3", "eigvalsh3_components", "density_spectrum", "vn_entropy",
               "shannon_entropy", "partial_trace"),
}

# Work counts read from return values at the same boundaries.
COUNTS = {
    "optimize.refine_on_sphere": lambda result: result[3],
    "search.grid_search_gd": lambda result: result.evaluations,
    "search.refine_local": lambda result: result.evaluations,
}

MODULES = ("cli", *LAYERS)


class Tracer:
    """In-memory span recorder.

    A span is (name, start_ns, end_ns, parent index, pass id); the parent
    is the span open on the same thread when this one started, -1 at the
    root. Spans of one workload pass share the pass id.
    """

    def __init__(self):
        self.spans: list = []
        self.counts: dict = defaultdict(int)
        self.pass_id = 0
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        count = COUNTS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, self.pass_id)
            if count is not None:
                self.counts[(self.pass_id, name)] += int(count(result))
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Route every qracdiscord call to a layer function through a span."""
        package = importlib.import_module("qracdiscord")
        modules = [package] + [importlib.import_module(f"qracdiscord.{m}") for m in MODULES]
        checks = importlib.import_module("qracdiscord.checks")
        originals = {}
        for layer, names in LAYERS.items():
            home = importlib.import_module(f"qracdiscord.{layer}")
            for fname in names:
                originals[id(getattr(home, fname))] = f"{layer}.{fname}"
        for check, fn in checks.CHECKS.items():
            originals[id(fn)] = f"checks.{check}"
        wrappers = {}
        restore = []
        for module in modules:
            for attr, value in list(vars(module).items()):
                name = originals.get(id(value)) if callable(value) else None
                if name is not None:
                    wrapped = wrappers.setdefault(id(value), self.wrap(name, value))
                    restore.append((module, attr, value))
                    setattr(module, attr, wrapped)
        saved_checks = dict(checks.CHECKS)
        for check, fn in saved_checks.items():
            checks.CHECKS[check] = wrappers.setdefault(id(fn), self.wrap(f"checks.{check}", fn))
        try:
            yield
        finally:
            for module, attr, value in restore:
                setattr(module, attr, value)
            checks.CHECKS.update(saved_checks)

    def pass_spans(self, pass_id: int) -> list[int]:
        return [i for i, s in enumerate(self.spans) if s[4] == pass_id]

    def durations_s(self, pass_id: int, name: str) -> list[float]:
        return [(s[2] - s[1]) * 1e-9 for s in self.spans if s[4] == pass_id and s[0] == name]

    def self_times_s(self, pass_id: int) -> dict:
        """Self time per module: each span's duration minus its children's."""
        child = defaultdict(int)
        for s in self.spans:
            if s[4] == pass_id and s[3] >= 0:
                child[s[3]] += s[2] - s[1]
        by_module = defaultdict(int)
        for i in self.pass_spans(pass_id):
            name, start, end = self.spans[i][:3]
            by_module[name.split(".", 1)[0]] += end - start - child[i]
        return {module: ns * 1e-9 for module, ns in by_module.items()}

    def write_csv(self, path, pass_names: dict) -> None:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("span,name,start_ns,end_ns,parent,pass\n")
            for i, (name, start, end, parent, pass_id) in enumerate(self.spans):
                fh.write(f"{i},{name},{start},{end},{parent},{pass_names[pass_id]}\n")

