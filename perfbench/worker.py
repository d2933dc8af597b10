"""The workload process: runs passes of one workload through ``qracdiscord.cli.run``.

Started by run.py in a fresh interpreter, so that its memory high-water
mark belongs to the workload alone. Takes one JSON argument and prints
one JSON object as its last line of output. Modes:

- ``passes``: one untraced timed pass per line read from stdin, each
  pass time printed as it ends;
- ``trace``: untraced and traced passes of the workload in turn, traced
  passes of the other two workloads, and the in-process layer probes;
- ``slab``: one lattice slab through gd8_batch, with its memory peak.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import statistics
import sys
import time

from workloads import (CHECKLIST, NAMES, OUT, SRC, gate, job_argv, nearest_rank, setup_argv,
                       status_kb)

sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

from qracdiscord import cli  # noqa: E402

# Untraced/traced pass pairs behind trace.overhead_s.
OVERHEAD_PAIRS = 3

# Self times reported per workload, by module: the modules each job calls.
SELF_LAYERS = {
    "sweep": ("cli", "search", "discord", "optimize", "geodiscord", "witness", "encoding",
              "linalg"),
    "search": ("cli", "search", "geodiscord", "witness", "encoding", "linalg"),
    "checklist": ("cli", "checks", "search", "discord", "optimize", "geodiscord", "witness",
                  "encoding", "linalg"),
}


def self_hwm_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Passes:
    """Runs and gates passes of the workloads, tallying operations."""

    def __init__(self, workers: int):
        self.workers = workers
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.fingerprints: list[dict] = []

    def out_path(self, name: str):
        suffix = {"sweep": ".csv", "search": ".json"}.get(name, ".txt")
        return OUT / f"{name}{suffix}"

    def call(self, argv, run=cli.run) -> tuple[int, str, float]:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            start = time.perf_counter()
            code = run(argv)
            seconds = time.perf_counter() - start
        return code, buf.getvalue(), seconds

    def warm_up(self, name: str) -> None:
        code, _, _ = self.call(setup_argv(name, self.workers, self.out_path(name)))
        self.tally(name, 1, 0 if code == 0 else 1, [f"{name} warm-up exit code {code}"], {})

    def run(self, name: str, run=cli.run) -> float:
        out = self.out_path(name)
        code, stdout, seconds = self.call(job_argv(name, self.workers, out), run)
        result = gate(name, code, stdout, out)
        self.tally(name, result.attempted, result.failed, result.problems, result.fingerprint)
        return seconds

    def tally(self, name, attempted, failed, problems, fingerprint):
        self.attempted += attempted
        self.failed += failed
        if failed:
            self.problems += [f"{name}: {p}" for p in problems]
        if fingerprint and fingerprint not in self.fingerprints:
            self.fingerprints.append(fingerprint)

    def report(self, **extra) -> dict:
        return {"attempted": self.attempted, "failed": self.failed, "numpy": np.__version__,
                "problems": self.problems[:20], "fingerprints": self.fingerprints, **extra}


def mode_passes(spec: dict) -> dict:
    """Untraced passes, one for each line on stdin, until stdin closes."""
    name = spec["workload"]
    runner = Passes(spec["workers"])
    runner.warm_up(name)
    times: list[float] = []
    print("ready", flush=True)
    for _ in iter(sys.stdin.readline, ""):
        times.append(runner.run(name))
        print(f"pass {times[-1]!r}", flush=True)
    return runner.report(times=times, self_hwm_mb=self_hwm_mb())


def _median(values) -> float:
    """Median, or 0.0 when the layer was never called."""
    return statistics.median(values) if values else 0.0


def mode_trace(spec: dict) -> dict:
    from probes import probe_discord, probe_kernels, probe_scalar
    from tracing import Tracer

    name, seed = spec["workload"], spec["seed"]
    runner = Passes(spec["workers"])
    runner.warm_up(name)
    # Untraced and traced passes alternate, so that a slow stretch of the
    # machine falls on both kinds; only the last traced pass keeps its spans.
    untraced, traced = [], []
    for _ in range(OVERHEAD_PAIRS):
        untraced.append(runner.run(name))
        tracer = Tracer()
        root = tracer.wrap("cli.run", cli.run)
        with tracer.installed():
            traced.append(runner.run(name, run=root))
    pass_of = {name: tracer.pass_id}
    for job in NAMES:
        if job != name:
            tracer.pass_id = pass_of[job] = len(pass_of)
            with tracer.installed():
                runner.run(job, run=root)

    m = {}
    own = pass_of[name]
    root_index = next(i for i, s in enumerate(tracer.spans) if s[4] == own and s[0] == "cli.run")
    root_span = tracer.spans[root_index]
    root_s = (root_span[2] - root_span[1]) * 1e-9
    children_s = sum((s[2] - s[1]) * 1e-9 for s in tracer.spans if s[3] == root_index)
    m["cli.overhead_ms"] = (root_s - children_s) * 1e3
    m["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)

    sweep = pass_of["sweep"]
    qd_ms = [s * 1e3 for s in tracer.durations_s(sweep, "discord.quantum_discord")]
    m["discord.quantum_discord_ms.p50"] = _median(qd_ms)
    m["discord.quantum_discord_ms.p90"] = nearest_rank(qd_ms, 90) if qd_ms else 0.0
    # The scan is the entropy-grid call made directly by quantum_discord;
    # the refinement's calls sit under refine_on_sphere.
    qd_spans = {i for i in tracer.pass_spans(sweep)
                if tracer.spans[i][0] == "discord.quantum_discord"}
    m["discord.scan_ms"] = _median([(s[2] - s[1]) * 1e-6 for s in tracer.spans
                                    if s[0] == "discord.conditional_entropy_grid"
                                    and s[3] in qd_spans])
    m["optimize.refine_ms"] = _median(
        [s * 1e3 for s in tracer.durations_s(sweep, "optimize.refine_on_sphere")])
    m["optimize.refine_evals"] = tracer.counts[(sweep, "optimize.refine_on_sphere")]

    search = pass_of["search"]
    grid_s = sum(tracer.durations_s(search, "search.grid_search_gd"))
    m["search.grid_s"] = grid_s
    m["search.cells_per_s"] = tracer.counts[(search, "search.grid_search_gd")] / grid_s
    m["search.refine_s"] = sum(tracer.durations_s(search, "search.refine_local"))
    m["search.refine_evals"] = tracer.counts[(search, "search.refine_local")]

    checklist = pass_of["checklist"]
    for check in CHECKLIST:
        m[f"checks.{check}_s"] = sum(tracer.durations_s(checklist, f"checks.{check}"))

    for job, pass_id in pass_of.items():
        self_times = tracer.self_times_s(pass_id)
        for module in SELF_LAYERS[job]:
            m[f"self.{job}.{module}_s"] = self_times.get(module, 0.0)

    spans_file = OUT / f"trace_{name}_seed{seed}.csv"
    tracer.write_csv(spans_file, {pass_id: job for job, pass_id in pass_of.items()})
    del tracer

    for probe, rng in zip((probe_discord, probe_kernels, probe_scalar),
                          np.random.default_rng(seed).spawn(3)):
        metrics, attempted, failed = probe(rng)
        m.update(metrics)
        runner.tally(probe.__name__, attempted, failed, ["output outside its bounds"], {})
    return runner.report(metrics=m, untraced_s=untraced, traced_s=traced,
                         spans_file=str(spans_file))


def mode_slab(spec: dict) -> dict:
    from probes import probe_slab

    before_kb = status_kb("VmRSS")
    seconds, cells, failed = probe_slab(np.random.default_rng(spec["seed"]))
    peak_kb = status_kb("VmHWM")
    return {"attempted": 1, "failed": failed, "slab_s": seconds, "cells": cells,
            "slab_peak_rss_mb": (peak_kb - before_kb) / 1024.0}


def main() -> None:
    spec = json.loads(sys.argv[1])
    if not cli.__file__.startswith(str(SRC)):
        raise SystemExit(f"imported {cli.__file__}, expected a module under {SRC}")
    OUT.mkdir(exist_ok=True)
    mode = {"passes": mode_passes, "trace": mode_trace, "slab": mode_slab}[spec["mode"]]
    result = mode(spec)
    sys.stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main()
