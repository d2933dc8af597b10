"""Benchmark of the qracdiscord CLI: sweep, search and checklist workloads.

Run from the repository root:

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 50 --trace 0
    python3 perfbench/run.py --workload all             # every workload, one table

With ``--trace 0`` it times untraced passes of the workload and prints the
end-to-end metrics (wall_s, setup_s, peak_rss_mb); with ``--trace 1`` it
makes the separate traced run and prints the per-layer metrics. Either way
the last line of output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``, and the exit code is 1 if any
output gate failed. perfbench/README.md describes the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
import time

from workloads import (NAMES, OUT, ROOT, SEARCH_CELLS, SRC, default_workers, nearest_rank,
                       setup_argv, status_kb)

WORKER = os.path.join(os.path.dirname(os.path.abspath(__file__)), "worker.py")
SETUP_CODE = (
    "import sys; sys.path.insert(0, sys.argv[1]); "
    "from qracdiscord.cli import run; sys.exit(run(sys.argv[2:]))"
)
# Set-up calls taken before each pass and after the last, so that they
# are spread over the run as the passes are.
SETUP_PER_GAP = 2
MIN_PASSES = 3
DEADLINE_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
UNIT_SUFFIXES = (
    ("_ns_per_cell", "ns/cell"), ("_ns_per_pair", "ns/pair"),
    ("_ns_per_matrix", "ns/matrix"), ("cells_per_s", "cells/s"), ("_rss_mb", "MB"),
    ("_ms", "ms"), ("_us", "us"), ("_s", "s"), ("_evals", "count"), ("efficiency", "ratio"),
)


class BenchError(RuntimeError):
    """A run that cannot produce a result."""


def unit_of(name: str) -> str:
    base = name.rsplit(".", 1)[0] if name.endswith((".p50", ".p90")) else name
    return next(unit for suffix, unit in UNIT_SUFFIXES if base.endswith(suffix))


def tail_percentile(values):
    """Highest nearest-rank percentile with at least ten samples beyond it,
    or None when no percentile from the median up has that many."""
    n = len(values)
    q = (100 * (n - 10)) // n
    return (q, nearest_rank(values, q)) if q >= 50 else None


def stamp(workers: int, seed: int, numpy_version: str) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")),
                       cpu)
    except OSError:
        pass
    revision = ""
    if (ROOT / ".git").exists():
        try:
            revision = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                      capture_output=True, text=True, timeout=10).stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "git_revision": revision or None,
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
        "workers": workers,
        "seed": seed,
    }


def descendants(pid: int) -> list[int]:
    parent_of = {}
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            try:
                with open(f"/proc/{entry}/stat", "rb") as fh:
                    fields = fh.read().rsplit(b")", 1)[1].split()
            except OSError:
                continue
            parent_of[int(entry)] = int(fields[1])
    found, frontier = [], [pid]
    while frontier:
        frontier = [child for child, parent in parent_of.items() if parent in frontier]
        found += frontier
    return found


class TreeSampler(threading.Thread):
    """Largest sum of memory high-water marks over the live descendants of
    a process, sampled from /proc. A high-water mark only grows, so a
    sample taken any time after a pool worker's peak still sees it."""

    def __init__(self, pid: int, interval: float = 0.1):
        super().__init__(daemon=True)
        self.pid, self.interval = pid, interval
        self.peak_kb = 0
        self.samples = 0
        self.done = threading.Event()

    def run(self):
        while not self.done.wait(self.interval):
            total = sum(status_kb("VmHWM", child) for child in descendants(self.pid))
            self.peak_kb = max(self.peak_kb, total)
            self.samples += 1


def kill_group(pid: int) -> None:
    """Kill a process started with its own session, with every process in it."""
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def run_worker(spec: dict, deadline: float) -> dict:
    """Run worker.py with ``spec`` to its end and return its result."""
    proc = subprocess.Popen([sys.executable, WORKER, json.dumps(spec)], stdout=subprocess.PIPE,
                            text=True, cwd=ROOT, start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker {spec['mode']} overran the deadline") from None
    finally:
        if proc.poll() is None:
            kill_group(proc.pid)
            proc.wait()
    return worker_result(spec, proc.returncode, stdout)


def worker_result(spec: dict, code: int, stdout: str) -> dict:
    if code != 0:
        raise BenchError(f"worker {spec['mode']} exited with code {code}")
    return json.loads(stdout.strip().splitlines()[-1])


def read_tagged(proc: subprocess.Popen, tag: str) -> str:
    """The rest of the worker's next output line that starts with ``tag``."""
    for line in iter(proc.stdout.readline, ""):
        if line.startswith(tag):
            return line[len(tag):].strip()
    raise BenchError(f"worker ended before {tag.strip()!r}, exit code {proc.wait()}")


def time_setup(name: str, workers: int, count: int, deadline: float) -> tuple[list[float], int]:
    """Fresh interpreters importing qracdiscord and making a minimal first call."""
    argv = setup_argv(name, workers, OUT / f"setup_{name}.out")
    times, failed = [], 0
    for _ in range(count):
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-c", SETUP_CODE, str(SRC), *argv], cwd=ROOT,
                                stdout=subprocess.DEVNULL, start_new_session=True)
        # A blocking wait returns at exit; wait(timeout) would poll in 50 ms steps.
        killer = threading.Timer(max(1.0, deadline - time.monotonic()), kill_group, (proc.pid,))
        killer.start()
        try:
            code = proc.wait()
        finally:
            killer.cancel()
        times.append(time.perf_counter() - start)
        if time.monotonic() >= deadline:
            raise BenchError("set-up call overran the deadline")
        failed += code != 0
    return times, failed


def run_passes(name: str, workers: int, seconds: float, deadline: float):
    """Untraced passes in one workload process, with set-up calls between them.

    The worker runs one pass for each line it reads and prints the pass
    time. Set-up calls are timed while it waits, so they see the same
    stretches of the run as the passes do. Returns the worker's result,
    the set-up times, the failed set-up calls and the memory sampler.
    """
    spec = {"mode": "passes", "workload": name, "workers": workers}
    proc = subprocess.Popen([sys.executable, WORKER, json.dumps(spec)], stdin=subprocess.PIPE,
                            stdout=subprocess.PIPE, text=True, cwd=ROOT, start_new_session=True)
    killer = threading.Timer(max(1.0, deadline - time.monotonic()), kill_group, (proc.pid,))
    sampler = TreeSampler(proc.pid)
    killer.start()
    sampler.start()
    setup, setup_failed, times = [], 0, []
    try:
        read_tagged(proc, "ready")
        while True:
            gap, failed = time_setup(name, workers, SETUP_PER_GAP, deadline)
            setup += gap
            setup_failed += failed
            if len(times) >= MIN_PASSES and sum(times) + statistics.median(times) > seconds:
                break
            proc.stdin.write("pass\n")
            proc.stdin.flush()
            times.append(float(read_tagged(proc, "pass ")))
        proc.stdin.close()
        stdout = proc.stdout.read()
        proc.wait()
    except BrokenPipeError:
        raise BenchError(f"worker passes ended early, exit code {proc.wait()}") from None
    finally:
        killer.cancel()
        if proc.poll() is None:
            kill_group(proc.pid)
            proc.wait()
        sampler.done.set()
        sampler.join()
    return worker_result(spec, proc.returncode, stdout), setup, setup_failed, sampler


def measure(name: str, args, workers: int, deadline: float) -> dict:
    """One run of one workload: end-to-end metrics, or per-layer ones if traced."""
    if args.trace:
        spec = {"mode": "trace", "workload": name, "workers": workers, "seed": args.seed}
        result = run_worker(spec, deadline)
        slab = run_worker({"mode": "slab", "seed": args.seed}, deadline)
        metrics = dict(result["metrics"])
        metrics["geodiscord.gd8_batch_slab_ns_per_cell"] = slab["slab_s"] / slab["cells"] * 1e9
        metrics["geodiscord.slab_peak_rss_mb"] = slab["slab_peak_rss_mb"]
        slabs = round(SEARCH_CELLS / slab["cells"])
        metrics["search.parallel_efficiency"] = (
            slabs * slab["slab_s"] / (workers * metrics["search.grid_s"]))
        result["attempted"] += slab["attempted"]
        result["failed"] += slab["failed"]
        result["samples"] = {}
    else:
        result, setup, setup_failed, sampler = run_passes(name, workers, args.seconds, deadline)
        result["attempted"] += len(setup)
        result["failed"] += setup_failed
        result["rss_samples"] = sampler.samples
        metrics = {
            "wall_s": statistics.median(result["times"]),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": result["self_hwm_mb"] + sampler.peak_kb / 1024.0,
        }
        result["samples"] = {"wall_s": result["times"], "setup_s": setup}
    result["metrics"] = metrics
    result["stamp"] = stamp(workers, args.seed, result["numpy"])
    return result


def describe(name: str, result: dict) -> list[str]:
    lines = [f"workload {name}: " + json.dumps(result["stamp"])]
    for metric, value in result["metrics"].items():
        note = ""
        samples = result["samples"].get(metric)
        if samples is not None:
            tail = tail_percentile(samples)
            note = f"median of n={len(samples)}; " + (
                f"p{tail[0]}={tail[1]:.6g}" if tail
                else "no tail percentile has 10 samples beyond it")
        elif metric == "peak_rss_mb":
            note = (f"workload process + pool children, sum of high-water marks; "
                    f"children sampled n={result['rss_samples']} times")
        lines.append(f"  {metric:<48} {value:>14.6g} {unit_of(metric):<9} {note}")
    frac = result["failed"] / result["attempted"]
    lines.append(f"  {'fail_frac':<48} {frac:>14.6g} {'share':<9} "
                 f"{result['failed']} of {result['attempted']} operations failed their gate")
    for problem in result["problems"]:
        lines.append(f"  FAILED {problem}")
    for fingerprint in result["fingerprints"]:
        lines.append(f"  fingerprint {json.dumps(fingerprint)}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=NAMES + ("all",), required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "qracdiscord" / "cli.py").is_file():
        print(f"error: no qracdiscord sources under {SRC}", file=sys.stderr)
        return 2
    workers = default_workers()
    OUT.mkdir(exist_ok=True)
    names = NAMES if args.workload == "all" else (args.workload,)
    deadline = time.monotonic() + DEADLINE_S * len(names)
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        try:
            result = measure(name, args, workers, deadline)
        except BenchError as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 1
        out_file = OUT / f"result_{name}_seed{args.seed}_trace{args.trace}.json"
        out_file.write_text(json.dumps(result, indent=2) + "\n", encoding="utf-8")
        print("\n".join(describe(name, result)), flush=True)
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        prefix = f"{name}." if len(names) > 1 else ""
        for metric, value in result["metrics"].items():
            summary["metrics"][prefix + metric] = {"value": value, "unit": unit_of(metric)}
    summary["correct"] = summary["failed"] == 0
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
