"""The three benchmark workloads: CLI argument lists, set-up calls and output gates.

Every workload is a fixed input from the paper, run through the shipped CLI:

- ``sweep``: the symmetric-rotation sweep that draws the paper's figure;
- ``search``: the six-angle lattice search at step pi/10 with refinement;
- ``checklist``: ``reproduce`` limited to the nine reference checks that the
  other two workloads do not already run.

A gate decides whether one pass produced correct output. Fingerprints
(the sweep CSV digest, the search winner) are recorded but never gated on.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import re
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"

NAMES = ("sweep", "search", "checklist")

# reproduce minus grid_search_coarse (run by `search`) and sweep_monotonic
# (run by `sweep`); fixed by name so a new check does not change the workload.
CHECKLIST = (
    "qd_optimal",
    "gd_optimal",
    "witness_optimal",
    "planar_closed_form",
    "classical_point",
    "reference_points",
    "random_bounds",
    "dense_oracle",
    "plane_curve",
)

# Each search pool worker peaks near 0.7 GB; the cap bounds the whole tree
# to about 3 GB on machines with many cores.
MAX_WORKERS = 4

SWEEP_STEPS = 101
SEARCH_CELLS = 20**6
GATE_TOL = 1e-9


def default_workers() -> int:
    """Pool size for ``search``: the usable cores, capped at MAX_WORKERS."""
    return max(1, min(len(os.sched_getaffinity(0)), MAX_WORKERS))


def status_kb(field: str, pid="self") -> int:
    """A ``Vm*`` field of /proc/<pid>/status in kB, 0 if the process is gone."""
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith(field + ":"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def nearest_rank(values, q: int) -> float:
    """The q-th percentile by nearest rank: the smallest value with at
    least q% of the values at or below it."""
    ordered = sorted(values)
    return ordered[max(1, -(-len(ordered) * q // 100)) - 1]


def job_argv(name: str, workers: int, out_path: Path) -> list[str]:
    """CLI arguments of one full pass of a workload."""
    if name == "sweep":
        return ["sweep", "--from", "0", "--to", "0.125pi", "--steps", str(SWEEP_STEPS),
                "--out", str(out_path)]
    if name == "search":
        return ["search", "--step", "0.1pi", "--refine", "--workers", str(workers),
                "--out", str(out_path)]
    if name == "checklist":
        return ["reproduce"] + [arg for check in CHECKLIST for arg in ("--only", check)]
    raise ValueError(f"unknown workload {name!r}")


def setup_argv(name: str, workers: int, out_path: Path) -> list[str]:
    """CLI arguments of the workload's first call on a minimal input."""
    if name == "sweep":
        return ["sweep", "--from", "0", "--to", "0.125pi", "--steps", "2", "--out", str(out_path)]
    if name == "search":
        # 2^6 cells; the pool still starts with the workload's worker count.
        return ["search", "--step", "1pi", "--workers", str(workers), "--out", str(out_path)]
    if name == "checklist":
        return ["reproduce", "--only", "gd_optimal"]
    raise ValueError(f"unknown workload {name!r}")


@dataclass
class GateResult:
    """Outcome of gating one pass: operations attempted and failed, why, and
    the fingerprints recorded for later comparison."""

    attempted: int
    failed: int
    problems: list[str] = field(default_factory=list)
    fingerprint: dict = field(default_factory=dict)


def gate(name: str, code: int, stdout: str, out_path: Path) -> GateResult:
    """Check one pass's output against the workload's correctness gate."""
    if name == "sweep":
        return _gate_sweep(code, out_path)
    if name == "search":
        return _gate_search(code, out_path)
    if name == "checklist":
        return _gate_checklist(code, stdout)
    raise ValueError(f"unknown workload {name!r}")


def _one_op(problems: list[str], fingerprint: dict) -> GateResult:
    return GateResult(1, 1 if problems else 0, problems, fingerprint)


def _gate_sweep(code: int, out_path: Path) -> GateResult:
    if code != 0:
        return _one_op([f"exit code {code}"], {})
    data = out_path.read_bytes()
    fingerprint = {"sweep_csv_sha256": hashlib.sha256(data).hexdigest()}
    rows = list(csv.reader(data.decode("utf-8").splitlines()))
    problems = []
    if rows[:1] != [["delta", "qd", "gd8", "t_minus_2"]]:
        problems.append(f"header {rows[:1]}")
        return _one_op(problems, fingerprint)
    values = [[float(v) for v in row] for row in rows[1:]]
    if len(values) != SWEEP_STEPS:
        problems.append(f"{len(values)} rows, expected {SWEEP_STEPS}")
        return _one_op(problems, fingerprint)
    for delta, _, gd8, _ in values:
        expected = (1.0 - abs(math.sin(4.0 * delta))) / 2.0
        if abs(gd8 - expected) > GATE_TOL:
            problems.append(f"gd8({delta:.6g})={gd8!r}, closed form {expected!r}")
    if abs(values[0][1] - 0.5) > 1e-6:
        problems.append(f"qd(0)={values[0][1]!r}, expected 0.5")
    if values[-1][1] > 1e-6:
        problems.append(f"qd(pi/8)={values[-1][1]!r}, expected <= 1e-6")
    for col, label in ((1, "qd"), (2, "gd8"), (3, "t_minus_2")):
        rise = max(b[col] - a[col] for a, b in zip(values, values[1:]))
        if rise > GATE_TOL:
            problems.append(f"{label} rises by {rise:.3g}")
    return _one_op(problems, fingerprint)


def _gate_search(code: int, out_path: Path) -> GateResult:
    if code != 0:
        return _one_op([f"exit code {code}"], {})
    payload = json.loads(out_path.read_text(encoding="utf-8"))
    fingerprint = {
        "search_best_params_pi": payload.get("best_params_pi"),
        "search_refined_params_pi": payload.get("refined_params_pi"),
    }
    problems = []
    if payload.get("evaluations") != SEARCH_CELLS:
        problems.append(f"evaluations={payload.get('evaluations')}, expected {SEARCH_CELLS}")
    if not payload.get("gd8", -1.0) >= 0.6089:
        problems.append(f"gd8={payload.get('gd8')}, expected >= 0.6089")
    refined = payload.get("refined_gd8", -1.0)
    if not 0.66 <= refined <= 2.0 / 3.0 + GATE_TOL:
        problems.append(f"refined_gd8={refined}, expected in [0.66, 2/3]")
    return _one_op(problems, fingerprint)


_CHECK_LINE = re.compile(r"^\[(PASS|FAIL)\] (\S+)")


def _gate_checklist(code: int, stdout: str) -> GateResult:
    status = {}
    for line in stdout.splitlines():
        match = _CHECK_LINE.match(line)
        if match:
            status[match.group(2)] = match.group(1)
    problems = [f"{name}: {status.get(name, 'missing')}"
                for name in CHECKLIST if status.get(name) != "PASS"]
    if code not in (0, 3):
        problems.append(f"exit code {code}")
    failed = sum(1 for name in CHECKLIST if status.get(name) != "PASS")
    if code not in (0, 3) and failed == 0:
        failed = len(CHECKLIST)
    return GateResult(len(CHECKLIST), failed, problems, {})
