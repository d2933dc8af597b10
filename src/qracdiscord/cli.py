"""Command-line front end.

Subcommands: ``eval`` (single encoding report), ``sweep`` (rotation sweep
to CSV/JSON), ``search`` (six-angle lattice search to JSON), ``witness``
(closed-form and numeric witness maxima), ``reproduce`` (reference-value
checklist).

Angles are written as a decimal literal with an optional ``pi`` suffix:
``0.25pi`` means 0.25 * pi radians, ``-0.75pi`` is accepted, and a bare
number is radians. Reported angles appear both in radians and in units of
pi. Exit codes: 0 success, 1 argument error, 2 runtime or I/O error,
3 reproduction failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time

import numpy as np

from .checks import CHECKS, run_checks
from .discord import quantum_discord
from .encoding import cq_state, encoding_states
from .geodiscord import frame_operator, geometric_discord
from .linalg import density_spectrum
from .search import GridSpec, grid_search_gd, refine_local, sweep_planar, witness_max_numeric
from .witness import success_probability, witness_max_closed


class CliError(Exception):
    """Argument-level error, mapped to exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise CliError(message)


def parse_angle(text: str) -> float:
    """Parse a decimal literal with optional ``pi`` suffix into radians."""
    t = str(text).strip().lower()
    try:
        if t.endswith("pi"):
            head = t[:-2]
            if head in ("", "+", "-"):
                head += "1"
            return float(head) * math.pi
        return float(t)
    except ValueError:
        raise CliError(f"malformed angle {text!r}") from None


def parse_params(text: str) -> np.ndarray:
    parts = [p for p in str(text).split(",") if p.strip()]
    if len(parts) != 6:
        raise CliError(f"expected 6 comma-separated angles, got {len(parts)}")
    return np.array([parse_angle(p) for p in parts])


def _load_config(path):
    if path is None:
        return {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            config = json.load(fh)
    except OSError as exc:
        raise CliError(f"cannot read config {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise CliError(f"config {path} is not valid JSON: {exc}") from None
    if not isinstance(config, dict):
        raise CliError("config must be a flat JSON object")
    return config


def _merge(args, config, key, default=None, convert=None):
    """Flag value if given, else config value, else default."""
    value = getattr(args, key.replace("-", "_"), None)
    if value is None:
        value = config.get(key, default)
    if value is None:
        return None
    if convert is not None and isinstance(value, str):
        return convert(value)
    return value


def _emit(text: str, out_path):
    if out_path is None:
        sys.stdout.write(text)
        return
    try:
        with open(out_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    except OSError as exc:
        raise RuntimeError(f"cannot write {out_path}: {exc}") from None


def _to_pi(values) -> list[float]:
    return [float(v) / math.pi for v in np.atleast_1d(values)]


def _params_from(args, config, command: str) -> np.ndarray:
    raw = _merge(args, config, "params")
    if raw is None:
        raise CliError(f"{command} requires --params")
    if isinstance(raw, str):
        return parse_params(raw)
    if len(raw) != 6:
        raise CliError(f"expected 6 angles, got {len(raw)}")
    return np.array([parse_angle(str(v)) for v in raw])


def _cmd_eval(args, config) -> int:
    params = _params_from(args, config, "eval")
    fmt = _merge(args, config, "format", default="text")
    enc = encoding_states(params[:4], params[4:])
    qd, direction = quantum_discord(enc)
    gd = geometric_discord(enc)
    t_max, m0, m1 = witness_max_closed(enc)
    p_success = success_probability(enc, m0, m1)
    spectrum = density_spectrum(cq_state(enc))
    gram_trace = float(np.trace(frame_operator(enc)))

    if fmt == "json":
        payload = {
            "params": [float(v) for v in params],
            "params_pi": _to_pi(params),
            "qd": float(qd),
            "qd_direction": [float(v) for v in direction],
            "gd": float(gd),
            "gd8": 8.0 * float(gd),
            "t_max": float(t_max),
            "m0": [float(v) for v in m0],
            "m1": [float(v) for v in m1],
            "p_success": float(p_success),
            "joint_spectrum": [float(v) for v in spectrum],
            "gram_trace": gram_trace,
        }
        _emit(json.dumps(payload, indent=2) + "\n", args.out)
        return 0

    lines = [
        "angles (radians): " + ", ".join(f"{v:.12g}" for v in params),
        "angles (pi):      " + ", ".join(f"{v:.12g}" for v in _to_pi(params)),
        f"quantum discord:     {qd:.12g}",
        "  minimising direction: (" + ", ".join(f"{v:.9g}" for v in direction) + ")",
        f"geometric discord:   {gd:.12g}   (8 D_G = {8.0 * gd:.12g})",
        f"witness maximum:     {t_max:.12g}",
        "  m0: (" + ", ".join(f"{v:.9g}" for v in m0) + ")",
        "  m1: (" + ", ".join(f"{v:.9g}" for v in m1) + ")",
        f"success probability: {p_success:.12g}",
        "joint spectrum:      " + ", ".join(f"{v:.6g}" for v in spectrum),
        f"trace of F:          {gram_trace:.12g}",
    ]
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_sweep(args, config) -> int:
    start = _merge(args, config, "from", default=0.0, convert=parse_angle)
    stop = _merge(args, config, "to", default=math.pi / 8.0, convert=parse_angle)
    steps = int(_merge(args, config, "steps", default=101, convert=int))
    fmt = _merge(args, config, "format", default="csv")
    records = sweep_planar(float(start), float(stop), steps)
    if fmt == "json":
        payload = [
            {"delta": r.delta, "qd": r.qd, "gd8": r.gd8, "t_minus_2": r.t_minus_2}
            for r in records
        ]
        _emit(json.dumps(payload, indent=2) + "\n", args.out)
        return 0
    rows = ["delta,qd,gd8,t_minus_2"]
    rows += [
        f"{r.delta:.12g},{r.qd:.12g},{r.gd8:.12g},{r.t_minus_2:.12g}" for r in records
    ]
    _emit("\n".join(rows) + "\n", args.out)
    return 0


def _cmd_search(args, config) -> int:
    step = _merge(args, config, "step", convert=parse_angle)
    if step is None:
        raise CliError("search requires --step")
    workers = int(_merge(args, config, "workers", default=os.cpu_count() or 1, convert=int))
    refine = bool(_merge(args, config, "refine", default=False))
    force = bool(_merge(args, config, "force", default=False))
    begun = time.perf_counter()
    result = grid_search_gd(GridSpec(step=float(step), workers=workers), force=force)
    payload = {
        "step": float(step),
        "step_pi": float(step) / math.pi,
        "best_params": [float(v) for v in result.params],
        "best_params_pi": _to_pi(result.params),
        "gd8": result.gd8,
        "t_max": result.t_max,
        "evaluations": result.evaluations,
        "wall_seconds": time.perf_counter() - begun,
    }
    if refine:
        refined = refine_local(result.params, float(step))
        payload["refined_params"] = [float(v) for v in refined.params]
        payload["refined_params_pi"] = _to_pi(refined.params)
        payload["refined_gd8"] = refined.gd8
        payload["wall_seconds"] = time.perf_counter() - begun
    _emit(json.dumps(payload, indent=2) + "\n", args.out)
    return 0


def _cmd_witness(args, config) -> int:
    params = _params_from(args, config, "witness")
    fmt = _merge(args, config, "format", default="text")
    enc = encoding_states(params[:4], params[4:])
    t_closed, m0, m1 = witness_max_closed(enc)
    t_numeric, _, _ = witness_max_numeric(enc)
    p_success = success_probability(enc, m0, m1)
    if fmt == "json":
        payload = {
            "params": [float(v) for v in params],
            "params_pi": _to_pi(params),
            "t_max": float(t_closed),
            "t_numeric": float(t_numeric),
            "m0": [float(v) for v in m0],
            "m1": [float(v) for v in m1],
            "p_success": float(p_success),
        }
        _emit(json.dumps(payload, indent=2) + "\n", args.out)
        return 0
    lines = [
        f"witness maximum (closed form): {t_closed:.12g}",
        f"witness maximum (numeric):     {t_numeric:.12g}",
        "m0: (" + ", ".join(f"{v:.9g}" for v in m0) + ")",
        "m1: (" + ", ".join(f"{v:.9g}" for v in m1) + ")",
        f"success probability at (m0, m1): {p_success:.12g}",
    ]
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_reproduce(args, config) -> int:
    names = args.only if args.only else None
    workers = _merge(args, config, "workers", convert=int)
    results = run_checks(names, workers=workers)
    width = max(len(r.name) for r in results)
    failures = 0
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        failures += 0 if r.passed else 1
        print(f"[{status}] {r.name:<{width}}  ({r.seconds:.2f}s)")
        print(f"       expected:  {r.expected}")
        print(f"       got:       {r.got}")
        print(f"       tolerance: {r.tolerance}")
    print(f"{len(results) - failures}/{len(results)} checks passed")
    return 0 if failures == 0 else 3


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="qracdiscord", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", default=None, help="JSON file with flat flag defaults")
        p.add_argument("--out", default=None, help="output path (default: stdout)")

    p_eval = sub.add_parser("eval", help="evaluate one encoding")
    p_eval.add_argument("--params", default=None, help="six angles, comma separated")
    p_eval.add_argument("--format", choices=("text", "json"), default=None)
    common(p_eval)

    p_sweep = sub.add_parser("sweep", help="symmetric rotation sweep")
    p_sweep.add_argument("--from", dest="from", default=None, help="start angle")
    p_sweep.add_argument("--to", dest="to", default=None, help="end angle")
    p_sweep.add_argument("--steps", type=int, default=None)
    p_sweep.add_argument("--format", choices=("csv", "json"), default=None)
    common(p_sweep)

    p_search = sub.add_parser("search", help="six-angle lattice search")
    p_search.add_argument("--step", default=None, help="lattice step angle")
    p_search.add_argument("--refine", action="store_const", const=True, default=None)
    p_search.add_argument("--force", action="store_const", const=True, default=None)
    p_search.add_argument("--workers", type=int, default=None)
    common(p_search)

    p_witness = sub.add_parser("witness", help="witness maximum for one encoding")
    p_witness.add_argument("--params", default=None, help="six angles, comma separated")
    p_witness.add_argument("--format", choices=("text", "json"), default=None)
    common(p_witness)

    p_rep = sub.add_parser("reproduce", help="run the reference-value checklist")
    p_rep.add_argument("--only", action="append", default=None, choices=sorted(CHECKS))
    p_rep.add_argument("--workers", type=int, default=None)
    p_rep.add_argument("--config", default=None)
    return parser


COMMANDS = {
    "eval": _cmd_eval,
    "sweep": _cmd_sweep,
    "search": _cmd_search,
    "witness": _cmd_witness,
    "reproduce": _cmd_reproduce,
}


def run(argv=None) -> int:
    """Parse arguments and run one subcommand, returning the exit code."""
    try:
        args = build_parser().parse_args(argv)
        config = _load_config(getattr(args, "config", None))
        return COMMANDS[args.command](args, config)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SystemExit as exc:  # --help and friends
        return int(exc.code or 0)


def main() -> None:
    sys.exit(run())
