"""Command-line surface: scan, map2d, ssr, analyze, fit.

Every command reads one YAML config (``--config``), honors flag overrides
(flags > file > defaults), and writes deterministic files into ``--out``;
each output embeds the config hash and the seed so runs are attributable.

Exit codes: 0 success, 2 configuration error, 3 runtime/physics error,
4 analysis completed but flagged low-statistics.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .analysis import (
    ThresholdPolicy,
    conditional_histograms,
    detect_jumps,
    estimate_t1n,
    fidelity_vs_threshold,
    fit_hyperfine,
    histograms_to_csv,
    report_json,
    report_payload,
)
from .coherence import CoherenceCurve, scan_2d, scan_n, scan_tau
from .config import NS, TWO_PI_KHZ, ConfigError, RunConfig, load_config, snapshot_json
from .measurement import read_trace_csv, simulate_trace, trace_to_csv
from .spincore import DegenerateFrameError, FieldConfig

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3
EXIT_LOW_STATS = 4


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _header(config: RunConfig) -> str:
    return f"# config_sha256={config.content_hash()} seed={config.seed}\n"


def _output(out_dir: Path, name: str) -> Path:
    """``out_dir / name``, with ``out_dir`` made: each command asks for it
    only once it has read its input, so bad input leaves no directory."""
    out_dir.mkdir(parents=True, exist_ok=True)
    return out_dir / name


def _unit_peak(values: np.ndarray, normalized: bool) -> np.ndarray:
    """``values`` over their peak |value| when ``normalized`` and not all 0."""
    if not normalized:
        return values
    peak = np.max(np.abs(values))
    return values / peak if peak > 0 else values


def _write_curve_csv(path, config, curve: CoherenceCurve, normalized: bool):
    values = _unit_peak(curve.values, normalized)
    with open(path, "w") as fh:
        fh.write(_header(config))
        mode = f"propagator_mode={curve.propagator_mode}"
        if curve.axis == "tau":
            fh.write(f"# axis=tau n_pulses={curve.n_pulses} {mode}\n")
            fh.write("tau_ns,coherence\n")
            for t, v in zip(curve.abscissa, values):
                fh.write(f"{_fmt(t / NS)},{_fmt(v)}\n")
        else:
            fh.write(f"# axis=n tau_ns={_fmt(curve.tau / NS)} {mode}\n")
            fh.write("n_pulses,coherence\n")
            for n, v in zip(curve.abscissa, values):
                fh.write(f"{int(n)},{_fmt(v)}\n")


def read_curve_csv(path) -> CoherenceCurve:
    """Load a curve written by ``scan`` (metadata comes from the # axis line).

    Files without a ``propagator_mode`` key were written before it existed
    and are read as "exact".  A data row that is not two numbers raises
    ValueError naming its line.
    """
    meta = {}
    xs, ys = [], []
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                for tok in line[1:].split():
                    if "=" in tok:
                        k, v = tok.split("=", 1)
                        meta[k] = v
                continue
            if line[0].isalpha():
                continue  # header row
            try:
                a, b = line.split(",")
                xs.append(float(a))
                ys.append(float(b))
            except ValueError:
                raise ValueError(
                    f"{path}, line {lineno}: malformed row {line!r}") from None
    axis = meta.get("axis")
    mode = meta.get("propagator_mode", "exact")
    try:
        if axis == "tau":
            return CoherenceCurve(axis="tau", abscissa=np.asarray(xs) * NS,
                                  values=np.asarray(ys),
                                  n_pulses=int(meta["n_pulses"]),
                                  propagator_mode=mode)
        if axis == "n":
            return CoherenceCurve(axis="n", abscissa=np.asarray(xs),
                                  values=np.asarray(ys),
                                  tau=float(meta["tau_ns"]) * NS,
                                  propagator_mode=mode)
    except KeyError as exc:
        raise ValueError(f"{path}: missing {exc.args[0]} metadata") from exc
    raise ValueError(f"{path}: missing or unknown axis metadata")


_TAU_KEYS = ("tau_start_ns", "tau_stop_ns", "tau_step_ns")


def _scan_grid(config: RunConfig, command: str) -> list:
    """The values of the scan keys that ``command`` (scan in the configured
    mode, or map2d) reads; a ConfigError names the keys if one is missing."""
    if command == "map2d":
        keys, what = _TAU_KEYS + ("n_list",), "map2d"
    elif config.scan.get("mode", "tau") == "tau":
        keys, what = _TAU_KEYS, "tau mode"
    else:
        keys, what = ("n_max",), "n mode"
    values = [config.scan.get(k) for k in keys]
    if None in values:
        raise ConfigError(f"scan: {what} needs {'/'.join(keys)}")
    return values


def cmd_scan(config: RunConfig, out_dir: Path, grid: list,
             normalized: bool) -> int:
    mode = config.scan.get("mode", "tau")
    if mode == "tau":
        lo, hi, step = grid
        curve = scan_tau(config.spins, config.field, config.sequence.n_pulses,
                         (lo * NS, hi * NS), step * NS,
                         config.propagator_mode, config.constants)
    else:
        curve = scan_n(config.spins, config.field, config.sequence.tau,
                       grid[0], config.propagator_mode, config.constants)
    out = _output(out_dir, f"scan_{mode}.csv")
    _write_curve_csv(out, config, curve, normalized)
    print(f"wrote {out}")
    return EXIT_OK


def cmd_map2d(config: RunConfig, out_dir: Path, grid: list,
              normalized: bool) -> int:
    lo, hi, step, n_list = grid
    cmap = scan_2d(config.spins, config.field, (lo * NS, hi * NS), step * NS,
                   n_list, config.propagator_mode,
                   config.constants)
    values = _unit_peak(cmap.values, normalized)
    out = _output(out_dir, "map2d.csv")
    with open(out, "w") as fh:
        fh.write(_header(config))
        fh.write("tau_ns,n_pulses,coherence\n")
        for i, t in enumerate(cmap.tau_grid):
            for j, n in enumerate(cmap.n_grid):
                fh.write(f"{_fmt(t / NS)},{int(n)},{_fmt(values[i, j])}\n")
    print(f"wrote {out}")
    return EXIT_OK


def cmd_ssr(config: RunConfig, out_dir: Path, n_points: int) -> int:
    if len(config.spins) != 1:
        raise ConfigError("ssr: config must define exactly one target spin")
    trace = simulate_trace(config.spins[0], config.field, config.sequence,
                           config.readout, n_points,
                           config.propagator_mode, config.constants)
    out = _output(out_dir, "trace.csv")
    trace_to_csv(trace, out, config.content_hash())
    snap = out_dir / "config_snapshot.json"
    snap.write_text(snapshot_json(config))
    print(f"wrote {out}")
    print(f"wrote {snap}")
    return EXIT_OK


def cmd_analyze(config: RunConfig, out_dir: Path, trace_path) -> int:
    try:
        trace = read_trace_csv(trace_path, config.readout)
    except ValueError as exc:  # a malformed trace file is bad input
        raise ConfigError(f"analyze: {exc}") from exc
    hists = conditional_histograms(trace, config.thresholds)
    report = fidelity_vs_threshold(hists)
    histograms_to_csv(hists, _output(out_dir, "histograms.csv"))
    jumps = detect_jumps(trace, config.thresholds)
    extra = {}
    try:
        est = estimate_t1n(jumps.dwells_up, jumps.dwells_down,
                           config.readout.point_duration)
        extra = {
            "t1n_up_s": est.t1n_up, "t1n_down_s": est.t1n_down,
            "t1n_up_ci_s": list(est.ci_up), "t1n_down_ci_s": list(est.ci_down),
        }
    except ValueError:
        extra = {"t1n_note": "insufficient dwells for a lifetime estimate"}
    payload = report_payload(report)
    payload.update(extra)
    payload["config_sha256"] = config.content_hash()
    payload["seed"] = trace.seed
    out = out_dir / "fidelity_report.json"
    out.write_text(report_json(payload))
    print(f"wrote {out}")
    print(f"wrote {out_dir / 'histograms.csv'}")
    if report.low_statistics:
        print("warning: fewer than 100 qualifying pairs; results are low-statistics",
              file=sys.stderr)
        return EXIT_LOW_STATS
    return EXIT_OK


def cmd_fit(config: RunConfig, out_dir: Path, curve_paths) -> int:
    # bad curve metadata, e.g. an unknown or mixed propagator mode, is bad
    # input, not a failed run
    try:
        curves = [read_curve_csv(p) for p in curve_paths]
        fit = fit_hyperfine(curves, config.field, consts=config.constants)
    except ValueError as exc:
        raise ConfigError(f"fit: {exc}") from exc
    payload = {
        "a_par_khz": fit.a_par / TWO_PI_KHZ,
        "a_perp_khz": fit.a_perp / TWO_PI_KHZ,
        "residual_norm": fit.residual,
        "degenerate": fit.degenerate,
        "n_starts": fit.n_starts,
        "config_sha256": config.content_hash(),
        "seed": config.seed,
    }
    out = _output(out_dir, "hyperfine_fit.json")
    out.write_text(json.dumps(payload, indent=2, sort_keys=True))
    print(f"wrote {out}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ddread",
        description="CPMG coherence scans and single-shot nuclear-spin readout",
    )
    parser.add_argument("--config", required=True, help="YAML run configuration")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the config seed")
    parser.add_argument("--out", default=".", help="output directory")
    parser.add_argument("--normalized", action="store_true",
                        help="scale coherence outputs to unit peak "
                             "(scan and map2d only)")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("scan", help="1D coherence scan (mode from config)")
    sub.add_parser("map2d", help="coherence on a (tau, N) grid")
    p_ssr = sub.add_parser("ssr", help="simulate a single-shot readout trace")
    p_ssr.add_argument("--points", type=int, default=5000)
    p_an = sub.add_parser("analyze", help="histograms/fidelity/jumps of a trace")
    p_an.add_argument("--trace", required=True)
    p_fit = sub.add_parser("fit", help="hyperfine fit from scan CSVs")
    p_fit.add_argument("curves", nargs="+")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = load_config(args.config)
        if args.seed is not None:
            if args.seed < 0:
                raise ConfigError("--seed must be non-negative")
            config = replace(config, readout=replace(config.readout, seed=args.seed))
        if args.command == "ssr" and args.points < 1:
            raise ConfigError("--points must be >= 1")
        if args.command in ("scan", "map2d"):
            grid = _scan_grid(config, args.command)
        elif args.normalized:
            raise ConfigError(f"--normalized applies to scan and map2d, "
                              f"not {args.command}")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    out_dir = Path(args.out)
    try:
        if args.command == "scan":
            return cmd_scan(config, out_dir, grid, args.normalized)
        if args.command == "map2d":
            return cmd_map2d(config, out_dir, grid, args.normalized)
        if args.command == "ssr":
            return cmd_ssr(config, out_dir, args.points)
        if args.command == "analyze":
            return cmd_analyze(config, out_dir, args.trace)
        if args.command == "fit":
            return cmd_fit(config, out_dir, args.curves)
        raise RuntimeError(f"unhandled command {args.command}")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (DegenerateFrameError, ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
