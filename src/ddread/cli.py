"""Command-line surface: scan, map2d, ssr, analyze, fit.

Every command reads one YAML config (``--config``), honors flag overrides
(flags > file > defaults), and writes deterministic files into ``--out``;
each output but ``histograms.csv`` carries the config hash and the seed.

Exit codes: 0 success, 2 configuration error, 3 runtime/physics error,
4 analysis completed but flagged low-statistics.  Bad input exits 2 with
one ``config error:`` line before ``--out`` is made: a config, trace or
curve file that is missing, a directory, unreadable or malformed, and a
curve whose values, abscissae or tau ``CoherenceCurve`` refuses.
"""

from __future__ import annotations

import argparse
import functools
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
from .config import (NS, TAU_KEYS, TWO_PI_KHZ, ConfigError, RunConfig,
                     load_config, snapshot_json)
from .measurement import (_provenance_line, _text_lines, _write_rows, read_trace_csv,
                          simulate_trace, trace_to_csv)
from .spincore import DegenerateFrameError, FieldConfig

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3
EXIT_LOW_STATS = 4


def _header(config: RunConfig) -> str:
    return _provenance_line(config.content_hash(), config.seed)


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
    mode = f"propagator_mode={curve.propagator_mode}"
    if curve.axis == "tau":
        meta = f"# axis=tau n_pulses={curve.n_pulses} {mode}\ntau_ns,coherence\n"
        row, abscissa = "%.17g,%.17g\n", curve.abscissa / NS
    else:
        meta = f"# axis=n tau_ns={curve.tau / NS:.17g} {mode}\nn_pulses,coherence\n"
        row, abscissa = "%d,%.17g\n", curve.abscissa
    _write_rows(path, _header(config) + meta, row,
                [abscissa, _unit_peak(curve.values, normalized)])


def read_curve_csv(path) -> CoherenceCurve:
    """Load a curve written by ``scan`` (metadata comes from the # axis line).

    Files without a ``propagator_mode`` key were written before it existed
    and are read as "exact".  A line that starts with a letter before the
    first data row is a column-name row; any other row that is not two
    numbers, or a line that is not UTF-8 text, raises ValueError naming its
    line; missing or bad metadata, or rows that ``CoherenceCurve`` refuses
    (such as ``nan``, or a ``nan`` tau), raise ValueError naming the file.
    """
    meta = {}
    xs, ys = [], []
    for lineno, line in _text_lines(path):
        line = line.strip()
        if not line:
            continue
        if line.startswith("#"):
            for tok in line[1:].split():
                if "=" in tok:
                    k, v = tok.split("=", 1)
                    meta[k] = v
            continue
        try:
            a, b = map(float, line.split(","))
        except ValueError:
            if line[0].isalpha() and not xs:
                continue  # column-name row
            raise ValueError(
                f"{path}, line {lineno}: malformed row {line!r}") from None
        xs.append(a)
        ys.append(b)
    axis = meta.get("axis")
    if axis not in ("tau", "n"):
        raise ValueError(f"{path}: missing or unknown axis metadata")
    key = "n_pulses" if axis == "tau" else "tau_ns"
    try:
        fixed = (int if axis == "tau" else float)(meta[key])
    except KeyError:
        raise ValueError(f"{path}: missing {key} metadata") from None
    except ValueError:
        raise ValueError(f"{path}: bad {key} metadata {meta[key]!r}") from None
    x, y, mode = np.asarray(xs), np.asarray(ys), meta.get("propagator_mode", "exact")
    try:
        if axis == "tau":
            return CoherenceCurve("tau", x * NS, y, n_pulses=fixed, propagator_mode=mode)
        return CoherenceCurve("n", x, y, tau=fixed * NS, propagator_mode=mode)
    except ValueError as exc:  # the curve refuses its rows or its mode
        raise ValueError(f"{path}: {exc}") from exc


def _scan_grid(config: RunConfig, command: str) -> list:
    """The values of the scan keys that ``command`` (scan in the configured
    mode, or map2d) reads; a ConfigError names the keys if one is missing."""
    if command == "map2d":
        keys, what = TAU_KEYS + ("n_list",), "map2d"
    elif config.scan["mode"] == "tau":
        keys, what = TAU_KEYS, "tau mode"
    else:
        keys, what = ("n_max",), "n mode"
    values = [config.scan.get(k) for k in keys]
    if None in values:
        raise ConfigError(f"scan: {what} needs {'/'.join(keys)}")
    return values


def cmd_scan(config: RunConfig, out_dir: Path, args) -> int:
    grid = _scan_grid(config, "scan")
    mode = config.scan["mode"]
    if mode == "tau":
        lo, hi, step = grid
        curve = scan_tau(config.spins, config.field, config.sequence.n_pulses,
                         (lo * NS, hi * NS), step * NS,
                         config.propagator_mode, config.constants)
    else:
        curve = scan_n(config.spins, config.field, config.sequence.tau,
                       grid[0], config.propagator_mode, config.constants)
    out = _output(out_dir, f"scan_{mode}.csv")
    _write_curve_csv(out, config, curve, args.normalized)
    print(f"wrote {out}")
    return EXIT_OK


def cmd_map2d(config: RunConfig, out_dir: Path, args) -> int:
    lo, hi, step, n_list = _scan_grid(config, "map2d")
    cmap = scan_2d(config.spins, config.field, (lo * NS, hi * NS), step * NS,
                   n_list, config.propagator_mode, config.constants)
    out = _output(out_dir, "map2d.csv")
    n_taus, n_ns = cmap.values.shape  # row i * n_ns + j is values[i, j]
    _write_rows(out, _header(config) + "tau_ns,n_pulses,coherence\n",
                "%.17g,%d,%.17g\n",
                [np.repeat(cmap.tau_grid / NS, n_ns), np.tile(cmap.n_grid, n_taus),
                 _unit_peak(cmap.values, args.normalized).ravel()])
    print(f"wrote {out}")
    return EXIT_OK


def cmd_ssr(config: RunConfig, out_dir: Path, args) -> int:
    if args.points < 1:
        raise ConfigError("--points must be >= 1")
    if len(config.spins) != 1:
        raise ConfigError("ssr: config must define exactly one target spin")
    trace = simulate_trace(config.spins[0], config.field, config.sequence,
                           config.readout, args.points,
                           config.propagator_mode, config.constants)
    out = _output(out_dir, "trace.csv")
    trace_to_csv(trace, out, config.content_hash())
    snap = out_dir / "config_snapshot.json"
    snap.write_text(snapshot_json(config))
    print(f"wrote {out}")
    print(f"wrote {snap}")
    return EXIT_OK


def cmd_analyze(config: RunConfig, out_dir: Path, args) -> int:
    try:
        trace = read_trace_csv(args.trace, config.readout)
    except (OSError, ValueError) as exc:  # unreadable or malformed: bad input
        raise ConfigError(f"analyze: {exc}") from exc
    try:
        hists = conditional_histograms(trace, config.thresholds)
        report = fidelity_vs_threshold(hists)
    except ValueError as exc:  # so is a trace that pairs no point of a class
        raise ConfigError(f"analyze: {args.trace}: {exc}") from exc
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


def cmd_fit(config: RunConfig, out_dir: Path, args) -> int:
    # an unreadable curve file or bad curve metadata, e.g. an unknown or
    # mixed propagator mode, is bad input, not a failed run
    try:
        curves = [read_curve_csv(p) for p in args.curves]
        fit = fit_hyperfine(curves, config.field, consts=config.constants)
    except (OSError, ValueError) as exc:
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


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's argument parser, built once per process; argparse keeps no
    state between parses, so every ``main`` call shares it.  Each command's
    subparser sets ``run`` to its ``cmd_*`` function, which ``main`` calls
    with the config, the output directory and the parsed arguments."""
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
    p_scan = sub.add_parser("scan", help="1D coherence scan (mode from config)")
    p_scan.set_defaults(run=cmd_scan)
    p_map = sub.add_parser("map2d", help="coherence on a (tau, N) grid")
    p_map.set_defaults(run=cmd_map2d)
    p_ssr = sub.add_parser("ssr", help="simulate a single-shot readout trace")
    p_ssr.add_argument("--points", type=int, default=5000)
    p_ssr.set_defaults(run=cmd_ssr)
    p_an = sub.add_parser("analyze", help="histograms/fidelity/jumps of a trace")
    p_an.add_argument("--trace", required=True)
    p_an.set_defaults(run=cmd_analyze)
    p_fit = sub.add_parser("fit", help="hyperfine fit from scan CSVs")
    p_fit.add_argument("curves", nargs="+")
    p_fit.set_defaults(run=cmd_fit)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = load_config(args.config)
        if args.seed is not None:
            if not 0 <= args.seed < 2**63:
                raise ConfigError("--seed must lie in [0, 2**63)")
            config = replace(config, readout=replace(config.readout, seed=args.seed))
        if args.normalized and args.command not in ("scan", "map2d"):
            raise ConfigError(f"--normalized applies to scan and map2d, "
                              f"not {args.command}")
        return args.run(config, Path(args.out), args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (DegenerateFrameError, ValueError, RuntimeError, OSError,
            MemoryError) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
