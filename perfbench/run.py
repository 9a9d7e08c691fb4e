"""Benchmark of the ddread pipeline, end to end and layer by layer.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

One process runs one workload as a closed loop with one caller: after
set-up and one untimed warm-up operation, operations run back to back while
the next one is expected to end within ``--seconds`` (at least one runs).
Each operation's inputs derive from ``--seed``; its outputs are checked, and
failed calls are counted against attempted ones.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json.  ``--trace 1``
runs each operation twice, untraced then traced, and reports the per-layer
metrics from spans recorded around the calls into each ddread module; the
difference between the two is the tracing overhead.  Human-readable lines come
first; the last line of stdout is the JSON result.  ``--workload all`` runs
each workload in its own process and prints a summary.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter
from typing import NamedTuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
NPROC = len(os.sched_getaffinity(0))
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_REPEATS = 7
SETUP_CODE = ("import sys; sys.path.insert(0, sys.argv[1]); import ddread; "
              "ddread.load_config(sys.argv[2])")
NAMES = ["spectroscopy", "readout"]
# The host is a shared virtual machine whose speed drifts by up to 2.8x over
# seconds to minutes, so the medians of raw operation wall times from runs at
# different times spread by 0.11-0.36 of their value.  A fixed job that runs
# no ddread code (host_probe) is timed before the first timed operation and
# after each one; wall_norm_s scales each operation's wall time by
# PROBE_NOMINAL_S over the geometric mean of the two probes around it, which
# brought the spread of ten runs to 0.04-0.09.  Scaling by the run's median
# probe instead did not help (0.19 against 0.25 raw).  PROBE_NOMINAL_S is
# about the probe's median time on a 2-vCPU KVM guest; it only sets the scale.
PROBE_NOMINAL_S = 0.030
PROBE_REPEATS = 5
# The end-to-end figures the report prints for every workload (n/a where
# a workload has no such stage); BENCHMARK.json gates the ones that every
# workload has.
REPORTED = [("setup_s", "s"), ("wall_s", "s"), ("wall_norm_s", "s"),
            ("trace_points_per_s", "1/s"), ("exact_trace_points_per_s", "1/s"),
            ("analysis_points_per_s", "1/s"),
            ("scan_cells_per_s", "1/s"), ("fit_s", "s"), ("peak_rss_mb", "MB"),
            ("ops_failed_frac", "1")]


def pin_blas_threads() -> int:
    """Cap BLAS/OpenMP threads at nproc; must run before numpy is imported."""
    wanted = NPROC
    for var in BLAS_VARS:
        if os.environ.get(var, "").isdigit():
            wanted = min(wanted, max(1, int(os.environ[var])))
    for var in BLAS_VARS:
        os.environ[var] = str(wanted)
    return wanted


def environment(blas_threads: int) -> dict:
    import numpy
    import scipy

    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30).stdout.strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        sha = "unknown"
    try:
        import numba  # noqa: F401
        has_numba = True
    except ImportError:
        has_numba = False
    return {"git_sha": sha, "nproc": NPROC, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "numba": has_numba, "blas_threads": blas_threads}


def host_probe() -> float:
    """Median wall time of a fixed job that runs no ddread code: an
    interpreter loop, 4x4 complex matrix products and numpy calls on
    3-vectors (norm, cross, exp).  ddread's time goes to calls like these on
    tiny arrays; against the per-call time of a ddread scan and of a short
    ``ssr`` over ten minutes of host drift, this mix left a log residual of
    0.05-0.06, where a mix with a vectorised ufunc on 200x200 in place of the
    3-vector calls left 0.07."""
    import numpy as np

    rng = np.random.default_rng(0)
    m = rng.random((4, 4)) + 1j * rng.random((4, 4))
    times = []
    for _ in range(PROBE_REPEATS):
        start = perf_counter()
        x = 0
        for i in range(50_000):
            x += i * i
        b = m
        for _ in range(500):
            b = (b @ m) / np.abs(b).max()
        v, w = np.array([0.3, 0.4, 0.5]), np.array([0.1, -0.2, 0.7])
        for _ in range(500):
            c = np.cross(v, w)
            v = (v + 1e-3 * c * np.exp(1j * v).real) / np.linalg.norm(v)
        times.append(perf_counter() - start)
    return statistics.median(times)


def measure_setup(config_path: Path, times: list, errors: list) -> None:
    """One fresh interpreter that imports ddread and loads the workload's config."""
    start = perf_counter()
    proc = subprocess.run([sys.executable, "-c", SETUP_CODE, str(ROOT / "src"),
                           str(config_path)], capture_output=True, text=True, timeout=120)
    times.append(perf_counter() - start)
    if proc.returncode != 0:
        errors.append(proc.stderr.strip().splitlines()[-1:])


class Record(NamedTuple):
    wall: float
    log: object
    info: dict


def run_op(workload, k, tracer=None) -> Record:
    from workloads import OpLog

    inputs = workload.inputs(k)
    log = OpLog()
    # the CLI's "wrote ..." lines would bury the report
    with contextlib.redirect_stdout(io.StringIO()):
        start = perf_counter()
        try:
            if tracer is None:
                out = workload.call(inputs, log)
            else:
                with tracer.installed(k):
                    out = workload.call(inputs, log)
        except Exception as exc:  # a step could not use a failed call's result
            log.errors.setdefault("call", f"{type(exc).__name__}: {exc}")
            out = None
        wall = perf_counter() - start
    try:
        info = workload.check(inputs, out, log)
    except Exception as exc:  # outputs missing or malformed: a failed check
        log.errors.setdefault("checks", f"{type(exc).__name__}: {exc}")
        info = {}
    return Record(wall, log, info)


def median_of(records, key):
    values = [r.info[key] for r in records if key in r.info]
    return statistics.median(values) if values else None


def print_op(k, r, note=""):
    status = "ok" if not r.log.errors else "FAILED " + "; ".join(
        f"{n}: {e}" for n, e in r.log.errors.items())
    print(f"op {k}{note}: wall {r.wall:.4f} s  " + "  ".join(
        f"{n} {s:.4f} s" for n, s in r.log.seconds.items()) + f"  [{status}]")


def print_metric(name, value, unit, note=""):
    shown = "n/a" if value is None else f"{value:.6g}"
    print(f"metric {name:<42} {shown:>14} {unit:<6} {note}".rstrip())


def run_workload(name, seed, seconds, trace, blas_threads) -> int:
    import workloads
    from tracing import Tracer

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    env = environment(blas_threads)
    print(f"# ddread benchmark: workload={name} seed={seed} seconds={seconds} trace={trace}")
    print("env " + json.dumps(env, sort_keys=True))
    work = OUT / f"{name}-{os.getpid()}"
    workload = workloads.WORKLOADS[name](ROOT, work, seed)
    try:
        workload.prepare()
        setup_times, setup_errors = [], []
        tracer = Tracer(name, [workloads]) if trace else None
        # Operation 0 is checked but not timed: lazy imports and first calls
        # are paid once per session.
        warm = run_op(workload, 0)
        print_op(0, warm, " (warm-up, untimed)")
        plain, traced, probes = [], [], [host_probe()]
        start = perf_counter()
        while True:
            k = len(plain) + 1
            plain.append(run_op(workload, k))
            probes.append(host_probe())
            if tracer is not None:
                traced.append(run_op(workload, k, tracer))
            print_op(k, plain[-1])
            # set-up samples spread over the run, like the operations
            if len(setup_times) < SETUP_REPEATS:
                measure_setup(workload.config_path, setup_times, setup_errors)
            # start another operation only if it should end within the run
            if (perf_counter() - start) * (k + 1) / k > seconds:
                break
        while len(setup_times) < SETUP_REPEATS:
            measure_setup(workload.config_path, setup_times, setup_errors)
        records = [warm] + plain + traced
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = len(setup_times) + sum(r.log.attempted for r in records)
    failed = len(setup_errors) + sum(len(r.log.errors) for r in records)
    for err in setup_errors:
        print(f"FAILED set-up: {err}", file=sys.stderr)
    for r in records:
        for op_name, err in r.log.errors.items():
            print(f"FAILED {op_name}: {err}", file=sys.stderr)

    walls = [r.wall for r in plain]
    values = {
        "setup_s": statistics.median(setup_times),
        "wall_s": statistics.median(walls),
        "wall_norm_s": statistics.median(
            r.wall * PROBE_NOMINAL_S / (before * after) ** 0.5
            for r, before, after in zip(plain, probes, probes[1:])),
        "trace_points_per_s": median_of(plain, "trace_points_per_s"),
        "exact_trace_points_per_s": median_of(plain, "exact_trace_points_per_s"),
        "analysis_points_per_s": median_of(plain, "analysis_points_per_s"),
        "scan_cells_per_s": median_of(plain, "scan_cells_per_s"),
        "fit_s": median_of(plain, "fit_s"),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ops_failed_frac": failed / attempted,
    }
    print(f"ops: {len(plain)} timed, wall min {min(walls):.4f} s, max {max(walls):.4f} s; "
          f"host probe median {1000 * statistics.median(probes):.3f} ms "
          f"(nominal {1000 * PROBE_NOMINAL_S:.0f} ms); "
          f"set-up median of {len(setup_times)}; failed {failed} of {attempted} attempted")
    for key, unit in REPORTED:
        print_metric(key, values[key], unit)
    for key, truth in (("dwell_err", "hidden states"), ("telegraph_dwell_err", "generator")):
        errs = [r.info[key] for r in records if key in r.info]
        if errs:
            over = sum(abs(e) > workloads.DWELL_TOL for e in errs)
            print(f"info dwell-mean error vs {truth}: median "
                  f"{100 * statistics.median(errs):+.2f}%, range {100 * min(errs):+.2f}% .. "
                  f"{100 * max(errs):+.2f}% over {len(errs)} analyses, {over} beyond "
                  f"{100 * workloads.DWELL_TOL:.0f}%")
    if any("dwell_err" in r.info for r in records):
        print("info known defect (ROADMAP item 5): the dwell-mean error of the 20,000-point "
              "ssr traces is reported above, not gated; criterion 6 is gated on the "
              "telegraph trace")
    if warm.info.get("trace_sha256"):
        print(f"info trace.csv sha256 {warm.info['trace_sha256']} "
              f"(op 0, cli seed {warm.info['cli_seed']})")

    if trace:
        metrics = layer_metrics(tracer, plain, traced, spec, name, seed, env)
    else:
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in spec["end_to_end"]}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def layer_metrics(tracer, plain, traced, spec, name, seed, env):
    from tracing import LAYERS

    n = len(traced)
    summary = tracer.summary(n)
    untraced = sum(r.wall for r in plain) / n
    summary["trace.untraced_wall_s"] = untraced
    summary["trace.overhead_s"] = sum(r.wall for r in traced) / n - untraced
    for path in ("_simulate_point_aggregate", "_simulate_point_cycles"):
        calls = summary[f"measurement.{path}.calls"]
        busy = summary[f"measurement.{path}.s"]
        summary[f"measurement.{path}.us_per_point"] = 1e6 * busy / calls if calls else 0.0
    busy = summary["measurement._simulate_point_cycles.s"]
    cycles = summary.get("measurement.cycles", 0.0)
    summary["measurement.cycles_per_s"] = cycles / busy if busy else 0.0
    summary.setdefault("coherence.cells", 0.0)
    layers = sum(summary[f"{layer}.self_s"] for layer in LAYERS)
    print(f"trace: {n} traced ops; layer self times sum to {layers:.4f} s per op; "
          f"minus overhead {summary['trace.overhead_s']:.4f} s gives "
          f"{layers - summary['trace.overhead_s']:.4f} s against untraced wall {untraced:.4f} s")
    for m in spec["per_layer"]:
        print_metric(m["name"], summary[m["name"]], m["unit"])
    OUT.mkdir(exist_ok=True)
    dump = OUT / f"spans-{name}-seed{seed}.json"
    tracer.dump(dump, {"workload": name, "seed": seed, "env": env, "per_op": summary})
    print(f"info span dump {dump.relative_to(ROOT)}")
    return {m["name"]: {"value": summary[m["name"]], "unit": m["unit"]}
            for m in spec["per_layer"]}


def run_all(args) -> int:
    """Each workload in its own process; a summary of the results at the end."""
    results, code = {}, 0
    for name in NAMES:
        proc = subprocess.run([sys.executable, str(Path(__file__).resolve()),
                               "--workload", name, "--seed", str(args.seed),
                               "--seconds", str(args.seconds), "--trace", str(args.trace)],
                              capture_output=True, text=True, timeout=900)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            code = proc.returncode or 1
            continue
        results[name] = json.loads(lines[-1])
    print("\n# summary")
    for name, res in results.items():
        cells = "  ".join(f"{k}={v['value']:.6g} {v['unit']}" for k, v in res["metrics"].items())
        print(f"{name:<13} correct={res['correct']} failed={res['failed']}/{res['attempted']}  "
              f"{cells}")
    print(json.dumps(results))
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=NAMES + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, default=0, choices=[0, 1])
    args = parser.parse_args(argv)
    needed = [ROOT / "BENCHMARK.json", ROOT / "src" / "ddread" / "__init__.py",
              ROOT / "demos" / "run_config.yaml"]
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]
    if missing:
        print(f"error: not a ddread checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2
    if args.seconds is None:
        args.seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if args.workload == "all":
        return run_all(args)
    blas_threads = pin_blas_threads()
    sys.path.insert(0, str(ROOT / "src"))
    return run_workload(args.workload, args.seed, args.seconds, args.trace, blas_threads)


if __name__ == "__main__":
    sys.exit(main())
