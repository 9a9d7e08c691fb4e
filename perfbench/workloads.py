"""The benchmark workloads.

Each workload makes its inputs from the benchmark seed (``inputs``), drives
ddread through its public API or ``ddread.cli.main`` in-process (``call``,
the timed part), then checks the outputs (``check``).  Every program call
goes through an ``OpLog``, which counts it as one operation and records why
it failed, if it did.  The program calls are looked up in this module's
namespace at call time, so the tracer can wrap them here.
"""

from __future__ import annotations

import hashlib
import json
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import numpy as np
import yaml

from ddread.analysis import fit_hyperfine
from ddread.cli import main
from ddread.coherence import CoherenceCurve, scan_2d, scan_n, scan_tau
from ddread.config import NS, TWO_PI_KHZ, load_config
from ddread.measurement import entanglement_vs_n
from ddread.spincore import effective_frame, spin_from_frame_components

import telegraph

HERE = Path(__file__).resolve().parent

# Criterion 5 (single-shot fidelity), 6 (dwell mean) and 7 (hyperfine fit
# with 1% noise) of tests/test_acceptance.py.  Criterion 7 sweeps N to 24;
# the benchmark sweeps to 8, which meets the same bound in about a tenth of
# the time, so that a run holds many short operations and its median is
# steady on a host whose speed drifts.
FIDELITY_TARGET, FIDELITY_TOL = 0.955, 0.02
INIT_MIN = 0.99
DWELL_TOL = 0.10
FIT_TOL = 0.05
FIT_N_MAX = 8


class OpLog:
    """Program calls of one operation: seconds and failure reason per call."""

    def __init__(self):
        self.seconds = {}
        self.errors = {}

    def call(self, name, fn, *args, **kwargs):
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        except Exception as exc:  # a failing call is counted; the run goes on
            self.errors[name] = f"{type(exc).__name__}: {exc}"
            return None
        finally:
            self.seconds[name] = perf_counter() - start

    def check(self, name, ok, detail):
        if not ok:
            self.errors.setdefault(name, detail)

    @property
    def attempted(self) -> int:
        return len(set(self.seconds) | set(self.errors))


def op_seed(seed: int, k: int) -> int:
    """Seed of operation k, a deterministic function of the benchmark seed."""
    return int(np.random.SeedSequence([seed, k]).generate_state(1)[0])


def read_trace(path):
    """(counts, hidden states) of a trace CSV written by ``ddread ssr``."""
    rows = [line.split(",") for line in Path(path).read_text().splitlines()
            if line and not line.startswith("#") and not line[0].isalpha()]
    data = np.array(rows, dtype=np.int64).reshape(-1, 3)
    return data[:, 1], data[:, 2]


def check_report(log, name, report, truth_fidelity, truth_dwell, point_s):
    """Criterion 5 and the initialization bound on a fidelity report; returns
    the relative error of the dwell mean against ``truth_dwell`` points."""
    fid = min(report["fidelity_up"], report["fidelity_down"])
    init = min(report["init_fidelity_up"], report["init_fidelity_down"])
    log.check(name, abs(fid - truth_fidelity) <= FIDELITY_TOL,
              f"fidelity {fid:.4f} not within {FIDELITY_TOL} of {truth_fidelity:.4f}")
    log.check(name, init >= INIT_MIN, f"init fidelity {init:.4f} < {INIT_MIN}")
    dwell = (report["t1n_up_s"] + report["t1n_down_s"]) / 2.0 / point_s
    return dwell / truth_dwell - 1.0


class Workload:
    """Base: ``config_path`` is what set-up loads; ``work`` is a scratch dir."""

    name = ""

    def __init__(self, root: Path, work: Path, seed: int):
        self.root, self.work, self.seed = root, work, seed
        self.config_path = root / "demos" / "run_config.yaml"

    def prepare(self):
        pass

    def inputs(self, k):
        return op_seed(self.seed, k)


class Spectroscopy(Workload):
    """Demos 01, 02 and 04 as library calls: bath scans, entanglement, fit."""

    name = "spectroscopy"

    def prepare(self):
        self.config_path = HERE / "spectroscopy.yaml"
        self.cfg = load_config(self.config_path)
        readout = load_config(self.root / "demos" / "run_config.yaml")
        self.readout = (readout.spins[0], readout.field, readout.sequence.tau)
        # criterion-7 inputs: a tau sweep around the dip and an N sweep on it
        field = self.cfg.field
        self.truth = (330.0 * TWO_PI_KHZ, 200.0 * TWO_PI_KHZ)
        spin = spin_from_frame_components(*self.truth, field)
        tau_res = np.pi / (2.0 * effective_frame(spin, field).omega)
        self.clean = [
            scan_tau([spin], field, 12, (tau_res * 0.75, tau_res * 1.25),
                     tau_res * 0.5 / 40),
            scan_n([spin], field, tau_res, FIT_N_MAX),
        ]

    def inputs(self, k):
        rng = np.random.default_rng(op_seed(self.seed, k))
        return [
            CoherenceCurve(axis=c.axis, abscissa=c.abscissa,
                           values=np.clip(c.values + rng.normal(0.0, 0.01, c.values.shape),
                                          -1.0, 1.0),
                           n_pulses=c.n_pulses, tau=c.tau)
            for c in self.clean
        ]

    def call(self, noisy, log):
        c = log.call("load_config", load_config, self.config_path)
        s = c.scan
        taus = (s["tau_start_ns"] * NS, s["tau_stop_ns"] * NS)
        step = s["tau_step_ns"] * NS
        n = c.sequence.n_pulses
        return {
            "scan_tau_exact": log.call("scan_tau_exact", scan_tau, c.spins, c.field, n,
                                       taus, step, "exact", c.constants),
            "scan_tau_magnus": log.call("scan_tau_magnus", scan_tau, c.spins, c.field, n,
                                        taus, step, "magnus", c.constants),
            "scan_n": log.call("scan_n", scan_n, c.spins, c.field, c.sequence.tau,
                               s["n_max"], c.propagator_mode, c.constants),
            "scan_2d": log.call("scan_2d", scan_2d, c.spins, c.field, taus, step,
                                s["n_list"], c.propagator_mode, c.constants),
            "entanglement": log.call("entanglement", entanglement_vs_n,
                                     *self.readout, 48, "magnus"),
            "fit": log.call("fit", fit_hyperfine, noisy, c.field, n_grid=8,
                            consts=c.constants),
        }

    def check(self, noisy, out, log):
        s = self.cfg.scan
        n_tau = int(round((s["tau_stop_ns"] - s["tau_start_ns"]) / s["tau_step_ns"])) + 1
        shapes = {"scan_tau_exact": (n_tau,), "scan_tau_magnus": (n_tau,),
                  "scan_n": (s["n_max"],), "scan_2d": (n_tau, len(s["n_list"]))}
        cells = 0
        for name, shape in shapes.items():
            if out[name] is not None:
                values = out[name].values
                log.check(name, values.shape == shape and np.all(np.isfinite(values)),
                          f"shape {values.shape} != {shape} or non-finite values")
                cells += values.size
        ent = out["entanglement"]
        if ent is not None:
            # CPMG-12 is the projective working point: one full bit
            log.check("entanglement", abs(ent[1][11] - 1.0) < 1e-6,
                      f"entropy at N=12 is {ent[1][11]:.6f} bits, not 1")
        fit = out["fit"]
        info = {}
        if fit is not None:
            err = max(abs(fit.a_par - self.truth[0]) / self.truth[0],
                      abs(fit.a_perp - self.truth[1]) / self.truth[1])
            log.check("fit", err <= FIT_TOL, f"fit error {100 * err:.3f}% > {100 * FIT_TOL}%")
            info["fit_s"] = log.seconds["fit"]
            info["fit_err"] = err
        scan_s = sum(log.seconds[name] for name in shapes)
        info["scan_cells_per_s"] = cells / scan_s
        return info


class Readout(Workload):
    """The trace pipeline through ``ddread.cli.main`` on the demo config.

    One operation runs ``ssr --points 20000`` (magnus, projective: the
    aggregate point sampler) and ``analyze`` on its trace, ``ssr --points 4``
    with ``propagator_mode: exact`` (non-projective: the 40,000-cycle
    trajectory path), and ``analyze`` on a generated 300,000-point telegraph
    trace (CSV parsing and the analysis loops).  The last two are smaller
    than the paper-scale runs so that a run holds many operations.
    """

    name = "readout"
    points = 20000
    exact_points = 4
    telegraph_points = 300_000

    def prepare(self):
        self.point_s = load_config(self.config_path).readout.point_duration
        doc = yaml.safe_load(self.config_path.read_text())
        doc["propagator_mode"] = "exact"
        self.work.mkdir(parents=True, exist_ok=True)
        self.exact_config = self.work / "exact.yaml"
        self.exact_config.write_text(yaml.safe_dump(doc))
        # a separate process, so its memory stays out of this one's peak RSS
        subprocess.run([sys.executable, str(HERE / "telegraph.py"), "--seed", str(self.seed),
                        "--points", str(self.telegraph_points), "--out", str(self.work)],
                       check=True, stdout=subprocess.DEVNULL, timeout=120)
        self.truth = json.loads((self.work / "telegraph.truth.json").read_text())

    def call(self, cli_seed, log):
        w = self.work
        seed = ["--seed", str(cli_seed)]
        demo = ["--config", str(self.config_path)] + seed + ["--out", str(w / "ssr")]
        exact = ["--config", str(self.exact_config)] + seed + ["--out", str(w / "exact")]
        tele = ["--config", str(self.config_path), "--out", str(w / "telegraph")]
        return {
            "ssr": log.call("ssr", main, demo + ["ssr", "--points", str(self.points)]),
            "analyze": log.call("analyze", main,
                                demo + ["analyze", "--trace", str(w / "ssr" / "trace.csv")]),
            "ssr_exact": log.call("ssr_exact", main,
                                  exact + ["ssr", "--points", str(self.exact_points)]),
            "analyze_telegraph": log.call(
                "analyze_telegraph", main,
                tele + ["analyze", "--trace", str(w / "telegraph.csv")]),
        }

    def check_trace(self, log, name, path, n_points):
        counts, hidden = read_trace(path)
        log.check(name, len(counts) == n_points and counts.min() >= 0
                  and set(np.unique(hidden)) <= {-1, 1},
                  "trace has wrong length, negative counts or hidden states not +-1")
        return hidden

    def check(self, cli_seed, out, log):
        w = self.work
        for name, rc in out.items():
            log.check(name, rc == 0, f"exit code {rc}")
        trace_csv = w / "ssr" / "trace.csv"
        hidden = self.check_trace(log, "ssr", trace_csv, self.points)
        self.check_trace(log, "ssr_exact", w / "exact" / "trace.csv", self.exact_points)
        report = json.loads((w / "ssr" / "fidelity_report.json").read_text())
        # Criterion 6 is gated on the telegraph trace below.  On this
        # 20,000-point trace the dwell-mean estimate carries a known bias
        # (+5% median against the hidden states, up to +14% on single
        # traces; ROADMAP item 5), so its error is reported, not gated.
        dwell_err = check_report(log, "analyze", report, FIDELITY_TARGET,
                                 telegraph.interior_dwell_mean(hidden), self.point_s)
        t = self.truth
        report = json.loads((w / "telegraph" / "fidelity_report.json").read_text())
        tele_err = check_report(log, "analyze_telegraph", report,
                                min(t["fidelity_up"], t["fidelity_down"]),
                                t["dwell_mean_points"], t["point_duration_s"])
        log.check("analyze_telegraph", abs(tele_err) <= DWELL_TOL,
                  f"dwell-mean error {100 * tele_err:+.2f}% vs generator truth")
        sec = log.seconds
        return {
            "trace_points_per_s": self.points / sec["ssr"],
            "exact_trace_points_per_s": self.exact_points / sec["ssr_exact"],
            "analysis_points_per_s": self.telegraph_points / sec["analyze_telegraph"],
            "dwell_err": dwell_err, "telegraph_dwell_err": tele_err, "cli_seed": cli_seed,
            "trace_sha256": hashlib.sha256(trace_csv.read_bytes()).hexdigest(),
        }



WORKLOADS = {w.name: w for w in (Spectroscopy, Readout)}
