"""YAML configuration schema and the command-line surface."""

import hashlib
import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import yaml

from ddread.cli import main, read_curve_csv
from ddread.config import ConfigError, load_config, parse_config, snapshot_json
from ddread.measurement import read_trace_csv
from ddread.spincore import effective_frame

from conftest import TWO_PI_KHZ

BASE = {
    "field_gauss": 305.0,
    "spins": [{"a_par_khz": 330.0, "a_perp_khz": 200.0}],
    "sequence": {"n_pulses": 12, "tau_ns": 483.0},
    "scan": {"mode": "tau", "tau_start_ns": 400.0, "tau_stop_ns": 560.0,
             "tau_step_ns": 4.0},
    "seed": 11,
}


DEMO = str(Path(__file__).resolve().parent.parent / "demos" / "run_config.yaml")


def write_config(tmp_path, doc, name="run.yaml"):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(doc))
    return str(path)


# ------------------------------------------------------------------ schema


def test_parse_valid_config():
    cfg = parse_config(dict(BASE))
    assert cfg.field.b_magnitude == pytest.approx(305.0e-4)
    assert cfg.sequence.n_pulses == 12
    assert cfg.sequence.tau == pytest.approx(483e-9)
    assert cfg.seed == 11
    frame = effective_frame(cfg.spins[0], cfg.field)
    assert frame.a_perp / TWO_PI_KHZ == pytest.approx(200.0, rel=1e-9)


def test_unknown_keys_rejected():
    doc = dict(BASE)
    doc["bogus"] = 1
    with pytest.raises(ConfigError):
        parse_config(doc)
    doc = dict(BASE)
    doc["readout"] = {"cycles_per_point": 100, "typo_key": 2}
    with pytest.raises(ConfigError):
        parse_config(doc)


def test_invalid_values_rejected():
    for patch in (
        {"field_gauss": -10.0},
        {"sequence": {"n_pulses": 0, "tau_ns": 100.0}},
        {"sequence": {"n_pulses": 2.5, "tau_ns": 100.0}},
        {"seed": -3},
        {"propagator_mode": "approximate"},
        {"spins": [{"a_par_khz": 1.0, "a_vec_khz": [1, 2, 3]}]},
    ):
        doc = dict(BASE)
        doc.update(patch)
        with pytest.raises(ConfigError):
            parse_config(doc)


def test_spin_vector_form():
    doc = dict(BASE)
    doc["spins"] = [{"a_vec_khz": [200.0, 0.0, 330.0]}]
    cfg = parse_config(doc)
    assert np.allclose(cfg.spins[0].a_vec / TWO_PI_KHZ, [200.0, 0.0, 330.0])


def test_snapshot_roundtrip(tmp_path):
    path = write_config(tmp_path, BASE)
    cfg = load_config(path)
    snap = json.loads(snapshot_json(cfg))
    cfg2 = parse_config(snap["config"])
    assert cfg2.content_hash() == cfg.content_hash()
    assert snap["config_sha256"] == cfg.content_hash()


# --------------------------------------------------------------------- CLI


def test_cli_missing_config_exits_2(tmp_path, capsys):
    assert main(["--config", str(tmp_path / "nope.yaml"),
                 "--out", str(tmp_path), "scan"]) == 2


def test_cli_schema_error_exits_2(tmp_path):
    path = write_config(tmp_path, {**BASE, "oops": True})
    assert main(["--config", path, "--out", str(tmp_path), "scan"]) == 2


def test_cli_scan_deterministic_and_flat_for_decoupled(tmp_path, capsys):
    doc = dict(BASE)
    doc["spins"] = [{"a_vec_khz": [0.0, 0.0, 0.0]}]
    path = write_config(tmp_path, doc)
    assert main(["--config", path, "--out", str(tmp_path), "scan"]) == 0
    out = tmp_path / "scan_tau.csv"
    first = out.read_text()
    values = [float(l.split(",")[1]) for l in first.strip().splitlines()[3:]]
    assert np.allclose(values, 1.0, atol=1e-12)
    assert main(["--config", path, "--out", str(tmp_path), "scan"]) == 0
    assert out.read_text() == first  # byte-identical rerun


def test_cli_scan_header_and_hash(tmp_path):
    path = write_config(tmp_path, BASE)
    main(["--config", path, "--out", str(tmp_path), "scan"])
    lines = (tmp_path / "scan_tau.csv").read_text().splitlines()
    assert lines[0].startswith("# config_sha256=")
    assert "seed=11" in lines[0]
    assert lines[1] == "# axis=tau n_pulses=12 propagator_mode=exact"
    assert lines[2] == "tau_ns,coherence"


def test_cli_map2d(tmp_path):
    doc = dict(BASE)
    doc["scan"] = {**BASE["scan"], "n_list": [2, 4]}
    path = write_config(tmp_path, doc)
    assert main(["--config", path, "--out", str(tmp_path), "map2d"]) == 0
    lines = (tmp_path / "map2d.csv").read_text().strip().splitlines()
    assert lines[1] == "tau_ns,n_pulses,coherence"
    n_taus = len(np.arange(400.0, 560.0 + 2.0, 4.0))
    assert len(lines) == 2 + 2 * n_taus


def test_cli_curve_csv_roundtrip(tmp_path):
    path = write_config(tmp_path, {**BASE, "propagator_mode": "magnus"})
    main(["--config", path, "--out", str(tmp_path), "scan"])
    out = tmp_path / "scan_tau.csv"
    curve = read_curve_csv(out)
    assert curve.axis == "tau"
    assert curve.n_pulses == 12
    assert curve.abscissa[0] == pytest.approx(400e-9)
    assert curve.propagator_mode == "magnus"
    # files written before the mode was recorded hold exact-model curves
    out.write_text(out.read_text().replace(" propagator_mode=magnus", ""))
    assert read_curve_csv(out).propagator_mode == "exact"


def test_cli_ssr_analyze_roundtrip(tmp_path):
    doc = {
        "field_gauss": 691.0,
        # projective working point (2 N Phi = pi/2 at N = 12, tau = 248 ns)
        "spins": [{"a_par_khz": 541.7443183523178,
                   "a_perp_khz": 131.95533659231322}],
        "sequence": {"n_pulses": 12, "tau_ns": 248.0},
        "propagator_mode": "magnus",
        "seed": 7,
    }
    path = write_config(tmp_path, doc)
    assert main(["--config", path, "--out", str(tmp_path),
                 "ssr", "--points", "3000"]) == 0
    assert main(["--config", path, "--out", str(tmp_path),
                 "analyze", "--trace", str(tmp_path / "trace.csv")]) == 0
    report = json.loads((tmp_path / "fidelity_report.json").read_text())
    assert 0.9 < report["fidelity_up"] <= 1.0
    assert 0.9 < report["fidelity_down"] <= 1.0
    assert report["seed"] == 7
    snap = json.loads((tmp_path / "config_snapshot.json").read_text())
    assert snap["seed"] == 7
    # seed override via flag changes the trace
    first = (tmp_path / "trace.csv").read_text()
    assert main(["--config", path, "--seed", "8", "--out", str(tmp_path),
                 "ssr", "--points", "3000"]) == 0
    assert (tmp_path / "trace.csv").read_text() != first


def test_cli_analyze_low_statistics_exits_4(tmp_path):
    doc = {
        "field_gauss": 691.0,
        "spins": [{"a_par_khz": 541.7443183523178,
                   "a_perp_khz": 131.95533659231322}],
        "sequence": {"n_pulses": 12, "tau_ns": 248.0},
        "propagator_mode": "magnus",
        "seed": 7,
    }
    path = write_config(tmp_path, doc)
    main(["--config", path, "--out", str(tmp_path), "ssr", "--points", "400"])
    assert main(["--config", path, "--out", str(tmp_path),
                 "analyze", "--trace", str(tmp_path / "trace.csv")]) == 4


def test_cli_analyze_two_column_trace(tmp_path):
    """An experimental trace has neither hidden states nor a seed comment:
    the same fidelities, null initialization fidelities, the run's seed."""
    assert main(["--config", DEMO, "--out", str(tmp_path),
                 "ssr", "--points", "3000"]) == 0
    trace = tmp_path / "trace.csv"
    assert main(["--config", DEMO, "--out", str(tmp_path),
                 "analyze", "--trace", str(trace)]) == 0
    full = json.loads((tmp_path / "fidelity_report.json").read_text())
    bare = tmp_path / "bare.csv"
    bare.write_text("".join(line.rsplit(",", 1)[0] + "\n"
                            for line in trace.read_text().splitlines()[1:]))
    assert bare.read_text().startswith("point_index,photon_count\n0,")
    out = tmp_path / "bare"
    assert main(["--config", DEMO, "--seed", "3", "--out", str(out),
                 "analyze", "--trace", str(bare)]) == 0
    report = json.loads((out / "fidelity_report.json").read_text())
    assert report["init_fidelity_up"] is None
    assert report["init_fidelity_down"] is None
    assert full["init_fidelity_up"] > 0.9 and full["seed"] == 7
    assert report["seed"] == 3
    for key in ("fidelity_up", "fidelity_down", "optimal_threshold",
                "t1n_up_s", "t1n_down_s", "threshold_curve"):
        assert report[key] == full[key]


def test_read_trace_csv_carries_the_run_readout(tmp_path):
    """The trace gets the run's readout settings with the file's seed."""
    readout = load_config(DEMO).readout
    path = tmp_path / "trace.csv"
    path.write_text("# config_sha256=abc seed=42\n"
                    "point_index,photon_count,hidden_state\n0,2400,1\n1,2300,-1\n")
    trace = read_trace_csv(path, readout)
    assert trace.seed == 42
    assert trace.config == replace(readout, seed=42)
    assert trace.points.tolist() == [2400, 2300]
    assert trace.hidden_states.tolist() == [1, -1]
    path.write_text("0,2400\n1,2300\n")
    trace = read_trace_csv(path, readout)
    assert trace.config == readout and trace.hidden_states is None


def test_trace_with_a_negative_seed_exits_2(tmp_path, capsys):
    """A trace's seed obeys the rule of ``--seed``: non-negative."""
    trace = tmp_path / "trace.csv"
    trace.write_text("# config_sha256=abc seed=-3\n"
                     "point_index,photon_count,hidden_state\n0,2400,1\n")
    assert main(["--config", DEMO, "--out", str(tmp_path),
                 "analyze", "--trace", str(trace)]) == 2
    assert f"{trace}, line 1" in capsys.readouterr().err
    assert not (tmp_path / "fidelity_report.json").exists()


@pytest.mark.parametrize("args, sha256", [
    (["ssr", "--points", "5000"],
     "a050d84f6f08cde415adad1f262632712dbc1f2e0cb1dcf939166859fb3844fb"),
    (["--seed", "5", "ssr", "--points", "20000"],
     "60d57e225f7b3071d162e0bc068653ec4b8657cdee9a7cb57f1f03f57fce2fad"),
], ids=["5000-seed-7", "20000-seed-5"])
def test_cli_ssr_trace_bytes(tmp_path, args, sha256):
    """The demo config's traces, byte for byte: the sampler's stream layout,
    the engine and the CSV writer are pinned together."""
    assert main(["--config", DEMO, "--out", str(tmp_path)] + args) == 0
    data = (tmp_path / "trace.csv").read_bytes()
    assert hashlib.sha256(data).hexdigest() == sha256


@pytest.mark.parametrize("row", ["3,2400,1,0", "3,24x0,1", "3,2400", "3,,1",
                                 "3,2400,0", "3,2400,300", "3,-5,1",
                                 "3,99999999999999999999,1"])
def test_cli_analyze_malformed_row_exits_2(tmp_path, capsys, row):
    """A malformed trace row is bad input (exit 2), reported with its line."""
    trace = tmp_path / "trace.csv"
    trace.write_text("point_index,photon_count,hidden_state\n"
                     "0,2400,1\n1,2300,-1\n2,2500,1\n" + row + "\n4,2350,-1\n")
    assert main(["--config", DEMO, "--out", str(tmp_path),
                 "analyze", "--trace", str(trace)]) == 2
    assert "line 5" in capsys.readouterr().err
    assert not (tmp_path / "fidelity_report.json").exists()


def test_cli_fit_roundtrip(tmp_path):
    doc = dict(BASE)
    doc["scan"] = {"mode": "tau", "tau_start_ns": 420.0, "tau_stop_ns": 580.0,
                   "tau_step_ns": 2.0}
    path = write_config(tmp_path, doc)
    main(["--config", path, "--out", str(tmp_path), "scan"])
    doc_n = dict(doc)
    # N sweep at the first-order resonance of the same spin
    doc_n["sequence"] = {"n_pulses": 12, "tau_ns": 525.2}
    doc_n["scan"] = {"mode": "n", "n_max": 24}
    path_n = write_config(tmp_path, doc_n, name="run_n.yaml")
    main(["--config", path_n, "--out", str(tmp_path), "scan"])
    assert main(["--config", path, "--out", str(tmp_path),
                 "fit", str(tmp_path / "scan_tau.csv"),
                 str(tmp_path / "scan_n.csv")]) == 0
    fit = json.loads((tmp_path / "hyperfine_fit.json").read_text())
    assert fit["a_par_khz"] == pytest.approx(330.0, rel=0.01)
    assert fit["a_perp_khz"] == pytest.approx(200.0, rel=0.01)
    assert not fit["degenerate"]


@pytest.mark.parametrize("axis_line", [
    "# axis=tau n_pulses=12 propagator_mode=magnsu",  # unknown mode
    "# axis=tau propagator_mode=exact",  # no pulse number
])
def test_cli_fit_bad_curve_metadata_exits_2(tmp_path, axis_line):
    """A curve file with bad metadata is bad input (exit 2), not a crash."""
    curve = tmp_path / "scan_tau.csv"
    curve.write_text(axis_line + "\ntau_ns,coherence\n200,0.5\n210,0.4\n")
    assert main(["--config", DEMO, "--out", str(tmp_path), "fit", str(curve)]) == 2
    assert not (tmp_path / "hyperfine_fit.json").exists()


def test_cli_fit_malformed_curve_row_exits_2(tmp_path, capsys):
    """A curve row that is not two numbers is bad input, named by its line."""
    curve = tmp_path / "scan_tau.csv"
    curve.write_text("# axis=tau n_pulses=12 propagator_mode=magnus\n"
                     "tau_ns,coherence\n200,0.5\n210\n")
    assert main(["--config", DEMO, "--out", str(tmp_path), "fit", str(curve)]) == 2
    assert f"{curve}, line 4" in capsys.readouterr().err
    assert not (tmp_path / "hyperfine_fit.json").exists()


def test_cli_refuses_the_removed_readout_threshold(tmp_path):
    doc = dict(BASE, thresholds={"init_low": 2300, "init_high": 2520,
                                 "readout_threshold": 2400})
    assert main(["--config", write_config(tmp_path, doc), "--out",
                 str(tmp_path), "scan"]) == 2
    assert not (tmp_path / "scan_tau.csv").exists()


def test_cli_fit_uses_the_scan_model(tmp_path):
    """The demo config scans with the magnus model; the fit must use it too."""
    assert main(["--config", DEMO, "--out", str(tmp_path), "scan"]) == 0
    scan = tmp_path / "scan_tau.csv"
    assert main(["--config", DEMO, "--out", str(tmp_path), "fit", str(scan)]) == 0
    fit = json.loads((tmp_path / "hyperfine_fit.json").read_text())
    truth = yaml.safe_load(Path(DEMO).read_text())["spins"][0]
    assert fit["a_par_khz"] == pytest.approx(truth["a_par_khz"], rel=1e-6)
    assert fit["a_perp_khz"] == pytest.approx(truth["a_perp_khz"], rel=1e-6)
    # regression pins: the fit of the per-point forward model gave these
    assert fit["n_starts"] == 5 and not fit["degenerate"]
    assert fit["a_par_khz"] == pytest.approx(541.7443183523178, rel=1e-9)
    assert fit["a_perp_khz"] == pytest.approx(131.9553365923131, rel=1e-9)
    # curves from different models are refused as a configuration error
    exact = tmp_path / "scan_exact.csv"
    exact.write_text(scan.read_text().replace("propagator_mode=magnus",
                                              "propagator_mode=exact"))
    assert main(["--config", DEMO, "--out", str(tmp_path),
                 "fit", str(scan), str(exact)]) == 2
