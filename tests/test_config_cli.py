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
from ddread.measurement import read_trace_csv, simulate_trace
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


# YAML key -> (dataclass field, YAML value, field value) for each section read
# by table; every value differs from the field's default
_EVERY_KEY = {
    "constants": {"gamma_n": ("gamma_n", 7.0e7, 7.0e7)},
    "sequence": {"n_pulses": ("n_pulses", 8, 8),
                 "tau_ns": ("tau", 300.0, 300.0e-9)},
    "readout": {
        "cycles_per_point": ("cycles_per_point", 1000, 1000),
        "photon_rate_bright": ("photon_rate_bright", 0.07, 0.07),
        "photon_rate_dark": ("photon_rate_dark", 0.05, 0.05),
        "t1n_up_s": ("t1n_up", 5.0, 5.0),
        "t1n_down_s": ("t1n_down", 1e300, 1e300),
        "point_duration_s": ("point_duration", 0.2, 0.2),
        "electron_init_error": ("electron_init_error", 0.05, 0.05),
        "pi_pulse_error": ("pi_pulse_error", 1e-4, 1e-4),
    },
    "thresholds": {"init_low": ("init_low", 2200, 2200),
                   "init_high": ("init_high", 2600, 2600)},
}


def _every_key_document():
    """BASE with every key of ``_EVERY_KEY`` set."""
    return {**BASE, **{name: {key: value for key, (_, value, _) in keys.items()}
                       for name, keys in _EVERY_KEY.items()}}


def test_schema_sets_each_field_by_one_key():
    """Each field of the table-read sections' dataclasses (but the readout's
    seed, which the top-level key sets) is set by exactly one YAML key, and
    a document that sets every key parses to exactly those values."""
    from dataclasses import fields

    from ddread.config import _SECTIONS

    assert set(_SECTIONS) == set(_EVERY_KEY)
    cfg = parse_config(_every_key_document())
    for name, keys in _EVERY_KEY.items():
        cls, table = _SECTIONS[name]
        assert {key: attr for key, (attr, _) in table.items()} == {
            key: attr for key, (attr, _, _) in keys.items()}
        assert sorted(attr for attr, _, _ in keys.values()) == sorted(
            f.name for f in fields(cls) if f.name != "seed")
        built = getattr(cfg, name)
        for attr, _, want in keys.values():
            assert getattr(built, attr) == pytest.approx(want, rel=1e-15)
    assert cfg.readout.seed == BASE["seed"]


def test_snapshot_roundtrip(tmp_path):
    """BASE, the every-key document (a 1e300 T1 included) and the demo
    config each read back from their snapshot to the same document, in
    strict JSON with no infinity."""
    for path in (write_config(tmp_path, BASE),
                 write_config(tmp_path, _every_key_document(), "every.yaml"),
                 DEMO):
        cfg = load_config(path)
        text = snapshot_json(cfg)
        assert not any(word in text for word in ("Infinity", "NaN", "1e999"))
        snap = json.loads(text)
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


@pytest.mark.parametrize("text", [
    "field_gauss: 305.0\nsequence: [12,\n",
    "field_gauss: 305.0\n? [a, b]\n: 1\n",
], ids=["unclosed", "unhashable-key"])
def test_cli_malformed_yaml_exits_2(tmp_path, capsys, text):
    path = tmp_path / "run.yaml"
    path.write_text(text)
    assert main(["--config", str(path), "--out", str(tmp_path), "scan"]) == 2
    assert "invalid YAML" in capsys.readouterr().err


# The demo config with one key given twice, at the top level and nested; the
# last value would win without the check, e.g. a run at 305 G.
@pytest.mark.parametrize("line, repeat", [
    ("field_gauss: 691.0", "field_gauss: 305.0"),
    ("  t1n_up_s: 15.0", "  t1n_up_s: 1.0"),
    ("  init_low: 2300", "  init_low: 2100"),
], ids=["top", "readout", "thresholds"])
def test_cli_duplicate_key_exits_2(tmp_path, capsys, line, repeat):
    lines = Path(DEMO).read_text().splitlines()
    lineno = lines.index(line) + 2  # of the repeat, 1-based
    lines.insert(lineno - 1, repeat)
    path = tmp_path / "run.yaml"
    path.write_text("\n".join(lines) + "\n")
    assert main(["--config", str(path), "--out", str(tmp_path), "ssr",
                 "--points", "2"]) == 2
    err = capsys.readouterr().err
    key = repeat.split(":")[0].strip()
    assert "invalid YAML" in err
    assert f"found duplicate key {key!r}" in err and f"line {lineno}," in err
    assert not (tmp_path / "trace.csv").exists()


def test_strict_loader_parses_as_safe_load():
    """The duplicate-key loader builds the same document as yaml.safe_load,
    merge keys included, so config_sha256 does not move."""
    from ddread.config import _StrictLoader

    demo = Path(DEMO).read_text()
    assert yaml.load(demo, Loader=_StrictLoader) == yaml.safe_load(demo)
    merged = "a: &x {b: 1, c: 2}\nd:\n  <<: *x\n  b: 3\n"
    assert yaml.load(merged, Loader=_StrictLoader) == yaml.safe_load(merged)


@pytest.mark.parametrize("patch", [
    {"thresholds": {"init_low": "2300"}},
    {"thresholds": {"init_low": 2300.9}},
    {"thresholds": {"init_high": True}},
    {"readout": {"cycles_per_point": 40000.0}},
    {"seed": "abc"},
    {"seed": 7.0},
    {"readout": {"cycles_per_point": 2**70}},
    {"sequence": {"n_pulses": 2**70, "tau_ns": 248.0}},
    {"seed": -1},
    {"seed": 2**63},
    {"seed": 2**64 + 7},
], ids=["low-str", "low-float", "high-bool", "cycles-float", "seed-str",
        "seed-float", "cycles-2**70", "n_pulses-2**70", "seed-negative",
        "seed-2**63", "seed-2**64+7"])
def test_cli_non_integer_field_exits_2(tmp_path, capsys, patch):
    key = next(iter(patch))
    name = f"config.{key}" if key == "seed" else f"{key}.{next(iter(patch[key]))}"
    path = write_config(tmp_path, {**BASE, **patch})
    assert main(["--config", path, "--out", str(tmp_path), "scan"]) == 2
    err = capsys.readouterr().err
    assert f"config error: {name}: expected an integer" in err


_NAN, _INF = float("nan"), float("inf")


# (section, key) of every float key of the schema; a_vec_khz[1] is an entry
# of the spin's vector form
_FLOAT_KEYS = [
    (None, "field_gauss"), ("constants", "gamma_n"),
    ("spins", "a_par_khz"), ("spins", "a_vec_khz[1]"),
    ("sequence", "tau_ns"), ("scan", "tau_start_ns"), ("scan", "tau_stop_ns"),
    ("scan", "tau_step_ns"), ("readout", "photon_rate_bright"),
    ("readout", "photon_rate_dark"), ("readout", "t1n_up_s"),
    ("readout", "t1n_down_s"), ("readout", "point_duration_s"),
    ("readout", "electron_init_error"), ("readout", "pi_pulse_error"),
]


def _with_value(section, key, value):
    """BASE with one float key set to ``value``, and that key's name."""
    doc = json.loads(json.dumps(BASE))
    if section is None:
        doc[key] = value
        return doc, f"config.{key}"
    if section == "spins":
        if key == "a_vec_khz[1]":
            doc["spins"] = [{"a_vec_khz": [200.0, value, 330.0]}]
        else:
            doc["spins"][0][key] = value
        return doc, f"spins[0].{key}"
    doc.setdefault(section, {})[key] = value
    return doc, f"{section}.{key}"


@pytest.mark.parametrize("section,key", _FLOAT_KEYS,
                         ids=[k for _, k in _FLOAT_KEYS])
def test_cli_nan_exits_2(tmp_path, capsys, section, key):
    """YAML .nan is refused for every float key, naming the key."""
    doc, name = _with_value(section, key, _NAN)
    path = write_config(tmp_path, doc)
    assert "nan" in Path(path).read_text()
    assert main(["--config", path, "--out", str(tmp_path), "scan"]) == 2
    err = capsys.readouterr().err
    assert f"config error: {name}: expected a" in err and "got nan" in err


@pytest.mark.parametrize("section,key,value", [
    pytest.param(s, k, v, id=f"{k}={v}")
    for s, k in _FLOAT_KEYS for v in (_INF, -_INF)] + [
    pytest.param(None, "field_gauss", 10**400, id="field_gauss=10**400")] + [
    pytest.param("spins", k, 1.0e306, id=f"{k}=1e306")
    for k in ("a_par_khz", "a_perp_khz", "a_vec_khz[1]")])
def test_cli_infinite_exits_2(tmp_path, capsys, section, key, value):
    """An infinite value, an int beyond float's range, or a kHz value whose
    rad/s is beyond it, is refused for every float key, a T1 too, as one
    ``config error:`` line with no warning from the physics behind it,
    before the output directory is made."""
    doc, name = _with_value(section, key, value)
    path = write_config(tmp_path, doc)
    out = tmp_path / "out"
    assert main(["--config", path, "--out", str(out), "scan"]) == 2
    assert capsys.readouterr().err == (
        f"config error: {name}: expected a finite number, got {value!r}\n")
    assert not out.exists()


def test_cli_infinite_t1_is_frozen(tmp_path):
    """A T1 of 1e300 s is a frozen one: its per-cycle flip probability is
    exactly 0, so ``ssr`` writes the trace of an infinite T1, whose hidden
    state stays where the first point put it, and the snapshot is strict
    JSON that reads back to the same document."""
    text = Path(DEMO).read_text()
    for key in ("t1n_up_s", "t1n_down_s"):
        assert f"  {key}: 15.0\n" in text
        text = text.replace(f"  {key}: 15.0\n", f"  {key}: 1.0e+300\n")
    path = write_text(tmp_path, text)
    # 400 points are 76 s, five times the demo's finite T1
    assert main(["--config", path, "--out", str(tmp_path), "ssr",
                 "--points", "400"]) == 0
    cfg = load_config(DEMO)
    trace = read_trace_csv(tmp_path / "trace.csv", cfg.readout)
    frozen = simulate_trace(
        cfg.spins[0], cfg.field, cfg.sequence,
        replace(cfg.readout, t1n_up=_INF, t1n_down=_INF), 400,
        cfg.propagator_mode, cfg.constants)
    assert np.array_equal(trace.points, frozen.points)
    assert np.array_equal(trace.hidden_states, frozen.hidden_states)
    assert len(set(trace.hidden_states)) == 1
    snap = json.loads((tmp_path / "config_snapshot.json").read_text())
    assert parse_config(snap["config"]).content_hash() == snap["config_sha256"]
    assert snap["config_sha256"] == load_config(path).content_hash()


def test_snapshot_json_refuses_nan():
    """No NaN reaches a snapshot: ``parse_config`` refuses NaN in every key
    it reads, scan.n_max too, and a document that holds one, or an
    infinity, anyway makes the snapshot raise."""
    with pytest.raises(ConfigError, match="scan.n_max"):
        parse_config({**BASE, "scan": {"mode": "tau", "n_max": _NAN}})
    for bad in (_NAN, _INF, -_INF):
        cfg = replace(parse_config(BASE), raw={**BASE, "scan": {"n_max": bad}})
        with pytest.raises(ValueError):
            snapshot_json(cfg)


def write_text(tmp_path, text):
    path = tmp_path / "run.yaml"
    path.write_text(text)
    return str(path)


# a bad scan line for the demo config, and the key its error names
_BAD_SCAN_LINES = [
    ("  mode: taus", "scan.mode"), ("  mode: 1", "scan.mode"),
    ("  n_max: .nan", "scan.n_max"), ("  n_max: 0", "scan.n_max"),
    ("  n_max: -4", "scan.n_max"), ("  n_max: 24.0", "scan.n_max"),
    ("  n_max: true", "scan.n_max"), ("  n_max: '24'", "scan.n_max"),
    ("  n_list: []", "scan.n_list"), ("  n_list: 4", "scan.n_list"),
    ("  n_list: [2, 0]", "scan.n_list[1]"), ("  n_list: [2, 4.0]", "scan.n_list[1]"),
    ("  n_list: [.nan]", "scan.n_list[0]"), ("  n_list: [true]", "scan.n_list[0]"),
    (f"  n_list: [{2**70}]", "scan.n_list[0]"), (f"  n_max: {2**63}", "scan.n_max"),
    # numpy's arange would give an empty n scan: its length rounds to 2**63
    (f"  n_max: {2**63 - 1}", "scan.n_max"), (f"  n_max: {2**63 - 512}", "scan.n_max"),
]


@pytest.mark.parametrize("line, name", _BAD_SCAN_LINES, ids=[
    line.strip().replace(" ", "") for line, _ in _BAD_SCAN_LINES])
def test_cli_bad_scan_key_exits_2_before_any_output(tmp_path, capsys, line, name):
    """The scan keys are checked when the config is parsed, so ``ssr``,
    which does not read them, refuses a bad one before it writes a trace."""
    key = line.split(":")[0].strip()
    text = Path(DEMO).read_text()
    lines = [ln for ln in text.splitlines() if not ln.startswith(f"  {key}:")]
    path = write_text(tmp_path, "\n".join(lines).replace(
        "scan:", "scan:\n" + line) + "\n")
    assert main(["--config", path, "--out", str(tmp_path), "ssr",
                 "--points", "20"]) == 2
    assert f"config error: {name}: expected " in capsys.readouterr().err
    assert not (tmp_path / "trace.csv").exists()
    assert not (tmp_path / "config_snapshot.json").exists()


@pytest.mark.parametrize("command", ["scan", "map2d"])
@pytest.mark.parametrize("key, value", [
    ("tau_start_ns", "400.0"), ("tau_start_ns", "300.0"),  # start >= stop
    ("tau_step_ns", "0.0"), ("tau_step_ns", "-1.0"),
    ("tau_step_ns", "1.0e-320"),  # 0 s once scaled to seconds
    ("tau_start_ns", "-5.0"), ("tau_start_ns", "0"),
], ids=lambda v: str(v))
def test_cli_bad_tau_range_exits_2_before_any_output(tmp_path, capsys, command,
                                                     key, value):
    """The demo config (tau 200 to 300 ns in 1 ns steps) with one tau key
    made bad fails at parse, as a config error, and leaves no directory."""
    text = Path(DEMO).read_text()
    old = next(ln for ln in text.splitlines() if ln.startswith(f"  {key}:"))
    out = tmp_path / "out"
    assert main(["--config", write_text(tmp_path, text.replace(
        old, f"  {key}: {value}")), "--out", str(out), command]) == 2
    assert capsys.readouterr().err == ("config error: scan: tau_range must be "
                                       "positive increasing and step > 0\n")
    assert not out.exists()


def test_good_scan_keys_parse():
    cfg = parse_config({**BASE, "scan": {"mode": "n", "n_max": 24,
                                         "n_list": [1, 2, 12]}})
    assert cfg.scan == {"mode": "n", "n_max": 24, "n_list": [1, 2, 12]}
    big = parse_config({**BASE, "scan": {"n_max": 2**63 - 513}})
    assert big.scan["n_max"] == 2**63 - 513


@pytest.mark.parametrize("message, line", [
    ("Unable to allocate 745. GiB for an array",
     "error: Unable to allocate 745. GiB for an array"),
    ("", "error: MemoryError"),
], ids=["numpy", "bare"])
def test_cli_out_of_memory_exits_3_before_any_output(tmp_path, capsys,
                                                     monkeypatch, message, line):
    """A scan that numpy cannot allocate (``n_max: 100000000000`` asks for
    745 GiB) is a runtime error: exit 3 with one ``error:`` line, named by
    its type if it has no message, and no output directory."""
    import ddread.cli as cli

    def out_of_memory(*args):
        raise MemoryError(message)

    monkeypatch.setattr(cli, "scan_n", out_of_memory)
    text = Path(DEMO).read_text().replace("  mode: tau",
                                          "  mode: n\n  n_max: 100000000000")
    out = tmp_path / "out"
    assert main(["--config", write_text(tmp_path, text), "--out", str(out),
                 "scan"]) == 3
    assert capsys.readouterr().err == line + "\n"
    assert not out.exists()


@pytest.mark.parametrize("old, new, name", [
    ("  mode: tau", "  mode: 2024-01-01", "scan.mode"),
    ("  mode: tau", "  mode: !!binary aGVsbG8=", "scan.mode"),
    ("  mode: tau", "  mode: !!set {tau, n}", "scan.mode"),
    ("  n_list: [2, 4, 8, 12]", "  n_list: [2, 2024-01-01]", "scan.n_list[1]"),
    ("  t1n_up_s: 15.0", "  t1n_up_s: 2024-01-01 10:00:00", "readout.t1n_up_s"),
    ("seed: 7", "seed: 2024-01-01", "config.seed"),
], ids=["date", "binary", "set", "date-in-list", "timestamp", "top-level"])
def test_cli_non_json_yaml_value_exits_2(tmp_path, capsys, old, new, name):
    """A YAML value JSON has no form for, anywhere in the document, is a
    config error that names its key, not a traceback from the hash."""
    text = Path(DEMO).read_text()
    assert old in text
    path = write_text(tmp_path, text.replace(old, new, 1))
    assert main(["--config", path, "--out", str(tmp_path), "ssr",
                 "--points", "20"]) == 2
    assert f"config error: {name}: expected a" in capsys.readouterr().err
    assert not (tmp_path / "trace.csv").exists()


_DEMO_SPINS = ("spins:\n  - a_par_khz: 541.7443183523178\n"
               "    a_perp_khz: 131.95533659231322\n")


@pytest.mark.parametrize("value", ["5", "null", "{a: 1}"],
                         ids=["int", "null", "mapping"])
def test_cli_spins_not_a_list_exits_2_before_any_output(tmp_path, capsys, value):
    """``spins`` that is not a list is a config error that says so, not a
    traceback (an int or null) or a complaint about an entry (a mapping)."""
    text = Path(DEMO).read_text()
    assert _DEMO_SPINS in text
    path = write_text(tmp_path, text.replace(_DEMO_SPINS, f"spins: {value}\n"))
    assert main(["--config", path, "--out", str(tmp_path), "ssr",
                 "--points", "2"]) == 2
    assert "config error: spins: expected a list" in capsys.readouterr().err
    assert not (tmp_path / "trace.csv").exists()
    assert not (tmp_path / "config_snapshot.json").exists()


@pytest.mark.parametrize("old, new, message", [
    ("seed: 7\n", "seed: 7\nconstants: {gamma_n: -1.0}\n",
     "constants: gyromagnetic ratio must be strictly positive"),
    ("seed: 7\n", "seed: 7\nconstants: {gamma_n: 0}\n",
     "constants: gyromagnetic ratio must be strictly positive"),
    (_DEMO_SPINS, "spins:\n  - a_vec_khz: [1.0e+306, 0.0, 0.0]\n",
     "spins[0].a_vec_khz[0]: expected a finite number, got 1e+306"),
    ("a_perp_khz: 131.95533659231322", "a_perp_khz: 1.0e+300",
     "spins[0]: a_perp must be smaller than 2 gamma_n B"),
    ("field_gauss: 691.0\n", "field_gauss: 1.0e+305\n",
     "config.field_gauss: (gamma_n B)^2 is beyond float's range"),
    ("seed: 7\n", "seed: 7\nconstants: {gamma_n: 1.0e+300}\n",
     "config.field_gauss: (gamma_n B)^2 is beyond float's range"),
    (_DEMO_SPINS, "spins:\n  - a_vec_khz: [1.0e+300, 0.0, 0.0]\n",
     "spins[0]: |a_vec|^2 is beyond float's range"),
    (_DEMO_SPINS, "spins:\n  - a_vec_khz: [0, 0, 1.0e+300]\n",
     "spins[0]: |a_vec|^2 is beyond float's range"),
    ("photon_rate_bright: 0.063", "photon_rate_bright: 1.0e+300",
     "readout: photon rate times cycles_per_point must not exceed numpy's "
     "Poisson limit"),
], ids=["gamma_n-negative", "gamma_n-zero", "a_vec-1e306", "a_perp-1e300",
        "field-1e305", "gamma_n-1e300", "a_vec-x-1e300", "a_vec-z-1e300",
        "photon-rate-1e300"])
def test_cli_bad_physics_value_exits_2_before_any_output(tmp_path, capsys, old,
                                                        new, message):
    """A constant or hyperfine value that the physics refuses is a config
    error that names its section or spin, with no numpy warning and before
    the output directory is made."""
    text = Path(DEMO).read_text()
    assert old in text
    path = write_text(tmp_path, text.replace(old, new, 1))
    out = tmp_path / "out"
    assert main(["--config", path, "--out", str(out), "ssr",
                 "--points", "2"]) == 2
    err = capsys.readouterr().err
    assert f"config error: {message}" in err and "Warning" not in err
    assert not out.exists()


# the demo's readout section, up to the blank line after it
_DEMO_READOUT = Path(DEMO).read_text().split("readout:\n")[1].split("\n\n")[0]


@pytest.mark.parametrize("old, new, message", [
    (_DEMO_SPINS, "spins: []\n",
     "ssr: config must define exactly one target spin"),
    (_DEMO_SPINS, _DEMO_SPINS + "  - a_par_khz: 100.0\n    a_perp_khz: 50.0\n",
     "ssr: config must define exactly one target spin"),
    (None, "", "config: missing required keys ['field_gauss', 'sequence']"),
    ("readout:\n" + _DEMO_READOUT, "readout: 5", "readout: expected a mapping"),
    ("field_gauss: 691.0\n", "field_gauss: abc\n",
     "config.field_gauss: expected a number, got 'abc'"),
    (_DEMO_SPINS, "spins:\n  - a_vec_khz: [1, 2]\n",
     "spins[0].a_vec_khz: expected 3 numbers"),
    # Python cannot order an int key and a str key
    ("field_gauss: 691.0\n", "field_gauss: 691.0\n1: x\nfoo: y\n",
     "config: unknown keys [1, 'foo']"),
    ("sequence:\n  n_pulses: 12\n  tau_ns: 248.0\n",
     "sequence: {n_pulses: 12, tau_ns: 248, 2: x, bar: y}\n",
     "sequence: unknown keys [2, 'bar']"),
], ids=["no-spin", "two-spins", "empty", "readout-int", "field-str",
        "a_vec-2", "top-int-and-str-keys", "sequence-int-and-str-keys"])
def test_cli_bad_document_exits_2_before_any_output(tmp_path, capsys, old,
                                                    new, message):
    """A document of the wrong shape, or one that ``ssr`` cannot read out,
    is one ``config error:`` line, before the output directory is made;
    ``old`` None replaces the whole document."""
    text = Path(DEMO).read_text()
    assert old is None or old in text
    path = write_text(tmp_path, new if old is None else text.replace(old, new, 1))
    out = tmp_path / "out"
    assert main(["--config", path, "--out", str(out), "ssr",
                 "--points", "2"]) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("seed", ["-1", str(2**63), "18446744073709551623"])
def test_cli_seed_out_of_range_exits_2_before_any_output(tmp_path, capsys,
                                                         seed):
    """``--seed`` takes the config seed's range, [0, 2**63): numpy reads a
    larger Philox key word through float64, so such seeds shared streams
    (2**64 + 7 gave seed 7's trace rows).  Exit 2, no traceback, before the
    output directory is made."""
    out = tmp_path / "out"
    assert main(["--config", DEMO, "--seed", seed, "--out", str(out), "ssr",
                 "--points", "2"]) == 2
    assert capsys.readouterr().err == (
        "config error: --seed must lie in [0, 2**63)\n")
    assert not out.exists()


@pytest.mark.parametrize("points", ["0", "-3"])
def test_cli_ssr_non_positive_points_exits_2_before_any_output(tmp_path, capsys,
                                                               points):
    """A point count below 1 is refused as ``--seed -1`` is: exit 2, before
    the output directory is made."""
    out = tmp_path / "out"
    assert main(["--config", DEMO, "--out", str(out), "ssr",
                 "--points", points]) == 2
    assert "config error: --points must be >= 1" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, old, new, needs", [
    ("scan", "  tau_start_ns: 200.0\n", "", "tau mode needs"),
    ("scan", "  mode: tau\n", "  mode: n\n", "n mode needs n_max"),
    ("map2d", "  n_list: [2, 4, 8, 12]   # used by map2d\n", "", "map2d needs"),
    ("map2d", "  tau_step_ns: 1.0\n", "", "map2d needs"),
], ids=["scan-tau", "scan-n", "map2d-n_list", "map2d-tau"])
def test_cli_missing_scan_key_exits_2_before_any_output(tmp_path, capsys,
                                                        command, old, new,
                                                        needs):
    """A scan key the command reads is checked before the output directory
    is made, as the config's other errors are."""
    text = Path(DEMO).read_text()
    assert old in text
    path = write_text(tmp_path, text.replace(old, new))
    out = tmp_path / "out"
    assert main(["--config", path, "--out", str(out), command]) == 2
    assert f"config error: scan: {needs}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["scan", "map2d"])
def test_cli_normalized_is_not_an_option(tmp_path, capsys, command):
    """Curve files hold the coherence as computed, which ``fit`` inverts;
    argparse refuses a ``--normalized`` flag before any output."""
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main(["--config", DEMO, "--out", str(out), "--normalized", command])
    assert exc.value.code == 2
    assert "unrecognized arguments: --normalized" in capsys.readouterr().err
    assert not out.exists()


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


def test_cli_map2d_keeps_each_column_type(tmp_path):
    """The pulse-number column is written from ints: a float column would
    print 2**53 + 1 as 2**53."""
    doc = {**BASE, "scan": {"tau_start_ns": 400.0, "tau_stop_ns": 404.0,
                            "tau_step_ns": 4.0, "n_list": [12, 2**53 + 1]}}
    assert main(["--config", write_config(tmp_path, doc), "--out",
                 str(tmp_path), "map2d"]) == 0
    rows = (tmp_path / "map2d.csv").read_text().splitlines()[2:]
    assert [row.split(",")[:2] for row in rows] == [
        ["400", "12"], ["400", "9007199254740993"],
        ["404", "12"], ["404", "9007199254740993"]]


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


@pytest.mark.parametrize("outlier", [200_000, 2**62, 2**63 - 1])
def test_cli_analyze_outlier_count_keeps_the_report_small(tmp_path, outlier):
    """One far outlier among the conditional samples adds one curve row, not
    one row per integer up to it (which for 2**62 no memory could hold)."""
    rng = np.random.default_rng(4)
    state = np.repeat(rng.choice([1, -1], size=1000), rng.geometric(1 / 40, 1000))
    counts = rng.poisson(np.where(state[:20_000] == 1, 2520.0, 2300.0))
    counts[:2] = 2600, 0  # a preparation, so that the outlier is a sample
    rows = [f"{i},{c}\n" for i, c in enumerate(counts)]
    rows[1] = f"1,{outlier}\n"
    trace = tmp_path / "trace.csv"
    trace.write_text("point_index,photon_count\n" + "".join(rows))
    assert main(["--config", DEMO, "--out", str(tmp_path),
                 "analyze", "--trace", str(trace)]) == 0
    path = tmp_path / "fidelity_report.json"
    assert path.stat().st_size < 100_000
    report = json.loads(path.read_text())
    curve = np.array(report["threshold_curve"])
    assert len(curve) <= report["n_pairs_up"] + report["n_pairs_down"] + 1
    assert curve[-1, 0] == float(outlier) + 1.0 and curve[-1, 1] == 0.0
    assert 0.9 < min(report["fidelity_up"], report["fidelity_down"]) < 1.0
    hist = (tmp_path / "histograms.csv").read_text().splitlines()
    assert hist[-1] == f"{outlier},1,0"


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
    """A trace's seed obeys the rule of ``--seed``: in [0, 2**63)."""
    trace = tmp_path / "trace.csv"
    out = tmp_path / "out"
    for seed in (-3, 2**63, 2**64 + 7):
        trace.write_text(f"# config_sha256=abc seed={seed}\n"
                         "point_index,photon_count,hidden_state\n0,2400,1\n")
        assert main(["--config", DEMO, "--out", str(out),
                     "analyze", "--trace", str(trace)]) == 2
        assert f"{trace}, line 1" in capsys.readouterr().err
        assert not out.exists()


# The demo config on the exact (non-QND) channel with depolarizing kicks and
# unequal T1: transients, kicks and both flip directions all occur.
EXACT_KICKS = {"propagator_mode": "exact",
               "readout": {"pi_pulse_error": 1e-4, "t1n_up_s": 5.0,
                           "t1n_down_s": 20.0}}


@pytest.mark.parametrize("args, sha256, overrides", [
    (["ssr", "--points", "5000"],
     "adbcc2758908faeda66f78871c2c8f685bde95406ecd238123164077edcb6347", {}),
    (["--seed", "5", "ssr", "--points", "20000"],
     "0b539ada4b29b5edf2b965def57f9fba01b7778e3f772aadff7d31d87cb15f43", {}),
    (["ssr", "--points", "300"],
     "7058d40e3b4c82d38e20274627e4b32b8de727c1fb8da67d5c537f4dfe4e430e", EXACT_KICKS),
], ids=["5000-seed-7", "20000-seed-5", "300-exact-kicks-asymmetric-t1"])
def test_cli_ssr_trace_bytes(tmp_path, args, sha256, overrides):
    """The demo config's traces, byte for byte: the sampler's stream layout,
    the engine and the CSV writer are pinned together."""
    config = DEMO
    if overrides:
        doc = yaml.safe_load(Path(DEMO).read_text())
        doc["propagator_mode"] = overrides["propagator_mode"]
        doc["readout"].update(overrides["readout"])
        config = write_config(tmp_path, doc)
    assert main(["--config", config, "--out", str(tmp_path)] + args) == 0
    data = (tmp_path / "trace.csv").read_bytes()
    assert hashlib.sha256(data).hexdigest() == sha256


def test_cli_spectroscopy_bytes(tmp_path):
    """The demo config's scan, map and fit at seed 7, byte for byte: the
    kernel's rounding, the fit and the CSV and JSON writers are pinned
    together."""
    out = str(tmp_path)
    for args in (["scan"], ["map2d"], ["fit", str(tmp_path / "scan_tau.csv")]):
        assert main(["--config", DEMO, "--seed", "7", "--out", out] + args) == 0
    digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
               for name in ("scan_tau.csv", "map2d.csv", "hyperfine_fit.json")}
    assert digests == {
        "scan_tau.csv":
            "7d9c3085194c6249ccf68e5c1ff3a4f5b4a707e5fb2c962aec9f7d21be3b0e25",
        "map2d.csv":
            "9d933267ecaf2e40d34798e39cf2bb5a6995b44f4bffea12fc3ee35b18f32a7e",
        "hyperfine_fit.json":
            "ad1b1c345e310e4290d8275ec298a891e02e1a7616aa6b3984b7e77b56600caf",
    }


def test_cli_analyze_bytes(tmp_path):
    """``analyze`` of the demo's 5,000-point trace at seed 7, byte for byte:
    the reader, the count table and the report and histogram writers are
    pinned together."""
    out = str(tmp_path)
    assert main(["--config", DEMO, "--out", out, "ssr", "--points", "5000"]) == 0
    assert main(["--config", DEMO, "--out", out, "analyze", "--trace",
                 str(tmp_path / "trace.csv")]) == 0
    digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
               for name in ("fidelity_report.json", "histograms.csv")}
    assert digests == {
        "fidelity_report.json":
            "788a66f34b36bc89511d4993806e0b5b33d81ada21308ccc4d68fcf939a7baec",
        "histograms.csv":
            "a21ee03f61bab9bed63f99e84246307019ae23224304caabb85c606b02e2ec19",
    }


@pytest.mark.parametrize("row", ["3,2400,1,0", "3,24x0,1", "3,2400", "3,,1",
                                 "3,2400,0", "3,2400,300", "3,-5,1",
                                 "3,99999999999999999999,1", "3,abc",
                                 "x3,2400,1", "abc", "3x,2400,1",
                                 "?,2350,-1", ",12,1", "-3,2400,1",
                                 f"{2**63},2400,1"])
def test_cli_analyze_malformed_row_exits_2(tmp_path, capsys, row):
    """A malformed trace row is bad input (exit 2), reported with its line,
    before the output directory is made."""
    trace = tmp_path / "trace.csv"
    trace.write_text("point_index,photon_count,hidden_state\n"
                     "0,2400,1\n1,2300,-1\n2,2500,1\n" + row + "\n4,2350,-1\n")
    out = tmp_path / "out"
    assert main(["--config", DEMO, "--out", str(out),
                 "analyze", "--trace", str(trace)]) == 2
    assert "line 5" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("rows, message", [
    ("", "no trace rows"),
    ("0,2400,1\n", "trace must contain at least 2 points"),
    ("0,2600,1\n1,2600,1\n2,2600,-1\n",
     "both conditional histograms must be nonempty"),
], ids=["no-rows", "one-row", "no-down-preparation"])
def test_cli_analyze_unpairable_trace_exits_2(tmp_path, capsys, rows, message):
    """A trace that yields no pair of one class is bad input (exit 2): the
    error names the trace, and no output directory is made."""
    trace = tmp_path / "trace.csv"
    trace.write_text("point_index,photon_count,hidden_state\n" + rows)
    out = tmp_path / "out"
    assert main(["--config", DEMO, "--out", str(out),
                 "analyze", "--trace", str(trace)]) == 2
    assert f"config error: analyze: {trace}: {message}" in capsys.readouterr().err
    assert not out.exists()


def test_cli_parser_is_built_once(tmp_path, capsys):
    """``main`` reuses one argument parser: every call parses afresh, with
    the same help, usage errors and exit codes."""
    from ddread.cli import build_parser

    assert build_parser() is build_parser()
    for _ in range(2):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        assert "usage: ddread" in capsys.readouterr().out
        with pytest.raises(SystemExit) as exc:
            main(["--config", DEMO, "analyze"])
        assert exc.value.code == 2
        assert "--trace" in capsys.readouterr().err
        # a flag of one call does not carry into the next
        assert main(["--config", DEMO, "--seed", "-1", "--out", str(tmp_path),
                     "ssr", "--points", "1"]) == 2
        assert main(["--config", DEMO, "--out", str(tmp_path),
                     "ssr", "--points", "1"]) == 0


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


_BAD_CURVE_METADATA = [
    ("# axis=tau n_pulses=12 propagator_mode=magnsu", "propagator_mode must be"),
    ("# axis=tau propagator_mode=exact", "missing n_pulses metadata"),
    ("# axis=tau n_pulses=abc", "bad n_pulses metadata 'abc'"),
    ("# axis=n tau_ns=1e", "bad tau_ns metadata '1e'"),
    ("# config_sha256=00 seed=7", "missing or unknown axis metadata"),
]


@pytest.mark.parametrize("axis_line, error", _BAD_CURVE_METADATA,
                         ids=[line for line, _ in _BAD_CURVE_METADATA])
def test_cli_fit_bad_curve_metadata_exits_2(tmp_path, capsys, axis_line, error):
    """A curve file with bad metadata is bad input (exit 2), not a crash,
    and the error names the file."""
    curve = tmp_path / "scan_tau.csv"
    curve.write_text(axis_line + "\ntau_ns,coherence\n200,0.5\n210,0.4\n")
    out = tmp_path / "out"
    assert main(["--config", DEMO, "--out", str(out), "fit", str(curve)]) == 2
    assert f"config error: fit: {curve}: {error}" in capsys.readouterr().err
    assert not out.exists()


def test_cli_fit_malformed_curve_row_exits_2(tmp_path, capsys):
    """A curve row that is not two numbers is bad input, named by its line,
    before the output directory is made."""
    curve = tmp_path / "scan_tau.csv"
    curve.write_text("# axis=tau n_pulses=12 propagator_mode=magnus\n"
                     "tau_ns,coherence\n200,0.5\n210\n")
    out = tmp_path / "out"
    assert main(["--config", DEMO, "--out", str(out), "fit", str(curve)]) == 2
    assert f"{curve}, line 4" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("row", ["2.5,0.95", "0,0.95", "-3,0.95", "1e300,0.95"])
def test_cli_fit_non_integer_pulse_number_exits_2(tmp_path, capsys, row):
    """An N-scan row whose pulse number is not an integer >= 1 is bad input
    (exit 2), not a fit at the truncated N."""
    curve = tmp_path / "scan_n.csv"
    curve.write_text("# axis=n tau_ns=525.2 propagator_mode=magnus\n"
                     f"n_pulses,coherence\n1,0.9\n{row}\n3,0.8\n")
    out = tmp_path / "out"
    assert main(["--config", DEMO, "--out", str(out), "fit", str(curve)]) == 2
    assert (f"config error: fit: {curve}: pulse numbers must be integers"
            in capsys.readouterr().err)
    assert not out.exists()


@pytest.mark.parametrize("row", ["210,nan", "-inf,0.4", "1e400,0.4", "nan,0.4",
                                 "inf,0.4"])
def test_cli_fit_non_finite_curve_row_exits_2(tmp_path, capsys, row):
    """A curve with a non-finite value or abscissa is bad input (exit 2), not
    a fit with a NaN residual, and no output directory."""
    curve = tmp_path / "scan_tau.csv"
    curve.write_text("# axis=tau n_pulses=12 propagator_mode=magnus\n"
                     f"tau_ns,coherence\n200,0.5\n{row}\n220,0.45\n")
    out = tmp_path / "out"
    assert main(["--config", DEMO, "--out", str(out), "fit", str(curve)]) == 2
    assert "finite" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("text", [
    "# axis=tau n_pulses=12 propagator_mode=magnus\n200,0.5\n210,nan\n",
    "# axis=tau n_pulses=12 propagator_mode=magnus\n200,0.5\nnan,0.4\n",
    "# axis=n tau_ns=nan propagator_mode=magnus\n1,0.9\n2,0.8\n",
    "# axis=n tau_ns=525.2 propagator_mode=magnus\n1,0.9\n2,nan\n",
], ids=["tau-value", "tau-abscissa", "n-tau-metadata", "n-value"])
def test_cli_fit_non_finite_curve_names_the_file(tmp_path, capsys, text):
    """A curve that ``CoherenceCurve`` refuses for a NaN value, abscissa or
    tau exits 2 with one error line that names the file."""
    curve = tmp_path / "scan.csv"
    curve.write_text(text)
    out = tmp_path / "out"
    assert main(["--config", DEMO, "--out", str(out), "fit", str(curve)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: fit: {curve}: ") and err.count("\n") == 1
    assert not out.exists()


def _unreadable(tmp_path, kind):
    """A path of ``kind``: a missing file, a directory or non-UTF-8 text."""
    path = tmp_path / f"{kind}.input"
    if kind == "directory":
        path.mkdir()
    elif kind == "latin-1":
        path.write_bytes("field_gauss: 691.0  # 691 Gau\xdf\n".encode("latin-1"))
    return str(path)


@pytest.mark.parametrize("command, kind", [
    ("config", "directory"), ("config", "latin-1"),
    ("analyze", "missing"), ("analyze", "directory"),
    ("fit", "missing"), ("fit", "directory"),
])
def test_cli_unreadable_input_exits_2_before_any_output(tmp_path, capsys,
                                                        command, kind):
    """An input file that cannot be read is bad input, like a malformed one:
    exit 2 with one ``config error:`` line that names it, and no output
    directory (a missing trace or curve exited 3, and a config directory
    or non-UTF-8 config ended in a traceback)."""
    path = _unreadable(tmp_path, kind)
    out = tmp_path / "out"
    args = {"config": ["--config", path, "--out", str(out), "scan"],
            "analyze": ["--config", DEMO, "--out", str(out), "analyze",
                        "--trace", path],
            "fit": ["--config", DEMO, "--out", str(out), "fit", path]}[command]
    assert main(args) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1
    assert path in err
    assert not out.exists()


@pytest.mark.parametrize("end", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
@pytest.mark.parametrize("command", ["analyze", "fit"])
def test_cli_non_utf8_input_names_its_line(tmp_path, capsys, command, end):
    """A byte that is not UTF-8 text, here 0xff past the first 8 KiB, exits
    2 with the path and the line counted from the start of the file, as the
    text reader ends lines (LF, CRLF or a lone CR); the decoder's message
    named neither and gave a position within its chunk."""
    if command == "analyze":
        head = ["point_index,photon_count,hidden_state"]
        rows = [f"{i},{2400 - 100 * (i % 2)},{1 - 2 * (i % 2)}"
                for i in range(2000)]
    else:
        head = ["# axis=tau n_pulses=12 propagator_mode=magnus",
                "tau_ns,coherence"]
        rows = [f"{200 + 0.1 * i:.1f},0.5" for i in range(2000)]
    text = end.join(head + rows) + end
    path = tmp_path / "input.csv"
    path.write_bytes(text.encode() + b"2000,24\xff0,1" + end.encode())
    assert len(text) > 8192
    out = tmp_path / "out"
    args = (["analyze", "--trace", str(path)] if command == "analyze"
            else ["fit", str(path)])
    assert main(["--config", DEMO, "--out", str(out)] + args) == 2
    line = len(head) + len(rows) + 1
    assert capsys.readouterr().err == (
        f"config error: {command}: {path}, line {line}: not UTF-8 text\n")
    assert not out.exists()


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
