"""YAML run configuration: strict schema, boundary units, content hashing.

All user-facing quantities carry their unit in the key name (kHz, ns, s,
gauss); conversion to internal angular rad/s and SI happens here and nowhere
else.  Unknown keys anywhere in the document are rejected so typos fail loudly
instead of silently falling back to defaults.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

import numpy as np
import yaml

from .analysis import ThresholdPolicy
from .measurement import ReadoutConfig
from .sequence import CpmgSequence
from .spincore import (
    FieldConfig,
    HyperfineSpin,
    PhysicalConstants,
    spin_from_frame_components,
)

TWO_PI_KHZ = 2.0 * np.pi * 1e3
GAUSS = 1e-4
NS = 1e-9


class ConfigError(ValueError):
    """Schema violation or unusable value in a run configuration."""


def _require_keys(section: dict, allowed: set, required: set, where: str):
    if not isinstance(section, dict):
        raise ConfigError(f"{where}: expected a mapping")
    unknown = set(section) - allowed
    if unknown:
        raise ConfigError(f"{where}: unknown keys {sorted(unknown)}")
    missing = required - set(section)
    if missing:
        raise ConfigError(f"{where}: missing required keys {sorted(missing)}")


def _number(section: dict, key: str, where: str, default=None):
    if key not in section:
        return default
    v = section[key]
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ConfigError(f"{where}.{key}: expected a number, got {v!r}")
    return float(v)


@dataclass(frozen=True)
class RunConfig:
    """Validated run configuration with everything in internal units."""

    field: FieldConfig
    spins: tuple
    sequence: CpmgSequence
    readout: ReadoutConfig
    thresholds: ThresholdPolicy
    constants: PhysicalConstants
    propagator_mode: str
    scan: dict
    seed: int
    raw: dict = field(repr=False, default_factory=dict)

    def content_hash(self) -> str:
        """sha256 of the canonical JSON form of the raw document."""
        canon = json.dumps(self.raw, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canon.encode()).hexdigest()


_TOP_KEYS = {"field_gauss", "constants", "spins", "sequence", "readout",
             "thresholds", "scan", "seed", "propagator_mode"}
_CONST_KEYS = {"gamma_n"}
_SPIN_KEYS = {"a_par_khz", "a_perp_khz", "a_vec_khz"}
_SEQ_KEYS = {"n_pulses", "tau_ns"}
_READ_KEYS = {"cycles_per_point", "photon_rate_bright", "photon_rate_dark",
              "t1n_up_s", "t1n_down_s", "point_duration_s",
              "electron_init_error", "pi_pulse_error"}
_THRESH_KEYS = {"init_low", "init_high", "readout_threshold"}
_SCAN_KEYS = {"mode", "tau_start_ns", "tau_stop_ns", "tau_step_ns",
              "n_max", "n_list"}


def _parse_spin(entry: dict, where: str):
    _require_keys(entry, _SPIN_KEYS, set(), where)
    has_vec = "a_vec_khz" in entry
    has_frame = "a_par_khz" in entry or "a_perp_khz" in entry
    if has_vec == has_frame:
        raise ConfigError(
            f"{where}: give either a_vec_khz or (a_par_khz, a_perp_khz)"
        )
    if has_vec:
        vec = entry["a_vec_khz"]
        if not isinstance(vec, (list, tuple)) or len(vec) != 3:
            raise ConfigError(f"{where}.a_vec_khz: expected 3 numbers")
        return HyperfineSpin(a_vec=np.asarray(vec, dtype=float) * TWO_PI_KHZ)
    a_par = _number(entry, "a_par_khz", where, 0.0) * TWO_PI_KHZ
    a_perp = _number(entry, "a_perp_khz", where, 0.0) * TWO_PI_KHZ
    return (a_par, a_perp)  # resolved once the field is known


def parse_config(doc: dict) -> RunConfig:
    """Validate a parsed YAML document and convert to internal units."""
    _require_keys(doc, _TOP_KEYS, {"field_gauss", "sequence"}, "config")

    const_sec = doc.get("constants", {})
    _require_keys(const_sec, _CONST_KEYS, set(), "constants")
    defaults = PhysicalConstants()
    consts = PhysicalConstants(
        gamma_n=_number(const_sec, "gamma_n", "constants", defaults.gamma_n),
    )

    field_gauss = _number(doc, "field_gauss", "config")
    if field_gauss is None or field_gauss < 0:
        raise ConfigError("config.field_gauss: expected a non-negative number")
    fieldcfg = FieldConfig(field_gauss * GAUSS)

    spins = []
    for i, entry in enumerate(doc.get("spins", [])):
        parsed = _parse_spin(entry, f"spins[{i}]")
        if isinstance(parsed, tuple):
            try:
                parsed = spin_from_frame_components(parsed[0], parsed[1],
                                                    fieldcfg, consts)
            except ValueError as exc:
                raise ConfigError(f"spins[{i}]: {exc}") from exc
        spins.append(parsed)

    seq_sec = doc["sequence"]
    _require_keys(seq_sec, _SEQ_KEYS, _SEQ_KEYS, "sequence")
    n_pulses = seq_sec["n_pulses"]
    if isinstance(n_pulses, bool) or not isinstance(n_pulses, int):
        raise ConfigError("sequence.n_pulses: expected an integer")
    try:
        seq = CpmgSequence(n_pulses, _number(seq_sec, "tau_ns", "sequence") * NS)
    except ValueError as exc:
        raise ConfigError(f"sequence: {exc}") from exc

    read_sec = doc.get("readout", {})
    _require_keys(read_sec, _READ_KEYS, set(), "readout")
    rdef = ReadoutConfig()
    cycles = read_sec.get("cycles_per_point", rdef.cycles_per_point)
    if isinstance(cycles, bool) or not isinstance(cycles, int):
        raise ConfigError("readout.cycles_per_point: expected an integer")
    try:
        readout = ReadoutConfig(
            cycles_per_point=cycles,
            photon_rate_bright=_number(read_sec, "photon_rate_bright",
                                       "readout", rdef.photon_rate_bright),
            photon_rate_dark=_number(read_sec, "photon_rate_dark",
                                     "readout", rdef.photon_rate_dark),
            t1n_up=_number(read_sec, "t1n_up_s", "readout", rdef.t1n_up),
            t1n_down=_number(read_sec, "t1n_down_s", "readout", rdef.t1n_down),
            point_duration=_number(read_sec, "point_duration_s", "readout",
                                   rdef.point_duration),
            electron_init_error=_number(read_sec, "electron_init_error",
                                        "readout", rdef.electron_init_error),
            pi_pulse_error=_number(read_sec, "pi_pulse_error", "readout",
                                   rdef.pi_pulse_error),
            seed=int(doc.get("seed", 0)),
        )
    except ValueError as exc:
        raise ConfigError(f"readout: {exc}") from exc

    thr_sec = doc.get("thresholds", {})
    _require_keys(thr_sec, _THRESH_KEYS, set(), "thresholds")
    tdef = ThresholdPolicy()
    try:
        thresholds = ThresholdPolicy(
            init_low=int(thr_sec.get("init_low", tdef.init_low)),
            init_high=int(thr_sec.get("init_high", tdef.init_high)),
            readout_threshold=int(thr_sec.get("readout_threshold",
                                              tdef.readout_threshold)),
        )
    except ValueError as exc:
        raise ConfigError(f"thresholds: {exc}") from exc

    scan_sec = doc.get("scan", {})
    _require_keys(scan_sec, _SCAN_KEYS, set(), "scan")
    scan = dict(scan_sec)

    mode = doc.get("propagator_mode", "exact")
    if mode not in ("exact", "magnus"):
        raise ConfigError("config.propagator_mode: expected 'exact' or 'magnus'")

    seed = doc.get("seed", 0)
    if isinstance(seed, bool) or not isinstance(seed, int) or seed < 0:
        raise ConfigError("config.seed: expected a non-negative integer")

    return RunConfig(
        field=fieldcfg, spins=tuple(spins), sequence=seq, readout=readout,
        thresholds=thresholds, constants=consts, propagator_mode=mode,
        scan=scan, seed=seed, raw=doc,
    )


def load_config(path) -> RunConfig:
    """Read and validate a YAML config file."""
    try:
        with open(path) as fh:
            doc = yaml.safe_load(fh)
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except yaml.YAMLError as exc:
        raise ConfigError(f"invalid YAML in {path}: {exc}") from exc
    if doc is None:
        doc = {}
    return parse_config(doc)


def snapshot_json(config: RunConfig) -> str:
    """Round-trippable snapshot: the raw document plus its hash."""
    return json.dumps(
        {"config": config.raw, "config_sha256": config.content_hash(),
         "seed": config.seed},
        indent=2, sort_keys=True,
    )
