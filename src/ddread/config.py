"""YAML run configuration: strict schema, boundary units, content hashing.

All user-facing quantities carry their unit in the key name (kHz, ns, s,
gauss); conversion to internal angular rad/s and SI happens here and nowhere
else.  Unknown keys anywhere in the document are rejected so typos fail loudly
instead of silently falling back to defaults, and so is a key given twice in
one mapping, which YAML forbids and PyYAML would let the last value win.
"""

from __future__ import annotations

import datetime
import hashlib
import json
import math
from collections.abc import Hashable
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


class _StrictLoader(getattr(yaml, "CSafeLoader", yaml.SafeLoader)):
    """``yaml.safe_load``'s constructor and resolver, so the same document
    gives the same dict, over libyaml's parser where PyYAML has it; refuses
    a mapping that repeats a key."""

    def construct_mapping(self, node, deep=False):
        seen = set()
        for key_node, _ in node.value:
            if key_node.tag == "tag:yaml.org,2002:merge":
                continue
            key = self.construct_object(key_node, deep=True)
            if not isinstance(key, Hashable):
                break  # construct_mapping refuses it
            if key in seen:
                raise yaml.constructor.ConstructorError(
                    "while constructing a mapping", node.start_mark,
                    f"found duplicate key {key!r}", key_node.start_mark)
            seen.add(key)
        return super().construct_mapping(node, deep)


def _require_keys(section: dict, allowed: set, required: set, where: str):
    if not isinstance(section, dict):
        raise ConfigError(f"{where}: expected a mapping")
    unknown = set(section) - allowed
    if unknown:
        raise ConfigError(f"{where}: unknown keys {sorted(unknown)}")
    missing = required - set(section)
    if missing:
        raise ConfigError(f"{where}: missing required keys {sorted(missing)}")


def _integer(section: dict, key: str, where: str, default=None):
    if key not in section:
        return default
    v = section[key]
    if isinstance(v, bool) or not isinstance(v, int):
        raise ConfigError(f"{where}.{key}: expected an integer, got {v!r}")
    return v


def _number(section: dict, key: str, where: str, default=None,
            infinite_ok: bool = False):
    if key not in section:
        return default
    return _real(section[key], f"{where}.{key}", infinite_ok)


def _real(value, name: str, infinite_ok: bool = False) -> float:
    """``value`` as a float: a finite int or float, or also an infinite one
    where ``infinite_ok``; never NaN."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{name}: expected a number, got {value!r}")
    try:
        v = float(value)
    except OverflowError:  # an int beyond float's range
        v = math.inf if value > 0 else -math.inf
    if math.isnan(v) or math.isinf(v) and not infinite_ok:
        kind = "a number" if infinite_ok else "a finite number"
        raise ConfigError(f"{name}: expected {kind}, got {value!r}")
    return v


def _refuse_non_json(value, name: str):
    """Refuse the YAML values JSON has no form for (timestamps, binary and
    sets) anywhere in ``value``: the content hash is taken over JSON."""
    if isinstance(value, dict):
        for key, v in value.items():
            _refuse_non_json(v, f"{name}.{key}")
    elif isinstance(value, list):
        for i, v in enumerate(value):
            _refuse_non_json(v, f"{name}[{i}]")
    elif isinstance(value, (datetime.date, bytes, set)):
        raise ConfigError(f"{name}: expected a number, string, list or mapping, "
                          f"got {value!r}")


def _build(cls, where: str, **kwargs):
    """``cls(**kwargs)``, its ValueError raised as a ConfigError at ``where``."""
    try:
        return cls(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


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
    raw: dict = field(repr=False, default_factory=dict)

    @property
    def seed(self) -> int:
        """The master seed, which the readout carries."""
        return self.readout.seed

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
_THRESH_KEYS = {"init_low", "init_high"}
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
        vec = [_real(x, f"{where}.a_vec_khz[{i}]") for i, x in enumerate(vec)]
        return HyperfineSpin(a_vec=np.asarray(vec) * TWO_PI_KHZ)
    a_par = _number(entry, "a_par_khz", where, 0.0) * TWO_PI_KHZ
    a_perp = _number(entry, "a_perp_khz", where, 0.0) * TWO_PI_KHZ
    return (a_par, a_perp)  # resolved once the field is known


def parse_config(doc: dict) -> RunConfig:
    """Validate a parsed YAML document and convert to internal units."""
    _require_keys(doc, _TOP_KEYS, {"field_gauss", "sequence"}, "config")
    for key, value in doc.items():
        _refuse_non_json(value, key if isinstance(value, (dict, list))
                         else f"config.{key}")

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

    spin_entries = doc.get("spins", [])
    if not isinstance(spin_entries, list):
        raise ConfigError(f"spins: expected a list, got {spin_entries!r}")
    spins = []
    for i, entry in enumerate(spin_entries):
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
    seq = _build(CpmgSequence, "sequence",
                 n_pulses=_integer(seq_sec, "n_pulses", "sequence"),
                 tau=_number(seq_sec, "tau_ns", "sequence") * NS)

    seed = _integer(doc, "seed", "config", 0)
    if seed < 0:
        raise ConfigError("config.seed: expected a non-negative integer")

    read_sec = doc.get("readout", {})
    _require_keys(read_sec, _READ_KEYS, set(), "readout")
    rdef = ReadoutConfig()
    readout = _build(
        ReadoutConfig, "readout",
        cycles_per_point=_integer(read_sec, "cycles_per_point", "readout",
                                  rdef.cycles_per_point),
        photon_rate_bright=_number(read_sec, "photon_rate_bright",
                                   "readout", rdef.photon_rate_bright),
        photon_rate_dark=_number(read_sec, "photon_rate_dark",
                                 "readout", rdef.photon_rate_dark),
        # an infinite T1 is a frozen one: its flip probability is 0
        t1n_up=_number(read_sec, "t1n_up_s", "readout", rdef.t1n_up,
                       infinite_ok=True),
        t1n_down=_number(read_sec, "t1n_down_s", "readout", rdef.t1n_down,
                         infinite_ok=True),
        point_duration=_number(read_sec, "point_duration_s", "readout",
                               rdef.point_duration),
        electron_init_error=_number(read_sec, "electron_init_error",
                                    "readout", rdef.electron_init_error),
        pi_pulse_error=_number(read_sec, "pi_pulse_error", "readout",
                               rdef.pi_pulse_error),
        seed=seed,
    )

    thr_sec = doc.get("thresholds", {})
    _require_keys(thr_sec, _THRESH_KEYS, set(), "thresholds")
    tdef = ThresholdPolicy()
    thresholds = _build(
        ThresholdPolicy, "thresholds",
        init_low=_integer(thr_sec, "init_low", "thresholds", tdef.init_low),
        init_high=_integer(thr_sec, "init_high", "thresholds", tdef.init_high),
    )

    scan_sec = doc.get("scan", {})
    _require_keys(scan_sec, _SCAN_KEYS, set(), "scan")
    for key in ("tau_start_ns", "tau_stop_ns", "tau_step_ns"):
        _number(scan_sec, key, "scan")  # the scan commands read them
    if scan_sec.get("mode", "tau") not in ("tau", "n"):
        raise ConfigError(f"scan.mode: expected 'tau' or 'n', got {scan_sec['mode']!r}")
    n_list = scan_sec.get("n_list", [1])
    if not isinstance(n_list, list) or not n_list:
        raise ConfigError(f"scan.n_list: expected a non-empty list, got {n_list!r}")
    for name, n in [("n_max", scan_sec.get("n_max", 1))] + [
            (f"n_list[{i}]", n) for i, n in enumerate(n_list)]:
        if isinstance(n, bool) or not isinstance(n, int) or n < 1:
            raise ConfigError(f"scan.{name}: expected a positive integer, got {n!r}")
    scan = dict(scan_sec)

    mode = doc.get("propagator_mode", "exact")
    if mode not in ("exact", "magnus"):
        raise ConfigError("config.propagator_mode: expected 'exact' or 'magnus'")

    return RunConfig(
        field=fieldcfg, spins=tuple(spins), sequence=seq, readout=readout,
        thresholds=thresholds, constants=consts, propagator_mode=mode,
        scan=scan, raw=doc,
    )


def load_config(path) -> RunConfig:
    """Read and validate a YAML config file."""
    try:
        with open(path) as fh:
            doc = yaml.load(fh, Loader=_StrictLoader)
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except yaml.YAMLError as exc:
        raise ConfigError(f"invalid YAML in {path}: {exc}") from exc
    if doc is None:
        doc = {}
    return parse_config(doc)


def snapshot_json(config: RunConfig) -> str:
    """Round-trippable snapshot in strict JSON: the raw document plus its
    hash.  JSON has no infinity, so an infinite number (a frozen T1) is
    written as the out-of-range number 1e999, which JSON readers read back
    as infinity."""
    text = json.dumps(
        {"config": _mark_infinite(config.raw),
         "config_sha256": config.content_hash(), "seed": config.seed},
        indent=2, sort_keys=True, allow_nan=False,
    )
    for sign in ("", "-"):
        text = text.replace(json.dumps(sign + _INFINITY), sign + "1e999")
    return text


# Stands in for +-inf while the snapshot is encoded.  A config string equal
# to it, which YAML can spell only with a "\0" escape, would come out as
# infinity too; no key takes a string like it.
_INFINITY = "\x00inf"


def _mark_infinite(value):
    """``value`` with each infinite float as ``_INFINITY``, signed."""
    if isinstance(value, dict):
        return {k: _mark_infinite(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_mark_infinite(v) for v in value]
    if isinstance(value, float) and math.isinf(value):
        return _INFINITY if value > 0 else "-" + _INFINITY
    return value
