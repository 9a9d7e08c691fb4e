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
from dataclasses import MISSING, dataclass, field
from functools import partial

import numpy as np
import yaml

from .analysis import ThresholdPolicy
from .coherence import check_n_max, check_tau_range
from .measurement import ReadoutConfig
from .sequence import CpmgSequence
from .spincore import (
    PROPAGATOR_MODES,
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


def _integer(value, name: str, low: int = -2**63) -> int:
    """``value``, an int in [``low``, 2**63): at most int64's range, the
    widest that numpy's integer code takes."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{name}: expected an integer, got {value!r}")
    if not low <= value < 2**63:
        span = "int64's range" if low == -2**63 else f"[{low}, 2**63)"
        raise ConfigError(f"{name}: expected an integer in {span}, "
                          f"got {value!r}")
    return value


def _real(value, name: str, scale: float = 1.0,
          infinite_ok: bool = False) -> float:
    """``value`` times ``scale`` as a float: ``value`` a finite int or float,
    or also an infinite one where ``infinite_ok``; never NaN.  A product
    beyond float's range counts as infinite."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{name}: expected a number, got {value!r}")
    try:
        v = float(value) * scale
    except OverflowError:  # an int beyond float's range
        v = math.inf if value > 0 else -math.inf
    if math.isnan(v) or math.isinf(v) and not infinite_ok:
        kind = "a number" if infinite_ok else "a finite number"
        raise ConfigError(f"{name}: expected {kind}, got {value!r}")
    return v


_ns = partial(_real, scale=NS)
_khz = partial(_real, scale=TWO_PI_KHZ)  # to angular rad/s
# an infinite T1 is a frozen one: its flip probability is 0
_lifetime = partial(_real, infinite_ok=True)


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


def _build(make, where: str, **kwargs):
    """``make(**kwargs)``, its ValueError raised as a ConfigError at ``where``."""
    try:
        return make(**kwargs)
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


_SPIN_KEYS = {"a_par_khz", "a_perp_khz", "a_vec_khz"}
TAU_KEYS = ("tau_start_ns", "tau_stop_ns", "tau_step_ns")
_SCAN_KEYS = {"mode", *TAU_KEYS, "n_max", "n_list"}

# The sections that map one to one onto a dataclass: per YAML key, the field
# it sets and the reader that gives the field's value.
_SECTIONS = {
    "constants": (PhysicalConstants, {"gamma_n": ("gamma_n", _real)}),
    "sequence": (CpmgSequence, {"n_pulses": ("n_pulses", _integer),
                                "tau_ns": ("tau", _ns)}),
    "readout": (ReadoutConfig, {
        "cycles_per_point": ("cycles_per_point", _integer),
        "photon_rate_bright": ("photon_rate_bright", _real),
        "photon_rate_dark": ("photon_rate_dark", _real),
        "t1n_up_s": ("t1n_up", _lifetime),
        "t1n_down_s": ("t1n_down", _lifetime),
        "point_duration_s": ("point_duration", _real),
        "electron_init_error": ("electron_init_error", _real),
        "pi_pulse_error": ("pi_pulse_error", _real),
    }),
    "thresholds": (ThresholdPolicy, {"init_low": ("init_low", _integer),
                                     "init_high": ("init_high", _integer)}),
}
_TOP_KEYS = {"field_gauss", "spins", "scan", "seed", "propagator_mode",
             *_SECTIONS}


def _section(doc: dict, name: str, **fixed):
    """The dataclass of section ``name`` from the keys it gives and the
    fields in ``fixed``; the dataclass defaults fill the rest, and a field
    without a default needs its key."""
    cls, table = _SECTIONS[name]
    section = doc.get(name, {})
    required = {key for key, (attr, _) in table.items()
                if cls.__dataclass_fields__[attr].default is MISSING}
    _require_keys(section, set(table), required, name)
    kwargs = {attr: read(section[key], f"{name}.{key}")
              for key, (attr, read) in table.items() if key in section}
    return _build(cls, name, **kwargs, **fixed)


def _spin(entry: dict, where: str, fieldcfg: FieldConfig,
          consts: PhysicalConstants) -> HyperfineSpin:
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
        return _build(HyperfineSpin, where, a_vec=np.array(
            [_khz(x, f"{where}.a_vec_khz[{i}]") for i, x in enumerate(vec)]))
    a_par, a_perp = (_khz(entry.get(key, 0.0), f"{where}.{key}")
                     for key in ("a_par_khz", "a_perp_khz"))
    return _build(spin_from_frame_components, where, a_par=a_par,
                  a_perp=a_perp, fieldcfg=fieldcfg, consts=consts)


def parse_config(doc: dict) -> RunConfig:
    """Validate a parsed YAML document and convert to internal units."""
    _require_keys(doc, _TOP_KEYS, {"field_gauss", "sequence"}, "config")
    for key, value in doc.items():
        _refuse_non_json(value, key if isinstance(value, (dict, list))
                         else f"config.{key}")

    consts = _section(doc, "constants")
    fieldcfg = _build(FieldConfig, "config.field_gauss", b_magnitude=_real(
        doc["field_gauss"], "config.field_gauss", GAUSS))
    # the frame squares gamma_n B, so the square too must be a finite float
    b = consts.gamma_n * fieldcfg.b_magnitude
    if math.isinf(b * b):
        raise ConfigError(
            f"config.field_gauss: (gamma_n B)^2 is beyond float's range for "
            f"field_gauss {doc['field_gauss']!r} and gamma_n {consts.gamma_n!r}")

    spin_entries = doc.get("spins", [])
    if not isinstance(spin_entries, list):
        raise ConfigError(f"spins: expected a list, got {spin_entries!r}")
    spins = tuple(_spin(entry, f"spins[{i}]", fieldcfg, consts)
                  for i, entry in enumerate(spin_entries))

    seq = _section(doc, "sequence")
    seed = _integer(doc.get("seed", 0), "config.seed", 0)
    readout = _section(doc, "readout", seed=seed)
    thresholds = _section(doc, "thresholds")

    scan_sec = doc.get("scan", {})
    _require_keys(scan_sec, _SCAN_KEYS, set(), "scan")
    # the scan commands read these in seconds; the grid is built there
    taus = [_ns(scan_sec[key], f"scan.{key}") for key in TAU_KEYS if key in scan_sec]
    if len(taus) == len(TAU_KEYS):
        _build(check_tau_range, "scan", tau_range=taus[:2], step=taus[2])
    scan = {"mode": "tau", **scan_sec}
    if scan["mode"] not in ("tau", "n"):
        raise ConfigError(f"scan.mode: expected 'tau' or 'n', got {scan['mode']!r}")
    n_list = scan_sec.get("n_list", [1])
    if not isinstance(n_list, list) or not n_list:
        raise ConfigError(f"scan.n_list: expected a non-empty list, got {n_list!r}")
    _build(check_n_max, "scan.n_max", n_max=scan_sec.get("n_max", 1))
    for i, n in enumerate(n_list):
        _integer(n, f"scan.n_list[{i}]", 1)

    mode = doc.get("propagator_mode", "exact")
    if mode not in PROPAGATOR_MODES:
        raise ConfigError("config.propagator_mode: expected "
                          + " or ".join(map(repr, PROPAGATOR_MODES)))

    return RunConfig(
        field=fieldcfg, spins=spins, sequence=seq, readout=readout,
        thresholds=thresholds, constants=consts, propagator_mode=mode,
        scan=scan, raw=doc,
    )


def load_config(path) -> RunConfig:
    """Read and validate a YAML config file; a file that cannot be read, as
    well as one that does not parse or validate, raises ConfigError."""
    try:
        with open(path) as fh:
            doc = yaml.load(fh, Loader=_StrictLoader)
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except (OSError, UnicodeDecodeError) as exc:  # a directory, non-UTF-8 text
        raise ConfigError(f"cannot read config file {path}: "
                          f"{getattr(exc, 'strerror', None) or exc}") from exc
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
