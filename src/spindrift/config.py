"""Scenario configuration: strict sectioned key-value files.

The format is INI-style with `#` comments.  Unknown sections or keys are
errors (no silent typo absorption), every value is validated, and
`serialize_config` emits a canonical form that `parse_config` maps back to
the identical configuration (serialize . parse is idempotent on canonical
text).  A commented example lives in the package README and in the gallery
configs.
"""
from __future__ import annotations

import configparser
import io
import itertools
from dataclasses import dataclass, field

import numpy as np

from .algebra import PryceKind
from .dynamics import ClassicalState, FieldConfig
from .packets import MomentumWavePacket, make_gaussian_packet

MODES = ("simulate", "verify-fg", "verify-algebra", "converge")
CONVERGE_TARGETS = ("integrator", "fg", "anomalous-fd")
PRYCE_KINDS = tuple(kind.value for kind in PryceKind)


class ConfigError(ValueError):
    """Invalid scenario configuration; message names the offending field."""


@dataclass
class PacketSpec:
    p0: tuple = (0.0, 0.0, 0.6)
    widths: tuple = (0.01, 0.01, 0.01)
    spin: tuple = (1.0, 0.0, 0.0)
    grid_points: int = 32
    grid_radius: float = 5.0


@dataclass
class ConvergeSpec:
    target: str = "integrator"
    rungs: int = 3


@dataclass
class ScenarioConfig:
    name: str = "scenario"
    mode: str = "simulate"
    mass: float = 1.0
    charge: float = -1.0
    E: tuple = (0.0, 0.0, 0.0)
    B: tuple = (0.0, 0.0, 0.0)
    x0: tuple = (0.0, 0.0, 0.0)
    v0: tuple = (0.0, 0.0, 0.0)
    s0: tuple = (0.0, 0.0, 0.0)
    dt: float = 0.1
    steps: int = 1000
    sample_every: int = 1
    pryce_kinds: tuple = PRYCE_KINDS
    packet: PacketSpec = field(default_factory=PacketSpec)
    converge: ConvergeSpec = field(default_factory=ConvergeSpec)
    algebra_momenta: int = 100
    algebra_pmax: float = 10.0
    seed: int = 0

    def field_config(self) -> FieldConfig:
        """The scenario's fields, charge and mass."""
        return FieldConfig(E=self.E, B=self.B, charge=self.charge,
                           mass=self.mass)

    def initial_state(self) -> ClassicalState:
        """The electron's state at t = 0."""
        return ClassicalState(t=0.0, x=self.x0, v=self.v0, s=self.s0)

    def wave_packet(self, widths=None) -> MomentumWavePacket:
        """The configured packet, at `widths` in place of packet.widths if
        given; a packet the grid cannot hold is a ConfigError."""
        spec = self.packet
        try:
            return make_gaussian_packet(
                spec.p0, spec.widths if widths is None else widths, spec.spin,
                m=self.mass, grid_points=spec.grid_points,
                grid_radius=spec.grid_radius)
        except ValueError as exc:
            raise ConfigError(f"packet: {exc}") from None


def _parse_str(section, key, raw) -> str:
    return raw


def _parse_float(section, key, raw) -> float:
    try:
        return float(raw)
    except ValueError:
        raise ConfigError(f"{section}.{key}: not a number: {raw!r}") from None


def _parse_int(section, key, raw) -> int:
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"{section}.{key}: not an integer: {raw!r}") from None


def _parse_vec3(section, key, raw) -> tuple:
    parts = raw.split()
    if len(parts) != 3:
        raise ConfigError(f"{section}.{key}: expected 3 components, "
                          f"got {len(parts)}")
    return tuple(_parse_float(section, key, p) for p in parts)


def _parse_kinds(section, key, raw) -> tuple:
    kinds = tuple(raw.split())
    if not kinds:
        raise ConfigError(f"{section}.{key}: at least one kind required")
    bad = [k for k in kinds if k not in PRYCE_KINDS]
    if bad:
        raise ConfigError(f"{section}.{key}: unknown kind(s) {bad}")
    if len(set(kinds)) != len(kinds):
        raise ConfigError(f"{section}.{key}: duplicate kinds")
    return kinds


# (parser, formatter) per value type; parsers get (section, key, raw-string).
# Every float is written as repr(float(v)), so an int-valued float such as
# mass = 2 reads back as 2.0 and serializes to the same text again.
_STR = (_parse_str, str)
_INT = (_parse_int, str)
_FLOAT = (_parse_float, lambda v: repr(float(v)))
_VEC3 = (_parse_vec3, lambda v: " ".join(repr(float(c)) for c in v))
_KINDS = (_parse_kinds, " ".join)

# (section, key, attribute, parser, formatter) in canonical order; a dotted
# attribute names a field of the nested PacketSpec or ConvergeSpec
_FIELDS = (
    ("scenario", "name", "name", *_STR),
    ("scenario", "mode", "mode", *_STR),
    ("constants", "mass", "mass", *_FLOAT),
    ("constants", "charge", "charge", *_FLOAT),
    ("fields", "E", "E", *_VEC3),
    ("fields", "B", "B", *_VEC3),
    ("initial", "x", "x0", *_VEC3),
    ("initial", "v", "v0", *_VEC3),
    ("initial", "s", "s0", *_VEC3),
    ("integration", "dt", "dt", *_FLOAT),
    ("integration", "steps", "steps", *_INT),
    ("integration", "sample_every", "sample_every", *_INT),
    ("output", "pryce_kinds", "pryce_kinds", *_KINDS),
    ("packet", "p0", "packet.p0", *_VEC3),
    ("packet", "widths", "packet.widths", *_VEC3),
    ("packet", "spin", "packet.spin", *_VEC3),
    ("packet", "grid_points", "packet.grid_points", *_INT),
    ("packet", "grid_radius", "packet.grid_radius", *_FLOAT),
    ("converge", "target", "converge.target", *_STR),
    ("converge", "rungs", "converge.rungs", *_INT),
    ("algebra", "momenta", "algebra_momenta", *_INT),
    ("algebra", "pmax", "algebra_pmax", *_FLOAT),
    ("algebra", "seed", "seed", *_INT),
)
_KEYS = {(section, key) for section, key, *_ in _FIELDS}
_SECTIONS = {section for section, _ in _KEYS}

# mode -> (sections it requires, further sections it allows)
_MODE_SECTIONS = {
    "simulate": ((), ("scenario", "constants", "fields", "initial",
                      "integration", "output")),
    "verify-fg": (("packet",), ("scenario", "constants", "output")),
    "verify-algebra": ((), ("scenario", "constants", "algebra")),
    "converge": (("converge",), ("scenario", "constants", "fields",
                                 "initial", "integration", "output",
                                 "packet")),
}


def _owner(cfg: ScenarioConfig, attr: str):
    """The object that holds a (possibly dotted) attribute, and its name."""
    head, _, name = attr.rpartition(".")
    return (getattr(cfg, head) if head else cfg), name


def _check_mode(mode: str):
    if mode not in MODES:
        raise ConfigError(f"scenario.mode: unknown mode {mode!r} "
                          f"(expected one of {MODES})")


def parse_config(text: str) -> ScenarioConfig:
    """Parse and fully validate a scenario document."""
    parser = configparser.ConfigParser(interpolation=None, delimiters=("=",),
                                       comment_prefixes=("#",), strict=True)
    parser.optionxform = str
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"malformed config: {exc}") from None

    if not parser.has_section("scenario"):
        raise ConfigError("missing [scenario] section")
    mode = parser.get("scenario", "mode", fallback=None)
    if mode is None:
        raise ConfigError("scenario.mode: required")
    _check_mode(mode)

    required, optional = _MODE_SECTIONS[mode]
    for section in parser.sections():
        if section not in _SECTIONS:
            raise ConfigError(f"unknown section [{section}]")
        if section not in required + optional:
            raise ConfigError(f"section [{section}] is not valid in "
                              f"{mode!r} mode")
        for key in parser[section]:
            if (section, key) not in _KEYS:
                raise ConfigError(f"{section}.{key}: unknown key")
    for section in required:
        if not parser.has_section(section):
            raise ConfigError(f"mode {mode!r} requires a [{section}] section")

    cfg = ScenarioConfig()
    for section, key, attr, parse, _ in _FIELDS:
        if parser.has_section(section) and key in parser[section]:
            setattr(*_owner(cfg, attr),
                    parse(section, key, parser.get(section, key)))
    _validate(cfg)
    return cfg


def _validate(cfg: ScenarioConfig):
    _check_mode(cfg.mode)
    if not cfg.name:
        raise ConfigError("scenario.name: must not be empty")
    _parse_kinds("output", "pryce_kinds", " ".join(cfg.pryce_kinds))
    for section, key, attr, parse, _ in _FIELDS:
        if (parse in (_parse_float, _parse_vec3)
                and not np.all(np.isfinite(getattr(*_owner(cfg, attr))))):
            raise ConfigError(f"{section}.{key}: must be finite")
    if cfg.mass <= 0:
        raise ConfigError("constants.mass: must be positive")
    if cfg.dt <= 0:
        raise ConfigError("integration.dt: must be positive")
    if cfg.steps < 1:
        raise ConfigError("integration.steps: must be >= 1")
    if cfg.sample_every < 1:
        raise ConfigError("integration.sample_every: must be >= 1")
    if not np.isfinite(cfg.dt * cfg.steps):
        raise ConfigError("integration: dt * steps must be finite")
    vnorm = float(np.linalg.norm(cfg.v0))
    if vnorm >= 1.0:
        raise ConfigError(f"initial.v: |v| = {vnorm:.6g} must be < 1")
    if any(w <= 0 for w in cfg.packet.widths):
        raise ConfigError("packet.widths: must be positive")
    if cfg.packet.grid_points < 4:
        raise ConfigError("packet.grid_points: must be >= 4")
    if cfg.packet.grid_radius <= 0:
        raise ConfigError("packet.grid_radius: must be positive")
    if float(np.linalg.norm(cfg.packet.spin)) == 0.0:
        raise ConfigError("packet.spin: must be nonzero")
    if cfg.converge.target not in CONVERGE_TARGETS:
        raise ConfigError(f"converge.target: unknown target "
                          f"{cfg.converge.target!r} (expected one of "
                          f"{CONVERGE_TARGETS})")
    if cfg.mode == "converge" and cfg.converge.rungs < 3:
        raise ConfigError("converge.rungs: ladder needs at least 3 rungs")
    if cfg.algebra_momenta < 1:
        raise ConfigError("algebra.momenta: must be >= 1")
    if cfg.algebra_pmax <= 0:
        raise ConfigError("algebra.pmax: must be positive")


def serialize_config(cfg: ScenarioConfig) -> str:
    """Canonical text for a configuration (stable section and key order)."""
    _validate(cfg)
    allowed = set().union(*_MODE_SECTIONS[cfg.mode])
    out = io.StringIO()
    for section, rows in itertools.groupby(_FIELDS, key=lambda row: row[0]):
        if section in allowed:
            out.write(f"[{section}]\n")
            for _, key, attr, _, fmt in rows:
                out.write(f"{key} = {fmt(getattr(*_owner(cfg, attr)))}\n")
            out.write("\n")
    return out.getvalue()


def load_config(path) -> ScenarioConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())

