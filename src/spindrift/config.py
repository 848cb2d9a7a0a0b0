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
from dataclasses import dataclass, field

import numpy as np

from .dynamics import ClassicalState, FieldConfig

MODES = ("simulate", "verify-fg", "verify-algebra", "converge")
CONVERGE_TARGETS = ("integrator", "fg", "anomalous-fd")


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
    pryce_kinds: tuple = ("c", "d", "e")
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
    bad = [k for k in kinds if k not in ("c", "d", "e")]
    if bad:
        raise ConfigError(f"{section}.{key}: unknown kind(s) {bad}")
    if len(set(kinds)) != len(kinds):
        raise ConfigError(f"{section}.{key}: duplicate kinds")
    return kinds


# section -> {key: parser}; parsers get (section, key, raw-string)
_SCHEMA = {
    "scenario": {"name": None, "mode": None},
    "constants": {"mass": _parse_float, "charge": _parse_float},
    "fields": {"E": _parse_vec3, "B": _parse_vec3},
    "initial": {"x": _parse_vec3, "v": _parse_vec3, "s": _parse_vec3},
    "integration": {"dt": _parse_float, "steps": _parse_int,
                    "sample_every": _parse_int},
    "output": {"pryce_kinds": _parse_kinds},
    "packet": {"p0": _parse_vec3, "widths": _parse_vec3, "spin": _parse_vec3,
               "grid_points": _parse_int, "grid_radius": _parse_float},
    "converge": {"target": None, "rungs": _parse_int},
    "algebra": {"momenta": _parse_int, "pmax": _parse_float,
                "seed": _parse_int},
}

_MODE_SECTIONS = {
    "simulate": ("scenario", "constants", "fields", "initial", "integration",
                 "output"),
    "verify-fg": ("scenario", "constants", "packet", "output"),
    "verify-algebra": ("scenario", "constants", "algebra"),
    "converge": ("scenario", "constants", "fields", "initial", "integration",
                 "output", "packet", "converge"),
}
# sections whose absence is an error for the mode
_MODE_REQUIRED = {
    "simulate": (),
    "verify-fg": ("packet",),
    "verify-algebra": (),
    "converge": ("converge",),
}


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
    if mode not in MODES:
        raise ConfigError(f"scenario.mode: unknown mode {mode!r} "
                          f"(expected one of {MODES})")

    allowed = _MODE_SECTIONS[mode]
    for section in parser.sections():
        if section not in _SCHEMA:
            raise ConfigError(f"unknown section [{section}]")
        if section not in allowed:
            raise ConfigError(f"section [{section}] is not valid in "
                              f"{mode!r} mode")
        for key in parser[section]:
            if key not in _SCHEMA[section]:
                raise ConfigError(f"{section}.{key}: unknown key")
    for section in _MODE_REQUIRED[mode]:
        if not parser.has_section(section):
            raise ConfigError(f"mode {mode!r} requires a [{section}] section")

    def get(section, key, parse, default):
        if not parser.has_section(section) or key not in parser[section]:
            return default
        raw = parser.get(section, key)
        return parse(section, key, raw) if parse else raw

    cfg = ScenarioConfig(
        name=get("scenario", "name", None, "scenario"),
        mode=mode,
        mass=get("constants", "mass", _parse_float, 1.0),
        charge=get("constants", "charge", _parse_float, -1.0),
        E=get("fields", "E", _parse_vec3, (0.0, 0.0, 0.0)),
        B=get("fields", "B", _parse_vec3, (0.0, 0.0, 0.0)),
        x0=get("initial", "x", _parse_vec3, (0.0, 0.0, 0.0)),
        v0=get("initial", "v", _parse_vec3, (0.0, 0.0, 0.0)),
        s0=get("initial", "s", _parse_vec3, (0.0, 0.0, 0.0)),
        dt=get("integration", "dt", _parse_float, 0.1),
        steps=get("integration", "steps", _parse_int, 1000),
        sample_every=get("integration", "sample_every", _parse_int, 1),
        pryce_kinds=get("output", "pryce_kinds", _parse_kinds,
                        ("c", "d", "e")),
        packet=PacketSpec(
            p0=get("packet", "p0", _parse_vec3, PacketSpec.p0),
            widths=get("packet", "widths", _parse_vec3, PacketSpec.widths),
            spin=get("packet", "spin", _parse_vec3, PacketSpec.spin),
            grid_points=get("packet", "grid_points", _parse_int,
                            PacketSpec.grid_points),
            grid_radius=get("packet", "grid_radius", _parse_float,
                            PacketSpec.grid_radius),
        ),
        converge=ConvergeSpec(
            target=get("converge", "target", None, ConvergeSpec.target),
            rungs=get("converge", "rungs", _parse_int, ConvergeSpec.rungs),
        ),
        algebra_momenta=get("algebra", "momenta", _parse_int, 100),
        algebra_pmax=get("algebra", "pmax", _parse_float, 10.0),
        seed=get("algebra", "seed", _parse_int, 0),
    )
    _validate(cfg)
    return cfg


def _validate(cfg: ScenarioConfig):
    if not cfg.name:
        raise ConfigError("scenario.name: must not be empty")
    _parse_kinds("output", "pryce_kinds", " ".join(cfg.pryce_kinds))
    pk = cfg.packet
    for name, value in (
            ("constants.mass", cfg.mass), ("constants.charge", cfg.charge),
            ("fields.E", cfg.E), ("fields.B", cfg.B), ("initial.x", cfg.x0),
            ("initial.v", cfg.v0), ("initial.s", cfg.s0),
            ("integration.dt", cfg.dt), ("packet.p0", pk.p0),
            ("packet.widths", pk.widths), ("packet.spin", pk.spin),
            ("packet.grid_radius", pk.grid_radius),
            ("algebra.pmax", cfg.algebra_pmax)):
        if not np.all(np.isfinite(value)):
            raise ConfigError(f"{name}: must be finite")
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


def _fmt(v) -> str:
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    return str(v)


def _fmt_vec(v) -> str:
    return " ".join(repr(float(c)) for c in v)


def serialize_config(cfg: ScenarioConfig) -> str:
    """Canonical text for a configuration (stable section and key order)."""
    _validate(cfg)
    out = io.StringIO()

    def section(name, pairs):
        out.write(f"[{name}]\n")
        for k, v in pairs:
            out.write(f"{k} = {v}\n")
        out.write("\n")

    section("scenario", [("name", cfg.name), ("mode", cfg.mode)])
    section("constants", [("mass", _fmt(cfg.mass)),
                          ("charge", _fmt(cfg.charge))])
    allowed = _MODE_SECTIONS[cfg.mode]
    if "fields" in allowed:
        section("fields", [("E", _fmt_vec(cfg.E)), ("B", _fmt_vec(cfg.B))])
    if "initial" in allowed:
        section("initial", [("x", _fmt_vec(cfg.x0)), ("v", _fmt_vec(cfg.v0)),
                            ("s", _fmt_vec(cfg.s0))])
    if "integration" in allowed:
        section("integration", [("dt", _fmt(cfg.dt)),
                                ("steps", _fmt(cfg.steps)),
                                ("sample_every", _fmt(cfg.sample_every))])
    if "output" in allowed:
        section("output", [("pryce_kinds", " ".join(cfg.pryce_kinds))])
    if "packet" in allowed:
        section("packet", [("p0", _fmt_vec(cfg.packet.p0)),
                           ("widths", _fmt_vec(cfg.packet.widths)),
                           ("spin", _fmt_vec(cfg.packet.spin)),
                           ("grid_points", _fmt(cfg.packet.grid_points)),
                           ("grid_radius", _fmt(cfg.packet.grid_radius))])
    if "converge" in allowed:
        section("converge", [("target", cfg.converge.target),
                             ("rungs", _fmt(cfg.converge.rungs))])
    if "algebra" in allowed:
        section("algebra", [("momenta", _fmt(cfg.algebra_momenta)),
                            ("pmax", _fmt(cfg.algebra_pmax)),
                            ("seed", _fmt(cfg.seed))])
    return out.getvalue()


def load_config(path) -> ScenarioConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())

