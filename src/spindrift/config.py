"""Scenario configuration: strict sectioned key-value files.

The format is INI-style with `#` comments.  Unknown sections or keys are
errors (no silent typo absorption), and so is a key the config's run does
not read.  Every value is validated, and `serialize_config` emits a
canonical form that `parse_config` maps back to the identical
configuration (serialize . parse is idempotent on canonical text).  A
commented example lives in the package README; `spindrift gallery` writes
the shipped configs in canonical form.
"""
from __future__ import annotations

import configparser
import io
import itertools
from dataclasses import dataclass, field

import numpy as np

from .dynamics import (ClassicalState, FieldConfig, dilation,
                       max_rotation_rate)
from .packets import (GRID_RADIUS, MAX_GRID_SPACING, MomentumWavePacket,
                      gauss_hermite_packet, make_gaussian_packet)

MODES = ("simulate", "verify-fg", "verify-algebra", "converge")
CONVERGE_TARGETS = ("integrator", "fg", "anomalous-fd")
# Rungs per ladder; three give two pairwise orders
RUNGS = 3
# largest dt * max_rotation_rate an RK4 step of the integrator ladder takes
MAX_STEP_ROTATION = 0.1
# Most samples a run may hold.  A sample costs ~400 B of traced memory
# (simulate's derived series, the anomalous-fd ladder's finest rung), so
# the cap admits ~0.4 GB.
MAX_SAMPLES = 1_000_000
# Most bytes one slab of a packet's pass may hold.  The pass holds one
# (n, n) slab at a time, and its traced peak grows by ~655 B per slab point
# (tracemalloc, 64^3 to 128^3: its workspaces X, the table's columns, the
# monomials and momenta, and temporaries), so the cap admits n up to 619.
SLAB_BYTES_PER_POINT = 700
MAX_SLAB_BYTES = 256 * 2**20
# what decides the keys a config may hold: its mode, or converge's target
RUNS = ("simulate", "verify-fg", "verify-algebra", *CONVERGE_TARGETS)


class ConfigError(ValueError):
    """Invalid scenario configuration; message names the offending field."""


@dataclass
class PacketSpec:
    p0: tuple = (0.0, 0.0, 0.6)
    widths: tuple = (0.01, 0.01, 0.01)
    spin: tuple = (1.0, 0.0, 0.0)
    grid_points: int = 32


@dataclass
class ConvergeSpec:
    target: str = "integrator"


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
    packet: PacketSpec = field(default_factory=PacketSpec)
    converge: ConvergeSpec = field(default_factory=ConvergeSpec)
    algebra_momenta: int = 100
    algebra_pmax: float = 10.0
    seed: int = 0

    @property
    def run(self) -> str:
        """The mode, or converge's target; an unknown one is a ConfigError."""
        if self.mode not in MODES:
            raise ConfigError(f"scenario.mode: unknown mode {self.mode!r} "
                              f"(expected one of {MODES})")
        target = self.converge.target
        if self.mode == "converge" and target not in CONVERGE_TARGETS:
            raise ConfigError(f"converge.target: unknown target {target!r} "
                              f"(expected one of {CONVERGE_TARGETS})")
        return target if self.mode == "converge" else self.mode

    def field_config(self) -> FieldConfig:
        """The scenario's fields, charge and mass."""
        return FieldConfig(E=self.E, B=self.B, charge=self.charge,
                           mass=self.mass)

    def initial_state(self) -> ClassicalState:
        """The electron's state at t = 0."""
        return ClassicalState(t=0.0, x=self.x0, v=self.v0, s=self.s0)

    def wave_packet(self, widths=None, nodes=None) -> MomentumWavePacket:
        """The configured packet, at `widths` in place of packet.widths and
        on `nodes` Gauss-Hermite nodes per axis in place of the grid if
        given; a packet floats cannot hold is a ConfigError."""
        spec = self.packet
        args = (spec.p0, spec.widths if widths is None else widths, spec.spin)
        try:
            if nodes is None:
                return make_gaussian_packet(*args, m=self.mass,
                                            grid_points=spec.grid_points)
            return gauss_hermite_packet(*args, m=self.mass, nodes=nodes)
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


# (parser, formatter) per value type; parsers get (section, key, raw-string).
# Every float is written as repr(float(v)), so an int-valued float such as
# mass = 2 reads back as 2.0 and serializes to the same text again.
_STR = (_parse_str, str)
_INT = (_parse_int, str)
_FLOAT = (_parse_float, lambda v: repr(float(v)))
_VEC3 = (_parse_vec3, lambda v: " ".join(repr(float(c)) for c in v))

# (section, key, attribute, runs, parser, formatter) in canonical order: a
# config may set a key only if its run is one of `runs`, the runs whose
# output the key's value can change (_ORBIT follow an orbit, _PACKET
# build a packet, only verify-fg's on the grid: fg rungs take Gauss-Hermite
# nodes); a dotted attribute names a field of the nested PacketSpec or
# ConvergeSpec
_ORBIT = ("simulate", "integrator", "anomalous-fd")
_PACKET = ("verify-fg", "fg")
_FIELDS = (
    ("scenario", "name", "name", RUNS, *_STR),
    ("scenario", "mode", "mode", RUNS, *_STR),
    ("constants", "mass", "mass", RUNS, *_FLOAT),
    ("constants", "charge", "charge", _ORBIT, *_FLOAT),
    ("fields", "E", "E", _ORBIT, *_VEC3),
    ("fields", "B", "B", _ORBIT, *_VEC3),
    ("initial", "x", "x0", ("simulate",), *_VEC3),
    ("initial", "v", "v0", _ORBIT, *_VEC3),
    ("initial", "s", "s0", _ORBIT, *_VEC3),
    ("integration", "dt", "dt", _ORBIT, *_FLOAT),
    ("integration", "steps", "steps", _ORBIT, *_INT),
    ("integration", "sample_every", "sample_every", ("simulate",), *_INT),
    ("packet", "p0", "packet.p0", _PACKET, *_VEC3),
    ("packet", "widths", "packet.widths", _PACKET, *_VEC3),
    ("packet", "spin", "packet.spin", _PACKET, *_VEC3),
    ("packet", "grid_points", "packet.grid_points", ("verify-fg",), *_INT),
    ("converge", "target", "converge.target", CONVERGE_TARGETS, *_STR),
    ("algebra", "momenta", "algebra_momenta", ("verify-algebra",), *_INT),
    ("algebra", "pmax", "algebra_pmax", ("verify-algebra",), *_FLOAT),
    ("algebra", "seed", "seed", ("verify-algebra",), *_INT),
)
_ROWS = {f"{row[0]}.{row[1]}": row for row in _FIELDS}
_SECTIONS = {row[0] for row in _FIELDS}
_READERS = {dotted: row[3] for dotted, row in _ROWS.items()}
VEC3_KEYS = {dotted for dotted, row in _ROWS.items() if row[4] is _parse_vec3}
# the section each mode requires even where all its keys take defaults
_REQUIRED = {"verify-fg": "packet", "converge": "converge"}

# mode -> {CLI flag: the config key it sets}, for the modes that also run
# without --config: each key the mode reads outside [scenario], `_` written
# `-`; a flag takes the key's text, one word per vec3 component
MODE_FLAGS = {mode: {key.replace("_", "-"): f"{section}.{key}"
                     for section, key, _, runs, *_ in _FIELDS
                     if mode in runs and section != "scenario"}
              for mode in ("verify-fg", "verify-algebra")}


def _owner(cfg: ScenarioConfig, attr: str):
    """The object that holds a (possibly dotted) attribute, and its name."""
    head, _, name = attr.rpartition(".")
    return (getattr(cfg, head) if head else cfg), name


def parse_config(text: str) -> ScenarioConfig:
    """Parse and fully validate a scenario document."""
    parser = configparser.ConfigParser(interpolation=None, delimiters=("=",),
                                       comment_prefixes=("#",), strict=True)
    parser.optionxform = str
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"malformed config: {exc}") from None

    if not parser.has_option("scenario", "mode"):
        raise ConfigError("scenario.mode: required")
    values = {}
    for section in parser.sections():
        if section not in _SECTIONS:
            raise ConfigError(f"unknown section [{section}]")
        for key in parser[section]:
            if f"{section}.{key}" not in _ROWS:
                raise ConfigError(f"{section}.{key}: unknown key")
            values[f"{section}.{key}"] = parser.get(section, key)
    required = _REQUIRED.get(values["scenario.mode"])
    if required and not parser.has_section(required):
        raise ConfigError(f"mode {values['scenario.mode']!r} requires a "
                          f"[{required}] section")
    return override(ScenarioConfig(), values)


def override(cfg: ScenarioConfig, values: dict) -> ScenarioConfig:
    """`cfg` with each "section.key" of `values`, which its run must read,
    set from its raw text as in a config file, then fully validated."""
    for dotted, raw in values.items():
        section, key, attr, _, parse, _ = _ROWS[dotted]
        setattr(*_owner(cfg, attr), parse(section, key, raw))
    for dotted in values:
        if cfg.run not in _READERS[dotted]:
            ladder = "" if cfg.run == cfg.mode else f" by the {cfg.run} ladder"
            raise ConfigError(f"{dotted}: not read in {cfg.mode} mode{ladder}")
    _validate(cfg)
    return cfg


def _validate(cfg: ScenarioConfig):
    """Check the value of each key the config's run reads."""
    run = cfg.run

    def reads(dotted: str) -> bool:
        return run in _READERS[dotted]

    if not cfg.name:
        raise ConfigError("scenario.name: must not be empty")
    for section, key, attr, runs, parse, _ in _FIELDS:
        if (run in runs and parse in (_parse_float, _parse_vec3)
                and not np.all(np.isfinite(getattr(*_owner(cfg, attr))))):
            raise ConfigError(f"{section}.{key}: must be finite")
    # the Pryce kernels divide by 2 m^3, so m^3 must be a normal float;
    # m * m * m overflows to inf where a float's m**3 would raise
    if not np.finfo(float).tiny <= cfg.mass * cfg.mass * cfg.mass < np.inf:
        raise ConfigError("constants.mass: must be positive, with m^3 a "
                          "normal float")
    if reads("integration.dt") and cfg.dt <= 0:
        raise ConfigError("integration.dt: must be positive")
    if reads("integration.steps") and cfg.steps < 1:
        raise ConfigError("integration.steps: must be >= 1")
    # the samples end at steps * dt only if their spacing divides steps
    if reads("integration.sample_every") and not (
            1 <= cfg.sample_every and cfg.steps % cfg.sample_every == 0):
        raise ConfigError("integration.sample_every: must be >= 1 and "
                          "divide integration.steps")
    # simulate holds steps / sample_every + 1 samples, a ladder's finest
    # rung 2^(RUNGS - 1) steps + 1
    samples = (cfg.steps // cfg.sample_every if run == "simulate"
               else 2 ** (RUNGS - 1) * cfg.steps) + 1
    if reads("integration.steps") and samples > MAX_SAMPLES:
        raise ConfigError(f"integration.steps: the run would hold {samples} "
                          f"samples, above the cap of {MAX_SAMPLES}")
    if reads("integration.steps") and not np.isfinite(cfg.dt * cfg.steps):
        raise ConfigError("integration: dt * steps must be finite")
    if reads("initial.v"):
        try:
            dilation(cfg.v0)
        except ValueError as exc:
            raise ConfigError(f"initial.v: {exc}") from None
    if reads("packet.widths") and any(w <= 0 for w in cfg.packet.widths):
        raise ConfigError("packet.widths: must be positive")
    n = cfg.packet.grid_points
    if reads("packet.grid_points") and (
            n < 4 or 2 * GRID_RADIUS / (n - 1) > MAX_GRID_SPACING):
        raise ConfigError(f"packet.grid_points: needs >= 4 points, at most "
                          f"{MAX_GRID_SPACING} widths apart")
    if reads("packet.grid_points") and (
            n * n * SLAB_BYTES_PER_POINT > MAX_SLAB_BYTES):
        raise ConfigError(f"packet.grid_points: a slab of {n}^2 points would "
                          f"hold ~{n * n * SLAB_BYTES_PER_POINT:.3g} B, above "
                          f"the cap of {MAX_SLAB_BYTES} B")
    if reads("packet.spin") and float(np.linalg.norm(cfg.packet.spin)) == 0:
        raise ConfigError("packet.spin: must be nonzero")
    if reads("algebra.momenta") and cfg.algebra_momenta < 1:
        raise ConfigError("algebra.momenta: must be >= 1")
    if reads("algebra.pmax") and cfg.algebra_pmax <= 0:
        raise ConfigError("algebra.pmax: must be positive")
    # the identity suite's Pryce kernels form 2 E^2 (E + m) and gamma^2
    # (gamma + 1) for E = m gamma, gamma up to hypot(1, pmax)
    gamma = float(np.hypot(1.0, cfg.algebra_pmax))
    e = cfg.mass * gamma
    if reads("algebra.pmax") and not (
            2.0 * e * e * (e + cfg.mass) + gamma * gamma * (gamma + 1.0)
            < np.inf):
        raise ConfigError(f"constants.mass: 2 E^2 (E + m) or gamma^2 (gamma "
                          f"+ 1) overflows at E = m gamma, gamma = hypot(1, "
                          f"pmax), algebra.pmax = {cfg.algebra_pmax!r}")
    # the integrator ladder steps RK4 with dt as its largest step; every
    # other run samples the exact motion, which takes any dt
    if run == "integrator":
        angle = cfg.dt * max_rotation_rate(cfg.field_config())
        if angle >= MAX_STEP_ROTATION:
            raise ConfigError(f"integration.dt: dt * max rotation rate = "
                              f"{angle:.3g} >= {MAX_STEP_ROTATION}")


def serialize_config(cfg: ScenarioConfig) -> str:
    """Canonical text for a configuration (stable section and key order)."""
    _validate(cfg)
    out = io.StringIO()
    for section, rows in itertools.groupby(_FIELDS, key=lambda row: row[0]):
        rows = [row for row in rows if cfg.run in row[3]]
        if rows:
            out.write(f"[{section}]\n")
            for _, key, attr, _, _, fmt in rows:
                out.write(f"{key} = {fmt(getattr(*_owner(cfg, attr)))}\n")
            out.write("\n")
    return out.getvalue()


def load_config(path) -> ScenarioConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())

