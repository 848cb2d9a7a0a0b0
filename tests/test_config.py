import math
import pathlib
import tracemalloc
import warnings

import numpy as np
import pytest

from spindrift import algebra, config, gallery
from spindrift.config import (ConfigError, ScenarioConfig, override,
                              parse_config, serialize_config)

DATA = pathlib.Path(__file__).parent / "data"

MINIMAL_SIMULATE = """
[scenario]
name = minimal
mode = simulate

[fields]
B = 0 0 0.02
"""


def test_minimal_simulate_defaults():
    cfg = parse_config(MINIMAL_SIMULATE)
    assert cfg.name == "minimal"
    assert cfg.mass == 1.0
    assert cfg.charge == -1.0
    assert cfg.sample_every == 1
    assert cfg.E == (0.0, 0.0, 0.0)
    assert cfg.B == (0.0, 0.0, 0.02)


def test_comments_allowed():
    cfg = parse_config("# header comment\n" + MINIMAL_SIMULATE +
                       "# trailing comment\n")
    assert cfg.B[2] == 0.02


def test_superluminal_velocity_named_diagnostic():
    text = MINIMAL_SIMULATE + "\n[initial]\nv = 1.2 0 0\n"
    with pytest.raises(ConfigError, match="initial.v"):
        parse_config(text)


def test_unknown_key_rejected():
    text = MINIMAL_SIMULATE + "\n[integration]\ndtt = 0.1\n"
    with pytest.raises(ConfigError, match="integration.dtt"):
        parse_config(text)


def test_unknown_section_rejected():
    with pytest.raises(ConfigError, match="wibble"):
        parse_config(MINIMAL_SIMULATE + "\n[wibble]\na = 1\n")


def test_mode_foreign_section_rejected():
    with pytest.raises(ConfigError, match="packet"):
        parse_config(MINIMAL_SIMULATE + "\n[packet]\ngrid_points = 32\n")


def test_missing_mode_rejected():
    with pytest.raises(ConfigError, match="mode"):
        parse_config("[scenario]\nname = x\n")


def test_unknown_mode_rejected():
    with pytest.raises(ConfigError, match="mode"):
        parse_config("[scenario]\nname = x\nmode = explode\n")


def test_serialize_unknown_mode_is_config_error():
    # a config built in code reaches no parse_config mode check
    with pytest.raises(ConfigError) as built:
        serialize_config(ScenarioConfig(name="x", mode="simulat"))
    with pytest.raises(ConfigError) as parsed:
        parse_config("[scenario]\nname = x\nmode = simulat\n")
    assert str(built.value).startswith("scenario.mode: unknown mode")
    assert str(built.value) == str(parsed.value)


def test_verify_fg_requires_packet_block():
    with pytest.raises(ConfigError, match=r"\[packet\]"):
        parse_config("[scenario]\nname = x\nmode = verify-fg\n")


def test_converge_requires_block_and_rungs():
    with pytest.raises(ConfigError, match=r"\[converge\]"):
        parse_config("[scenario]\nname = x\nmode = converge\n")


# keys a config once set: the grid radius, which the Gauss-Hermite rule
# has none of, and the rung count, now config.RUNGS
@pytest.mark.parametrize("key, extra", [
    ("packet.grid_radius", "\n[packet]\ngrid_radius = 5.0\n"),
    ("converge.rungs", "rungs = 3\n"),
], ids=["packet.grid_radius", "converge.rungs"])
def test_constant_keys_are_unknown(key, extra):
    with pytest.raises(ConfigError, match=f"^{key}: unknown key$"):
        parse_config("[scenario]\nname = x\nmode = converge\n\n"
                     "[converge]\ntarget = fg\n" + extra)


def test_sample_every_above_steps_rejected():
    # only the t = 0 sample would be stored, and no row graded
    text = (MINIMAL_SIMULATE
            + "\n[integration]\nsteps = 20\nsample_every = 21\n")
    with pytest.raises(ConfigError, match="^integration.sample_every: "):
        parse_config(text)
    assert parse_config(text.replace("= 21", "= 20")).sample_every == 20


# (config, steps at the cap, sample_every): simulate holds steps /
# sample_every + 1 samples, a ladder's finest rung 4 steps + 1
@pytest.mark.parametrize("name, steps, every", [
    ("cyclotron", config.MAX_SAMPLES - 1, 1),
    ("cyclotron", 50 * (config.MAX_SAMPLES - 1), 50),
    ("converge_integrator", (config.MAX_SAMPLES - 1) // 4, None),
    ("converge_anomalous_fd", (config.MAX_SAMPLES - 1) // 4, None),
])
def test_sample_count_is_capped(name, steps, every):
    # refused by the config, before any series is allocated
    cfg = {**gallery.gallery_configs(), **gallery.converge_configs()}[name]
    cap = {"integration.steps": str(steps)}
    if every is not None:
        cap["integration.sample_every"] = str(every)
    assert override(cfg, cap).steps == steps
    over = {**cap, "integration.steps": str(steps + (every or 1))}
    tracemalloc.start()
    try:
        with pytest.raises(ConfigError, match="^integration.steps: .* "
                                              "samples, above the cap"):
            override(cfg, over)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100_000


def test_grid_points_are_capped_by_the_slab_budget():
    # the pass holds one (n, n) slab; a grid whose slab exceeds the budget
    # is refused by the config, before any slab is allocated
    cfg = ScenarioConfig(name="verify_fg", mode="verify-fg")
    refused = "^packet.grid_points: a slab .* above the cap"
    tracemalloc.start()
    try:
        with pytest.raises(ConfigError, match=refused):
            override(cfg, {"packet.grid_points": str(10**12)})
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100_000
    cap = math.isqrt(config.MAX_SLAB_BYTES // config.SLAB_BYTES_PER_POINT)
    at_cap = override(cfg, {"packet.grid_points": str(cap)})
    assert at_cap.packet.grid_points == cap
    with pytest.raises(ConfigError, match=refused):
        override(cfg, {"packet.grid_points": str(cap + 1)})


def test_sample_every_must_divide_steps():
    # steps = 40 at sample_every = 3 would stop the samples at t = 39 dt
    text = (MINIMAL_SIMULATE
            + "\n[integration]\nsteps = 40\nsample_every = 3\n")
    with pytest.raises(ConfigError,
                       match="^integration.sample_every: .* divide"):
        parse_config(text)
    assert parse_config(text.replace("= 3", "= 4")).sample_every == 4


@pytest.mark.parametrize("mode, attr, value", [
    ("verify-fg", "v0", (2.0, 0.0, 0.0)),
    ("verify-fg", "dt", 25.0),
    ("verify-algebra", "steps", 0),
    ("verify-algebra", "B", (0.0, 0.0, 1e3)),
    ("simulate", "algebra_pmax", -1.0),
    ("simulate", "packet", None),
])
def test_values_unchecked_where_unread(mode, attr, value):
    # a run checks the values of the keys it reads, and no others
    cfg = ScenarioConfig(mode=mode)
    if attr == "packet":
        cfg.packet.widths, cfg.packet.grid_points = (0.0, 0.0, 0.0), 2
    else:
        setattr(cfg, attr, value)
    assert override(cfg, {}).mode == mode


def test_values_checked_where_read():
    # the integrator ladder reads v and steps RK4 with dt
    for attr, value, key in [("v0", (2.0, 0.0, 0.0), "initial.v"),
                             ("dt", 25.0, "integration.dt")]:
        cfg = ScenarioConfig(mode="converge", B=(0.0, 0.0, 0.02))
        setattr(cfg, attr, value)
        with pytest.raises(ConfigError, match=f"^{key}: "):
            override(cfg, {})


def test_sample_every_unchecked_where_unread():
    cfg = gallery.converge_configs()["converge_anomalous_fd"]
    cfg.sample_every = cfg.steps + 1
    assert override(cfg, {}).run == "anomalous-fd"
    assert "sample_every" not in serialize_config(cfg)


def test_bad_vector_rejected():
    with pytest.raises(ConfigError, match="fields.B"):
        parse_config("[scenario]\nname = x\nmode = simulate\n\n"
                     "[fields]\nB = 1 2\n")


# every float and vec3 key, the mode whose config may hold it, and a
# non-finite value for it
NON_FINITE = [
    ("constants.mass", "simulate", "nan"),
    ("constants.charge", "simulate", "-inf"),
    ("fields.E", "simulate", "0 inf 0"),
    ("fields.B", "simulate", "nan 0 0.02"),
    ("initial.x", "simulate", "nan 0 0"),
    ("initial.v", "simulate", "0 0 -inf"),
    ("initial.s", "simulate", "0 nan 0"),
    ("integration.dt", "simulate", "inf"),
    ("packet.p0", "verify-fg", "nan 0 0.6"),
    ("packet.widths", "verify-fg", "0.01 0.01 inf"),
    ("packet.spin", "verify-fg", "1 0 nan"),
    ("algebra.pmax", "verify-algebra", "nan"),
]


@pytest.mark.parametrize("name, mode, raw", NON_FINITE,
                         ids=[name for name, _, _ in NON_FINITE])
def test_non_finite_rejected(name, mode, raw):
    section, key = name.split(".")
    with pytest.raises(ConfigError, match=f"^{name}: must be finite$"):
        parse_config(f"[scenario]\nname = x\nmode = {mode}\n\n"
                     f"[{section}]\n{key} = {raw}\n")


def test_output_section_rejected():
    # every run writes and grades all three Pryce kinds
    with pytest.raises(ConfigError, match=r"^unknown section \[output\]$"):
        parse_config(MINIMAL_SIMULATE + "\n[output]\npryce_kinds = c d e\n")


# masses whose cube is not a normal float: the kernels divide by 2 m^3
@pytest.mark.parametrize("mass", ["0", "-1", "1e-103", "1e-130", "1e-300",
                                  "1e103"])
def test_mass_cube_must_be_normal(mass):
    with pytest.raises(ConfigError, match="^constants.mass: must be positive"):
        parse_config(MINIMAL_SIMULATE + f"\n[constants]\nmass = {mass}\n")


@pytest.mark.parametrize("mass", ["1e-102", "1e102"])
def test_mass_cube_at_the_normal_range_accepted(mass):
    # simulate with no fields: nothing but m^3 bounds the mass
    cfg = parse_config("[scenario]\nname = x\nmode = simulate\n\n"
                       f"[constants]\nmass = {mass}\n")
    assert cfg.mass == float(mass)


def _largest_admitted(admitted, lo, hi) -> float:
    """The largest positive float in [lo, hi) that `admitted` accepts."""
    lo, hi = (int(bits) for bits in np.array([lo, hi]).view(np.int64))
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if admitted(float(np.int64(mid).view(float))) \
            else (lo, mid)
    return float(np.int64(lo).view(float))


# verify-algebra's kernels form 2 E^2 (E + m) and gamma^2 (gamma + 1) at
# E = m gamma, gamma up to hypot(1, pmax); the suite overflowed above
# m ~ 4.3e101 at the default pmax while m^3 stayed finite
@pytest.mark.parametrize("vary, hi, fixed", [
    ("constants.mass", 5e102, {"algebra.pmax": "10.0"}),
    ("constants.mass", 5e102, {"algebra.pmax": "0.001"}),
    ("algebra.pmax", 1e300, {"constants.mass": "0.001"}),
], ids=["mass_at_pmax_10", "mass_at_pmax_1e-3", "pmax_at_mass_1e-3"])
def test_verify_algebra_overflow_edge(vary, hi, fixed):
    def config(value):
        return override(ScenarioConfig(mode="verify-algebra"),
                        {**fixed, vary: repr(value)})

    def admitted(value):
        try:
            config(value)
        except ConfigError as exc:
            assert str(exc).startswith("constants.mass: 2 E^2 (E + m)")
            assert "algebra.pmax = " in str(exc)
            return False
        return True

    edge = config(_largest_admitted(admitted, 1.0, hi))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = algebra.identity_report(pmax_over_m=edge.algebra_pmax,
                                         m=edge.mass)
    assert all(np.isfinite(row.residual) for row in report)


def test_golden_file_roundtrip():
    # one canonical file per mode, written by the serializer before its
    # sections and keys were declared in one table
    for name in ("simulate", "verify_fg", "verify_algebra", "converge"):
        golden = (DATA / f"golden_{name}.cfg").read_text(encoding="utf-8")
        assert serialize_config(parse_config(golden)) == golden, name


def test_serialize_parse_idempotent_int_valued_floats():
    text = serialize_config(ScenarioConfig(name="x", dt=1, mass=2,
                                           charge=-1))
    assert "mass = 2.0\n" in text
    assert serialize_config(parse_config(text)) == text


def test_serialize_parse_idempotent_gallery():
    for cfg in {**gallery.gallery_configs(),
                **gallery.converge_configs()}.values():
        text = serialize_config(cfg)
        again = serialize_config(parse_config(text))
        assert again == text


def test_parse_preserves_values():
    cfg0 = ScenarioConfig(name="x", mode="verify-fg")
    cfg0.packet.widths = (0.01, 0.02, 0.03)
    cfg = parse_config(serialize_config(cfg0))
    assert cfg.packet.widths == (0.01, 0.02, 0.03)
    assert cfg.packet.grid_points == 32
