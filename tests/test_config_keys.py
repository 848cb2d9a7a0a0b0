"""Each run reads exactly the config keys it accepts.

A run is a mode, or in converge mode the target.  For every run and every
config key: a key the run reads moves an artifact's bytes (or is refused by
the run) when perturbed; a key it does not read leaves every CSV and .kv
byte-identical when set in code, and is refused when parsed.
"""
import copy
import dataclasses
import re

import pytest

from spindrift import config, gallery, runners
from spindrift.config import ConfigError, ScenarioConfig, serialize_config

# the keys each run reads, beyond scenario.name, scenario.mode and
# constants.mass, which every run reads
ORBIT = {"constants.charge", "fields.E", "fields.B", "initial.v",
         "integration.dt", "integration.steps"}
PACKET = {"packet.p0", "packet.widths", "packet.spin"}
READS = {
    "simulate": ORBIT | {"initial.x", "initial.s",
                         "integration.sample_every"},
    "verify-fg": PACKET | {"packet.grid_points"},
    "verify-algebra": {"algebra.momenta", "algebra.pmax", "algebra.seed"},
    "integrator": ORBIT | {"initial.s", "converge.target"},
    "anomalous-fd": ORBIT | {"initial.s", "converge.target"},
    # the fg ladder's rungs are on Gauss-Hermite nodes, not the grid
    "fg": PACKET | {"converge.target"},
}
for _keys in READS.values():
    _keys |= {"scenario.name", "scenario.mode", "constants.mass"}

# a valid value other than every base config's, as config-file text
PERTURBED = {
    "scenario.name": "other",
    "scenario.mode": "simulate",
    "constants.mass": "1.5",
    "constants.charge": "0.5",
    "fields.E": "0.0 0.001 0.0",
    "fields.B": "0.0 0.0 0.025",
    "initial.x": "1.0 0.0 0.0",
    "initial.v": "0.4 0.0 0.0",
    "initial.s": "0.2 0.0 0.3",
    "integration.dt": "0.5",
    "integration.steps": "12",
    "integration.sample_every": "2",
    "packet.p0": "0.0 0.0 0.5",
    "packet.widths": "0.03 0.03 0.03",
    "packet.spin": "0.0 1.0 0.0",
    "packet.grid_points": "20",
    "converge.target": "integrator",
    "algebra.momenta": "7",
    "algebra.pmax": "2.0",
    "algebra.seed": "3",
}
KEYS = [f"{section}.{key}" for section, key, *_ in config._FIELDS]


def _base(run: str) -> ScenarioConfig:
    """A small config of the run."""
    if run == "simulate":
        return ScenarioConfig(
            name="t", charge=1.0, B=(0.0, 0.0, 0.02), v0=(0.3, 0.0, 0.0),
            s0=(0.1, 0.0, 0.4), dt=1.0, steps=16)
    if run == "verify-algebra":
        return ScenarioConfig(name="t", mode="verify-algebra",
                              algebra_momenta=5)
    if run == "verify-fg":
        cfg = ScenarioConfig(name="t", mode="verify-fg")
    else:
        name = f"converge_{run.replace('-', '_')}"
        cfg = dataclasses.replace(gallery.converge_configs()[name], name="t",
                                  steps=8)
    cfg.packet = dataclasses.replace(cfg.packet, grid_points=16)
    return cfg


def _perturbed(run: str, dotted: str) -> str:
    if dotted == "scenario.mode" and run == "simulate":
        return "verify-algebra"
    if dotted == "converge.target" and run == "integrator":
        return "anomalous-fd"
    return PERTURBED[dotted]


def _artifacts(cfg: ScenarioConfig, out) -> dict:
    """File name -> bytes of every CSV and .kv the config's run writes."""
    run = {"simulate": runners.run_simulate,
           "converge": runners.run_converge}.get(cfg.mode, runners.run_verify)
    _, paths = run(cfg, out)
    return {p.name: p.read_bytes() for p in paths
            if p.suffix in (".csv", ".kv")}


def _set(cfg: ScenarioConfig, dotted: str, raw: str) -> ScenarioConfig:
    """A copy of `cfg` with the key set, as code may set it."""
    cfg = copy.deepcopy(cfg)
    section, key, attr, _, parse, _ = config._ROWS[dotted]
    setattr(*config._owner(cfg, attr), parse(section, key, raw))
    return config.override(cfg, {})


@pytest.mark.parametrize("run", sorted(READS))
def test_every_key_is_read_or_left_alone(run, tmp_path):
    base = _base(run)
    assert base.run == run
    want = _artifacts(config.override(base, {}), tmp_path / "base")
    assert want
    for i, dotted in enumerate(KEYS):
        raw, out = _perturbed(run, dotted), tmp_path / str(i)
        if dotted in READS[run]:
            try:
                cfg = config.override(copy.deepcopy(base), {dotted: raw})
                got = _artifacts(cfg, out)
            except ConfigError:
                continue  # refused by the run, which reads the key
            assert got != want, dotted
        else:
            assert _artifacts(_set(base, dotted, raw), out) == want, dotted


def _with_key(text: str, dotted: str, raw: str) -> str:
    """Canonical config text with one more key line."""
    section, key = dotted.split(".")
    if f"[{section}]\n" in text:
        return text.replace(f"[{section}]\n", f"[{section}]\n{key} = {raw}\n")
    return text + f"[{section}]\n{key} = {raw}\n"


@pytest.mark.parametrize("run", sorted(READS))
def test_parse_accepts_exactly_the_keys_the_run_reads(run):
    base = _base(run)
    text = serialize_config(base)
    written = {f"{section}.{key}" for section, body in
               re.findall(r"\[(\w+)\]\n((?:\w+ = .*\n)+)", text)
               for key in re.findall(r"(?m)^(\w+) = ", body)}
    assert written == READS[run]
    assert serialize_config(config.parse_config(text)) == text
    for dotted in set(KEYS) - READS[run]:
        where = "converge mode by the" if run in config.CONVERGE_TARGETS \
            else run
        with pytest.raises(ConfigError,
                           match=f"^{dotted}: not read in {where}"):
            config.parse_config(_with_key(text, dotted, PERTURBED[dotted]))
        with pytest.raises(ConfigError, match=f"^{dotted}: not read in "):
            config.override(copy.deepcopy(base), {dotted: PERTURBED[dotted]})


def test_accepted_pairs():
    pairs = {(run, dotted) for run, keys in READS.items() for dotted in keys}
    assert len(pairs) == 54
    assert {(run, f"{section}.{key}") for section, key, _, runs, *_
            in config._FIELDS for run in runs} == pairs
    assert set(config.RUNS) == set(READS)
