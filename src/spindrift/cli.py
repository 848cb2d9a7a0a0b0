"""Command-line front end.

Subcommands
-----------
simulate        integrate a scenario config, write CSV trajectory + report
verify-fg       wave-packet expectation-relation suite (config or flags)
verify-algebra  matrix identity suite (config or flags)
converge        refinement ladder for integrator / fg / anomalous-fd
gallery         write the shipped scenario configs to a directory

Exit codes: 0 all checks pass (warnings allowed), 1 any check fails,
2 configuration error.
"""
from __future__ import annotations

import argparse
import sys

from . import gallery, runners
from .config import (ConfigError, PacketSpec, ScenarioConfig, _validate,
                     load_config)
from .dynamics import IntegrationError


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spindrift",
        description="Relativistic spinning-electron mass centers: "
                    "simulation and cross-verification")
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="integrate a scenario")
    sim.add_argument("--config", required=True, help="scenario config file")
    sim.add_argument("--out", default="out", help="output directory")
    sim.add_argument("--plot", action="store_true",
                     help="also write two-column plot files per observable")

    fg = sub.add_parser("verify-fg", help="wave-packet relation suite")
    fg.add_argument("--config", help="scenario config file (verify-fg mode)")
    fg.add_argument("--out", default="out", help="output directory")
    fg.add_argument("--p0", nargs=3, type=float, metavar=("PX", "PY", "PZ"),
                    default=list(PacketSpec.p0), help="packet center")
    fg.add_argument("--widths", nargs=3, type=float,
                    metavar=("WX", "WY", "WZ"),
                    default=list(PacketSpec.widths), help="packet widths")
    fg.add_argument("--spin", nargs=3, type=float, metavar=("SX", "SY", "SZ"),
                    default=list(PacketSpec.spin),
                    help="rest-frame spin direction")
    fg.add_argument("--kinds", default=" ".join(ScenarioConfig.pryce_kinds),
                    help="mass-center kinds, e.g. 'd e'")
    fg.add_argument("--grid-points", type=int,
                    default=PacketSpec.grid_points)
    fg.add_argument("--grid-radius", type=float,
                    default=PacketSpec.grid_radius)
    fg.add_argument("--mass", type=float, default=ScenarioConfig.mass)

    alg = sub.add_parser("verify-algebra", help="matrix identity suite")
    alg.add_argument("--config",
                     help="scenario config file (verify-algebra mode)")
    alg.add_argument("--out", default="out", help="output directory")
    alg.add_argument("--seed", type=int, default=ScenarioConfig.seed,
                     help="seed for the random momenta")
    alg.add_argument("--momenta", type=int,
                     default=ScenarioConfig.algebra_momenta,
                     help="number of random momenta")
    alg.add_argument("--pmax", type=float, default=ScenarioConfig.algebra_pmax,
                     help="momentum ball radius in units of the mass")
    alg.add_argument("--mass", type=float, default=ScenarioConfig.mass)

    con = sub.add_parser("converge", help="refinement ladder")
    con.add_argument("--config", required=True, help="converge-mode config")
    con.add_argument("--out", default="out", help="output directory")

    gal = sub.add_parser("gallery", help="write the shipped scenario configs")
    gal.add_argument("--out", default="gallery", help="target directory")
    return parser


def _flag_config(args) -> ScenarioConfig:
    """The scenario of a verify-fg or verify-algebra call without --config."""
    if args.command == "verify-fg":
        cfg = ScenarioConfig(
            name="verify_fg", mode="verify-fg", mass=args.mass,
            pryce_kinds=tuple(args.kinds.replace(",", " ").split()),
            packet=PacketSpec(p0=tuple(args.p0), widths=tuple(args.widths),
                              spin=tuple(args.spin),
                              grid_points=args.grid_points,
                              grid_radius=args.grid_radius))
    else:
        cfg = ScenarioConfig(name="verify_algebra", mode="verify-algebra",
                             mass=args.mass, algebra_momenta=args.momenta,
                             algebra_pmax=args.pmax, seed=args.seed)
    _validate(cfg)
    return cfg


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "gallery":
            print(*gallery.write_gallery(args.out), sep="\n")
            return 0

        # subcommands other than gallery are named after the mode they run
        if args.config:
            cfg = load_config(args.config)
            if cfg.mode != args.command:
                raise ConfigError(f"scenario.mode: expected "
                                  f"{args.command!r}, got {cfg.mode!r}")
        else:
            cfg = _flag_config(args)
        if args.command == "simulate":
            report, artifacts = runners.run_simulate(cfg, args.out,
                                                     plot=args.plot)
        elif args.command == "converge":
            report, artifacts = runners.run_converge(cfg, args.out)
        else:
            report, artifacts = runners.run_verify(cfg, args.out)
    except (ConfigError, IntegrationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    print(report.format_table(f"{args.command}: {cfg.name}"))
    for path in artifacts:
        print(f"wrote {path}")
    return report.exit_code()


if __name__ == "__main__":
    sys.exit(main())
