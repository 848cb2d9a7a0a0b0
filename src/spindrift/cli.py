"""Command-line front end.

Subcommands
-----------
simulate        sample a scenario's exact motion, write CSV trajectory + report
verify-fg       wave-packet expectation-relation suite
verify-algebra  matrix identity suite
converge        refinement ladder for integrator / fg / anomalous-fd
gallery         write the shipped scenario configs to a directory

verify-fg and verify-algebra run the mode's default scenario, or the
--config file, with each flag given setting the config key that
config.MODE_FLAGS names for it; the result is validated like a file.

Exit codes: 0 all checks pass (warnings allowed), 1 any check fails,
2 configuration error.
"""
from __future__ import annotations

import argparse
import sys

from . import gallery, runners
from .config import (MODE_FLAGS, MODES, VEC3_KEYS, ConfigError,
                     ScenarioConfig, load_config, override)
from .dynamics import IntegrationError

_MODE_HELP = {"simulate": "sample a scenario's motion",
              "verify-fg": "wave-packet relation suite",
              "verify-algebra": "matrix identity suite",
              "converge": "refinement ladder"}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spindrift",
        description="Relativistic spinning-electron mass centers: "
                    "simulation and cross-verification")
    sub = parser.add_subparsers(dest="command", required=True)
    for mode in MODES:
        flags = MODE_FLAGS.get(mode, {})
        cmd = sub.add_parser(mode, help=_MODE_HELP[mode])
        cmd.add_argument("--config", required=not flags,
                         help=f"{mode}-mode scenario config file")
        cmd.add_argument("--out", default="out", help="output directory")
        for flag, key in flags.items():
            cmd.add_argument(f"--{flag}", help=f"sets config key {key}",
                             nargs=3 if key in VEC3_KEYS else None)
    sub.choices["simulate"].add_argument(
        "--plot", action="store_true",
        help="also write two-column plot files per observable")

    gal = sub.add_parser("gallery", help="write the shipped scenario configs")
    gal.add_argument("--out", default="gallery", help="target directory")
    return parser


def _flag_values(args) -> dict:
    """The raw text of each flag given, by the config key it sets."""
    given = {key: getattr(args, flag.replace("-", "_"))
             for flag, key in MODE_FLAGS.get(args.command, {}).items()}
    return {key: value if isinstance(value, str) else " ".join(value)
            for key, value in given.items() if value is not None}


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
            cfg = ScenarioConfig(name=args.command.replace("-", "_"),
                                 mode=args.command)
        cfg = override(cfg, _flag_values(args))
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
