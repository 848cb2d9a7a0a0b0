"""Pass/warn/fail bookkeeping for verification runs."""
from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

PASS = "pass"
WARN = "warn"
FAIL = "fail"


@dataclass
class Relation:
    """One verified relation: both sides and the max-norm of their gap."""

    name: str
    lhs: object
    rhs: object
    residual: float = field(init=False)

    def __post_init__(self):
        self.residual = float(np.max(np.abs(np.subtract(self.lhs, self.rhs))))


def relation_kv_lines(relations, prefix: str = "") -> list[str]:
    """`key = value` lines of each relation's residual, lhs and rhs."""
    lines = []
    for rel in relations:
        key = f"{prefix}{rel.name}"
        lines.append(f"{key}.residual = {rel.residual:.17g}")
        lines.append(f"{key}.lhs = {_fmt_value(rel.lhs)}")
        lines.append(f"{key}.rhs = {_fmt_value(rel.rhs)}")
    return lines


def _fmt_value(v) -> str:
    a = np.asarray(v)
    if a.ndim == 0:
        x = complex(a)
        if x.imag == 0.0:
            return f"{x.real:.17g}"
        return f"{x.real:.17g}{x.imag:+.17g}j"
    return " ".join(_fmt_value(c) for c in a)


@dataclass
class CheckRow:
    name: str
    status: str
    residual: float
    tolerance: float
    wall_time: float


class RunReport:
    """Ordered graded checks; every declared check appears exactly once.

    A row's time is the seconds since the previous row, lap or
    construction, so work done before the report exists is in no row.
    """

    def __init__(self):
        self._rows: dict[str, CheckRow] = {}
        self._clock = time.perf_counter()

    def lap(self) -> float:
        """Seconds since the previous row, lap or construction."""
        now = time.perf_counter()
        elapsed, self._clock = now - self._clock, now
        return elapsed

    def add(self, name: str, residual: float, tolerance: float,
            wall_time: float | None = None, warn_only: bool = False,
            warn: bool = False) -> CheckRow:
        """Grade one check.

        Every row restarts the clock; its time is that lap unless an
        explicit `wall_time` is given (rows that share one phase).
        `warn_only` downgrades an over-tolerance result to WARN instead of
        FAIL (used for advisory checks such as the constant-energy
        monitor); `warn` forces WARN status on an otherwise passing row
        (used when a precondition such as packet sharpness is violated).
        """
        if name in self._rows:
            raise ValueError(f"duplicate check {name!r}")
        elapsed = self.lap()
        if wall_time is None:
            wall_time = elapsed
        residual = float(residual)
        if residual <= tolerance:
            status = WARN if warn else PASS
        else:
            status = WARN if warn_only else FAIL
        row = CheckRow(name, status, residual, float(tolerance), wall_time)
        self._rows[name] = row
        return row

    def __iter__(self):
        return iter(self._rows.values())

    def __len__(self) -> int:
        return len(self._rows)

    def __getitem__(self, name: str) -> CheckRow:
        return self._rows[name]

    def all_pass(self) -> bool:
        return all(r.status == PASS for r in self)

    def exit_code(self) -> int:
        return 1 if any(r.status == FAIL for r in self) else 0

    def format_table(self, title: str = "") -> str:
        width = max((len(r.name) for r in self), default=10)
        lines = []
        if title:
            lines.append(title)
        lines.append(f"{'check':<{width}}  {'status':6}  "
                     f"{'residual':>13}  {'tolerance':>13}  {'time[s]':>9}")
        lines.append("-" * (width + 2 + 6 + 2 + 13 + 2 + 13 + 2 + 9))
        for r in self:
            lines.append(f"{r.name:<{width}}  {r.status:6}  "
                         f"{r.residual:>13.6g}  {r.tolerance:>13.6g}  "
                         f"{r.wall_time:>9.3g}")
        return "\n".join(lines)

    def to_kv_lines(self, prefix: str = "") -> list[str]:
        lines = []
        for r in self:
            key = f"{prefix}{r.name}"
            lines.append(f"{key}.status = {r.status}")
            lines.append(f"{key}.residual = {r.residual:.17g}")
            lines.append(f"{key}.tolerance = {r.tolerance:.17g}")
        return lines
