"""Pass/warn/fail bookkeeping for verification runs."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

PASS = "pass"
WARN = "warn"
FAIL = "fail"


def max_abs_difference(lhs, rhs) -> float:
    """Max-norm of (lhs - rhs); works for scalars and complex vectors."""
    return float(np.max(np.abs(np.asarray(lhs) - np.asarray(rhs))))


@dataclass
class Relation:
    """One verified expectation-value relation: both sides plus their gap."""

    name: str
    lhs: object
    rhs: object
    residual: float


class ExpectationReport:
    """Ordered set of named relations with residuals."""

    def __init__(self):
        self._relations: dict[str, Relation] = {}

    def add(self, name: str, lhs, rhs) -> Relation:
        if name in self._relations:
            raise ValueError(f"duplicate relation {name!r}")
        rel = Relation(name, lhs, rhs, max_abs_difference(lhs, rhs))
        self._relations[name] = rel
        return rel

    def __getitem__(self, name: str) -> Relation:
        return self._relations[name]

    def __iter__(self):
        return iter(self._relations.values())

    def __len__(self) -> int:
        return len(self._relations)

    def residual(self, name: str) -> float:
        return self._relations[name].residual

    def max_residual(self) -> float:
        return max(r.residual for r in self)

    def to_kv_lines(self, prefix: str = "") -> list[str]:
        lines = []
        for rel in self:
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
    """Flat list of graded checks; every declared check appears exactly once."""

    def __init__(self):
        self.rows: list[CheckRow] = []
        self._names: set[str] = set()

    def add(self, name: str, residual: float, tolerance: float,
            wall_time: float = 0.0, warn_only: bool = False,
            warn: bool = False) -> CheckRow:
        """Grade one check.

        `warn_only` downgrades an over-tolerance result to WARN instead of
        FAIL (used for advisory checks such as the constant-energy monitor);
        `warn` forces WARN status on an otherwise passing row (used when a
        precondition such as packet sharpness is violated).
        """
        if name in self._names:
            raise ValueError(f"duplicate check {name!r}")
        self._names.add(name)
        residual = float(residual)
        if residual <= tolerance:
            status = WARN if warn else PASS
        else:
            status = WARN if warn_only else FAIL
        row = CheckRow(name, status, residual, float(tolerance), wall_time)
        self.rows.append(row)
        return row

    def __iter__(self):
        return iter(self.rows)

    def __len__(self) -> int:
        return len(self.rows)

    def __getitem__(self, name: str) -> CheckRow:
        for row in self.rows:
            if row.name == name:
                return row
        raise KeyError(name)

    def any_fail(self) -> bool:
        return any(r.status == FAIL for r in self.rows)

    def all_pass(self) -> bool:
        return all(r.status == PASS for r in self.rows)

    def exit_code(self) -> int:
        return 1 if self.any_fail() else 0

    def format_table(self, title: str = "") -> str:
        width = max((len(r.name) for r in self.rows), default=10)
        lines = []
        if title:
            lines.append(title)
        lines.append(f"{'check':<{width}}  {'status':6}  "
                     f"{'residual':>13}  {'tolerance':>13}  {'time[s]':>9}")
        lines.append("-" * (width + 2 + 6 + 2 + 13 + 2 + 13 + 2 + 9))
        for r in self.rows:
            lines.append(f"{r.name:<{width}}  {r.status:6}  "
                         f"{r.residual:>13.6g}  {r.tolerance:>13.6g}  "
                         f"{r.wall_time:>9.3g}")
        return "\n".join(lines)

    def to_kv_lines(self, prefix: str = "") -> list[str]:
        lines = []
        for r in self.rows:
            key = f"{prefix}{r.name}"
            lines.append(f"{key}.status = {r.status}")
            lines.append(f"{key}.residual = {r.residual:.17g}")
            lines.append(f"{key}.tolerance = {r.tolerance:.17g}")
        return lines
