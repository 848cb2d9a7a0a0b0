import time

import pytest

from spindrift.report import RunReport


def test_rows_time_themselves(monkeypatch):
    ticks = iter([10.0, 10.25, 11.0, 11.5, 12.0, 12.125])
    monkeypatch.setattr(time, "perf_counter", lambda: next(ticks))
    report = RunReport()                                      # 10.0
    first = report.add("first", 0.0, 1.0)                     # 10.25
    shared = report.add("shared", 0.0, 1.0, wall_time=7.0)    # 11.0
    after = report.add("after", 0.0, 1.0)                     # 11.5
    assert report.lap() == 0.5                                # 12.0
    last = report.add("last", 0.0, 1.0)                       # 12.125
    # the time since the previous row (or lap); a given time is kept
    assert first.wall_time == 0.25
    assert shared.wall_time == 7.0
    assert after.wall_time == 0.5
    assert last.wall_time == 0.125


def test_rows_keep_order_and_names_unique():
    report = RunReport()
    for name in ("b", "a", "c"):
        report.add(name, 0.0, 1.0)
    assert [r.name for r in report] == ["b", "a", "c"]
    assert report["a"].status == "pass" and len(report) == 3
    with pytest.raises(ValueError, match="duplicate check 'a'"):
        report.add("a", 2.0, 1.0)
    with pytest.raises(KeyError):
        report["missing"]
