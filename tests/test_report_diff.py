"""Tests for the report differ used when a golden report is regenerated."""

import json

from report_diff import diff, main


def _check(label, lhs="1.5", radius="2.0e-60", passed=True):
    return {"label": label, "weight": 5, "lhs": lhs, "rhs": "1.5",
            "residual_midpoint": "0", "residual_radius": radius, "exact": False,
            "passed": passed, "tolerance": "1e-40"}


_OLD = [{"suite": "theorem1", "wall_time": 0.5,
         "checks": [_check("theorem1[l=5]"), _check("theorem1[l=6]"),
                    _check("theorem1[l=7]")]},
        {"suite": "ramanujan", "wall_time": 0.1,
         "checks": [{"label": "ramanujan[l=8]", "skipped_reason": "needs l = 2 (mod 6)"}]}]

_NEW = [{"suite": "theorem1", "wall_time": 0.7,
         "checks": [_check("theorem1[l=5]"),
                    _check("theorem1[l=6]", lhs="1.50", radius="5.0e-61"),
                    _check("theorem1[l=8]", passed=False)]},
        {"suite": "ramanujan", "wall_time": 0.2,
         "checks": [{"label": "ramanujan[l=8]", "skipped_reason": "needs l = 2 (mod 6)"}]}]


def test_diff_lists_changed_added_and_removed_records_only():
    """An unchanged record and the report-level wall_time are not listed; a
    changed one names its fields and old/new residual radius, 2.0e-60 over
    5.0e-61."""
    assert diff(_OLD, _NEW) == [
        "theorem1[l=6]: lhs, residual_radius (residual_radius old/new 4)",
        "theorem1[l=7]: removed",
        "theorem1[l=8]: added",
    ]
    assert diff(_OLD, _OLD) == []


def test_diff_ratio_without_a_numeric_radius():
    """A field present in one record only counts as changed; an exact or
    skipped record has no ratio, and a zero new radius reads inf."""
    old = [{"suite": "s", "checks": [_check("a"), _check("b"), {"label": "c"}]}]
    new = [{"suite": "s", "checks": [_check("a", radius="0"), _check("b", radius=""),
                                     {"label": "c", "error": "boom"}]}]
    assert diff(old, new) == ["a: residual_radius (residual_radius old/new inf)",
                              "b: residual_radius (residual_radius old/new -)",
                              "c: error (residual_radius old/new -)"]


def test_main_reads_two_files(tmp_path, capsys):
    paths = []
    for name, reports in (("old.json", _OLD), ("new.json", _NEW)):
        path = tmp_path / name
        path.write_text(json.dumps(reports), encoding="utf-8")
        paths.append(str(path))
    assert main(paths) == 0
    assert capsys.readouterr().out.splitlines() == diff(_OLD, _NEW)
    assert main(paths[:1]) == 2
