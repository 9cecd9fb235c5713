"""`tools/report_diff.py` passes reports that differ only in floats within the
tolerance, and fails on every other difference."""

from __future__ import annotations

import json

import pytest

BASE = {"verdict": True, "count": 3, "name": "a", "none": None,
        "values": [0.5, 1.0, {"lp_value": 0.25}]}


def _changed(path, value):
    report = json.loads(json.dumps(BASE))
    *parents, last = path
    target = report
    for key in parents:
        target = target[key]
    target[last] = value
    return report


def _run(report_diff, tmp_path, a, b, *extra):
    for name, report in (("a.json", a), ("b.json", b)):
        (tmp_path / name).write_text(json.dumps(report), encoding="utf-8")
    return report_diff.main([str(tmp_path / "a.json"), str(tmp_path / "b.json"), *extra])


def test_floats_within_the_tolerance_pass_and_the_largest_gap_is_printed(
    report_diff, tmp_path, capsys
):
    b = _changed(("values", 2, "lp_value"), 0.25 + 4e-10)
    b["values"][0] = 0.5 + 1e-12
    assert _run(report_diff, tmp_path, BASE, b) == 0
    out = capsys.readouterr().out
    assert out.startswith("largest float difference: 3.99999") and "'lp_value'" in out
    assert _run(report_diff, tmp_path, BASE, b, "--tol", "1e-10") == 1


def test_an_integral_float_written_as_an_integer_counts_as_a_float(report_diff, tmp_path):
    # a report writes 1.0 as "1"; the other side's 1.0000000000000002 is a float
    a = _changed(("values", 1), 1)
    assert _run(report_diff, tmp_path, a, _changed(("values", 1), 1.0000000000000002)) == 0
    assert _run(report_diff, tmp_path, _changed(("count",), 3), _changed(("count",), 4)) == 1


@pytest.mark.parametrize("path, value", [
    (("verdict",), False),
    (("verdict",), 1),
    (("name",), "b"),
    (("none",), 0.0),
    (("values",), [0.5, 1.0]),
    (("values", 2), {"lp_value": 0.25, "extra": 1}),
    (("values", 0), float("nan")),
])
def test_any_other_difference_fails(report_diff, tmp_path, path, value):
    assert _run(report_diff, tmp_path, BASE, _changed(path, value)) == 1
