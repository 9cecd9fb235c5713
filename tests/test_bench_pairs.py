"""`tools/bench_pairs.py` summarizes alternating benchmark pairs by the gain
rule: nine tenths of the pairs won and medians apart by more than the
parent's quartile spread; and by the no-regression rule: the change's
median no worse than the parent's by more than the metric's bound."""

from __future__ import annotations

METRICS = [{"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25},
           {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.1}]


def _result(wall: float, rss: float, correct: bool = True) -> dict:
    return {"correct": correct, "metrics": {"wall_s": {"value": wall, "unit": "s"},
                                           "peak_rss_mb": {"value": rss, "unit": "MB"}}}


def _row(lines: list[str], name: str) -> list[str]:
    return next(line for line in lines if line.startswith(name)).split()


def test_the_summary_gives_medians_spread_wins_and_the_gain_verdict(bench_pairs):
    walls = [0.40, 0.42, 0.44, 0.46, 0.48, 0.50, 0.52, 0.54, 0.56, 0.58]
    pairs = [(_result(w, 65.0), _result(w - 0.2 if i else w + 0.01, 65.0))
             for i, w in enumerate(walls)]
    lines = bench_pairs.summarize(pairs, METRICS)
    # parent median 0.49 and quartiles 0.445-0.535; the change wins 9 of 10,
    # and its median, 0.31, lies 0.18 below, beyond the spread of 0.09
    assert _row(lines, "wall_s") == ["wall_s", "s", "0.49", "0.31", "0.09", "9/10", "yes", "ok"]
    # equal values are ties, which count for neither side
    assert _row(lines, "peak_rss_mb") == ["peak_rss_mb", "MB", "65", "65", "0", "0/10", "no", "ok"]
    assert lines[-1] == "every run correct: yes (20 runs)"


def test_a_gain_needs_nine_wins_in_ten_and_the_medians_apart_by_the_spread(bench_pairs):
    walls = [0.40, 0.42, 0.44, 0.46, 0.48, 0.50, 0.52, 0.54, 0.56, 0.58]
    eight_wins = [(_result(w, 65.0), _result(w - 0.1 if i > 1 else w + 0.1, 65.0))
                  for i, w in enumerate(walls)]
    assert _row(bench_pairs.summarize(eight_wins, METRICS), "wall_s")[-3:-1] == ["8/10", "no"]
    # every pair won, but by 0.05 s against a spread of 0.09 s
    narrow = [(_result(w, 65.0), _result(w - 0.05, 64.0)) for w in walls]
    lines = bench_pairs.summarize(narrow, METRICS)
    assert _row(lines, "wall_s")[-3:-1] == ["10/10", "no"]
    assert _row(lines, "peak_rss_mb")[-3:-1] == ["10/10", "yes"]


def test_a_run_that_was_not_correct_or_printed_no_result_fails_the_summary(bench_pairs):
    pairs = [(_result(0.5, 65.0), _result(0.4, 65.0, correct=False)),
             (_result(0.5, 65.0), {"correct": False, "metrics": {}})]
    lines = bench_pairs.summarize(pairs, METRICS)
    assert _row(lines, "wall_s")[-3:-1] == ["1/2", "no"]
    assert lines[-1] == "every run correct: no (4 runs)"


def test_a_median_worse_by_more_than_the_bound_is_worse(bench_pairs):
    walls = [0.40, 0.42, 0.44, 0.46, 0.48, 0.50, 0.52, 0.54, 0.56, 0.58]
    # the bound allows 0.25 x 0.49 = 0.1225 s; the change's median is 0.147 s slower
    slower = [(_result(w, 65.0), _result(w * 1.3, 72.0)) for w in walls]
    lines = bench_pairs.summarize(slower, METRICS)
    assert _row(lines, "wall_s")[-1] == "worse"
    # 7 MB is more than 10 % of 65 MB
    assert _row(lines, "peak_rss_mb")[-1] == "worse"
    # 0.1 s slower is within the bound, and the parent's spread, 0.09 s, is too
    within = [(_result(w, 65.0), _result(w + 0.1, 71.0)) for w in walls]
    lines = bench_pairs.summarize(within, METRICS)
    assert [_row(lines, name)[-1] for name in ("wall_s", "peak_rss_mb")] == ["ok", "ok"]


def test_a_parent_spread_wider_than_the_bound_leaves_the_metric_unresolved(bench_pairs):
    # median 0.65 allows 0.1625 s; the quartiles 0.425 and 0.875 are 0.45 apart
    walls = [0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0, 1.1]
    faster = [(_result(w, 65.0), _result(w - 0.05, 65.0)) for w in walls]
    assert _row(bench_pairs.summarize(faster, METRICS), "wall_s")[-1] == "unresolved"
    # unless every run of the change beats every run of the parent
    fastest = [(_result(w, 65.0), _result(0.19, 65.0)) for w in walls]
    assert _row(bench_pairs.summarize(fastest, METRICS), "wall_s")[-1] == "ok"


def test_the_verdict_follows_the_metrics_better_direction(bench_pairs):
    parent = [100.0, 99.0, 101.0, 100.0]
    assert bench_pairs.verdict(parent, [85.0] * 4, -1.0, 0.1) == "worse"
    assert bench_pairs.verdict(parent, [95.0] * 4, -1.0, 0.1) == "ok"
    assert bench_pairs.verdict(parent, [115.0] * 4, 1.0, 0.1) == "worse"
