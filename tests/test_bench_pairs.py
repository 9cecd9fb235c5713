"""`tools/bench_pairs.py` summarizes alternating benchmark pairs by the gain
rule: nine tenths of the pairs won and medians apart by more than the
parent's quartile spread."""

from __future__ import annotations

METRICS = [{"name": "wall_s", "unit": "s", "better": "lower"},
           {"name": "peak_rss_mb", "unit": "MB", "better": "lower"}]


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
    assert _row(lines, "wall_s") == ["wall_s", "s", "0.49", "0.31", "0.09", "9/10", "yes"]
    # equal values are ties, which count for neither side
    assert _row(lines, "peak_rss_mb") == ["peak_rss_mb", "MB", "65", "65", "0", "0/10", "no"]
    assert lines[-1] == "every run correct: yes (20 runs)"


def test_a_gain_needs_nine_wins_in_ten_and_the_medians_apart_by_the_spread(bench_pairs):
    walls = [0.40, 0.42, 0.44, 0.46, 0.48, 0.50, 0.52, 0.54, 0.56, 0.58]
    eight_wins = [(_result(w, 65.0), _result(w - 0.1 if i > 1 else w + 0.1, 65.0))
                  for i, w in enumerate(walls)]
    assert _row(bench_pairs.summarize(eight_wins, METRICS), "wall_s")[-2:] == ["8/10", "no"]
    # every pair won, but by 0.05 s against a spread of 0.09 s
    narrow = [(_result(w, 65.0), _result(w - 0.05, 64.0)) for w in walls]
    lines = bench_pairs.summarize(narrow, METRICS)
    assert _row(lines, "wall_s")[-2:] == ["10/10", "no"]
    assert _row(lines, "peak_rss_mb")[-2:] == ["10/10", "yes"]


def test_a_run_that_was_not_correct_or_printed_no_result_fails_the_summary(bench_pairs):
    pairs = [(_result(0.5, 65.0), _result(0.4, 65.0, correct=False)),
             (_result(0.5, 65.0), {"correct": False, "metrics": {}})]
    lines = bench_pairs.summarize(pairs, METRICS)
    assert _row(lines, "wall_s")[-2:] == ["1/2", "no"]
    assert lines[-1] == "every run correct: no (4 runs)"
