"""Compare two vecgame checkouts on one benchmark workload, in alternating pairs.

    python3 tools/bench_pairs.py PARENT CHANGE --workload pairs --pairs 10 --seconds 10

Pair i runs `perfbench/run.py --workload W --seed S --seconds T` once in
each checkout, from its root, with the seed S = --seed + i on both sides;
the parent runs first in even pairs and the change in odd ones.  For each
end-to-end metric of CHANGE's BENCHMARK.json this prints both medians,
the parent's quartile spread (q3 - q1), the pairs the change wins (ties
count for neither) and whether a gain holds: the change wins at least
nine tenths of the pairs and the medians differ, in the metric's better
direction, by more than the parent's spread.  Its last column is the
no-regression verdict against the metric's `bound`, a share of the
parent's median: `worse` when the change's median is worse by more than
that; `unresolved` when the parent's quartile spread exceeds it, unless
every run of the change beats every run of the parent; `ok` otherwise.
The last line says whether every run ended `"correct": true`; the exit
status is 0 only then.
Nothing under `perfbench/` is edited.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys


def run_once(checkout: str, workload: str, seed: int, seconds: float) -> dict:
    """One `perfbench/run.py` run in `checkout`: the JSON object of its last
    line, or a failed result when it printed none."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds)]
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return {"correct": False, "metrics": {}}


def spread(values: list[float]) -> float:
    """The distance between the quartiles of `values`."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q3 - q1


def verdict(parent: list[float], change: list[float], sign: float, bound: float) -> str:
    """Whether the change's runs are `worse` than the parent's, `unresolved`
    or `ok`, for a metric where lower is better when `sign` is 1 and higher
    when it is -1, and which may worsen by `bound` times the parent's median."""
    mp = statistics.median(parent)
    allowed = bound * abs(mp)
    if sign * (statistics.median(change) - mp) > allowed:
        return "worse"
    if spread(parent) > allowed and min(sign * p for p in parent) <= max(sign * c for c in change):
        return "unresolved"
    return "ok"


def summarize(pairs: list[tuple[dict, dict]], metrics: list[dict]) -> list[str]:
    """The report lines for runs `pairs`, (parent result, change result)
    each, over the end-to-end `metrics` ({"name", "unit", "better", "bound"})."""
    lines = [f"{'metric':12} {'unit':5} {'parent':>10} {'change':>10} "
             f"{'parent IQR':>10} {'wins':>7}  gain  verdict"]
    for metric in metrics:
        name, sign = metric["name"], 1.0 if metric["better"] == "lower" else -1.0
        both = [(p["metrics"][name]["value"], c["metrics"][name]["value"])
                for p, c in pairs if name in p["metrics"] and name in c["metrics"]]
        if not both:
            lines.append(f"{name:12} {metric['unit']:5} no runs")
            continue
        parent, change = [p for p, _ in both], [c for _, c in both]
        wins = sum(sign * (p - c) > 0 for p, c in both)
        mp, mc, iqr = statistics.median(parent), statistics.median(change), spread(parent)
        gain = wins * 10 >= 9 * len(pairs) and sign * (mp - mc) > iqr
        lines.append(f"{name:12} {metric['unit']:5} {mp:10.4g} {mc:10.4g} {iqr:10.4g} "
                     f"{wins:>3}/{len(pairs):<3}  {'yes' if gain else 'no':4}  "
                     f"{verdict(parent, change, sign, metric['bound'])}")
    runs = [r for pair in pairs for r in pair]
    correct = all(r.get("correct") is True for r in runs)
    lines.append(f"every run correct: {'yes' if correct else 'no'} ({len(runs)} runs)")
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", help="root of the parent checkout")
    parser.add_argument("change", help="root of the changed checkout")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--seed", type=int, default=1, help="the seed of the first pair")
    args = parser.parse_args(argv)
    with open(os.path.join(args.change, "BENCHMARK.json"), encoding="utf-8") as fh:
        metrics = json.load(fh)["end_to_end"]
    pairs = []
    for i in range(args.pairs):
        seed = args.seed + i
        order = (args.parent, args.change) if i % 2 == 0 else (args.change, args.parent)
        first, second = [run_once(side, args.workload, seed, args.seconds) for side in order]
        pairs.append((first, second) if i % 2 == 0 else (second, first))
        print(f"pair {i + 1}/{args.pairs} (seed {seed}) done", file=sys.stderr)
    lines = summarize(pairs, metrics)
    print("\n".join(lines))
    return 0 if lines[-1].startswith("every run correct: yes") else 1


if __name__ == "__main__":
    sys.exit(main())
