"""Smoke test of the benchmark itself, on tiny inputs (about a minute).

    python3 perfbench/smoke.py

Run from the root of a checkout.  Checks that every workload prints
every end-to-end and per-layer metric with its unit (as BENCHMARK.json
lists them), that traced runs on one seed repeat their exact counts,
that the oracle rejects tampered reports, and that the benchmark fails
without printing a result where there are no sources to measure.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import oracle
import run
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
EXACT_COUNTS = (
    "lp.pivots", "lp.calls", "polyhedra.dd_calls", "polyhedra.dd_rays", "poss.benson_rounds",
    "polyhedra.build_set_distinct_frac",
)


def bench(*args: str, cwd: str = ".") -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def expected_units(section: str) -> dict:
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[section]}


def check_metrics(failures: list, workload: str, trace: int, units: dict) -> dict:
    proc = bench("--workload", workload, "--seed", "3", "--seconds", "0.5",
                 "--trace", str(trace), "--scale", "tiny")
    tag = f"{workload} trace {trace}"
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        failures.append(
            f"{tag}: exit {proc.returncode}\n{proc.stdout[-2000:]}{proc.stderr[-2000:]}"
        )
        return {}
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        failures.append(f"{tag}: result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0:
        failures.append(f"{tag}: not correct: {lines[:-1]}")
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != units:
        failures.append(f"{tag}: metrics {sorted(set(got) ^ set(units))} differ in name or unit")
    for name, unit in units.items():
        if not any(line.startswith(f"{name}: ") and line.endswith(f" {unit}") for line in lines):
            failures.append(f"{tag}: no line prints {name} in {unit}")
    if trace == 0 and not any(line.startswith("error_rate: ") for line in lines):
        failures.append(f"{tag}: no error_rate line")
    return {name: m["value"] for name, m in result["metrics"].items()}


def tampered(workload: str, report: dict) -> list[dict]:
    """Copies of a correct report, each with one verdict changed."""
    out = []
    if workload in ("fronts", "pairs"):
        bad = json.loads(json.dumps(report))
        cert = bad["fronts"]["row"]["certificates"][0]
        cert["minimal"] = not cert["minimal"]
        out.append(bad)
    if workload == "pairs":
        bad = json.loads(json.dumps(report))
        rec = bad["pairs"][0]
        rec["classification"] = "none" if rec["classification"] != "none" else "shapley"
        out.append(bad)
    if workload == "image":
        bad = json.loads(json.dumps(report))
        bad["images"]["row"]["vertices"][0][0] += 1e-3
        out.append(bad)
        bad = json.loads(json.dumps(report))
        bad["gap"]["col"]["ok"] = not bad["gap"]["col"]["ok"]
        out.append(bad)
    return out


def check_oracle(failures: list, workload: str) -> None:
    spec = workloads.SPECS["tiny"][workload]
    game = spec.games[0]
    entry = oracle.entry_for(oracle.load_references(), "tiny", workload, game.name)
    relabel = workloads.relabel_for(5, 0, game, entry["variants"])
    work = os.path.join(run.WORK_DIR, f"smoke-{workload}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    game_path = os.path.join(work, "game.json")
    report_path = os.path.join(work, "report.json")
    workloads.write_game(game_path, relabel.apply(game.payoffs))
    env = run.child_env(os.path.abspath("src"))
    code = run.run_child(workloads.cli_args(spec, game_path, report_path, 2), env,
                         os.path.join(work, "stderr.log"))[3]
    text = run.read(report_path)

    def problems(report_text: str) -> list[str]:
        return oracle.problems(entry, workload, report_text, relabel, spec.step)

    if code != 0 or problems(text):
        failures.append(f"oracle {workload}: correct report rejected: {problems(text)}")
        return
    for bad in tampered(workload, json.loads(text)):
        if not problems(json.dumps(bad)):
            failures.append(f"oracle {workload}: a tampered report passed")
    if not problems(text[: len(text) // 2]):
        failures.append(f"oracle {workload}: a truncated report passed")


def check_no_sources(failures: list) -> None:
    bare = os.path.join(run.WORK_DIR, "smoke-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy("BENCHMARK.json", bare)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fronts", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180,
    )
    if proc.returncode == 0 or '"metrics"' in proc.stdout:
        failures.append("run without sources did not fail cleanly")


def main() -> int:
    failures: list[str] = []
    e2e = expected_units("end_to_end")
    layers = expected_units("per_layer")
    for workload in workloads.WORKLOADS:
        check_metrics(failures, workload, 0, e2e)
        first = check_metrics(failures, workload, 1, layers)
        second = check_metrics(failures, workload, 1, layers)
        for name in EXACT_COUNTS:
            if first.get(name) != second.get(name):
                failures.append(f"{workload}: {name} {first.get(name)} != {second.get(name)}")
        check_oracle(failures, workload)
        print(f"{workload}: done", flush=True)
    check_no_sources(failures)
    for f in failures:
        print("FAIL", f)
    print("smoke: " + ("FAILED" if failures else "ok"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
