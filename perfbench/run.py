"""vecgame benchmark: three CLI workloads, end to end or traced by layer.

    python3 perfbench/run.py --workload fronts --seed 1 --seconds 30 --trace 0

Run it from the root of a vecgame checkout; the package is imported from
`./src`.  With `--trace 0` it runs the workload's `python -m vecgame`
commands as child processes in a closed loop with one client (the next
command starts when the previous one exits) until `--seconds` have
passed, and reports end-to-end metrics.  With `--trace 1` it runs the
same commands once in this process with `--workers 1`, untraced and then
traced, and reports per-layer metrics.  Every report is checked against
the recorded references; the last line of stdout is one JSON object,
and the exit status is 0 only when every check passed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

import oracle
import workloads

WORK_DIR = ".bench_work"
WORKERS = 2
SETUP_REPEATS = 7
MIN_PASSES = 2

E2E_UNITS = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}

LAYER_UNITS = {
    "cli.report_s": "s",
    "cli.report_bytes": "B",
    "game.grid_s": "s",
    "game.grid_points": "count",
    "solver.classify_grid_s": "s",
    "solver.self_s": "s",
    "solver.certificates": "count",
    "solver.optimal_frac": "ratio",
    "lp.calls": "count",
    "lp.feasibility_calls": "count",
    "lp.busy_s": "s",
    "lp.pivots": "count",
    "lp.limit_hits": "count",
    "polyhedra.dd_calls": "count",
    "polyhedra.dd_busy_s": "s",
    "polyhedra.dd_constraints": "count",
    "polyhedra.dd_rays": "count",
    "polyhedra.build_set_calls": "count",
    "polyhedra.build_set_s": "s",
    "polyhedra.build_set_distinct_frac": "ratio",
    "polyhedra.self_s": "s",
    "equilibria.classify_pairs_s": "s",
    "equilibria.self_s": "s",
    "equilibria.pairs": "count",
    "equilibria.strong_lps": "count",
    "equilibria.shapley_frac": "ratio",
    "poss.image_s": "s",
    "poss.self_s": "s",
    "poss.benson_rounds": "count",
    "poss.benson_dd_s": "s",
    "poss.image_vertices": "count",
    "poss.image_lps": "count",
    "poss.verify_gap_s": "s",
    "poss.gap_lps": "count",
    "poss.poss_strategies_s": "s",
    "trace.wall_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.overhead_frac": "ratio",
    "trace.accounted_frac": "ratio",
}


class Inputs:
    """The workload's game files for one seed, with the recorded entry of each game."""

    def __init__(self, scale: str, workload: str, seed: int, work: str) -> None:
        self.workload = workload
        self.spec = workloads.SPECS[scale][workload]
        references = oracle.load_references()
        self.items = []
        for index, game in enumerate(self.spec.games):
            entry = oracle.entry_for(references, scale, workload, game.name)
            relabel = workloads.relabel_for(seed, index, game, entry["variants"])
            path = os.path.join(work, f"game{index}.json")
            workloads.write_game(path, relabel.apply(game.payoffs))
            self.items.append((entry, relabel, path))
        self._checked: dict[tuple[int, str], list[str]] = {}

    def argv(self, index: int, report: str, workers: int) -> list[str]:
        return workloads.cli_args(self.spec, self.items[index][2], report, workers)

    def problems(self, index: int, text: str) -> list[str]:
        """Oracle verdict on one report of game `index`; identical bytes are checked once."""
        key = (index, hashlib.sha256(text.encode()).hexdigest())
        if key not in self._checked:
            entry, relabel, _ = self.items[index]
            self._checked[key] = oracle.problems(
                entry, self.workload, text, relabel, self.spec.step
            )
        return list(self._checked[key])


def child_env(src: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = src
    return env


def run_child(args: list[str], env: dict, log: str) -> tuple[float, float, float, int]:
    """Spawn `python -m vecgame args`; wall s, cpu s (with pool workers), peak RSS MB, exit code."""
    with open(log, "ab") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-m", "vecgame", *args],
            env=env, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=err,
        )
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    # wait4 reports the child together with the pool workers it reaped.
    cpu = usage.ru_utime + usage.ru_stime
    return wall, cpu, usage.ru_maxrss / 1024.0, proc.returncode


def read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError:
        return ""


def measure_setup(env: dict, log: str) -> tuple[list[float], int]:
    """Walls of fresh `python -m vecgame --version` runs (imports the package and NumPy)."""
    run_child(["--version"], env, log)  # warm the file cache once
    times, failed = [], 0
    for _ in range(SETUP_REPEATS):
        wall, _, _, code = run_child(["--version"], env, log)
        times.append(wall)
        failed += code != 0
    return times, failed


def end_to_end(inputs: Inputs, seconds: float, env: dict, work: str) -> dict:
    log = os.path.join(work, "stderr.log")
    setup, failed = measure_setup(env, log)
    attempted, problems = SETUP_REPEATS, []
    passes = []  # per pass, per game: (wall s, cpu s, peak RSS MB)
    start = time.perf_counter()
    # Run two passes, then start one only while it is expected to end within
    # `seconds`, so a run lasts about `seconds` however long one pass takes.
    while len(passes) < MIN_PASSES or (
        (time.perf_counter() - start) * (len(passes) + 1) / len(passes) <= seconds
    ):
        per_cmd = []
        for index in range(len(inputs.items)):
            report = os.path.join(work, f"report{index}.json")
            if os.path.exists(report):
                os.remove(report)
            wall, cpu, rss, code = run_child(inputs.argv(index, report, WORKERS), env, log)
            found = [f"exit code {code}"] if code else inputs.problems(index, read(report))
            attempted += 1
            if found:
                failed += 1
                problems += [f"game{index}: {p}" for p in found]
            per_cmd.append((wall, cpu, rss))
        passes.append(per_cmd)
    pass_means = [[statistics.fmean(col) for col in zip(*p)] for p in passes]
    wall_s, cpu_s, rss = (statistics.median(col) for col in zip(*pass_means))
    return {
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "samples": {"setup_s": setup, "passes": passes},
        "metrics": {
            "wall_s": wall_s, "cpu_s": cpu_s, "peak_rss_mb": rss,
            "setup_s": statistics.median(setup),
        },
    }


def traced(inputs: Inputs, env: dict, work: str, run_tag: str) -> dict:
    from vecgame import cli

    from tracing import Tracer

    problems = []
    n = len(inputs.items)
    plain = [os.path.join(work, f"untraced{i}.json") for i in range(n)]
    traced_out = [os.path.join(work, f"traced{i}.json") for i in range(n)]
    pooled = [os.path.join(work, f"workers{WORKERS}_{i}.json") for i in range(n)]

    t0 = time.perf_counter()
    codes = [cli.main(inputs.argv(i, plain[i], 1)) for i in range(n)]
    untraced_wall = time.perf_counter() - t0

    tracer = Tracer()
    tracer.install()
    try:
        t0 = time.perf_counter()
        for i in range(n):
            tracer.run_id = f"{run_tag}-game{i}"
            codes.append(tracer.call("cli.main", cli.main, inputs.argv(i, traced_out[i], 1)))
        traced_wall = time.perf_counter() - t0
    finally:
        tracer.uninstall()
    for i in range(n):
        tracer.counts["cli.report_bytes"] += len(read(traced_out[i]).encode())

    log = os.path.join(work, "stderr.log")
    for i in range(n):
        codes.append(run_child(inputs.argv(i, pooled[i], WORKERS), env, log)[3])
    attempted = len(codes)
    failed = sum(1 for c in codes if c)
    if failed:
        problems.append(f"exit codes {codes}")
    for i in range(n):
        text = read(traced_out[i])
        found = inputs.problems(i, text)
        if read(plain[i]) != text:
            found.append("traced report differs from the untraced one")
        if read(pooled[i]) != text:
            found.append(f"--workers 1 report differs from the --workers {WORKERS} one")
        if found:
            failed += 1
            problems += [f"game{i}: {p}" for p in found]
        attempted += 1

    tracer.write(os.path.join(work, "spans.jsonl"))
    metrics = tracer.layer_metrics()
    accounted = sum(tracer.self_times())
    metrics.update(
        {
            "trace.wall_s": traced_wall,
            "trace.untraced_wall_s": untraced_wall,
            "trace.overhead_frac": traced_wall / untraced_wall - 1.0,
            "trace.accounted_frac": accounted / traced_wall,
        }
    )
    return {"attempted": attempted, "failed": failed, "problems": problems, "metrics": metrics}


def _git_commit(root: str) -> str:
    head = os.path.join(root, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        if ref.startswith("ref: "):
            name = ref[5:]
            loose = os.path.join(root, ".git", name)
            if os.path.exists(loose):
                return read(loose).strip()
            for line in read(os.path.join(root, ".git", "packed-refs")).splitlines():
                if line.endswith(" " + name):
                    return line.split()[0]
            return "unknown"
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def env_stamp(root: str) -> dict:
    import numpy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu": cpu,
        "commit": _git_commit(root),
    }


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale", choices=tuple(workloads.SPECS), default="full",
        help="'tiny' runs seconds-long inputs for the smoke test",
    )
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "vecgame", "__init__.py")):
        print(f"no vecgame sources under {src}; run from a checkout root", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    import vecgame

    if os.path.dirname(os.path.abspath(vecgame.__file__)) != os.path.join(src, "vecgame"):
        print(f"imported vecgame from {vecgame.__file__}, not {src}", file=sys.stderr)
        return 2

    run_tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work_rel = os.path.join(WORK_DIR, run_tag)
    shutil.rmtree(work_rel, ignore_errors=True)
    os.makedirs(work_rel)
    inputs = Inputs(args.scale, args.workload, args.seed, work_rel)
    env = child_env(src)

    if args.trace:
        out = traced(inputs, env, work_rel, run_tag)
        units = LAYER_UNITS
    else:
        out = end_to_end(inputs, args.seconds, env, work_rel)
        units = E2E_UNITS
    metrics = {name: {"value": out["metrics"][name], "unit": unit} for name, unit in units.items()}
    result = {
        "correct": out["failed"] == 0,
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": metrics,
    }
    detail = {
        "workload": args.workload, "seed": args.seed, "scale": args.scale,
        "trace": args.trace, "env": env_stamp(root),
        "relabel": [vars(r) for _, r, _ in inputs.items],
        "error_rate": out["failed"] / out["attempted"],
        "samples": out.get("samples"), "problems": out["problems"][:20],
        **result,
    }
    with open(os.path.join(work_rel, "result.json"), "w", encoding="utf-8") as fh:
        json.dump(detail, fh, indent=1)

    for p in out["problems"][:20]:
        print(f"problem: {p}")
    print(f"env: {json.dumps(detail['env'])}")
    print(f"error_rate: {detail['error_rate']:.4g} ratio ({out['failed']}/{out['attempted']} failed)")
    for name, m in metrics.items():
        print(f"{name}: {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
