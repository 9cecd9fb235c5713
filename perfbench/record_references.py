"""Record the oracle's references and the relabelings a seed may choose.

    python3 perfbench/record_references.py [--scale full] [--workload image]

Run from the root of a checkout (about ten minutes for everything).  For
every base game it runs the CLI once on the game as drawn (`--workers 1`)
and stores the verdicts, then runs every relabeling variant and compares
its verdicts with the stored ones.  Variants that match become the ones a
seed can select; variants on which the program fails or disagrees with
itself are stored under `failing` with the reason, and printed, so that
the benchmark never hands the program an input the recorded code gets
wrong while the defect stays on record.  Only re-record at a commit whose
verdicts are known to be right, and say why in the change that does it.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
import time

import oracle
import workloads


def _run(spec: workloads.Spec, payoffs: list, tmp: str) -> str:
    from vecgame import cli

    game_path = os.path.join(tmp, "game.json")
    report = os.path.join(tmp, "report.json")
    workloads.write_game(game_path, payoffs)
    code = cli.main(workloads.cli_args(spec, game_path, report, 1))
    if code:
        raise RuntimeError(f"vecgame exited with {code}")
    with open(report, encoding="utf-8") as fh:
        return fh.read()


def record_game(name: str, spec: workloads.Spec, game: workloads.BaseGame, tmp: str) -> dict:
    ident = workloads.variant_relabel(0, game)
    text = _run(spec, game.payoffs, tmp)
    entry = {
        "verdicts": oracle.verdicts(name, json.loads(text), ident, spec.step),
        "variants": [0],
        "failing": {},
    }
    seen = {ident}
    for variant in range(1, workloads.VARIANTS):
        relabel = workloads.variant_relabel(variant, game)
        if relabel in seen:
            continue
        seen.add(relabel)
        t0 = time.perf_counter()
        try:
            text = _run(spec, relabel.apply(game.payoffs), tmp)
            found = oracle.problems(entry, name, text, relabel, spec.step)
        except Exception as exc:  # a failing variant is recorded, not fatal
            found = [repr(exc)]
        seconds = time.perf_counter() - t0
        if found:
            entry["failing"][str(variant)] = "; ".join(found)[:300]
        else:
            entry["variants"].append(variant)
        status = "ok" if not found else "FAILS " + entry["failing"][str(variant)]
        print(f"  variant {variant} ({seconds:.2f} s): {status}", flush=True)
    return entry


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--scale", choices=tuple(workloads.SPECS), action="append")
    parser.add_argument("--workload", choices=workloads.WORKLOADS, action="append")
    args = parser.parse_args()
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))

    refs = oracle.load_references() if os.path.exists(oracle.REFERENCES) else {}
    os.makedirs(".bench_work", exist_ok=True)
    with tempfile.TemporaryDirectory(dir=".bench_work") as tmp:
        for scale in args.scale or list(workloads.SPECS):
            for name in args.workload or list(workloads.WORKLOADS):
                spec = workloads.SPECS[scale][name]
                for game in spec.games:
                    print(f"{scale}/{name}/{game.name}", flush=True)
                    entry = record_game(name, spec, game, tmp)
                    refs.setdefault(scale, {}).setdefault(name, {})[game.name] = entry
                    with open(oracle.REFERENCES, "w", encoding="utf-8") as fh:
                        json.dump(refs, fh, separators=(",", ":"), sort_keys=True)
                        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
