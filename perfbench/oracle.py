"""Correctness oracle: a report's verdicts against the recorded references.

`verdicts` reduces a JSON report to what it decides, expressed on the
base game (relabeling undone): which grid strategies are minimal or
maximal and how they group into payoff-identical classes (`fronts`),
how every optimal pair is classified (`pairs`), and the image vertices,
POSS strategies and gap flags (`image`).  `compare` lists every
difference from the reference; an empty list means the report is right.
"""

from __future__ import annotations

import json
import os
from fractions import Fraction

from workloads import Relabel, grid_size

REFERENCES = os.path.join(os.path.dirname(os.path.abspath(__file__)), "references.json")
VERTEX_TOL = 1e-6


class OracleError(Exception):
    """The report is malformed in a way that prevents any comparison."""


def load_references() -> dict:
    with open(REFERENCES, encoding="utf-8") as fh:
        return json.load(fh)


def _counts(weights, n: int) -> tuple[int, ...]:
    counts = tuple(round(w * n) for w in weights)
    if sum(counts) != n or any(abs(w * n - c) > 1e-6 for w, c in zip(weights, counts)):
        raise OracleError(f"weights {weights} are not on the 1/{n} grid")
    return counts


def _front_verdicts(front: dict, player: str, relabel: Relabel, step: Fraction) -> dict:
    n = step.denominator
    counts = [
        list(relabel.base_counts(_counts(c["weights"], n), player))
        for c in front["certificates"]
    ]
    players = len(counts[0]) if counts else 0
    if len({tuple(c) for c in counts}) != len(counts) or len(counts) != grid_size(players, step):
        raise OracleError(f"{player} front does not test every grid strategy exactly once")
    optimal = sorted(counts[i] for i, c in enumerate(front["certificates"]) if c["minimal"])
    classes = sorted(sorted(counts[i] for i in cls) for cls in front["equivalence_classes"])
    return {"optimal": optimal, "classes": classes}


def _fronts(report: dict, relabel: Relabel, step: Fraction) -> dict:
    return {
        side: _front_verdicts(report["fronts"][side], side, relabel, step)
        for side in ("row", "col")
    }


def _pairs(report: dict, relabel: Relabel, step: Fraction) -> dict:
    n = step.denominator
    table = {}
    for rec in report["pairs"]:
        p = relabel.base_counts(_counts(rec["p"]["weights"], n), "row")
        q = relabel.base_counts(_counts(rec["q"]["weights"], n), "col")
        table[(p, q)] = rec["classification"]
    ps = sorted({p for p, _ in table})
    qs = sorted({q for _, q in table})
    if len(table) != len(report["pairs"]) or len(table) != len(ps) * len(qs):
        raise OracleError("pairs do not form the product of the two optimal sets")
    labels = sorted(set(table.values()))
    codes = "".join(str(labels.index(table[(p, q)])) for p in ps for q in qs)
    return {
        "fronts": _fronts(report, relabel, step),
        "p": [list(p) for p in ps],
        "q": [list(q) for q in qs],
        "labels": labels,
        "codes": codes,
    }


def _image(report: dict, relabel: Relabel, step: Fraction) -> dict:
    n = step.denominator
    out = {}
    for side in ("row", "col"):
        out[side] = {
            "vertices": sorted(
                list(relabel.base_vertex(v)) for v in report["images"][side]["vertices"]
            ),
            "poss": sorted(
                list(relabel.base_counts(_counts(s["weights"], n), side))
                for s in report["poss_strategies"][side]
            ),
            "gap_ok": report["gap"][side]["ok"],
            "gap_checked": report["gap"][side]["checked"],
        }
    return out


EXTRACT = {"fronts": _fronts, "pairs": _pairs, "image": _image}


def verdicts(workload: str, report: dict, relabel: Relabel, step: Fraction) -> dict:
    try:
        return EXTRACT[workload](report, relabel, step)
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        raise OracleError(f"malformed {workload} report: {exc!r}") from exc


def _vertices_match(expected: list, got: list) -> bool:
    if len(expected) != len(got):
        return False
    unmatched = list(got)
    for v in expected:
        for i, w in enumerate(unmatched):
            if max(abs(a - b) for a, b in zip(v, w)) <= VERTEX_TOL:
                del unmatched[i]
                break
        else:
            return False
    return True


def compare(expected, got, path: str = "") -> list[str]:
    """Differences between two verdict structures; vertex lists match within VERTEX_TOL."""
    if isinstance(expected, dict) and isinstance(got, dict):
        if expected.keys() != got.keys():
            return [f"{path}: keys {sorted(got)} != {sorted(expected)}"]
        out = []
        for key in expected:
            out += compare(expected[key], got[key], f"{path}.{key}")
        return out
    if path.endswith(".vertices"):
        return [] if _vertices_match(expected, got) else [f"{path}: image vertices differ"]
    if expected != got:
        shown = (str(got)[:80], str(expected)[:80])
        return [f"{path}: got {shown[0]} expected {shown[1]}"]
    return []


def problems(entry: dict, workload: str, report_text: str, relabel: Relabel, step: Fraction) -> list[str]:
    """Differences between one report and a recorded entry; empty when it is right."""
    try:
        got = verdicts(workload, json.loads(report_text), relabel, step)
    except (json.JSONDecodeError, OracleError) as exc:
        return [str(exc)]
    return compare(entry["verdicts"], got)


def entry_for(references: dict, scale: str, workload: str, game_name: str) -> dict:
    try:
        return references[scale][workload][game_name]
    except KeyError:
        raise OracleError(f"no reference recorded for {scale}/{workload}/{game_name}") from None
