"""Compare two JSON reports, floats within a tolerance and everything else exactly.

    python3 tools/report_diff.py A.json B.json [--tol 1e-9]

Both files are parsed as JSON.  Every key, string, bool, integer and null
must be equal, and every list must have the same length; every float must
lie within `--tol` of its counterpart.  Reports write a float with an
integral value without a fraction part ("0", "5"), so a number read as an
integer against one read as a float counts as a float.  The largest float
difference is printed with its path.  The exit status is 0 when the
reports agree this way and 1 otherwise, with each difference printed on
its own line.
"""

from __future__ import annotations

import argparse
import json
import math
import sys


def _number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def differences(a, b, tol: float, path: str = "$") -> tuple[float, str, list[str]]:
    """(largest float difference, its path, the other differences) between a and b."""
    if _number(a) and _number(b) and (isinstance(a, float) or isinstance(b, float)):
        if a == b or (math.isnan(a) and math.isnan(b)):
            return 0.0, path, []
        gap = abs(a - b)
        if not gap <= tol:  # also catches a NaN or an infinite gap
            return gap, path, [f"{path}: {a!r} != {b!r} (|diff| {gap!r} > {tol!r})"]
        return gap, path, []
    if type(a) is not type(b):
        return 0.0, path, [f"{path}: {a!r} != {b!r} (types differ)"]
    if isinstance(a, dict):
        found = [f"{path}: key {k!r} only in the first report" for k in a if k not in b]
        found += [f"{path}: key {k!r} only in the second report" for k in b if k not in a]
        children = [(a[k], b[k], f"{path}[{k!r}]") for k in a if k in b]
    elif isinstance(a, list):
        found = [] if len(a) == len(b) else [f"{path}: {len(a)} items != {len(b)} items"]
        children = [(x, y, f"{path}[{i}]") for i, (x, y) in enumerate(zip(a, b))]
    else:
        return 0.0, path, [] if a == b else [f"{path}: {a!r} != {b!r}"]
    worst, worst_path = 0.0, path
    for x, y, p in children:
        gap, gap_path, more = differences(x, y, tol, p)
        found += more
        if gap > worst or math.isnan(gap):
            worst, worst_path = gap, gap_path
    return worst, worst_path, found


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("a")
    parser.add_argument("b")
    parser.add_argument("--tol", type=float, default=1e-9)
    args = parser.parse_args(argv)
    reports = []
    for name in (args.a, args.b):
        with open(name, encoding="utf-8") as fh:
            reports.append(json.load(fh))
    worst, where, found = differences(*reports, args.tol)
    print(f"largest float difference: {worst!r} at {where}")
    for line in found:
        print(line)
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
