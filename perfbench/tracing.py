"""Spans and counts around the public functions each vecgame module calls.

`Tracer.install()` swaps every module-level binding of the traced
functions (including the names other modules imported with `from .x
import f`) for a wrapper that opens a span, calls the original and
records counts from its arguments and result; `uninstall()` puts the
originals back.  No file of the package changes.  Spans live in memory
and are written out once, at the end of the run.

A span's layer is the part of its name before the dot.  Its self time is
its duration minus the time its child spans cover, so the self times of
all spans under one `cli.main` root add up to the root's duration.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter
from dataclasses import dataclass

import numpy as np

# (module, function, span name); the span name's prefix is the layer.
TRACED = (
    ("vecgame.game", "enumerate_simplex_grid", "game.grid"),
    ("vecgame.lp", "solve_lp", "lp.solve"),
    ("vecgame.lp", "check_feasibility", "lp.feasibility"),
    ("vecgame.polyhedra", "cone_extreme_rays", "polyhedra.dd"),
    ("vecgame.polyhedra", "build_lower_set", "polyhedra.build_set"),
    ("vecgame.polyhedra", "build_upper_set", "polyhedra.build_set"),
    ("vecgame.solver", "classify_grid", "solver.classify_grid"),
    ("vecgame.equilibria", "classify_pairs", "equilibria.classify_pairs"),
    ("vecgame.poss", "compute_security_image", "poss.image"),
    ("vecgame.poss", "poss_strategies", "poss.poss_strategies"),
    ("vecgame.poss", "verify_gap", "poss.verify_gap"),
)
# Traced only where the named module calls it: the Benson loop's DD rounds.
TRACED_IN = (
    (
        "vecgame.poss",
        "vecgame.polyhedra",
        "upper_set_vertices_from_halfspaces",
        "polyhedra.benson_vertices",
    ),
)


@dataclass
class Span:
    sid: int
    name: str
    start: float
    end: float
    parent: int | None
    run: str

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.build_keys: set[bytes] = set()
        self.run_id = ""
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- span recording -------------------------------------------------
    def _open(self, name: str) -> Span:
        parent = self._stack[-1] if self._stack else None
        span = Span(len(self.spans), name, time.perf_counter(), 0.0, parent, self.run_id)
        self.spans.append(span)
        self._stack.append(span.sid)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn inside a span called name; returns its result."""
        span = self._open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(span)

    def _parent_name(self) -> str | None:
        return self.spans[self._stack[-1]].name if self._stack else None

    # -- counts recorded at the same boundaries -------------------------
    def _count(self, name: str, fn, args, result) -> None:
        c = self.counts
        if name == "polyhedra.build_set":
            pts = np.atleast_2d(np.asarray(args[0], dtype=float))
            c["polyhedra.build_set_calls"] += 1
            self.build_keys.add(fn.__name__.encode() + repr(pts.shape).encode() + pts.tobytes())
        elif name == "lp.solve":
            c["lp.calls"] += 1
            c["lp.pivots"] += int(result.iterations)
            c["lp.limit_hits"] += result.status == "iteration_limit"
        elif name == "lp.feasibility":
            c["lp.feasibility_calls"] += 1
        elif name == "polyhedra.dd":
            c["polyhedra.dd_calls"] += 1
            c["polyhedra.dd_constraints"] += int(np.atleast_2d(args[0]).shape[0])
            c["polyhedra.dd_rays"] += int(result.shape[0])
        elif name == "game.grid":
            c["game.grid_points"] += len(result)
        elif name == "solver.classify_grid":
            c["solver.certificates"] += len(result.certificates)
            c["solver.optimal"] += len(result.optimal_indices())
        elif name == "equilibria.classify_pairs":
            c["equilibria.pairs"] += len(result)
            c["equilibria.shapley"] += sum(1 for r in result if r.shapley)
        elif name == "poss.image":
            c["poss.image_vertices"] += len(result.vertices)
        elif name == "polyhedra.benson_vertices":
            c["poss.benson_rounds"] += 1

    def _wrapper(self, name: str, fn):
        tracer = self

        def traced(*args, **kwargs):
            if name == "polyhedra.build_set" and tracer._parent_name() == name:
                return fn(*args, **kwargs)  # build_upper_set's inner lower set
            span = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(span)
            tracer._count(name, fn, args, result)
            return result

        traced.__name__ = fn.__name__
        traced.__qualname__ = fn.__qualname__
        traced.__wrapped__ = fn
        return traced

    def _swap(self, modules, orig, replacement) -> None:
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    self._saved.append((mod, attr, value))
                    setattr(mod, attr, replacement)

    def install(self) -> None:
        package = [m for n, m in sorted(sys.modules.items()) if n.startswith("vecgame.")]
        for mod_name, fn_name, span_name in TRACED:
            orig = getattr(sys.modules[mod_name], fn_name)
            self._swap(package, orig, self._wrapper(span_name, orig))
        for caller, mod_name, fn_name, span_name in TRACED_IN:
            orig = getattr(sys.modules[mod_name], fn_name)
            self._swap([sys.modules[caller]], orig, self._wrapper(span_name, orig))

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._saved):
            setattr(mod, attr, value)
        self._saved.clear()

    # -- derived figures ------------------------------------------------
    def self_times(self) -> list[float]:
        """Per span: duration minus the union of its children's intervals."""
        children: dict[int, list[Span]] = {}
        for s in self.spans:
            if s.parent is not None:
                children.setdefault(s.parent, []).append(s)
        out = []
        for s in self.spans:
            covered, reach = 0.0, s.start
            for ch in sorted(children.get(s.sid, ()), key=lambda x: x.start):
                lo, hi = max(ch.start, reach), min(ch.end, s.end)
                if hi > lo:
                    covered += hi - lo
                    reach = hi
            out.append(s.duration - covered)
        return out

    def _inside(self, span: Span, ancestor: str) -> bool:
        while span.parent is not None:
            span = self.spans[span.parent]
            if span.name == ancestor:
                return True
        return False

    def layer_metrics(self) -> dict[str, float]:
        """The per-layer figures of every span recorded so far (times in s)."""
        selfs = self.self_times()
        self_by_layer = Counter()
        total = Counter()
        for s, st in zip(self.spans, selfs):
            self_by_layer[s.layer] += st
            total[s.name] += s.duration
        c = self.counts
        lp_inside = Counter()
        for s in self.spans:
            if s.name == "lp.solve":
                for anc in ("equilibria.classify_pairs", "poss.image", "poss.verify_gap"):
                    lp_inside[anc] += self._inside(s, anc)

        def frac(num: float, den: float) -> float:
            return num / den if den else 0.0

        m = {
            "cli.report_s": self_by_layer["cli"],
            "cli.report_bytes": c["cli.report_bytes"],
            "game.grid_s": total["game.grid"],
            "game.grid_points": c["game.grid_points"],
            "solver.classify_grid_s": total["solver.classify_grid"],
            "solver.self_s": self_by_layer["solver"],
            "solver.certificates": c["solver.certificates"],
            "solver.optimal_frac": frac(c["solver.optimal"], c["solver.certificates"]),
            "lp.calls": c["lp.calls"],
            "lp.feasibility_calls": c["lp.feasibility_calls"],
            "lp.busy_s": self_by_layer["lp"],  # lp spans nest only lp spans
            "lp.pivots": c["lp.pivots"],
            "lp.limit_hits": c["lp.limit_hits"],
            "polyhedra.dd_calls": c["polyhedra.dd_calls"],
            "polyhedra.dd_busy_s": total["polyhedra.dd"],
            "polyhedra.dd_constraints": c["polyhedra.dd_constraints"],
            "polyhedra.dd_rays": c["polyhedra.dd_rays"],
            "polyhedra.build_set_calls": c["polyhedra.build_set_calls"],
            "polyhedra.build_set_s": total["polyhedra.build_set"],
            "polyhedra.build_set_distinct_frac": frac(
                len(self.build_keys), c["polyhedra.build_set_calls"]
            ),
            "equilibria.classify_pairs_s": total["equilibria.classify_pairs"],
            "equilibria.self_s": self_by_layer["equilibria"],
            "equilibria.pairs": c["equilibria.pairs"],
            "equilibria.strong_lps": lp_inside["equilibria.classify_pairs"],
            "equilibria.shapley_frac": frac(c["equilibria.shapley"], c["equilibria.pairs"]),
            "poss.image_s": total["poss.image"],
            "poss.benson_rounds": c["poss.benson_rounds"],
            "poss.benson_dd_s": total["polyhedra.benson_vertices"],
            "poss.image_vertices": c["poss.image_vertices"],
            "poss.image_lps": lp_inside["poss.image"],
            "poss.verify_gap_s": total["poss.verify_gap"],
            "poss.gap_lps": lp_inside["poss.verify_gap"],
            "poss.poss_strategies_s": total["poss.poss_strategies"],
        }
        # DD spans have no children, so this is polyhedra time outside the DD kernel.
        m["polyhedra.self_s"] = self_by_layer["polyhedra"] - total["polyhedra.dd"]
        m["poss.self_s"] = self_by_layer["poss"]
        return m

    def write(self, path: str) -> None:
        selfs = self.self_times()
        with open(path, "w", encoding="utf-8") as fh:
            for s, st in zip(self.spans, selfs):
                fh.write(
                    json.dumps(
                        {
                            "id": s.sid, "name": s.name, "start": s.start, "end": s.end,
                            "parent": s.parent, "run": s.run, "self": st,
                        }
                    )
                    + "\n"
                )
