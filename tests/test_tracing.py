"""The traced benchmark run (`perfbench/run.py --trace 1`) wraps package
functions by name; every name it lists must still exist, and the counts it
reads off their arguments and results must still come out."""

from __future__ import annotations

import importlib
import importlib.util
import json
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # dataclasses look it up
    spec.loader.exec_module(module)
    return module


def test_every_traced_function_resolves_in_the_package(monkeypatch):
    tracing = _load_tracing(monkeypatch)
    targets = [(mod, fn) for mod, fn, _ in tracing.TRACED]
    targets += [(mod, fn) for caller, mod, fn, _ in tracing.TRACED_IN]
    callers = [caller for caller, *_ in tracing.TRACED_IN]
    assert targets and callers
    for name in callers:
        importlib.import_module(name)
    for mod, fn in targets:
        assert callable(getattr(importlib.import_module(mod), fn, None)), f"{mod}.{fn}"


def test_traced_commands_count_lps_builds_and_image_vertices(monkeypatch, tmp_path, two_by_two):
    tracing = _load_tracing(monkeypatch)
    from vecgame import cli

    game = tmp_path / "game.json"
    game.write_text(json.dumps(cli.game_dict(two_by_two)), encoding="utf-8")
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for command in ("solve", "equilibria", "poss"):
            argv = [command, "-i", str(game), "--step-row", "1/4", "--workers", "1",
                    "-o", str(tmp_path / f"{command}.json")]
            assert tracer.call("cli.main", cli.main, argv) == 0
    finally:
        tracer.uninstall()
    metrics = tracer.layer_metrics()
    for name in ("lp.calls", "polyhedra.build_set_calls", "poss.image_vertices"):
        assert metrics[name] > 0, name
