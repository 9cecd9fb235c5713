"""End-to-end command line runs: reports, formats, determinism, exit codes."""

from __future__ import annotations

import csv
import io
import json
import tempfile
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vecgame import cli, equilibria, poss, solver
from vecgame.cli import _Strategies, game_dict, main
from vecgame.equilibria import Classification, classify_pairs
from vecgame.errors import InputError
from vecgame.game import MixedStrategy, Player, VectorPayoffGame, col_strategy, row_strategy
from vecgame.lp import LPOutcome
from vecgame.polyhedra import build_lower_set, upper_set_cone

from properties import fail_one_stacked_lp
from test_report_digests import GAMES as BUNDLED_GAMES


@pytest.fixture(scope="module")
def game_files(tmp_path_factory, two_by_two, three_by_three, corley, zero_row, scalar_game):
    root = tmp_path_factory.mktemp("games")
    paths = {}
    for name, game in (
        ("two_by_two", two_by_two),
        ("three_by_three", three_by_three),
        ("corley", corley),
        ("zero_row", zero_row),
        ("scalar", scalar_game),
    ):
        path = root / f"{name}.json"
        path.write_text(json.dumps(game_dict(game)), encoding="utf-8")
        paths[name] = str(path)
    return paths


@pytest.fixture(scope="module")
def reports_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("reports")


@pytest.fixture(scope="module")
def solve_report(game_files, reports_dir):
    out = reports_dir / "solve.json"
    assert main(["solve", "-i", game_files["two_by_two"], "--workers", "1",
                 "--output", str(out)]) == 0
    return json.loads(out.read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def equilibria_report(game_files, reports_dir):
    out = reports_dir / "equilibria.json"
    assert main(["equilibria", "-i", game_files["three_by_three"],
                 "--step-row", "1/10", "--step-col", "1/5",
                 "--workers", "1", "--output", str(out)]) == 0
    return json.loads(out.read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def poss_report(game_files, reports_dir):
    out = reports_dir / "poss.json"
    assert main(["poss", "-i", game_files["two_by_two"], "--workers", "1",
                 "--output", str(out)]) == 0
    return json.loads(out.read_text(encoding="utf-8"))


# ---------------------------------------------------------------------------
# solve


def test_solve_report_structure(solve_report):
    assert sorted(solve_report) == ["config", "fronts", "game", "version"]
    config = solve_report["config"]
    assert config["command"] == "solve"
    assert config["step_row"] == "1/10"
    assert config["step_col"] == "1/10"
    assert config["tol"] == pytest.approx(1e-7)
    assert config["format"] == "json"
    assert "prefilter" not in config
    assert "workers" not in config
    assert "output" not in config


def test_solve_report_game_round_trip(solve_report, two_by_two):
    game = solve_report["game"]
    assert (game["rows"], game["cols"], game["dim"]) == (2, 2, 2)
    assert game["payoffs"] == two_by_two.entries.tolist()


def test_solve_report_fronts(solve_report):
    row = solve_report["fronts"]["row"]
    col = solve_report["fronts"]["col"]
    assert row["player"] == "I"
    assert col["player"] == "II"
    assert row["step"] == "1/10"
    assert len(row["certificates"]) == 11
    assert [o["rational"] for o in row["optimal"]] == [
        ["0", "1"], ["1/10", "9/10"], ["1/5", "4/5"], ["3/10", "7/10"]
    ]
    assert len(col["optimal"]) == 6
    assert row["equivalence_classes"] == [[0], [1], [2], [3]]
    flags = [c["minimal"] for c in row["certificates"]]
    assert flags == [True] * 4 + [False] * 7


def test_solve_certificates_expose_improving_strategies(solve_report):
    row = solve_report["fronts"]["row"]
    bad = row["certificates"][-1]  # p = (1,0)
    assert bad["weights"] == [1.0, 0.0]
    assert bad["minimal"] is False
    assert bad["lp_value"] > 0
    assert bad["improving"] is not None
    assert bad["improving"][0] <= 1 / 3 + 1e-7


def test_solve_is_deterministic(game_files, capsys):
    argv = ["solve", "-i", game_files["two_by_two"], "--workers", "1"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    second = capsys.readouterr().out
    assert first == second


def test_solve_does_not_depend_on_the_worker_count(game_files, reports_dir, request):
    one = reports_dir / "workers1.json"
    two = reports_dir / "workers2.json"
    pooled = reports_dir / "workers2_pooled.json"
    base = ["solve", "-i", game_files["three_by_three"], "--step-row", "1/5"]
    assert main(base + ["--workers", "1", "--output", str(one)]) == 0
    # below the break-even, serially; then in a pool of 2
    assert main(base + ["--workers", "2", "--output", str(two)]) == 0
    request.getfixturevalue("pool_pays")
    assert main(base + ["--workers", "2", "--output", str(pooled)]) == 0
    assert one.read_bytes() == two.read_bytes() == pooled.read_bytes()


@pytest.mark.parametrize("fmt", ["json", "table"])
def test_rational_text_is_exact_on_a_1024_grid(game_files, capsys, fmt):
    # A bound of 1000 on the denominator printed 1/1024 as 1/1000.
    argv = ["solve", "-i", game_files["two_by_two"], "--step-row", "1/1024",
            "--step-col", "1/2", "--format", fmt, "--workers", "1"]
    assert main(argv) == 0
    out = capsys.readouterr().out
    if fmt == "json":
        certificates = json.loads(out)["fronts"]["row"]["certificates"]
        assert [c["rational"] for c in certificates[:2]] == [["0", "1"], ["1/1024", "1023/1024"]]
        assert certificates[7]["rational"] == ["7/1024", "1017/1024"]
        assert certificates[1023]["rational"] == ["1023/1024", "1/1024"]
        for c in certificates:
            assert [float(Fraction(r)) for r in c["rational"]] == c["weights"]
    else:
        assert "  (1/1024, 1023/1024)\n" in out
        assert "  (7/1024, 1017/1024)\n" in out
        assert "1/1000" not in out and "4/585" not in out


def test_a_grid_weight_prints_as_the_nearest_bounded_fraction():
    # the count c of a weight c/N gives the text that limit_denominator gives
    rng = np.random.default_rng(5)
    for steps in ((16,), (150, 7), (1024, 2), (9999, 3)):
        names = _Strategies(*(Fraction(1, n) for n in steps))
        weights = [c / n for n in steps for c in range(n + 1)] + list(rng.random(50))
        for w in weights:
            f = Fraction(w).limit_denominator(names.max_den)
            want = str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"
            assert names._fraction(w) == want, (steps, w)


def test_render_json_writes_floats_booleans_and_containers_one_way():
    value = {"none": None, "nan": float("nan"), "inf": float("inf"), "-inf": float("-inf"),
             "tenth": 0.1, "zero": -0.0, "yes": True, "no": False, "int": 7, 3: "key",
             "nested": {"list": [1, 2.5], "tuple": (0.25, [None, "a\"b"])}}
    assert cli.render_json(value) == (
        '{"none":null,"nan":null,"inf":null,"-inf":null,"tenth":0.10000000000000001,'
        '"zero":-0,"yes":true,"no":false,"int":7,"3":"key",'
        '"nested":{"list":[1,2.5],"tuple":[0.25,[null,"a\\"b"]]}}\n'
    )
    for other in (object(), {1, 2}, b"bytes", Fraction(1, 2), np.bool_(True)):
        with pytest.raises(InputError, match="cannot serialize"):
            cli.render_json({"x": [other]})


def test_the_list_writer_writes_floats_as_render_json_does():
    rng = np.random.default_rng(3)
    floats = [0.1, -0.0, 2.0, 1 / 3, 1e300, -5e-324, float("nan"), float("inf"), -float("inf"),
              *rng.normal(size=20).tolist(), *(rng.random(20) * 10.0 ** rng.integers(-20, 20, 20))]
    assert cli._numbers(floats) + "\n" == cli.render_json(floats)
    assert [cli._number(x) + "\n" for x in floats] == [cli.render_json(x) for x in floats]


def test_a_strategys_json_fields_read_back_as_its_weights_and_rational_text():
    rng = np.random.default_rng(8)
    for _ in range(40):
        k, n = int(rng.integers(2, 6)), int(rng.integers(1, 5000))
        counts = rng.multinomial(n, np.ones(k) / k)
        grid = _Strategies(Fraction(1, n))
        # a grid point's weights, as `enumerate_simplex_grid` computes them
        on_grid = MixedStrategy(tuple(c / n for c in counts), Player.ROW)
        typed, fractions = cli._parse_weights(",".join(f"{c}/{n}" for c in counts), Player.COL)
        for names, s in ((grid, on_grid), (_Strategies(*fractions), typed)):
            fields = json.loads("{" + names.fields(s) + "}")
            assert fields == {"weights": list(s.weights), "rational": names.rational(s)}
            assert [Fraction(r) for r in fields["rational"]] == [Fraction(c, n) for c in counts]


@pytest.mark.parametrize("fmt", ["json", "table"])
def test_check_strategy_prints_typed_fractions_exactly(game_files, capsys, fmt):
    # `check` has no grid; a bound of 1000 printed 1/1024 as 1/1000.
    argv = ["check", "-i", game_files["two_by_two"], "--strategy", "1/1024,1023/1024",
            "--format", fmt]
    assert main(argv) == 0
    out = capsys.readouterr().out
    if fmt == "json":
        strategy = json.loads(out)["certificate"]["strategy"]
        assert strategy["rational"] == ["1/1024", "1023/1024"]
    else:
        assert out.startswith("strategy (1/1024, 1023/1024) for player I: minimal")
        assert "1/1000" not in out


@pytest.mark.parametrize("fmt", ["json", "table"])
def test_check_pair_prints_typed_fractions_exactly(game_files, capsys, fmt):
    # A bound of 1000 printed 7/1024 as 4/585.
    argv = ["check", "-i", game_files["two_by_two"], "--pair", "7/1024,1017/1024;1/2,1/2",
            "--format", fmt]
    assert main(argv) == 0
    out = capsys.readouterr().out
    if fmt == "json":
        pair = json.loads(out)["pair"]
        assert pair["p"]["rational"] == ["7/1024", "1017/1024"]
        assert pair["q"]["rational"] == ["1/2", "1/2"]
    else:
        assert out.startswith("pair p=(7/1024, 1017/1024) q=(1/2, 1/2): ")
        assert "4/585" not in out


def test_solve_csv_lists_both_players(game_files, capsys):
    assert main(["solve", "-i", game_files["two_by_two"], "--workers", "1",
                 "--format", "csv"]) == 0
    text = capsys.readouterr().out
    rows = list(csv.reader(io.StringIO(text)))
    assert rows[0] == ["player", "strategy", "rational", "optimal", "lp_value"]
    assert len(rows) == 1 + 22
    assert {r[0] for r in rows[1:]} == {"I", "II"}
    pure_first = next(r for r in rows[1:] if r[0] == "I" and r[1] == "1 0")
    assert pure_first[3] == "false"
    assert float(pure_first[4]) > 0


def test_solve_table_lists_representatives(game_files, capsys):
    assert main(["solve", "-i", game_files["two_by_two"], "--workers", "1",
                 "--format", "table"]) == 0
    text = capsys.readouterr().out
    assert "player I: minimal strategies (step 1/10)" in text
    assert "player II: maximal strategies (step 1/10)" in text
    assert "(0, 1)" in text
    assert "(3/10, 7/10)" in text


def test_solve_surfaces_equivalence_classes(game_files, capsys):
    assert main(["solve", "-i", game_files["zero_row"], "--workers", "1"]) == 0
    report = json.loads(capsys.readouterr().out)
    col = report["fronts"]["col"]
    # q1 in {2/5, 1/2, 3/5} guarantee the same payoff set: one class
    assert col["equivalence_classes"] == [[4, 5, 6]]
    assert [o["rational"] for o in col["optimal"]] == [["2/5", "3/5"]]


# ---------------------------------------------------------------------------
# equilibria


def test_equilibria_report_counts(equilibria_report):
    pairs = equilibria_report["pairs"]
    assert len(pairs) == 54
    kinds = [p["classification"] for p in pairs]
    assert kinds.count("set_shapley") == 9
    assert kinds.count("strong_set_shapley") == 2
    assert all(p["p_minimal"] and p["q_maximal"] for p in pairs)
    assert equilibria_report["config"]["step_col"] == "1/5"


def test_equilibria_report_strong_rows(equilibria_report):
    strong = [p for p in equilibria_report["pairs"]
              if p["classification"] == "strong_set_shapley"]
    payoffs = sorted(tuple(p["payoff"]) for p in strong)
    assert payoffs[0] == pytest.approx((0.4, 0.8), abs=1e-9)
    assert payoffs[1] == pytest.approx((1.0, 0.0), abs=1e-9)


def test_equilibria_csv_has_one_row_per_set_shapley_pair(game_files, capsys):
    assert main(["equilibria", "-i", game_files["three_by_three"],
                 "--step-row", "1/10", "--step-col", "1/5",
                 "--workers", "1", "--format", "csv"]) == 0
    text = capsys.readouterr().out
    rows = list(csv.reader(io.StringIO(text)))
    assert rows[0] == ["p", "q", "type"]
    assert len(rows) == 1 + 11
    assert rows[1] == ["(2/5, 0, 3/5)", "(0, 0, 1)", "strong"]
    types = [r[2] for r in rows[1:]]
    assert types.count("strong") == 2
    assert types.count("not strong") == 9


@pytest.mark.parametrize("fmt", ["json", "csv", "table"])
@pytest.mark.parametrize("name, step", [("three_by_three", "1/5"), ("corley", "1/20")])
def test_equilibria_does_not_depend_on_the_worker_count(game_files, tmp_path, request, name, step,
                                                        fmt):
    one = tmp_path / "workers1"
    two = tmp_path / "workers2"
    pooled = tmp_path / "workers2_pooled"
    base = ["equilibria", "-i", game_files[name], "--step-row", step, "--format", fmt]
    assert main(base + ["--workers", "1", "--output", str(one)]) == 0
    # below the break-even, serially; then the fronts in a pool of 2
    assert main(base + ["--workers", "2", "--output", str(two)]) == 0
    request.getfixturevalue("pool_pays")
    assert main(base + ["--workers", "2", "--output", str(pooled)]) == 0
    assert one.read_bytes() == two.read_bytes() == pooled.read_bytes()


def test_equilibria_table_uses_the_long_phrases(game_files, capsys):
    assert main(["equilibria", "-i", game_files["corley"], "--step-row", "1/2",
                 "--workers", "1", "--format", "table"]) == 0
    text = capsys.readouterr().out
    assert "strong set Shapley equilibrium" in text
    assert "set relation equilibrium" in text


# ---------------------------------------------------------------------------
# poss


def test_poss_report_structure(poss_report):
    assert sorted(poss_report) == ["config", "game", "gap", "images",
                                   "poss_strategies", "version"]
    row_image = poss_report["images"]["row"]
    assert row_image["orientation"] == "upper"
    assert len(row_image["vertices"]) == 2
    assert poss_report["images"]["col"]["orientation"] == "lower"


def test_poss_report_strategies_and_gap(poss_report):
    row = poss_report["poss_strategies"]["row"]
    assert [s["rational"] for s in row] == [
        ["0", "1"], ["1/10", "9/10"], ["1/5", "4/5"], ["3/10", "7/10"]
    ]
    gap = poss_report["gap"]
    assert gap["row"]["ok"] is True and gap["row"]["violations"] == []
    assert gap["col"]["ok"] is True
    assert gap["row"]["checked"] == 4
    assert gap["col"]["checked"] == 6


def test_poss_on_a_front_with_no_optimal_grid_strategy(tmp_path):
    # In matching pennies only the half-half mixtures are optimal, so the
    # pure grid at step 1 holds no strategy for the gap check to test.
    game = tmp_path / "pennies.json"
    game.write_text(json.dumps(game_dict(VectorPayoffGame.from_rows(
        [[[1], [-1]], [[-1], [1]]]))), encoding="utf-8")
    out = tmp_path / "poss.json"
    assert main(["poss", "-i", str(game), "--step-row", "1/1", "--workers", "1",
                 "--output", str(out)]) == 0
    gap = json.loads(out.read_text(encoding="utf-8"))["gap"]
    for side in ("row", "col"):
        assert (gap[side]["checked"], gap[side]["ok"]) == (0, True)


@pytest.mark.parametrize("name", list(BUNDLED_GAMES))
def test_poss_does_not_depend_on_the_worker_count(tmp_path, name, pool_pays):
    game = tmp_path / "game.json"
    game.write_text(
        json.dumps(game_dict(VectorPayoffGame.from_rows(BUNDLED_GAMES[name]))), encoding="utf-8"
    )
    reports = []
    for workers in ("1", "2", "3"):
        out = tmp_path / f"workers{workers}.json"
        assert main(["poss", "-i", str(game), "--step-row", "1/10", "--workers", workers,
                     "--output", str(out)]) == 0
        reports.append(out.read_bytes())
    assert reports[0] == reports[1] == reports[2]


def test_a_cut_the_outer_approximation_ignores_stops_benson_with_a_numerical_failure(
        game_files, monkeypatch, capsys):
    # The DD keeps the vertex a cut should remove, so the vertex fails its
    # verification again and gives the same cut: the loop must not spin.
    def stuck_cone(normals, offsets):
        dd = upper_set_cone(normals, offsets)
        dd.add = lambda row: None
        return dd

    monkeypatch.setattr(poss, "upper_set_cone", stuck_cone)
    assert main(["poss", "-i", game_files["three_by_three"], "--workers", "1"]) == 3
    assert "repeats an earlier one" in capsys.readouterr().err


@pytest.mark.parametrize("workers", ["1", "2"])
def test_a_non_optimal_lp_in_a_poss_task_is_a_numerical_failure(game_files, monkeypatch, capsys,
                                                                 workers, pool_pays):
    # Benson's first LP, a support LP of the image, fails inside the player's
    # task; in a pool that task runs in a forked worker, which inherits the patch.
    monkeypatch.setattr(poss, "solve_lp", lambda lp: LPOutcome("iteration_limit", None, None, 0))
    assert main(["poss", "-i", game_files["two_by_two"], "--workers", workers]) == 3
    err = capsys.readouterr().err
    assert "numerical failure: image support LP ended with status iteration_limit" in err
    assert "Traceback" not in err


# ---------------------------------------------------------------------------
# check


def test_check_flags_a_non_minimal_strategy(game_files, capsys):
    assert main(["check", "-i", game_files["two_by_two"], "--strategy", "1,0"]) == 0
    report = json.loads(capsys.readouterr().out)
    cert = report["certificate"]
    assert cert["kind"] == "minimal"
    assert cert["optimal"] is False
    assert cert["lp_value"] > 0
    assert cert["improving"]["weights"][0] <= 1 / 3 + 1e-7


def test_check_accepts_fractional_weights(game_files, capsys):
    assert main(["check", "-i", game_files["two_by_two"], "--strategy", "1/3,2/3"]) == 0
    report = json.loads(capsys.readouterr().out)
    cert = report["certificate"]
    assert cert["optimal"] is True
    assert cert["improving"] is None
    assert cert["lp_value"] <= 1e-7


def test_check_handles_the_column_player(game_files, capsys):
    assert main(["check", "-i", game_files["two_by_two"], "--player", "col",
                 "--strategy", "1,0"]) == 0
    report = json.loads(capsys.readouterr().out)
    cert = report["certificate"]
    assert cert["kind"] == "maximal"
    assert cert["optimal"] is False


def test_check_pair_reports_the_classification_phrase(game_files, capsys):
    assert main(["check", "-i", game_files["corley"], "--pair", "1,0;1,0"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["phrase"] == "strong set Shapley equilibrium"
    assert report["pair"]["classification"] == "strong_set_shapley"
    assert report["pair"]["payoff"] == pytest.approx([1.0, 0.0], abs=1e-9)


def test_check_pair_table_output(game_files, capsys):
    assert main(["check", "-i", game_files["corley"], "--format", "table",
                 "--pair", "1/8,7/8;5/8,3/8"]) == 0
    text = capsys.readouterr().out
    assert "set Shapley equilibrium" in text
    assert "strong: False" in text


def test_check_strategy_table_output(game_files, capsys):
    assert main(["check", "-i", game_files["two_by_two"], "--format", "table",
                 "--strategy", "1,0"]) == 0
    text = capsys.readouterr().out
    assert "not minimal" in text
    assert "improving strategy:" in text


def test_check_rejects_a_strategy_together_with_a_pair(game_files, capsys):
    assert main(["check", "-i", game_files["corley"], "--strategy", "1,0",
                 "--pair", "1,0;1,0", "--player", "col"]) == 2
    captured = capsys.readouterr()
    assert "input error: check takes --strategy or --pair, not both" in captured.err
    assert captured.out == ""


def test_a_pair_report_does_not_embed_the_player(game_files, capsys):
    reports = []
    for extra in ([], ["--player", "col"]):
        assert main(["check", "-i", game_files["corley"], "--pair", "1,0;1,0", *extra]) == 0
        reports.append(capsys.readouterr().out)
    assert reports[0] == reports[1]
    assert "player" not in json.loads(reports[0])["config"]


def test_check_requires_a_strategy_or_a_pair(game_files, capsys):
    assert main(["check", "-i", game_files["two_by_two"]]) == 2
    assert "input error" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# plot


def test_plot_emits_geometry_for_a_pair(game_files, capsys):
    assert main(["plot", "-i", game_files["two_by_two"],
                 "--pair", "1/3,2/3;1/2,1/2"]) == 0
    shapes = json.loads(capsys.readouterr().out)
    assert [s["label"] for s in shapes] == ["V_I(p)", "V_II(q)", "W_I", "W_II"]
    assert [s["orientation"] for s in shapes] == ["lower", "upper", "upper", "lower"]
    assert shapes[0]["vertices"] == [pytest.approx([2.0, 10 / 3], abs=1e-9)]
    assert all(len(s["vertices"]) >= 1 for s in shapes)


def test_plot_defaults_to_the_security_images(game_files, capsys):
    assert main(["plot", "-i", game_files["two_by_two"]]) == 0
    shapes = json.loads(capsys.readouterr().out)
    assert [s["label"] for s in shapes] == ["W_I", "W_II"]


def test_plot_with_a_single_strategy(game_files, capsys):
    assert main(["plot", "-i", game_files["two_by_two"], "--strategy", "0,1"]) == 0
    shapes = json.loads(capsys.readouterr().out)
    assert [s["label"] for s in shapes] == ["V_I(p)", "W_I", "W_II"]


def test_plot_pair_takes_precedence_over_a_strategy(game_files, capsys):
    # as in `check`: one V_I(p) shape, the pair's, not a second one for --strategy
    assert main(["plot", "-i", game_files["two_by_two"], "--strategy", "1,0",
                 "--pair", "1/3,2/3;1/2,1/2"]) == 0
    shapes = json.loads(capsys.readouterr().out)
    assert [s["label"] for s in shapes] == ["V_I(p)", "V_II(q)", "W_I", "W_II"]
    assert shapes[0]["vertices"] == [pytest.approx([2.0, 10 / 3], abs=1e-9)]


def test_plot_requires_two_payoff_components(game_files, capsys):
    assert main(["plot", "-i", game_files["scalar"]]) == 2
    assert "input error" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# random


def test_random_is_reproducible(capsys):
    argv = ["random", "--rows", "2", "--cols", "3", "--dim", "2", "--seed", "7"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    assert capsys.readouterr().out == first
    data = json.loads(first)
    assert (data["rows"], data["cols"], data["dim"], data["seed"]) == (2, 3, 2, 7)
    assert all(-10 <= v <= 10
               for row in data["payoffs"] for cell in row for v in cell)


def test_random_seeds_differ(capsys):
    assert main(["random", "--seed", "7"]) == 0
    first = capsys.readouterr().out
    assert main(["random", "--seed", "8"]) == 0
    assert capsys.readouterr().out != first


def test_random_output_feeds_solve(tmp_path, capsys):
    game_file = tmp_path / "random.json"
    assert main(["random", "--rows", "2", "--cols", "2", "--dim", "2",
                 "--seed", "5", "--output", str(game_file)]) == 0
    assert main(["solve", "-i", str(game_file), "--step-row", "1/2",
                 "--workers", "1"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert len(report["fronts"]["row"]["certificates"]) == 3


def test_random_rejects_empty_shapes(capsys):
    assert main(["random", "--rows", "0"]) == 2
    assert "input error" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# error handling


def test_missing_input_file(tmp_path, capsys):
    assert main(["solve", "-i", str(tmp_path / "absent.json"), "--workers", "1"]) == 2
    assert "input error" in capsys.readouterr().err


def test_malformed_json(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    assert main(["solve", "-i", str(path), "--workers", "1"]) == 2
    assert "malformed JSON" in capsys.readouterr().err


def test_header_mismatch(tmp_path, two_by_two, capsys):
    data = game_dict(two_by_two)
    data["rows"] = 5
    path = tmp_path / "mismatch.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    assert main(["solve", "-i", str(path), "--workers", "1"]) == 2
    assert "header says" in capsys.readouterr().err


@pytest.mark.parametrize(
    ("rows", "payoffs"),
    [(2.9, [[[1, 0], [0, 0]], [[0, 1], [1, 0]]]),
     ("2", [[[1, 0], [0, 0]], [[0, 1], [1, 0]]]),
     (True, [[[1, 0], [0, 1]]])],
    ids=["float", "string", "bool"],
)
def test_header_counts_must_be_json_integers(tmp_path, capsys, rows, payoffs):
    # each header matches the payoff array once int() is applied to it
    path = tmp_path / "bad_header.json"
    path.write_text(json.dumps({"rows": rows, "cols": 2, "dim": 2, "payoffs": payoffs}))
    assert main(["solve", "-i", str(path), "--workers", "1"]) == 2
    err = capsys.readouterr().err
    assert "input error" in err and "must be integers" in err


@pytest.mark.parametrize(
    "payoffs",
    [[[[1, 0], [0, 0]], [[0, 1]]], [[["a", 0], [0, 0]], [[0, 1], [1, 0]]],
     [[[True, 0], [0, 0]], [[0, 1], [1, 0]]], [[["2", 0], [0, 0]], [[0, 1], [1, 0]]]],
    ids=["ragged", "letter", "bool", "numeral"],
)
def test_ragged_or_non_numeric_payoffs_are_an_input_error(tmp_path, capsys, payoffs):
    path = tmp_path / "bad_payoffs.json"
    path.write_text(json.dumps({"rows": 2, "cols": 2, "dim": 2, "payoffs": payoffs}))
    assert main(["solve", "-i", str(path), "--workers", "1"]) == 2
    assert "input error" in capsys.readouterr().err


def test_an_integer_payoff_beyond_float_range_is_an_input_error(tmp_path, capsys):
    path = tmp_path / "big.json"
    path.write_text('{"rows":1,"cols":1,"dim":1,"payoffs":[[[1' + "0" * 400 + "]]]}")
    assert main(["solve", "-i", str(path), "--step-row", "1/2", "--workers", "1"]) == 2
    assert "input error:" in capsys.readouterr().err


def test_bad_step(game_files, capsys):
    for step in ("0", "abc", "1/0", "nan", "inf", "3/10"):
        for flag in ("--step-row", "--step-col"):
            assert main(["solve", "-i", game_files["two_by_two"], flag, step]) == 2, (flag, step)
            err = capsys.readouterr().err
            assert "input error" in err and "Traceback" not in err


def test_bad_pair_syntax(game_files, capsys):
    assert main(["check", "-i", game_files["corley"], "--pair", "1,0"]) == 2
    assert "--pair expects" in capsys.readouterr().err


@pytest.mark.parametrize("weights", ["abc,0", "1/0,0", "2,0", "1e999,0"])
@pytest.mark.parametrize(
    "command",
    [["check", "--strategy", "{}"], ["plot", "--pair", "{};1,0"]],
    ids=["check", "plot"],
)
def test_bad_strategy_weights_are_an_input_error(game_files, capsys, command, weights):
    argv = [arg.format(weights) for arg in command]
    assert main([*argv, "-i", game_files["two_by_two"]]) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error:") and err.count("\n") == 1


def test_an_unwritable_output_path_is_an_input_error(game_files, tmp_path, capsys, monkeypatch):
    # the path is checked before the command runs, so no LP is solved
    stacks = []
    monkeypatch.setattr(solver, "solve_batch", lambda lp: stacks.append(lp) or [])
    path = tmp_path / "absent" / "report.json"
    assert main(["solve", "-i", game_files["two_by_two"], "--workers", "1", "-o", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"input error: cannot write {path}: ")
    assert captured.err.count("\n") == 1 and captured.out == ""
    assert stacks == []


def test_checking_the_output_path_leaves_no_file_and_keeps_an_existing_one(tmp_path, capsys):
    # the command fails after the check, on a game file that is not there:
    # a new output path stays absent, and an existing file keeps its content
    fresh, kept = tmp_path / "fresh.json", tmp_path / "kept.json"
    kept.write_text("earlier report", encoding="utf-8")
    for path in (fresh, kept):
        assert main(["solve", "-i", str(tmp_path / "absent.json"), "-o", str(path)]) == 2
        assert "cannot read" in capsys.readouterr().err
    assert not fresh.exists()
    assert kept.read_text(encoding="utf-8") == "earlier report"


@pytest.mark.parametrize("workers", ["0", "-3"])
def test_worker_count_below_one_is_an_input_error(game_files, capsys, workers):
    assert main(["solve", "-i", game_files["two_by_two"], "--workers", workers]) == 2
    assert "workers must be at least 1" in capsys.readouterr().err


def test_nonpositive_tol(game_files, capsys):
    assert main(["solve", "-i", game_files["two_by_two"], "--tol", "0"]) == 2
    assert "tol must be positive" in capsys.readouterr().err


@pytest.mark.parametrize("tol", ["nan", "inf", "-inf"])
@pytest.mark.parametrize(
    "command", [["solve"], ["check", "--strategy", "1,0"]], ids=["solve", "check"]
)
def test_non_finite_tol_is_an_input_error(game_files, capsys, command, tol):
    assert main([*command, "-i", game_files["two_by_two"], f"--tol={tol}"]) == 2
    assert "tol must be positive and finite" in capsys.readouterr().err


def test_invalid_lp_strategy_is_a_numerical_failure(game_files, monkeypatch, capsys):
    # An improvement LP that returns a weight of -0.5 is the program's
    # fault, not the input's.
    # The LP runs in the shift d = p - pbar, with pbar the last two rhs entries.
    def fake_solve_batch(lp):
        slacks = np.zeros(lp.lhs.shape[2] - 1)
        slacks[0] = 1.0
        return [
            LPOutcome("optimal", 1.0, np.concatenate([[-0.5 - rhs[-2]], slacks]), 0)
            for rhs in lp.rhs
        ]

    monkeypatch.setattr(solver, "solve_batch", fake_solve_batch)
    assert main(["solve", "-i", game_files["two_by_two"], "--workers", "1"]) == 3
    assert "numerical failure" in capsys.readouterr().err


def test_a_payoff_set_that_excludes_a_generator_is_a_numerical_failure(
    game_files, monkeypatch, capsys
):
    # Each tested set is built with its first generator moved down by 1 in
    # every component, so it leaves that generator out wherever no other
    # generator dominates it, and the tested strategy is no feasible start.
    def lowered(points):
        points = np.array(points)
        points[..., 0, :] -= 1.0
        return build_lower_set(points)

    monkeypatch.setattr(solver, "build_lower_set", lowered)
    assert main(["solve", "-i", game_files["two_by_two"], "--workers", "1"]) == 3
    err = capsys.readouterr().err
    assert "numerical failure: a generator of the tested strategy lies outside" in err
    assert "Traceback" not in err


def test_one_non_optimal_lp_in_a_block_is_a_numerical_failure(game_files, monkeypatch, capsys):
    sizes = fail_one_stacked_lp(monkeypatch, solver)
    assert main(["solve", "-i", game_files["two_by_two"], "--workers", "1"]) == 3
    assert "numerical failure" in capsys.readouterr().err
    assert any(n > 1 for n in sizes)


def test_missing_required_input_flag():
    with pytest.raises(SystemExit) as exc:
        main(["solve"])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["poss", "-i", "game.json", "--format", "json"],
        ["plot", "-i", "game.json", "--format", "json"],
        ["random", "--format", "json"],
        ["check", "-i", "game.json", "--strategy", "1,0", "--format", "csv"],
        ["plot", "-i", "game.json", "--tol", "1e-7"],
        ["random", "--tol", "1e-7"],
    ],
)
def test_a_flag_the_subcommand_does_not_read_is_rejected(argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


def _record_report(argv: list[str]) -> str:
    """The `equilibria` report of `argv` as written from `classify_pairs`
    records, one `_record_json` or csv or table row per record."""
    args = cli._build_parser().parse_args(argv)
    cli._check_options(args)
    game = cli.load_game(args.input)
    front_row, front_col = cli._fronts(game, args)
    records = classify_pairs(game, front_row, front_col)
    names = _Strategies(args.step_row, args.step_col)
    if args.format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["p", "q", "type"])
        for record in records:
            if record.classification in (
                Classification.SET_SHAPLEY,
                Classification.STRONG_SET_SHAPLEY,
            ):
                writer.writerow([names.text(record.p), names.text(record.q),
                                 "strong" if record.strong else "not strong"])
        return buf.getvalue()
    if args.format == "table":
        lines = [f"{'p':30} {'q':30} classification"]
        for record in records:
            lines.append(
                f"{names.text(record.p):30} {names.text(record.q):30} "
                f"{cli.CLASSIFICATION_PHRASES[record.classification]}"
            )
        return "\n".join(lines) + "\n"
    pairs = "[" + ",".join(cli._record_json(r, names) for r in records) + "]"
    body = {**cli._fronts_body(game, front_row, front_col, names), "pairs": cli._JSONText(pairs)}
    return cli.render_json(cli._report(args, body))


_SMALL_GAMES = st.tuples(st.integers(1, 3), st.integers(1, 3), st.integers(1, 3)).flatmap(
    lambda shape: st.lists(
        st.integers(-3, 3), min_size=int(np.prod(shape)), max_size=int(np.prod(shape))
    ).map(lambda v: np.array(v, dtype=float).reshape(shape))
)


@settings(deadline=None, max_examples=30)
@given(_SMALL_GAMES, st.sampled_from(["1/2", "1/3", "1/4"]), st.sampled_from(["1/2", "1/3"]))
def test_equilibria_reports_equal_the_reports_of_their_pair_records(entries, step_row, step_col):
    with tempfile.TemporaryDirectory() as tmp:
        path, out = Path(tmp) / "game.json", Path(tmp) / "report.out"
        path.write_text(json.dumps(game_dict(VectorPayoffGame(entries))), encoding="utf-8")
        for fmt in ("json", "csv", "table"):
            argv = ["equilibria", "-i", str(path), "--step-row", step_row, "--step-col", step_col,
                    "--workers", "1", "--format", fmt]
            assert main([*argv, "--output", str(out)]) == 0
            assert out.read_bytes() == _record_report(argv).encode(), fmt


@pytest.mark.parametrize("fmt", ["json", "csv", "table"])
def test_the_equilibria_command_builds_no_pair_record(game_files, reports_dir, monkeypatch, fmt):
    def no_record(**fields):
        raise AssertionError("a pair record was built")

    monkeypatch.setattr(equilibria, "EquilibriumRecord", no_record)
    out = reports_dir / f"no_records.{fmt}"
    assert main(["equilibria", "-i", game_files["corley"], "--step-row", "1/10", "--workers", "1",
                 "--format", fmt, "--output", str(out)]) == 0
    # the record API itself still builds them
    with pytest.raises(AssertionError, match="a pair record was built"):
        equilibria.classify_pair(cli.load_game(game_files["corley"]),
                                 row_strategy(1, 0), col_strategy(1, 0))
