"""Command line front end.

Commands operate on a game stored as JSON and write deterministic
reports: identical configuration and input produce byte-identical
output.  All reals are printed with 17 significant digits, every grid
or vertex list keeps a fixed order, and each report embeds the version
and the semantic part of its configuration (worker count and output
destination never change results, so they are not embedded).
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import os
import random
import sys
from dataclasses import dataclass
from fractions import Fraction

from .equilibria import (
    Classification,
    classify_pair,
    classify_pairs,
)
from .errors import InputError, NumericalError
from .game import (
    MixedStrategy,
    Player,
    VectorPayoffGame,
    _as_unit_fraction,
    col_generator_matrix,
    row_generator_matrix,
)
from .polyhedra import build_lower_set, build_upper_set
from .poss import compute_security_image, poss_strategies, verify_gap
from .solver import StrategyFront, _certificate, check_workers, classify_grid, pool_map

from . import __version__ as VERSION

CLASSIFICATION_PHRASES = {
    Classification.STRONG_SET_SHAPLEY: "strong set Shapley equilibrium",
    Classification.SET_SHAPLEY: "set Shapley equilibrium",
    Classification.STRONG_SHAPLEY: "strong Shapley equilibrium",
    Classification.SHAPLEY: "Shapley equilibrium",
    Classification.SET_RELATION: "set relation equilibrium",
    Classification.NONE: "no equilibrium property",
}


@dataclass
class RunConfig:
    command: str
    input: str | None = None
    step_row: Fraction | None = None
    step_col: Fraction | None = None
    tol: float = 1e-7
    fmt: str = "json"
    workers: int | None = None
    output: str | None = None
    player: str | None = None
    strategy: str | None = None
    pair: str | None = None
    rows: int = 3
    cols: int = 3
    dim: int = 2
    seed: int = 0

    def __post_init__(self) -> None:
        if not math.isfinite(self.tol) or self.tol <= 0:
            raise InputError("tol must be positive and finite")

    def embedded(self) -> dict:
        out = {"command": self.command}
        if self.input is not None:
            out["input"] = self.input
        if self.step_row is not None:
            out["step_row"] = str(self.step_row)
        if self.step_col is not None:
            out["step_col"] = str(self.step_col)
        out["tol"] = self.tol
        out["format"] = self.fmt
        if self.player is not None:
            out["player"] = self.player
        if self.strategy is not None:
            out["strategy"] = self.strategy
        if self.pair is not None:
            out["pair"] = self.pair
        return out


@functools.lru_cache(maxsize=4096)
def _json_string(text: str) -> str:
    """A JSON string literal; report keys and labels repeat on every record."""
    return json.dumps(text)


class _JSONText(str):
    """Text that `_emit` has already written; it is copied as it stands."""


def _emit(value, pieces: list[str]) -> None:
    """Minimal JSON writer with a fixed float format (17 significant digits)."""
    if value is None or (isinstance(value, float) and value != value):
        pieces.append("null")
    elif isinstance(value, bool):
        pieces.append("true" if value else "false")
    elif isinstance(value, float):
        if value in (float("inf"), float("-inf")):
            pieces.append("null")
        else:
            pieces.append(format(value, ".17g"))
    elif isinstance(value, int):
        pieces.append(str(value))
    elif isinstance(value, _JSONText):
        pieces.append(value)
    elif isinstance(value, str):
        pieces.append(_json_string(value))
    elif isinstance(value, dict):
        pieces.append("{")
        for idx, (key, item) in enumerate(value.items()):
            if idx:
                pieces.append(",")
            pieces.append(_json_string(str(key)))
            pieces.append(":")
            _emit(item, pieces)
        pieces.append("}")
    elif isinstance(value, (list, tuple)):
        pieces.append("[")
        for idx, item in enumerate(value):
            if idx:
                pieces.append(",")
            _emit(item, pieces)
        pieces.append("]")
    else:
        raise InputError(f"cannot serialize {type(value).__name__}")


def render_json(value) -> str:
    pieces: list[str] = []
    _emit(value, pieces)
    return "".join(pieces) + "\n"


def _rational(x: float, max_den: int = 1000) -> str:
    f = Fraction(x).limit_denominator(max_den)
    return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


class _Strategies:
    """The text of one report's strategies; each distinct strategy is rendered once.

    A weight prints as the nearest fraction whose denominator is at most
    the largest denominator among `fractions` (the run's grid steps, or
    the weights typed for `check`), and never less than 1000, so every
    grid or typed weight prints exactly.
    """

    def __init__(self, *fractions: Fraction | None) -> None:
        self.max_den = max([1000] + [f.denominator for f in fractions if f is not None])
        self._rational: dict[MixedStrategy, list[str]] = {}
        self._text: dict[MixedStrategy, str] = {}
        self._json: dict[MixedStrategy, _JSONText] = {}

    def rational(self, s: MixedStrategy) -> list[str]:
        """Each weight as the text of a fraction."""
        out = self._rational.get(s)
        if out is None:
            out = self._rational[s] = [_rational(w, self.max_den) for w in s.weights]
        return out

    def text(self, s: MixedStrategy) -> str:
        """The weights as "(a, b, ...)"."""
        out = self._text.get(s)
        if out is None:
            out = self._text[s] = "(" + ", ".join(self.rational(s)) + ")"
        return out

    def json_obj(self, s: MixedStrategy) -> _JSONText:
        """The strategy's JSON object: owner, weights and rational weights."""
        out = self._json.get(s)
        if out is None:
            pieces: list[str] = []
            _emit(
                {"player": s.owner.value, "weights": list(s.weights), "rational": self.rational(s)},
                pieces,
            )
            out = self._json[s] = _JSONText("".join(pieces))
        return out


def _parse_weights(text: str, owner: Player) -> MixedStrategy:
    try:
        weights = [float(Fraction(part.strip())) for part in text.split(",")]
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(f"cannot parse strategy {text!r}: {exc}") from exc
    return MixedStrategy(tuple(weights), owner=owner)


def _typed_names(text: str) -> _Strategies:
    """Strategy text for `check` that prints each fraction of `text` (parsed already) exactly."""
    return _Strategies(*(Fraction(part.strip()) for part in text.replace(";", ",").split(",")))


def _parse_pair(text: str) -> tuple[MixedStrategy, MixedStrategy]:
    halves = text.split(";")
    if len(halves) != 2:
        raise InputError("--pair expects 'p1,p2,...;q1,q2,...'")
    return _parse_weights(halves[0], Player.ROW), _parse_weights(halves[1], Player.COL)


def _owner(config: RunConfig) -> Player:
    return Player.ROW if (config.player or "row") == "row" else Player.COL


def load_game(path: str) -> VectorPayoffGame:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"malformed JSON in {path}: {exc}") from exc
    try:
        payoffs = data["payoffs"]
        rows, cols, dim = int(data["rows"]), int(data["cols"]), int(data["dim"])
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"game file {path} needs rows, cols, dim, payoffs: {exc}") from exc
    game = VectorPayoffGame.from_rows(payoffs)
    if (game.rows, game.cols, game.dim) != (rows, cols, dim):
        raise InputError(
            f"payoff array is {game.rows}x{game.cols}x{game.dim}, "
            f"header says {rows}x{cols}x{dim}"
        )
    return game


def game_dict(game: VectorPayoffGame) -> dict:
    return {
        "rows": game.rows,
        "cols": game.cols,
        "dim": game.dim,
        "payoffs": game.entries.tolist(),
    }


def _front_dict(front: StrategyFront, names: _Strategies) -> dict:
    certificates = []
    for cert in front.certificates:
        improving = cert.improving_strategy
        certificates.append(
            {
                "weights": list(cert.tested_strategy.weights),
                "rational": names.rational(cert.tested_strategy),
                "lp_value": cert.lp_value,
                "minimal": cert.is_minimal,
                "improving": list(improving.weights) if improving is not None else None,
            }
        )
    return {
        "player": front.player.value,
        "step": str(front.grid.step),
        "certificates": certificates,
        "optimal": [names.json_obj(s) for s in front.minimal_or_maximal],
        "equivalence_classes": [list(c) for c in front.equivalence_classes],
    }


def _record_dict(record, names: _Strategies) -> dict:
    return {
        "p": names.json_obj(record.p),
        "q": names.json_obj(record.q),
        "payoff": list(record.payoff.value),
        "p_minimal": record.p_minimal,
        "q_maximal": record.q_maximal,
        "shapley": record.shapley,
        "strong": record.strong,
        "classification": record.classification.value,
    }


def _report(config: RunConfig, body: dict) -> dict:
    return {"version": VERSION, "config": config.embedded(), **body}


def _step(config: RunConfig, player: Player) -> Fraction:
    """The player's grid step: 1/10 unless given; the column step defaults to the row step."""
    if player is Player.COL and config.step_col is not None:
        return config.step_col
    return config.step_row if config.step_row is not None else Fraction(1, 10)


def _fronts(game: VectorPayoffGame, config: RunConfig):
    return tuple(
        classify_grid(game, player, _step(config, player), tol=config.tol, workers=config.workers)
        for player in (Player.ROW, Player.COL)
    )


def _cmd_solve(config: RunConfig) -> str:
    game = load_game(config.input)
    front_row, front_col = _fronts(game, config)
    names = _Strategies(config.step_row, config.step_col)
    if config.fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["player", "strategy", "rational", "optimal", "lp_value"])
        for front in (front_row, front_col):
            for cert in front.certificates:
                writer.writerow(
                    [
                        front.player.value,
                        " ".join(format(w, ".17g") for w in cert.tested_strategy.weights),
                        " ".join(names.rational(cert.tested_strategy)),
                        str(cert.is_minimal).lower(),
                        format(cert.lp_value, ".17g"),
                    ]
                )
        return buf.getvalue()
    if config.fmt == "table":
        lines = []
        for front in (front_row, front_col):
            kind = "minimal" if front.player is Player.ROW else "maximal"
            lines.append(f"player {front.player.value}: {kind} strategies (step {front.grid.step})")
            for s in front.minimal_or_maximal:
                lines.append("  " + names.text(s))
        return "\n".join(lines) + "\n"
    report = _report(
        config,
        {
            "game": game_dict(game),
            "fronts": {
                "row": _front_dict(front_row, names),
                "col": _front_dict(front_col, names),
            },
        },
    )
    return render_json(report)


def _cmd_equilibria(config: RunConfig) -> str:
    game = load_game(config.input)
    front_row, front_col = _fronts(game, config)
    records = classify_pairs(game, front_row, front_col, workers=config.workers)
    names = _Strategies(config.step_row, config.step_col)
    if config.fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["p", "q", "type"])
        for record in records:
            if record.classification in (
                Classification.SET_SHAPLEY,
                Classification.STRONG_SET_SHAPLEY,
            ):
                writer.writerow(
                    [
                        names.text(record.p),
                        names.text(record.q),
                        "strong" if record.strong else "not strong",
                    ]
                )
        return buf.getvalue()
    if config.fmt == "table":
        lines = [f"{'p':30} {'q':30} classification"]
        for record in records:
            lines.append(
                f"{names.text(record.p):30} {names.text(record.q):30} "
                f"{CLASSIFICATION_PHRASES[record.classification]}"
            )
        return "\n".join(lines) + "\n"
    report = _report(
        config,
        {
            "game": game_dict(game),
            "fronts": {
                "row": _front_dict(front_row, names),
                "col": _front_dict(front_col, names),
            },
            "pairs": [_record_dict(r, names) for r in records],
        },
    )
    return render_json(report)


def _gap_dict(report, names: _Strategies) -> dict:
    return {
        "player": report.player.value,
        "eps": report.eps,
        "checked": len(report.checked),
        "violations": [
            {"strategy": names.json_obj(s), "component": k} for s, k in report.violations
        ],
        "ok": report.ok,
    }


def _poss_player(game: VectorPayoffGame, config: RunConfig, player: Player):
    """One player's image, POSS and gap check, serially: one pool task of `poss`.

    The player's front stays here, so its certificates are never sent
    back from a worker; only the image, the POSS list and the gap report are.
    """
    image = compute_security_image(game, player)
    front = classify_grid(game, player, _step(config, player), tol=config.tol)
    strategies = poss_strategies(game, player, front.grid.step, image=image)
    return image, strategies, verify_gap(game, front, image)


def _cmd_poss(config: RunConfig) -> str:
    game = load_game(config.input)
    # the players never read each other's image, so each is one task
    (image_row, poss_row, gap_row), (image_col, poss_col, gap_col) = pool_map(
        functools.partial(_poss_player, game, config), (Player.ROW, Player.COL), config.workers
    )
    names = _Strategies(config.step_row, config.step_col)
    report = _report(
        config,
        {
            "game": game_dict(game),
            "images": {"row": image_row.to_dict(), "col": image_col.to_dict()},
            "poss_strategies": {
                "row": [names.json_obj(s) for s in poss_row],
                "col": [names.json_obj(s) for s in poss_col],
            },
            "gap": {"row": _gap_dict(gap_row, names), "col": _gap_dict(gap_col, names)},
        },
    )
    return render_json(report)


def _cmd_check(config: RunConfig) -> str:
    game = load_game(config.input)
    if config.pair is not None:
        p, q = _parse_pair(config.pair)
        names = _typed_names(config.pair)
        record = classify_pair(game, p, q, tol=config.tol)
        phrase = CLASSIFICATION_PHRASES[record.classification]
        if config.fmt == "table":
            return (
                f"pair p={names.text(p)} q={names.text(q)}: {phrase}\n"
                f"  payoff: ({', '.join(format(v, '.17g') for v in record.payoff.value)})\n"
                f"  p minimal: {record.p_minimal}  q maximal: {record.q_maximal}\n"
                f"  Shapley: {record.shapley}  strong: {record.strong}\n"
            )
        return render_json(
            _report(config, {"pair": _record_dict(record, names), "phrase": phrase})
        )
    if config.strategy is None:
        raise InputError("check needs --strategy or --pair")
    owner = _owner(config)
    strategy = _parse_weights(config.strategy, owner)
    names = _typed_names(config.strategy)
    cert = _certificate(game, strategy, config.tol)
    kind = "minimal" if owner is Player.ROW else "maximal"
    if config.fmt == "table":
        verdict = kind if cert.is_minimal else f"not {kind}"
        lines = [
            f"strategy {names.text(strategy)} "
            f"for player {owner.value}: {verdict} (lp value {format(cert.lp_value, '.17g')})"
        ]
        if cert.improving_strategy is not None:
            lines.append("  improving strategy: " + names.text(cert.improving_strategy))
        return "\n".join(lines) + "\n"
    return render_json(
        _report(
            config,
            {
                "certificate": {
                    "strategy": names.json_obj(strategy),
                    "kind": kind,
                    "optimal": cert.is_minimal,
                    "lp_value": cert.lp_value,
                    "improving": None
                    if cert.improving_strategy is None
                    else names.json_obj(cert.improving_strategy),
                }
            },
        )
    )


def _cmd_plot(config: RunConfig) -> str:
    game = load_game(config.input)
    if game.dim != 2:
        raise InputError("plot geometry is only available for two payoff components")
    # as in `check`: --pair if given, otherwise --strategy for --player
    p = q = None
    if config.pair is not None:
        p, q = _parse_pair(config.pair)
    elif config.strategy is not None:
        strategy = _parse_weights(config.strategy, _owner(config))
        p, q = (strategy, None) if strategy.owner is Player.ROW else (None, strategy)
    shapes = []
    if p is not None:
        shapes.append(("V_I(p)", build_lower_set(row_generator_matrix(game, p))))
    if q is not None:
        shapes.append(("V_II(q)", build_upper_set(col_generator_matrix(game, q))))
    shapes.append(("W_I", compute_security_image(game, Player.ROW).polyhedron))
    shapes.append(("W_II", compute_security_image(game, Player.COL).polyhedron))
    return render_json(
        [
            {"label": label, "orientation": poly.orientation, "vertices": poly.vertices.tolist()}
            for label, poly in shapes
        ]
    )


def _cmd_random(config: RunConfig) -> str:
    if min(config.rows, config.cols, config.dim) < 1:
        raise InputError("rows, cols and dim must be at least 1")
    rng = random.Random(config.seed)
    payoffs = [
        [[rng.randint(-10, 10) for _ in range(config.dim)] for _ in range(config.cols)]
        for _ in range(config.rows)
    ]
    return render_json(
        {
            "rows": config.rows,
            "cols": config.cols,
            "dim": config.dim,
            "seed": config.seed,
            "payoffs": payoffs,
        }
    )


COMMANDS = {
    "solve": _cmd_solve,
    "equilibria": _cmd_equilibria,
    "poss": _cmd_poss,
    "check": _cmd_check,
    "plot": _cmd_plot,
    "random": _cmd_random,
}


def run(config: RunConfig) -> int:
    """Execute one command; returns the process exit status."""
    try:
        text = COMMANDS[config.command](config)
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    if config.output:
        with open(config.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vecgame",
        description="Vector-payoff matrix game solver",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {VERSION}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, formats=(), tol=True, game_input=True):
        if game_input:
            p.add_argument("--input", "-i", required=True, help="game JSON file")
        if formats:
            p.add_argument("--format", dest="fmt", choices=formats, default="json")
        p.add_argument("--output", "-o", default=None, help="write report here instead of stdout")
        if tol:
            p.add_argument("--tol", type=float, default=1e-7)

    for name in ("solve", "equilibria", "poss"):
        p = sub.add_parser(name)
        common(p, formats=("json", "csv", "table") if name != "poss" else ())
        p.add_argument("--step-row", default="1/10", help="grid step for player I, a fraction 1/N")
        p.add_argument("--step-col", default=None, help="grid step for player II (default: step-row)")
        p.add_argument("--workers", type=int, default=os.cpu_count(), help="parallel processes")

    p = sub.add_parser("check")
    common(p, formats=("json", "table"))
    p.add_argument("--player", choices=("row", "col"), default="row")
    p.add_argument("--strategy", default=None, help="comma-separated weights, fractions allowed")
    p.add_argument("--pair", default=None, help="'p1,p2,...;q1,q2,...'")

    p = sub.add_parser("plot")
    common(p, tol=False)
    p.add_argument("--player", choices=("row", "col"), default="row")
    p.add_argument("--strategy", default=None)
    p.add_argument("--pair", default=None)

    p = sub.add_parser("random")
    common(p, tol=False, game_input=False)
    p.add_argument("--rows", type=int, default=3)
    p.add_argument("--cols", type=int, default=3)
    p.add_argument("--dim", type=int, default=2)
    p.add_argument("--seed", type=int, default=0)
    return parser


def config_from_args(args: argparse.Namespace) -> RunConfig:
    # a subcommand without --format or --tol keeps RunConfig's default
    offered = {name: getattr(args, name) for name in ("fmt", "tol") if hasattr(args, name)}
    config = RunConfig(command=args.command, output=args.output, **offered)
    config.input = getattr(args, "input", None)
    if hasattr(args, "step_row"):
        config.step_row = _as_unit_fraction(args.step_row)
        config.step_col = (
            _as_unit_fraction(args.step_col) if args.step_col is not None else config.step_row
        )
        check_workers(args.workers)
        config.workers = args.workers
    for name in ("player", "strategy", "pair", "rows", "cols", "dim", "seed"):
        if hasattr(args, name):
            setattr(config, name, getattr(args, name))
    return config


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        config = config_from_args(args)
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    return run(config)


if __name__ == "__main__":
    sys.exit(main())
