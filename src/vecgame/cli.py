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
from fractions import Fraction

from .equilibria import (
    Classification,
    PairTable,
    _classification,
    _grid_pair_table,
    classify_pair,
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
from .solver import (
    DECISION_TOL,
    StrategyFront,
    _certificate,
    _classify_grids,
    check_workers,
    classify_grid,
    pool_map,
    pool_size,
)

from . import __version__ as VERSION

# The payoff entries (rows x columns x components) a `poss` pool process
# must be given to pay for its start; below two such shares both players
# run serially (README, "When a pool pays").
POSS_BREAK_EVEN = 72

CLASSIFICATION_PHRASES = {
    Classification.STRONG_SET_SHAPLEY: "strong set Shapley equilibrium",
    Classification.SET_SHAPLEY: "set Shapley equilibrium",
    Classification.STRONG_SHAPLEY: "strong Shapley equilibrium",
    Classification.SHAPLEY: "Shapley equilibrium",
    Classification.SET_RELATION: "set relation equilibrium",
    Classification.NONE: "no equilibrium property",
}


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


def _number(x: float) -> str:
    """A float as `_emit` writes it."""
    return format(x, ".17g") if math.isfinite(x) else "null"


def _numbers(values) -> str:
    """A list of floats as `_emit` writes it."""
    return "[" + ",".join(map(_number, values)) + "]"


def _bool(flag: bool) -> str:
    return "true" if flag else "false"


class _Strategies:
    """The text of one report's strategies; each distinct strategy is rendered once.

    A weight prints as the nearest fraction whose denominator is at most
    the largest denominator among `fractions` (the run's grid steps, or
    the weights typed for `check`), and never less than 1000, so every
    grid or typed weight prints exactly.  A weight w with w == c / N for
    one of those denominators N is that fraction, c/N reduced: any other
    fraction within the bound lies at least 1 / (N max_den) from c/N, far
    beyond w's rounding, while the bound stays below 10**7.
    """

    def __init__(self, *fractions: Fraction | None) -> None:
        dens = {f.denominator for f in fractions if f is not None}
        self.max_den = max([1000, *dens])
        self._dens = sorted(dens) if self.max_den <= 10**7 else []
        self._rational: dict[MixedStrategy, list[str]] = {}
        self._fields: dict[MixedStrategy, str] = {}
        self._text: dict[MixedStrategy, str] = {}
        self._json: dict[MixedStrategy, _JSONText] = {}

    def _fraction(self, w: float) -> str:
        for n in self._dens:
            c = round(w * n)
            if c / n == w:
                g = math.gcd(c, n)
                break
        else:
            f = Fraction(w).limit_denominator(self.max_den)
            c, n, g = f.numerator, f.denominator, 1
        return str(c // g) if n == g else f"{c // g}/{n // g}"

    def rational(self, s: MixedStrategy) -> list[str]:
        """Each weight as the text of a fraction."""
        out = self._rational.get(s)
        if out is None:
            out = self._rational[s] = [self._fraction(w) for w in s.weights]
        return out

    def text(self, s: MixedStrategy) -> str:
        """The weights as "(a, b, ...)"."""
        out = self._text.get(s)
        if out is None:
            out = self._text[s] = "(" + ", ".join(self.rational(s)) + ")"
        return out

    def fields(self, s: MixedStrategy) -> str:
        """The JSON members "weights" and "rational" of the strategy."""
        out = self._fields.get(s)
        if out is None:
            rational = ",".join(map(_json_string, self.rational(s)))
            out = self._fields[s] = f'"weights":{_numbers(s.weights)},"rational":[{rational}]'
        return out

    def json_obj(self, s: MixedStrategy) -> _JSONText:
        """The strategy's JSON object: owner, weights and rational weights."""
        out = self._json.get(s)
        if out is None:
            out = self._json[s] = _JSONText(
                f'{{"player":{_json_string(s.owner.value)},{self.fields(s)}}}'
            )
        return out


def _parse_weights(text: str, owner: Player) -> tuple[MixedStrategy, list[Fraction]]:
    """The strategy typed as `text`, and its weights as typed."""
    try:
        typed = [Fraction(part.strip()) for part in text.split(",")]
        weights = tuple(float(w) for w in typed)
    except (ValueError, ZeroDivisionError, OverflowError) as exc:
        raise InputError(f"cannot parse strategy {text!r}: {exc}") from exc
    return MixedStrategy(weights, owner=owner), typed


def _parse_pair(text: str) -> tuple[MixedStrategy, MixedStrategy, _Strategies]:
    """The pair typed as `text`, and strategy text that prints its weights exactly."""
    halves = text.split(";")
    if len(halves) != 2:
        raise InputError("--pair expects 'p1,p2,...;q1,q2,...'")
    p, p_typed = _parse_weights(halves[0], Player.ROW)
    q, q_typed = _parse_weights(halves[1], Player.COL)
    return p, q, _Strategies(*p_typed, *q_typed)


def _owner(args: argparse.Namespace) -> Player:
    return Player.ROW if args.player == "row" else Player.COL


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
        rows, cols, dim = data["rows"], data["cols"], data["dim"]
    except (KeyError, TypeError) as exc:
        raise InputError(f"game file {path} needs rows, cols, dim, payoffs: {exc}") from exc
    # JSON integers only: a bool is an int to Python, and int() takes 2.9 and "2"
    if any(type(n) is not int for n in (rows, cols, dim)):
        raise InputError(f"game file {path}: rows, cols and dim must be integers")
    game = VectorPayoffGame.from_rows(payoffs)
    # the array is m x n x K, so its entries sit three lists deep; numpy
    # read a JSON true as 1.0 and "2" as 2.0
    if any(type(x) not in (int, float) for row in payoffs for g in row for x in g):
        raise InputError(f"game file {path}: every payoff entry must be a number")
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
    # thousands of certificate rows: each is written as JSON text here
    rows = []
    for cert in front.certificates:
        improving = cert.improving_strategy
        rows.append(
            f'{{{names.fields(cert.tested_strategy)},"lp_value":{_number(cert.lp_value)},'
            f'"minimal":{_bool(cert.is_minimal)},"improving":'
            f'{"null" if improving is None else _numbers(improving.weights)}}}'
        )
    return {
        "player": front.player.value,
        "step": str(front.grid.step),
        "certificates": _JSONText("[" + ",".join(rows) + "]"),
        "optimal": [names.json_obj(s) for s in front.minimal_or_maximal],
        "equivalence_classes": [list(c) for c in front.equivalence_classes],
    }


def _record_json(record, names: _Strategies) -> _JSONText:
    """A pair record as JSON text, as `check --pair` writes it."""
    return _JSONText(
        f'{{"p":{names.json_obj(record.p)},"q":{names.json_obj(record.q)},'
        f'"payoff":{_numbers(record.payoff)},"p_minimal":{_bool(record.p_minimal)},'
        f'"q_maximal":{_bool(record.q_maximal)},"shapley":{_bool(record.shapley)},'
        f'"strong":{_bool(record.strong)},'
        f'"classification":{_json_string(record.classification.value)}}}'
    )


# The options a report embeds, in order: those that can change its content.
_EMBEDDED = (
    "command", "input", "step_row", "step_col", "tol", "format", "player", "strategy", "pair"
)


def _report(args: argparse.Namespace, body: dict) -> dict:
    config = {
        name: str(value) if isinstance(value, Fraction) else value
        for name in _EMBEDDED
        if (value := getattr(args, name, None)) is not None
    }
    return {"version": VERSION, "config": config, **body}


def _step(args: argparse.Namespace, player: Player) -> Fraction:
    return args.step_row if player is Player.ROW else args.step_col


def _fronts(game: VectorPayoffGame, args: argparse.Namespace):
    """Both players' fronts, their grid blocks in one pool."""
    steps = [(player, _step(args, player)) for player in (Player.ROW, Player.COL)]
    return tuple(_classify_grids(game, steps, args.tol, args.workers))


def _fronts_body(game: VectorPayoffGame, front_row, front_col, names: _Strategies) -> dict:
    return {
        "game": game_dict(game),
        "fronts": {"row": _front_dict(front_row, names), "col": _front_dict(front_col, names)},
    }


def _cmd_solve(args: argparse.Namespace) -> str:
    game = load_game(args.input)
    front_row, front_col = _fronts(game, args)
    names = _Strategies(args.step_row, args.step_col)
    if args.format == "csv":
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
    if args.format == "table":
        lines = []
        for front in (front_row, front_col):
            kind = "minimal" if front.player is Player.ROW else "maximal"
            lines.append(f"player {front.player.value}: {kind} strategies (step {front.grid.step})")
            for s in front.minimal_or_maximal:
                lines.append("  " + names.text(s))
        return "\n".join(lines) + "\n"
    return render_json(_report(args, _fronts_body(game, front_row, front_col, names)))


# Every grid pair has a minimal p and a maximal q, so its flags and class
# follow from its kind, shapley + strong (a strong pair is Shapley).
_GRID_KINDS = [
    (sh, st, _classification(True, True, sh, st))
    for sh, st in ((False, False), (True, False), (True, True))
]


def _kinds(table: PairTable) -> list[int]:
    """The kind of every pair of `table`, in row-major order."""
    return (table.shapley.astype(int) + table.strong).ravel().tolist()


def _pairs_json(table: PairTable, names: _Strategies) -> _JSONText:
    """The pairs of the table as `_record_json` writes their records: each
    row's head and each column's object are written once, each payoff
    float is formatted once, and a pair's flags come from its kind."""
    tails = [
        f',"p_minimal":true,"q_maximal":true,"shapley":{_bool(sh)},"strong":{_bool(st)},'
        f'"classification":{_json_string(c.value)}}}'
        for sh, st, c in _GRID_KINDS
    ]
    numbers = iter(map(_number, table.payoffs.ravel().tolist()))
    payoffs = map(",".join, zip(*[numbers] * table.payoffs.shape[2]))
    kinds = iter(_kinds(table))
    cols = [names.json_obj(q) for q in table.cols]
    texts: list[str] = []
    for p in table.rows:
        head = f'{{"p":{names.json_obj(p)},"q":'
        texts += [f'{head}{q},"payoff":[{pay}]{tails[k]}'
                  for q, pay, k in zip(cols, payoffs, kinds)]
    return _JSONText("[" + ",".join(texts) + "]")


def _cmd_equilibria(args: argparse.Namespace) -> str:
    game = load_game(args.input)
    front_row, front_col = _fronts(game, args)
    table = _grid_pair_table(game, front_row, front_col)
    names = _Strategies(args.step_row, args.step_col)
    if args.format == "csv":
        rows = [names.text(p) for p in table.rows]
        cols = [names.text(q) for q in table.cols]
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["p", "q", "type"])
        # the set Shapley pairs: every Shapley pair of the grid
        writer.writerows(
            [rows[i // len(cols)], cols[i % len(cols)], "strong" if k == 2 else "not strong"]
            for i, k in enumerate(_kinds(table))
            if k
        )
        return buf.getvalue()
    if args.format == "table":
        phrases = [CLASSIFICATION_PHRASES[c] for _, _, c in _GRID_KINDS]
        cols = [f"{names.text(q):30} " for q in table.cols]
        kinds = iter(_kinds(table))
        lines = [f"{'p':30} {'q':30} classification"]
        for p in table.rows:
            head = f"{names.text(p):30} "
            lines += [head + q + phrases[k] for q, k in zip(cols, kinds)]
        return "\n".join(lines) + "\n"
    report = _report(
        args,
        {**_fronts_body(game, front_row, front_col, names), "pairs": _pairs_json(table, names)},
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


def _poss_player(game: VectorPayoffGame, args: argparse.Namespace, player: Player):
    """One player's image, POSS and gap check, serially: one pool task of `poss`.

    The player's front stays here, so its certificates are never sent
    back from a worker; only the image, the POSS list and the gap report are.
    """
    image = compute_security_image(game, player)
    front = classify_grid(game, player, _step(args, player), tol=args.tol)
    strategies = poss_strategies(game, player, front.grid.step, image=image)
    return image, strategies, verify_gap(game, front, image)


def _cmd_poss(args: argparse.Namespace) -> str:
    game = load_game(args.input)
    # the players never read each other's image, so each is one task
    processes = pool_size(args.workers, game.rows * game.cols * game.dim, POSS_BREAK_EVEN)
    (image_row, poss_row, gap_row), (image_col, poss_col, gap_col) = pool_map(
        functools.partial(_poss_player, game, args), (Player.ROW, Player.COL), processes
    )
    names = _Strategies(args.step_row, args.step_col)
    report = _report(
        args,
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


def _cmd_check(args: argparse.Namespace) -> str:
    game = load_game(args.input)
    if args.pair is not None:
        if args.strategy is not None:
            raise InputError("check takes --strategy or --pair, not both")
        p, q, names = _parse_pair(args.pair)
        args.player = None  # --player does not shape a pair report, so it is not embedded
        record = classify_pair(game, p, q, tol=args.tol)
        phrase = CLASSIFICATION_PHRASES[record.classification]
        if args.format == "table":
            return (
                f"pair p={names.text(p)} q={names.text(q)}: {phrase}\n"
                f"  payoff: ({', '.join(format(v, '.17g') for v in record.payoff)})\n"
                f"  p minimal: {record.p_minimal}  q maximal: {record.q_maximal}\n"
                f"  Shapley: {record.shapley}  strong: {record.strong}\n"
            )
        return render_json(
            _report(args, {"pair": _record_json(record, names), "phrase": phrase})
        )
    if args.strategy is None:
        raise InputError("check needs --strategy or --pair")
    owner = _owner(args)
    strategy, typed = _parse_weights(args.strategy, owner)
    names = _Strategies(*typed)
    cert, _ = _certificate(game, strategy, args.tol)
    kind = "minimal" if owner is Player.ROW else "maximal"
    if args.format == "table":
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
            args,
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


def _cmd_plot(args: argparse.Namespace) -> str:
    game = load_game(args.input)
    if game.dim != 2:
        raise InputError("plot geometry is only available for two payoff components")
    # as in `check`: --pair if given, otherwise --strategy for --player
    p = q = None
    if args.pair is not None:
        p, q, _ = _parse_pair(args.pair)
    elif args.strategy is not None:
        strategy, _ = _parse_weights(args.strategy, _owner(args))
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


def _cmd_random(args: argparse.Namespace) -> str:
    if min(args.rows, args.cols, args.dim) < 1:
        raise InputError("rows, cols and dim must be at least 1")
    rng = random.Random(args.seed)
    payoffs = [
        [[rng.randint(-10, 10) for _ in range(args.dim)] for _ in range(args.cols)]
        for _ in range(args.rows)
    ]
    return render_json(
        {
            "rows": args.rows,
            "cols": args.cols,
            "dim": args.dim,
            "seed": args.seed,
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


def _check_options(args: argparse.Namespace) -> None:
    """Check --output, --tol, the grid steps and --workers, where the command
    has them, and read the grid steps as fractions.  An unwritable --output
    fails here, before the command spends any work on its report."""
    if args.output:
        _check_writable(args.output)
    if hasattr(args, "tol") and not (math.isfinite(args.tol) and args.tol > 0):
        raise InputError("tol must be positive and finite")
    if hasattr(args, "step_row"):
        args.step_row = _as_unit_fraction(args.step_row)
        col = args.step_col
        args.step_col = args.step_row if col is None else _as_unit_fraction(col)
        check_workers(args.workers)


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
            p.add_argument("--format", choices=formats, default="json")
        p.add_argument("--output", "-o", default=None, help="write report here instead of stdout")
        if tol:
            p.add_argument("--tol", type=float, default=DECISION_TOL)

    for name in ("solve", "equilibria", "poss"):
        p = sub.add_parser(name)
        common(p, formats=("json", "csv", "table") if name != "poss" else ())
        if name == "poss":
            p.set_defaults(format="json")  # embedded in its report; there is one format
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


def _check_writable(path: str) -> None:
    """Open `path` for appending, which leaves its content alone, and delete
    it again if this made it."""
    existed = os.path.lexists(path)
    try:
        with open(path, "a", encoding="utf-8"):
            pass
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc}") from exc
    if not existed:
        os.remove(path)


def _write(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc}") from exc


def main(argv: list[str] | None = None) -> int:
    """Run one command; returns the process exit status."""
    args = _build_parser().parse_args(argv)
    try:
        _check_options(args)
        text = COMMANDS[args.command](args)
        if args.output:
            _write(args.output, text)
        else:
            sys.stdout.write(text)
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
