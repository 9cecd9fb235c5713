"""Workload inputs: the games, how a seed relabels them, and the CLI lines.

Every workload runs on base games drawn once by this module's own RNG
(integer entries in [-10, 10]).  A run's seed picks one of `VARIANTS`
relabelings -- a permutation of rows, of columns and of payoff
components -- and applies it to each base game before the program sees
it.  Relabeling keeps the verdicts (the oracle maps them back to the
base game) and roughly keeps the cost, so runs on different seeds feed
the program different files while measuring comparable work.  A seed
only selects variants that `record_references.py` found to reproduce
the recorded verdicts.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction

VARIANTS = 24
ENTRY_RANGE = (-10, 10)

# Corley's 2x2 game (the `corley` test fixture); `pairs` never relabels it.
CORLEY = [[[1, 0], [0, 0]], [[0, 1], [1, 0]]]


@dataclass(frozen=True)
class BaseGame:
    name: str
    payoffs: list
    relabel: bool = True


@dataclass(frozen=True)
class Spec:
    """One workload at one scale: the CLI subcommand, its grid step and games."""

    command: str
    step: Fraction
    games: tuple[BaseGame, ...]


def random_payoffs(seed: int, rows: int, cols: int, dim: int) -> list:
    rng = random.Random(seed)
    lo, hi = ENTRY_RANGE
    return [
        [[rng.randint(lo, hi) for _ in range(dim)] for _ in range(cols)] for _ in range(rows)
    ]


def _random_game(seed: int, rows: int, cols: int, dim: int) -> BaseGame:
    return BaseGame(f"r{seed}-{rows}x{cols}x{dim}", random_payoffs(seed, rows, cols, dim))


WORKLOADS = ("fronts", "pairs", "image")

SPECS = {
    "full": {
        "fronts": Spec("solve", Fraction(1, 16), (_random_game(1000, 4, 4, 3),)),
        "pairs": Spec("equilibria", Fraction(1, 150), (BaseGame("corley", CORLEY, False),)),
        "image": Spec(
            "poss",
            Fraction(1, 4),
            tuple(_random_game(s, 4, 4, 4) for s in (2000, 2001, 2002)),
        ),
    },
    # Seconds-long inputs for the smoke test.
    "tiny": {
        "fronts": Spec("solve", Fraction(1, 4), (_random_game(3002, 3, 3, 2),)),
        "pairs": Spec("equilibria", Fraction(1, 10), (BaseGame("corley", CORLEY, False),)),
        "image": Spec("poss", Fraction(1, 2), (_random_game(3100, 3, 3, 2),)),
    },
}


@dataclass(frozen=True)
class Relabel:
    """New game entry [i][j][x] is base entry [rows[i]][cols[j]][comps[x]]."""

    rows: tuple[int, ...]
    cols: tuple[int, ...]
    comps: tuple[int, ...]

    @staticmethod
    def identity(m: int, n: int, k: int) -> "Relabel":
        return Relabel(tuple(range(m)), tuple(range(n)), tuple(range(k)))

    def apply(self, payoffs: list) -> list:
        return [
            [[payoffs[r][c][x] for x in self.comps] for c in self.cols] for r in self.rows
        ]

    def base_counts(self, counts: tuple[int, ...], player: str) -> tuple[int, ...]:
        """Grid strategy of the relabeled game -> the same strategy of the base game."""
        perm = self.rows if player == "row" else self.cols
        base = [0] * len(perm)
        for i, c in enumerate(counts):
            base[perm[i]] = c
        return tuple(base)

    def base_vertex(self, vertex) -> tuple[float, ...]:
        base = [0.0] * len(self.comps)
        for x, v in enumerate(vertex):
            base[self.comps[x]] = v
        return tuple(base)


def relabel_for(seed: int, game_index: int, game: BaseGame, variants: list[int]) -> Relabel:
    """The relabeling a seed gives one game, among the variants recorded as correct."""
    return variant_relabel(variants[(seed + game_index) % len(variants)], game)


def variant_relabel(variant: int, game: BaseGame) -> Relabel:
    """Variant 0 is the identity; the others are fixed pseudo-random relabelings."""
    m, n, k = len(game.payoffs), len(game.payoffs[0]), len(game.payoffs[0][0])
    if variant == 0 or not game.relabel:
        return Relabel.identity(m, n, k)
    rng = random.Random(f"relabel-{variant}")
    rows, cols, comps = list(range(m)), list(range(n)), list(range(k))
    rng.shuffle(rows)
    rng.shuffle(cols)
    rng.shuffle(comps)
    return Relabel(tuple(rows), tuple(cols), tuple(comps))


def grid_size(players: int, step: Fraction) -> int:
    return math.comb(step.denominator + players - 1, players - 1)


def write_game(path, payoffs: list) -> None:
    m, n, k = len(payoffs), len(payoffs[0]), len(payoffs[0][0])
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"rows": m, "cols": n, "dim": k, "payoffs": payoffs}, fh)


def cli_args(spec: Spec, game_path: str, report_path: str, workers: int) -> list[str]:
    return [
        spec.command,
        "-i",
        game_path,
        "--step-row",
        str(spec.step),
        "--workers",
        str(workers),
        "-o",
        report_path,
    ]
