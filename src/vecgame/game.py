"""Zero-sum matrix games with vector payoffs and mixed strategies.

Entries are K-vectors read as losses of the row player (player I), so the
same numbers are gains of the column player (player II).  All operations are
pure; every type is immutable after construction.
"""

from __future__ import annotations

import enum
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from .errors import InputError

# `MixedStrategy.cleaned` sets weights down to -CLIP_TOL to zero; lower ones are an error.
CLIP_TOL = 1e-9


class Player(enum.Enum):
    ROW = "I"
    COL = "II"

    @property
    def opponent(self) -> "Player":
        return Player.COL if self is Player.ROW else Player.ROW


@dataclass(frozen=True)
class MixedStrategy:
    """Probability weights over one player's pure strategies.

    The constructor is strict: weights must be nonnegative and sum to one
    within 1e-12.  Use `cleaned` for numerically noisy vectors (LP output).
    """

    weights: tuple[float, ...]
    owner: Player = Player.ROW

    def __post_init__(self) -> None:
        w = tuple(float(v) for v in self.weights)
        if not w:
            raise InputError("strategy needs at least one weight")
        if not all(math.isfinite(v) and v >= 0.0 for v in w):
            raise InputError("strategy weights must be finite and nonnegative")
        if abs(sum(w) - 1.0) > 1e-12:
            raise InputError(f"strategy weights sum to {sum(w)!r}, not 1")
        if not isinstance(self.owner, Player):
            raise InputError("owner must be a Player")
        object.__setattr__(self, "weights", w)

    @classmethod
    def cleaned(cls, weights: Iterable[float], owner: Player = Player.ROW) -> "MixedStrategy":
        """Clip tiny negatives and renormalize, then construct strictly."""
        w = np.array(list(weights), dtype=float)
        if w.size == 0 or not np.isfinite(w).all():
            raise InputError("weights must be a nonempty finite vector")
        if w.min() < -CLIP_TOL:
            raise InputError(f"weight {w.min()} is negative beyond tolerance")
        w = np.clip(w, 0.0, None)
        total = w.sum()
        if total <= 0.0:
            raise InputError("weights sum to zero")
        return cls(tuple(w / total), owner)

    def as_array(self) -> np.ndarray:
        return np.array(self.weights)

    def support(self, tol: float = 1e-12) -> tuple[int, ...]:
        return tuple(i for i, v in enumerate(self.weights) if v > tol)

    def __len__(self) -> int:
        return len(self.weights)


def row_strategy(*weights: float) -> MixedStrategy:
    return MixedStrategy(tuple(weights), Player.ROW)


def col_strategy(*weights: float) -> MixedStrategy:
    return MixedStrategy(tuple(weights), Player.COL)


@dataclass(frozen=True, eq=False)
class VectorPayoffGame:
    """An m x n matrix of K-dimensional payoff vectors (losses of player I)."""

    entries: np.ndarray

    def __post_init__(self) -> None:
        try:
            arr = np.array(self.entries, dtype=float)
        except (TypeError, ValueError, OverflowError) as exc:
            raise InputError(f"payoff entries must be an array of numbers: {exc}") from exc
        if arr.ndim != 3:
            raise InputError("entries must be an m x n x K array")
        if min(arr.shape) < 1:
            raise InputError("m, n and K must all be at least 1")
        if not np.isfinite(arr).all():
            raise InputError("payoff entries must be finite")
        arr.setflags(write=False)
        object.__setattr__(self, "entries", arr)

    @property
    def rows(self) -> int:
        return self.entries.shape[0]

    @property
    def cols(self) -> int:
        return self.entries.shape[1]

    @property
    def dim(self) -> int:
        return self.entries.shape[2]

    def mirror(self) -> "VectorPayoffGame":
        """Swap roles: the column player of `self` is the row player here.

        Entries negate and transpose, so every upper-set question about
        player II becomes a lower-set question about player I.
        """
        return VectorPayoffGame(-np.transpose(self.entries, (1, 0, 2)))

    def for_player(self, player: Player) -> "VectorPayoffGame":
        """The game in which `player` is the row player: `self` or its mirror.

        A strategy of `player` keeps its weights and owner there; only
        payoff-valued results (payoffs, vertices, offsets) change sign.
        """
        if player is Player.ROW:
            return self
        if player is Player.COL:
            return self.mirror()
        raise InputError(f"unknown player {player!r}")

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[Sequence[float]]]) -> "VectorPayoffGame":
        return cls(rows)


def _require_count(strategy: MixedStrategy, count: int) -> np.ndarray:
    """The weights of a strategy whose owner has `count` pure strategies here."""
    if len(strategy.weights) != count:
        raise InputError(
            f"strategy has {len(strategy.weights)} weights, "
            f"player {strategy.owner.value} has {count} pure strategies"
        )
    return strategy.as_array()


def row_generator_matrix(game: VectorPayoffGame, p: MixedStrategy) -> np.ndarray:
    """The n points y_j(p) = sum_i p_i g_ij as an (n, K) array."""
    w = _require_count(p, game.rows)
    return np.einsum("i,ijk->jk", w, game.entries)


def col_generator_matrix(game: VectorPayoffGame, q: MixedStrategy) -> np.ndarray:
    """The m points r_i(q) = sum_j q_j g_ij as an (m, K) array."""
    w = _require_count(q, game.cols)
    return np.einsum("ijk,j->ik", game.entries, w)


def expected_payoffs(
    game: VectorPayoffGame, ps: Sequence[MixedStrategy], qs: Sequence[MixedStrategy]
) -> np.ndarray:
    """v(p, q) for every p in `ps` and q in `qs`, as a (len(ps), len(qs), K) array.

    The pairs are summed one at a time, so an entry does not depend on
    the rest of the batch: einsum's summation order depends on the
    operand shapes, and a fused batch differs in the last bit for K = 1.
    """
    wps = [_require_count(p, game.rows) for p in ps]
    wqs = [_require_count(q, game.cols) for q in qs]
    out = np.empty((len(wps), len(wqs), game.dim))
    for a, wp in enumerate(wps):
        for b, wq in enumerate(wqs):
            out[a, b] = np.einsum("i,ijk,j->k", wp, game.entries, wq)
    return out


def _as_unit_fraction(step) -> Fraction:
    """The grid step 1/N that `step` names: a Fraction, a string such as "1/10"
    or "0.25", or a number other than an int, read to a denominator of at
    most 10**6.  Anything else is an input error."""
    if isinstance(step, int):
        raise InputError("step must be a fraction 1/N, not an integer")
    try:
        t = Fraction(step)
    except (ValueError, ZeroDivisionError, OverflowError, TypeError) as exc:
        raise InputError(f"cannot parse step {step!r}: {exc}") from exc
    if not isinstance(step, (str, Fraction)):
        t = t.limit_denominator(10**6)
    if t.numerator != 1 or t.denominator < 1:
        raise InputError(f"step must be of the form 1/N, got {step!r}")
    return t


@dataclass(frozen=True)
class SimplexGrid:
    """All grid points with weights in (1/N)·Z on the probability simplex."""

    dim: int
    step: Fraction
    points: tuple[MixedStrategy, ...]

    def __len__(self) -> int:
        return len(self.points)

    def __iter__(self):
        return iter(self.points)


def enumerate_simplex_grid(dim: int, step, owner: Player = Player.ROW) -> SimplexGrid:
    """Compositions of N = 1/step into `dim` parts, lexicographically ascending."""
    if dim < 1:
        raise InputError("dim must be at least 1")
    t = _as_unit_fraction(step)
    n = t.denominator
    points = []
    for cuts in itertools.combinations(range(n + dim - 1), dim - 1):
        counts = []
        prev = -1
        for c in cuts:
            counts.append(c - prev - 1)
            prev = c
        counts.append(n + dim - 2 - prev)
        points.append(MixedStrategy(tuple(c / n for c in counts), owner))
    return SimplexGrid(dim, t, tuple(points))
