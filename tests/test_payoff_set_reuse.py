"""Each payoff set is built once per run.

An optimal certificate carries the lower set it tested; the equivalence
pass of `classify_grid`, `classify_pairs`, `classify_pair` and
`verify_gap` read it from there instead of running the double
description again.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from vecgame import equilibria, poss, solver
from vecgame.game import (
    MixedStrategy,
    Player,
    col_generator_matrix,
    col_strategy,
    componentwise_security_point,
    row_strategy,
)
from vecgame.polyhedra import build_upper_set, negated_set

from properties import random_game, same_polyhedron


def _count_builds(monkeypatch) -> list[str]:
    """Record every set that build_lower_set/build_upper_set builds for the three
    modules: one entry for a set, B for a stack of B."""
    calls: list[str] = []
    for module in (solver, equilibria, poss):
        for name in ("build_lower_set", "build_upper_set"):
            original = getattr(module, name, None)
            if original is None:
                continue

            def counted(points, _original=original, _name=name):
                built = _original(points)
                calls.extend([_name] * (len(built) if isinstance(built, tuple) else 1))
                return built

            monkeypatch.setattr(module, name, counted)
    return calls


def test_fronts_pairs_and_gap_build_each_set_once(three_by_three, monkeypatch):
    calls = _count_builds(monkeypatch)
    row = solver.classify_grid(three_by_three, Player.ROW, Fraction(1, 10), workers=1)
    col = solver.classify_grid(three_by_three, Player.COL, Fraction(1, 5), workers=1)
    assert len(calls) == len(row.grid) + len(col.grid)
    image = poss.compute_security_image(three_by_three, Player.ROW)

    del calls[:]
    records = equilibria.classify_pairs(three_by_three, row, col)
    report = poss.verify_gap(three_by_three, row, image)
    assert calls == []
    assert len(records) == len(row.optimal_indices()) * len(col.optimal_indices())
    assert report.ok and len(report.checked) == len(row.optimal_indices())


def test_classify_pair_builds_only_the_sets_no_certificate_carries(two_by_two, monkeypatch):
    calls = _count_builds(monkeypatch)
    optimal = equilibria.classify_pair(two_by_two, row_strategy(0, 1), col_strategy(0, 1))
    assert optimal.p_minimal and optimal.q_maximal
    assert len(calls) == 2  # the two certificates

    del calls[:]
    mixed = equilibria.classify_pair(two_by_two, row_strategy(1, 0), col_strategy(0, 1))
    assert not mixed.p_minimal and mixed.q_maximal
    assert calls == ["build_lower_set", "build_lower_set", "build_lower_set"]


def test_a_column_certificate_set_negates_to_the_upper_set(three_by_three):
    col = solver.classify_grid(three_by_three, Player.COL, Fraction(1, 5), workers=1)
    for cert in col.certificates:
        if cert.is_minimal:
            upper = build_upper_set(col_generator_matrix(three_by_three, cert.tested_strategy))
            assert same_polyhedron(negated_set(cert.payoff_set), upper)
            assert same_polyhedron(negated_set(upper), cert.payoff_set)
        else:
            assert cert.payoff_set is None


def test_column_security_point_is_the_componentwise_min_over_rows():
    rng = np.random.default_rng(7)
    for _ in range(20):
        game = random_game(rng, 3, 4, 3)
        q = MixedStrategy.cleaned(rng.random(4), Player.COL)
        expected = col_generator_matrix(game, q).min(axis=0)
        assert componentwise_security_point(game, q).value == tuple(expected)
