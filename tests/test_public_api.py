"""The names `vecgame` exports."""

from __future__ import annotations

import vecgame


def test_every_exported_name_resolves_on_the_package():
    assert vecgame.__all__
    assert len(set(vecgame.__all__)) == len(vecgame.__all__)
    missing = [name for name in vecgame.__all__ if not hasattr(vecgame, name)]
    assert not missing


def test_star_import_succeeds():
    namespace: dict = {}
    exec("from vecgame import *", namespace)
    assert set(vecgame.__all__) <= set(namespace)
