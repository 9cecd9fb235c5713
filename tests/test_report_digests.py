"""Golden SHA-256 digests of the command line reports on the bundled games.

Reports are deterministic, so a change that keeps them byte-identical
keeps these digests.  The digests depend on NumPy's floating point
results, so they are checked only under the NumPy version they were
recorded with.  Reports embed the input path, so every command runs
from the directory holding the game file and names it relatively.

To re-record after a deliberate change of the reports, run
`python tests/test_report_digests.py` and paste its output over DIGESTS.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest

from vecgame.cli import game_dict, main
from vecgame.game import VectorPayoffGame

import conftest

RECORDED_NUMPY = "2.4.6"

GAMES = {
    "two_by_two": conftest.TWO_BY_TWO_ROWS,
    "null_row": conftest.NULL_ROW_ROWS,
    "constant_row": conftest.CONSTANT_ROW_ROWS,
    "corley": conftest.CORLEY_ROWS,
    "zero_row": conftest.ZERO_ROW_ROWS,
    "three_by_three": conftest.THREE_BY_THREE_ROWS,
    "single_column": conftest.SINGLE_COLUMN_ROWS,
    "scalar": conftest.SCALAR_ROWS,
}

RUNS = [("solve", "json"), ("solve", "csv"), ("solve", "table"),
        ("equilibria", "json"), ("equilibria", "csv"), ("equilibria", "table"),
        ("poss", None)]

DIGESTS = {
    "solve/json/two_by_two": "587de78dea3ab5b7c6681339f47733e0edfccd1c01a61c4395ccb38ab0900b56",
    "solve/csv/two_by_two": "5478c9d9c95ebd3254d7e969ca99528367834b201b75fe1b48f339ea73782417",
    "solve/table/two_by_two": "0f468907da662d509efba847255a111279901e3cd3c3ef50220f8136ec900ea9",
    "equilibria/json/two_by_two": "2ebbe6d0b48ec8962a817258f98e03a5dbc38bba322f8c0ba0ad3dc636853eb8",
    "equilibria/csv/two_by_two": "b5fc2e9c9d2d6448288f6e6861d283b38ce5ca077f079ecc58f4e84c39b20525",
    "equilibria/table/two_by_two": "adf30ddb816f91f6c2fcc4d1c61e87e258877cfbec37a36915107d2d08c17cce",
    "poss/json/two_by_two": "271573853a710810270649b101b79fd0d0ada304bc0497bd8a0efa631f572034",
    "solve/json/null_row": "7b7a39130b2ce81895e1928b855760e08a31a42407bc3c41d086fe75bea7d457",
    "solve/csv/null_row": "74065159aa0710ea42b796c373c004b3fbf5fd109cd2faa0ef4473bf268ac1ee",
    "solve/table/null_row": "f3470d685ab3f4faaa4ccb39338752f44afbf27252ed7556de41e8e57da37d66",
    "equilibria/json/null_row": "aa7d926122840ae407814509e8bbf83c54f817af4600d50da665332ca33ec558",
    "equilibria/csv/null_row": "4e57371cfb7c6457c1f3852c3cb42f67767cae50d2def60571d7a77223fce7e0",
    "equilibria/table/null_row": "b9ff509038971322ab96c3e434b724768c228d0a636238f9923d9933bb75709c",
    "poss/json/null_row": "c828b8f86b0b7df44a3b7fdd31c395b74fa121dad639b84663f3aa06698684f3",
    "solve/json/constant_row": "381773b6da20d8ef6381add1ee76c6ea2337736697548b5a3426f44e87e56b92",
    "solve/csv/constant_row": "6c2a8eb22ae441b4b550e40e4bd91f4513b0da0fdcb4a07c729f7b2281252e5c",
    "solve/table/constant_row": "68634346358349685e0de69b5f488d5be5dc7f2777fff7df0ab999f925c33e03",
    "equilibria/json/constant_row": "3ad9a4325c95643b15a76334a4db3ff850e08e99140fa51ffc8dfd181102e87e",
    "equilibria/csv/constant_row": "1bd3f8781667976864269e1a3fb9535252b2880de70c9e5fd5723068c6ea1a5b",
    "equilibria/table/constant_row": "ad1d8f218ed4f2a327b78d15d656963d38e5aab2c887df1e5f1c6f89496fa0cb",
    "poss/json/constant_row": "c593d3370516e89bd3816c65cf5931789141403c946cad8b5f5bfa7c88e057e1",
    "solve/json/corley": "0986314f1c5bc49cc2e6ddff782a8022ee5dccc62a75ce9a23448fd072ed599d",
    "solve/csv/corley": "74cc05d20103af3c9d6193042f9e26a8c8c9656a6cd59a94c6da16ffbb60f643",
    "solve/table/corley": "59c546d2cf8f94a37c65f8b99a00bd26ab546be314617b5b4abfd48e021c4b38",
    "equilibria/json/corley": "04f278bb3e6a99bd3837ecdb44ea797123e995080b625ce8902cc4e5e62d1e6e",
    "equilibria/csv/corley": "da43dbdde486c307c8d64b83d1ba0f9994c6b860e349cf4f9eebfb2df6975de6",
    "equilibria/table/corley": "46977f16c66f0b86ad742dbda27b825915592b2dd1479eacd0c0e812e09a825a",
    "poss/json/corley": "d2bec38ae155def16282c62016816f5c00418d08c58a18a87c1c878dbac22719",
    "solve/json/zero_row": "f38e632eaf8a0652603ddabb7098df00c30a28208978eb31f9997a5b941530dc",
    "solve/csv/zero_row": "df7286962d548469103ca672cf87ce5a5016f88253bc695a585cf7248ca5778c",
    "solve/table/zero_row": "0a785d98b245281f99f10548420e56a7d1f1d1bf10419b78b332531b7c5c1ef9",
    "equilibria/json/zero_row": "513c127f6a54da44693986b64e1efdfa8512b1ebf2cfe63a881dd8167216ac16",
    "equilibria/csv/zero_row": "9add26b42348f3cce2615d36aa257a078fcc5cdcc11901d71f9fa41268ef634f",
    "equilibria/table/zero_row": "58fcc3c70d0cc51220a2b01138368c347fc997f72f595962d7f1edbe08aea0c9",
    "poss/json/zero_row": "05d56ab009f729f758f951a97ac864d09a229dfda218f448b38e54e031624dcd",
    "solve/json/three_by_three": "6fefb94bbc0cacd6b82d8d04fe0cd09fed1537a3475c5b9a649c0a4032e717f7",
    "solve/csv/three_by_three": "38db8c63b68d017cc57a8ee1f4a8878f33719c76d20457dbad0eb18cbaff1646",
    "solve/table/three_by_three": "2b119065b3ff7fc606e9ce84a27c50a7297f6ee6706e95e1f162f901d3b3b1a0",
    "equilibria/json/three_by_three": "691591e91fa558cf42bd1490cf98eec8aaff9e8892cc30d5514abf001588cebc",
    "equilibria/csv/three_by_three": "d0dfb428094857aaadd747eebcdfd44aac3d3f4f2d8ef536ed4bced49ee26405",
    "equilibria/table/three_by_three": "9aed3fde804c8bc594dabd5a004e8faa144196c0e3f7aee386cd87881c69f311",
    "poss/json/three_by_three": "8754a04a4a5b5a25747fd9e0b4088725d8b6b3cdb2d0e354387ae89d1065a6f7",
    "solve/json/single_column": "fd790686c67e99b1ac729b69c8331f8c5416ba6a481a0ef535c9896e677da59e",
    "solve/csv/single_column": "fc4d79dda6552816562db13f089a9076d2e34f5f8b86e46442d2143ac177528a",
    "solve/table/single_column": "713775dd26c2eb43350119ef896bca85f079d94f009dca18d7f89baf8ce027a4",
    "equilibria/json/single_column": "9c8c282c3eafb0b1b86e6bc9caf889fea7700dccad57493931407ee3633492c7",
    "equilibria/csv/single_column": "0b3f82f090506230e32341c96e265df70d833317c4af0618e15b6292e5bcdfb1",
    "equilibria/table/single_column": "dd1e21371c150699207d44a096559e78de975c018f6ade02da32c395de8bfc18",
    "poss/json/single_column": "8d8b9900fce14c5a31f9dfbeb48533ab93142687ec65b80be36eb4b60c607a84",
    "solve/json/scalar": "f27a117683fffc020427d127149e572a8ccaa6cf42e59be78904b854e9793240",
    "solve/csv/scalar": "2f8b4cfa56f41da87d8a42ef92d846cee61f2b90054d77fdb9166d74d46ecb75",
    "solve/table/scalar": "4bf003df0e060caedd6317489773088f07a0ab0873d450d6272e0a8208003715",
    "equilibria/json/scalar": "7dae1ba406ddfe3b8486af1cd0f9a0df2a1987f6b1b581056fa246d33c9b5d77",
    "equilibria/csv/scalar": "ad5c614a15bf3ab6a36e370fbd2800d8012de9c352a8c9eb4ece900ea64087a4",
    "equilibria/table/scalar": "2a30d3cd4b71dd2f37fa941f305c935e717e4235f0ab1ab98f7dc703b69baace",
    "poss/json/scalar": "c75dca5a291f22ecf97082733c91b0d497ef7a039a975ff7da83116aad4e7ceb",
}


def _digests(directory) -> dict[str, str]:
    """The digest of every report in RUNS on every game, keyed command/format/game."""
    out = {}
    for name, rows in GAMES.items():
        (directory / f"{name}.json").write_text(
            json.dumps(game_dict(VectorPayoffGame.from_rows(rows))), encoding="utf-8"
        )
        for command, fmt in RUNS:
            report = directory / "report.out"
            argv = [command, "-i", f"{name}.json", "--step-row", "1/10", "--workers", "1",
                    "--output", report.name]
            if fmt is not None:
                argv += ["--format", fmt]
            assert main(argv) == 0, argv
            out[f"{command}/{fmt or 'json'}/{name}"] = hashlib.sha256(
                report.read_bytes()
            ).hexdigest()
    return out


def test_reports_match_their_recorded_digests(tmp_path, monkeypatch):
    if np.__version__ != RECORDED_NUMPY:
        pytest.skip(f"digests were recorded under numpy {RECORDED_NUMPY}, not {np.__version__}")
    monkeypatch.chdir(tmp_path)
    assert _digests(tmp_path) == DIGESTS


if __name__ == "__main__":
    import os
    import tempfile
    from pathlib import Path

    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        digests = _digests(Path(tmp))
    print("DIGESTS = {")
    for key, value in digests.items():
        print(f'    "{key}": "{value}",')
    print("}")
