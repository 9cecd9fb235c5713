"""Golden SHA-256 digests of the command line reports on the bundled games:
every grid command in every format, `check` on uniform strategies, `plot`
on uniform pairs (two payoff components only), and `random` with its
defaults; and of one `solve` report on a 10x10x4 game.

Reports are deterministic, so a change that keeps them byte-identical
keeps these digests.  The digests depend on NumPy's floating point
results, so they are checked only under the NumPy version they were
recorded with.  Reports embed the input path, so every command runs
from the directory holding the game file and names it relatively.

To re-record after a deliberate change of the reports, run
`python tests/test_report_digests.py` and paste its output over DIGESTS
and LARGE_SOLVE_DIGEST.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest

from vecgame.cli import game_dict, main
from vecgame.game import VectorPayoffGame

import conftest
from properties import relabeled_game

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

# `check` runs on uniform strategies with the default --player and --tol,
# so their digests also pin the defaults that the report embeds.
CHECKS = [("row", "json"), ("row", "table"), ("col", "json"), ("pair", "json"), ("pair", "table")]

DIGESTS = {
    "solve/json/two_by_two": "97e1b2b401eb6761abcd7b4c0f0348acc69f3927f3ed08c0c1acc384da48a719",
    "solve/csv/two_by_two": "63590321b95d9f328e61f28e908b1f8f13ceb465ffce9d991954b2638494a9f3",
    "solve/table/two_by_two": "0f468907da662d509efba847255a111279901e3cd3c3ef50220f8136ec900ea9",
    "equilibria/json/two_by_two": "995533356198c8706479d90c42caaf02ea32e749977f2724ab3770516f5cf2ab",
    "equilibria/csv/two_by_two": "b5fc2e9c9d2d6448288f6e6861d283b38ce5ca077f079ecc58f4e84c39b20525",
    "equilibria/table/two_by_two": "adf30ddb816f91f6c2fcc4d1c61e87e258877cfbec37a36915107d2d08c17cce",
    "poss/json/two_by_two": "4c655f4ffcf1fc6982a96f35c724bb0e32386383ad06082d82aec821a65215f9",
    "check-row/json/two_by_two": "eb01e4c50d7999a8e46c2e2a3bad31bf61f4b77f752216576c96e288207cbb18",
    "check-row/table/two_by_two": "0e9d881ec58898ca162b96109c2552b94ba63ad3a1f12ab84531fe68251ca3fa",
    "check-col/json/two_by_two": "6240c60969db80bd4acedcce2dfb43cfce8386e238867767537f29a4571675e0",
    "check-pair/json/two_by_two": "e490f98a1bcca8008065e3456b1c8d8aa32866f69e8256a919301d29a54ac42a",
    "check-pair/table/two_by_two": "f3916cda441ff3c76024596baca1acced1a964dcd92b0ba218f2586748546ff4",
    "plot-pair/json/two_by_two": "72d6fe7b3bcbe14a62a492d4769ecc8b22cf4888b9dda588f36c65598bd19bf0",
    "solve/json/null_row": "c8c970ed9b1d61ce6265624d73aa7cae96070f0cff0c6b9969c135cbb9f6c404",
    "solve/csv/null_row": "c21313b95e167354534a517608bb4c05a8e81594c30549d2b385c8adc1e670f2",
    "solve/table/null_row": "f3470d685ab3f4faaa4ccb39338752f44afbf27252ed7556de41e8e57da37d66",
    "equilibria/json/null_row": "5205d7f20df1ed35b829f37ff0c3a626fddd097c4a59d94e7ad903d930302b85",
    "equilibria/csv/null_row": "4e57371cfb7c6457c1f3852c3cb42f67767cae50d2def60571d7a77223fce7e0",
    "equilibria/table/null_row": "b9ff509038971322ab96c3e434b724768c228d0a636238f9923d9933bb75709c",
    "poss/json/null_row": "c828b8f86b0b7df44a3b7fdd31c395b74fa121dad639b84663f3aa06698684f3",
    "check-row/json/null_row": "c183ee1b7969c7d3fb183f1abc5d344de6665f4432059941a2a762049028e06b",
    "check-row/table/null_row": "bae115b2a7882f54946d8c68b61b852a5b6769146a808d6f2470f18d013efd64",
    "check-col/json/null_row": "7887303319b74f8c908a4c9fa443706ff69d97c8db05fc4ba898faa864cbd615",
    "check-pair/json/null_row": "151307caecf8ed7268671d777f5f45ad9e8c063e05aa1163a7c2814ad8356ece",
    "check-pair/table/null_row": "90077d5f0b5013c667219d2fbed7f498cd899934f640e1a983703ed8ea6c6652",
    "plot-pair/json/null_row": "bcd118ccbc253f66b4024fcdca83c09b615ac7670582ae56c7d959a7dcb77c5e",
    "solve/json/constant_row": "3dc5372b55bcf20d5c5bdf17c2b6f05680ddbd49402ae3ba16192821a523c02a",
    "solve/csv/constant_row": "a1d0e99fd75912942e40538a0ff6f246f7fffa49487b5ab6aa2be3627dda833f",
    "solve/table/constant_row": "68634346358349685e0de69b5f488d5be5dc7f2777fff7df0ab999f925c33e03",
    "equilibria/json/constant_row": "6a758f115b56ed7fb2a6b1ad4b43cf68a286a885563ff579d9ec31e7e68fba2d",
    "equilibria/csv/constant_row": "1bd3f8781667976864269e1a3fb9535252b2880de70c9e5fd5723068c6ea1a5b",
    "equilibria/table/constant_row": "ad1d8f218ed4f2a327b78d15d656963d38e5aab2c887df1e5f1c6f89496fa0cb",
    "poss/json/constant_row": "8528ffbf2865ceb3ab62feb66e2aa47a9549aaef3ee0a314d0bca78a3462c814",
    "check-row/json/constant_row": "acc80f53e2f93fd7e79efb3cd1b1910e13541e4ef9b81ea96fa498347cdecdf2",
    "check-row/table/constant_row": "70af081dadaa97ad64c24d2c96bc18a598f5ae91cee8da0d50f5a4ab4c6e390c",
    "check-col/json/constant_row": "a0ea5e34d59382efdcb2813ad292f19bd6922f6799adcb277db02409227dd0b3",
    "check-pair/json/constant_row": "688352d6d1865bb30dad22fe00cc902e7d83915e4ddc089bef393410ab902819",
    "check-pair/table/constant_row": "eeacb1293f86929aaf17539f62e0d86bd1ae9a2c1d3db6ade5383c7f50182a11",
    "plot-pair/json/constant_row": "ad292a7f41e086333ef7719ff89cb9cb5febc91b32c4f2c03038f75208c6aa3f",
    "solve/json/corley": "ee94a62749eb6c1fbd3f4d27b7ca9016f979e528a9c1b1c93b23729f15c812eb",
    "solve/csv/corley": "3d41f24c926089cce3662c89ce246d1fc5681a2c2c4140f25526348d581c9236",
    "solve/table/corley": "59c546d2cf8f94a37c65f8b99a00bd26ab546be314617b5b4abfd48e021c4b38",
    "equilibria/json/corley": "880ea618d8170ce8ede368aa3b128fd6e6ba9f07d38b3e9bb693b323aeab59ac",
    "equilibria/csv/corley": "da43dbdde486c307c8d64b83d1ba0f9994c6b860e349cf4f9eebfb2df6975de6",
    "equilibria/table/corley": "46977f16c66f0b86ad742dbda27b825915592b2dd1479eacd0c0e812e09a825a",
    "poss/json/corley": "d2bec38ae155def16282c62016816f5c00418d08c58a18a87c1c878dbac22719",
    "check-row/json/corley": "f9f465da484fecbfdf2dd7cdb575bf8b6bd1c5af824c5ab136245d7d8b581518",
    "check-row/table/corley": "484ecb1c482ddcd1c38e54008e008fd3f326229f0e9c0236f8d6da6ca295d9d7",
    "check-col/json/corley": "4007ec51a70f39b6080da91df5eb480b2e4f141aa9ec09ac6560b47d7d57a5ea",
    "check-pair/json/corley": "aa7dd28781d12d160a37b7883e510777acc0de04f66df5f1585c8898af16d6e6",
    "check-pair/table/corley": "0505fa5b9a1f33611a80b4678ac533a58cf5487687d73dbe86fdd468f4ec310b",
    "plot-pair/json/corley": "51399563c6007b93ec178d1f863a7ef0b5f358399fb7bde067533af678965101",
    "solve/json/zero_row": "21e8bdf731057ed90c1cddddb92c3461454e0f57647e3bd8d17fbaa2b7451917",
    "solve/csv/zero_row": "2845469f13ce0b25081bf2369e4d280eefdf5fece64375240e2a1386272b545c",
    "solve/table/zero_row": "0a785d98b245281f99f10548420e56a7d1f1d1bf10419b78b332531b7c5c1ef9",
    "equilibria/json/zero_row": "c1e5a7b500099c17fd62ebc817fe8584761cc132500b90ea8a42e59555733c2a",
    "equilibria/csv/zero_row": "9add26b42348f3cce2615d36aa257a078fcc5cdcc11901d71f9fa41268ef634f",
    "equilibria/table/zero_row": "58fcc3c70d0cc51220a2b01138368c347fc997f72f595962d7f1edbe08aea0c9",
    "poss/json/zero_row": "bd80f0ddc71521c6393c8da3a60ea5b76f3539a070ac666fe200c0802b4612f7",
    "check-row/json/zero_row": "f6c912bbde700da32d48ec82353ebdc12c1a22e68e3c2194bd378024843654a5",
    "check-row/table/zero_row": "8e70481b5ffb0a03822b627afca9eccebd925a1c84853da9116afd015e3b2f08",
    "check-col/json/zero_row": "ad2c61812cbd9ec5b55613963cda47f74a0ff4a08c4d24bdef4131046d4129fa",
    "check-pair/json/zero_row": "566a38f6d94c573dd45fa1c35ae7c3ea41e9414c07c9c0cf1b0ef37571673bc6",
    "check-pair/table/zero_row": "6cea8f379ffa3f60e8049e3c1b5174471bd0f1d017b7cbc4046a29d9f13a5729",
    "plot-pair/json/zero_row": "da807b9cdca17069edfa25eb3f3be986ca98ced948449193e5e9c0fd491e3506",
    "solve/json/three_by_three": "067df4296c81fdcf49adc81f0bd72741c6fe4c9ae6c8b6a6e1f474f12c45b391",
    "solve/csv/three_by_three": "2627d598b63d6bfd4d32568a8ef263de09cf454338eef4b23784a41d9e116bdd",
    "solve/table/three_by_three": "2b119065b3ff7fc606e9ce84a27c50a7297f6ee6706e95e1f162f901d3b3b1a0",
    "equilibria/json/three_by_three": "717a2db0747270ed2ecdb21953f8ea6b8076be074bb00b5828fad7fbcad97b70",
    "equilibria/csv/three_by_three": "d0dfb428094857aaadd747eebcdfd44aac3d3f4f2d8ef536ed4bced49ee26405",
    "equilibria/table/three_by_three": "9aed3fde804c8bc594dabd5a004e8faa144196c0e3f7aee386cd87881c69f311",
    "poss/json/three_by_three": "b0fc0e1c575225e083e462fae89c96e8561cff668aeb19d3acdf35afd674b0f6",
    "check-row/json/three_by_three": "86a100175843002a147c70dc3a64efdfdcb59bef95ab7793551316a0e66473e6",
    "check-row/table/three_by_three": "a1f6c2ff243d8d65fb04c76e504b0003a2aaae1cff2bf9bc6eb06b1786facd19",
    "check-col/json/three_by_three": "0cffa0ec305c60021371cef3e30ef7223b8c24f43e500444801f2ab70917da63",
    "check-pair/json/three_by_three": "6d46d0447142110bd0b58f08babcaf493a787fb7344d87c164178516e80625c0",
    "check-pair/table/three_by_three": "e34d789f65bca544f0547f972019560d48372f82985fb7ff089e32efae24d2a5",
    "plot-pair/json/three_by_three": "7065e672b3154859e9a5ff03fc37c41a6eec706a9fbc615ebf215257f154e17b",
    "solve/json/single_column": "3e84e5b0f3388263899315458865602f4648f5fd208af11c0ee28238d12d32b1",
    "solve/csv/single_column": "6fe71d6668f1d4261a2d865d1b4efa0322ba5b9c3c5707f59e89a81b612b0773",
    "solve/table/single_column": "713775dd26c2eb43350119ef896bca85f079d94f009dca18d7f89baf8ce027a4",
    "equilibria/json/single_column": "a5f37cb21484c89e20388a09feab50bd5f57bcd0d2314326992fbe7481832720",
    "equilibria/csv/single_column": "0b3f82f090506230e32341c96e265df70d833317c4af0618e15b6292e5bcdfb1",
    "equilibria/table/single_column": "dd1e21371c150699207d44a096559e78de975c018f6ade02da32c395de8bfc18",
    "poss/json/single_column": "67f55f8e7e39f76e503e5b47a14256eb1166f67511a404de73c726b3966092d4",
    "check-row/json/single_column": "6e3690335be105ef1f9dffac078128347b07d3398d2d3d744c38db994019a0c9",
    "check-row/table/single_column": "484ecb1c482ddcd1c38e54008e008fd3f326229f0e9c0236f8d6da6ca295d9d7",
    "check-col/json/single_column": "688569638b6ff962078014803ac621310a1640b6e71c906a76aa45e7ba312375",
    "check-pair/json/single_column": "7f24fc75fa5c29939c49fd7e35bffe4e1ba163076553afe6b83d4fbc1df5751e",
    "check-pair/table/single_column": "4ac9a8ea1af0057e088622fff767ca7d2a0738604df08b6eba35a1cb82b69892",
    "plot-pair/json/single_column": "bc0d38b1e90e7cbab30bd69b8d2f7a2520226b35a9c1562ed89a5d6e4b0fc29f",
    "solve/json/scalar": "58099805859d69271ca7e9015bafd071bae08e785664b0cc6424c61367864bbe",
    "solve/csv/scalar": "8bcfecc71febc9e53a7d9955ee247ba80fff2bf3b087f23337fb76c9288202d7",
    "solve/table/scalar": "4bf003df0e060caedd6317489773088f07a0ab0873d450d6272e0a8208003715",
    "equilibria/json/scalar": "3b5831baa3111f7a408447d26ff9fd2d5484ac0380838d4a1ed890eba4f909bb",
    "equilibria/csv/scalar": "ad5c614a15bf3ab6a36e370fbd2800d8012de9c352a8c9eb4ece900ea64087a4",
    "equilibria/table/scalar": "2a30d3cd4b71dd2f37fa941f305c935e717e4235f0ab1ab98f7dc703b69baace",
    "poss/json/scalar": "bf5781e65fcd531a82c2e5b5960eb677664fbf3c8ec380d7e82bd9b9bf9889aa",
    "check-row/json/scalar": "5ca465d426336c6bcb4982cf405b449363a84f92a6dd68c6afd10ef82cea7804",
    "check-row/table/scalar": "f89e49d651079e81744233f42e4fac2fe5f5c8779b1cc1520758788b0efbffa5",
    "check-col/json/scalar": "7ceb7af2ad32c3507fa843dcdb242260bae4a95d56fd54f1eb4f1ddb800561ab",
    "check-pair/json/scalar": "d025585de47d216132c54ce9c45e770a8ae3f08b748f360e57a0c4b7dd894694",
    "check-pair/table/scalar": "d9d83236c8ff46a74d988dc001d501947b8319719fbee440a3136fbf8651f8d3",
    "random/json/defaults": "531b0567734187eb1df30fdb6069ac4f293b0b284fba59556b3f3a9d7705eddb",
}

# `solve --step-row 1/2` on the benchmark's seed-7 10x10x4 game: 55 points
# a player, whose improvement LPs of 110 to 420 rows take thousands of
# lockstep pivots and meet the relative pivot bound (`lp.TOL_PIVOT`).
LARGE_SOLVE_DIGEST = "e47bd9ff15ddc07f929d7f3eedc40a4cc339786100977b10382e50188831b054"


def _uniform(count: int) -> str:
    return ",".join([f"1/{count}"] * count)


def _argvs(name: str, game: VectorPayoffGame):
    """(digest key, argv) of every run on one game file."""
    common = ["-i", f"{name}.json"]
    for command, fmt in RUNS:
        argv = [command, *common, "--step-row", "1/10", "--workers", "1"]
        if fmt is not None:
            argv += ["--format", fmt]
        yield f"{command}/{fmt or 'json'}/{name}", argv
    p, q = _uniform(game.rows), _uniform(game.cols)
    typed = {"row": ["--strategy", p], "col": ["--player", "col", "--strategy", q],
             "pair": ["--pair", f"{p};{q}"]}
    for who, fmt in CHECKS:
        yield f"check-{who}/{fmt}/{name}", ["check", *common, *typed[who], "--format", fmt]
    if game.dim == 2:
        yield f"plot-pair/json/{name}", ["plot", *common, *typed["pair"]]


def _digests(directory) -> dict[str, str]:
    """The digest of every report of `_argvs` on every game, and of one
    `random` run with its defaults, keyed command/format/game."""
    runs = []
    for name, rows in GAMES.items():
        game = VectorPayoffGame.from_rows(rows)
        (directory / f"{name}.json").write_text(json.dumps(game_dict(game)), encoding="utf-8")
        runs += _argvs(name, game)
    runs.append(("random/json/defaults", ["random"]))
    out = {}
    report = directory / "report.out"
    for key, argv in runs:
        assert main([*argv, "--output", report.name]) == 0, argv
        out[key] = hashlib.sha256(report.read_bytes()).hexdigest()
    return out


def _large_solve_digest(directory) -> str:
    """The digest of the `solve` report of LARGE_SOLVE_DIGEST."""
    game = relabeled_game(7, (10, 10, 4), 0)
    (directory / "r7_10x10x4.json").write_text(json.dumps(game_dict(game)), encoding="utf-8")
    report = directory / "report.out"
    argv = ["solve", "-i", "r7_10x10x4.json", "--step-row", "1/2", "--workers", "1"]
    assert main([*argv, "--output", report.name]) == 0
    return hashlib.sha256(report.read_bytes()).hexdigest()


def test_reports_match_their_recorded_digests(tmp_path, monkeypatch):
    if np.__version__ != RECORDED_NUMPY:
        pytest.skip(f"digests were recorded under numpy {RECORDED_NUMPY}, not {np.__version__}")
    monkeypatch.chdir(tmp_path)
    assert _digests(tmp_path) == DIGESTS


def test_a_10x10x4_solve_report_matches_its_recorded_digest(tmp_path, monkeypatch):
    if np.__version__ != RECORDED_NUMPY:
        pytest.skip(f"digests were recorded under numpy {RECORDED_NUMPY}, not {np.__version__}")
    monkeypatch.chdir(tmp_path)
    assert _large_solve_digest(tmp_path) == LARGE_SOLVE_DIGEST


if __name__ == "__main__":
    import os
    import tempfile
    from pathlib import Path

    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        digests = _digests(Path(tmp))
        large = _large_solve_digest(Path(tmp))
    print("DIGESTS = {")
    for key, value in digests.items():
        print(f'    "{key}": "{value}",')
    print("}")
    print(f'LARGE_SOLVE_DIGEST = "{large}"')
