"""Golden reports, compared byte for byte through ``cli.main`` in process.

The files under ``tests/golden`` hold the stdout of the version before the
Sorites runners shared one step scan; every later change to the runners,
the backends or the renderers is judged against them.  They are data, not
output of this suite: nothing here writes them.
"""

import json
from importlib import resources
from pathlib import Path

import pytest

from soritica.cli import main

GOLDEN = Path(__file__).parent / "golden"
FIXTURES = resources.files("soritica") / "fixtures"

FIXTURE_NAMES = (
    "classical_cutoff5",
    "fuzzy_linear",
    "kleene_penumbra",
    "nonstandard_cut",
    "nonstandard_heap",
    "superval_2_6",
)

#: One scenario per backend over a range of 10**3.
RANGE_1000 = {
    "classical_1000": {
        "backend": {"type": "classical_cutoff", "params": {"cutoff": 618}},
        "chainLength": 900,
    },
    "kleene_1000": {
        "backend": {"type": "kleene_penumbra", "params": {"t1": 300, "t2": 700}},
        "chainLength": 1000,
    },
    "fuzzy_1000": {
        "backend": {
            "type": "fuzzy_membership",
            "params": {
                "points": [[1, "1"], [250, "9/10"], [1000, "0"]],
                "threshold": "3/4",
            },
        },
        "chainLength": 400,
    },
    "superval_1000": {
        "backend": {"type": "superval", "params": {"cutoffs": [450, 200, 800]}},
        "chainLength": 150,
    },
    "nonstandard_1000": {
        "backend": {"type": "nonstandard", "params": {"threshold": "1/2*e^(-1) + 3"}},
        "witnesses": ["e^(-1)", "-e^(-2) + 5"],
        "chainLength": "e^(-1)",
    },
}


def range_1000_config(name):
    return {"name": name, "range": [1, 1000], **RANGE_1000[name]}


def cases():
    """``(golden file name, argv)`` for every golden; ``{config}`` in an
    argv stands for a file holding ``range_1000_config(name)``."""
    out = []
    for name in FIXTURE_NAMES:
        path = str(FIXTURES / f"{name}.json")
        out.append((f"sorites_{name}.txt", ["sorites", "run", path]))
        out.append(
            (f"sorites_{name}.json", ["sorites", "run", path, "--format", "json"])
        )
    for name in RANGE_1000:
        out.append((f"{name}.txt", ["sorites", "run", "{config}"]))
        out.append((f"{name}.json", ["sorites", "run", "{config}", "--format", "json"]))
    out.append(("tables.txt", ["tables"]))
    out.append(("laws_seed42_n1000.txt", ["laws", "--seed", "42", "--n", "1000"]))
    return out


@pytest.mark.parametrize("golden, argv", cases())
def test_golden(capsys, tmp_path, golden, argv):
    config = tmp_path / "config.json"
    stem = golden.rsplit(".", 1)[0]
    if stem in RANGE_1000:
        config.write_text(json.dumps(range_1000_config(stem)), encoding="utf-8")
    assert main([arg.format(config=config) for arg in argv]) == 0
    out = capsys.readouterr().out
    assert out.encode("utf-8") == (GOLDEN / golden).read_bytes()
