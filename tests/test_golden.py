"""The README commands reproduce the committed golden reports byte for byte.

``perfbench/golden/*.json`` holds the ``stable`` section of each README
command, serialized with sorted keys, compact separators and a trailing
newline.  The files are only read here; a refactor that changes any of
these reports fails this test.
"""

import json
import os

import pytest

from stratakit import strata
from stratakit.cli import main
from stratakit.space import subspace_to_json

GOLDEN = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                      "perfbench", "golden")
CLASSIFY_CFG = "--case z --q 3 --k 2 --t 4 --h 0"
README_COMMANDS = [
    ("strata-verify", f"strata verify {CLASSIFY_CFG}"),
    ("strata-count", "strata count --case y --q 3 --k 2 --n 6 --h 4 --t 0 --eps -1"),
    ("strata-classify.seed0", f"strata classify {CLASSIFY_CFG} --input {{input}}"),
    ("weyl-audit", "weyl audit --tmax 6"),
    ("charts-reconcile", "charts reconcile --max-entries 10"),
    ("charts-rzdim", "charts rzdim --n 5 --h 0"),
    ("latcalc-dichotomy-exhaustive", "latcalc dichotomy --n 2 --s 2 --exhaustive"),
    ("latcalc-dichotomy", "latcalc dichotomy --n 3 --trials 1000 --seed 0"),
    ("latcalc-inclusions", "latcalc inclusions --n 2 --h 2"),
]


@pytest.fixture(scope="module")
def classify_input(tmp_path_factory):
    """Member 0 of Z q3 k2 t4 h0, the input the classify golden was made from."""
    U = next(strata.enumerate_members(strata.StrataConfig("Z", p=3, k=2, t=4, h=0)))
    path = tmp_path_factory.mktemp("golden") / "subspace.json"
    path.write_text(json.dumps(subspace_to_json(U)))
    return str(path)


@pytest.mark.parametrize("name,line", README_COMMANDS, ids=[n for n, _ in README_COMMANDS])
def test_readme_command_matches_golden(name, line, classify_input, capsys):
    code = main(line.format(input=classify_input).split())
    stable = json.loads(capsys.readouterr().out)["stable"]
    text = json.dumps(stable, sort_keys=True, separators=(",", ":")) + "\n"
    with open(os.path.join(GOLDEN, f"{name}.json")) as fh:
        assert text == fh.read()
    assert code == 0
