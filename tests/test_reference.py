"""Reference-output gate: the CLI outputs of every shipped configuration
must stay equivalent to the committed ones in ``tests/reference``.

The reference files were written by

    fidelityq solve          --config <name> --out tests/reference/<name>
    fidelityq check          --config <name> --out tests/reference/<name> --episodes 2000 --seed 1
    fidelityq export-moments --config <name> --out tests/reference/<name>
    fidelityq sweep          --config <name> --out tests/reference/<name> --grid 0.1,0.2
    fidelityq simulate       --config <name> --out tests/reference/<name> --episodes 2000 --seed 1

(the heatmap SVGs are not kept). Byte identity across code versions is
not the rule, because a change that reorders floating-point sums moves
values in the last bits. Policies, threshold levels, verdicts, strings and
integers must be equal; floats must agree within ``FLOAT_ABS``, except
``contraction_estimate``, a ratio of two residuals near 1e-10, which must
agree within ``CONTRACTION_REL`` relative.
"""

import json
import math
from pathlib import Path

import pytest

from fidelityq import cli

REFERENCE = Path(__file__).parent / "reference"
CONFIGS = ["tiny", "default", "high_lambda", "skip_cheap", "large_gap"]
FILES = [
    "value.csv",
    "policy.csv",
    "convergence.json",
    "thresholds.csv",
    "structure.json",
    "moments.csv",
    "sweep.csv",
    "mc_value.json",
    "trajectories.csv",
]

FLOAT_ABS = 1e-12
CONTRACTION_REL = 1e-6
# CSV columns holding computed floats; every other cell is compared as text
FLOAT_COLUMNS = {
    "value",
    "switch_margin",
    "mean",
    "second_moment",
    "variance",
    "discount_transform",
    "light_tail_bound",
    "reward",
}


def regenerate(config, out):
    out = str(out)
    assert cli.main(["solve", "--config", config, "--out", out]) == 0
    assert cli.main(
        ["check", "--config", config, "--out", out, "--episodes", "2000", "--seed", "1"]
    ) == 0
    assert cli.main(["export-moments", "--config", config, "--out", out]) == 0
    assert cli.main(["sweep", "--config", config, "--out", out, "--grid", "0.1,0.2"]) == 0
    assert cli.main(
        ["simulate", "--config", config, "--out", out, "--episodes", "2000", "--seed", "1"]
    ) == 0


def floats_agree(got, want, rel=None):
    if math.isinf(want) or math.isnan(want):
        return got == want or (math.isnan(got) and math.isnan(want))
    if rel is not None:
        return abs(got - want) <= rel * abs(want)
    return abs(got - want) <= FLOAT_ABS


def compare_csv(got_text, want_text, where):
    got_lines, want_lines = got_text.splitlines(), want_text.splitlines()
    assert len(got_lines) == len(want_lines), f"{where}: line count"
    header = None
    for n, (got, want) in enumerate(zip(got_lines, want_lines)):
        if want.startswith("#") or header is None:
            assert got == want, f"{where} line {n + 1}"
            if not want.startswith("#"):
                header = want.split(",")
            continue
        got_cells, want_cells = got.split(","), want.split(",")
        assert len(got_cells) == len(want_cells), f"{where} line {n + 1}"
        for column, g, w in zip(header, got_cells, want_cells):
            cell = f"{where} line {n + 1} column {column}"
            if column in FLOAT_COLUMNS:
                assert floats_agree(float(g), float(w)), f"{cell}: {g} vs {w}"
            else:
                assert g == w, f"{cell}: {g!r} vs {w!r}"


def compare_json(got, want, where):
    if isinstance(want, dict):
        assert isinstance(got, dict) and sorted(got) == sorted(want), where
        for key in want:
            if key == "contraction_estimate":
                assert floats_agree(got[key], want[key], CONTRACTION_REL), f"{where}.{key}"
            else:
                compare_json(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), where
        for i, (g, w) in enumerate(zip(got, want)):
            compare_json(g, w, f"{where}[{i}]")
    elif isinstance(want, float) and not isinstance(got, bool):
        assert isinstance(got, (int, float)), where
        assert floats_agree(float(got), want), f"{where}: {got!r} vs {want!r}"
    else:
        # booleans, integers, strings and nulls must be equal, type included
        assert type(got) is type(want) and got == want, f"{where}: {got!r} vs {want!r}"


@pytest.mark.parametrize("config", CONFIGS)
def test_outputs_match_reference(config, tmp_path):
    regenerate(config, tmp_path)
    for name in FILES:
        got = (tmp_path / name).read_text()
        want = (REFERENCE / config / name).read_text()
        where = f"{config}/{name}"
        if name.endswith(".json"):
            compare_json(json.loads(got), json.loads(want), where)
        else:
            compare_csv(got, want, where)


def test_comparison_rules():
    """The comparators accept last-bit float moves and reject any change
    to a verdict, level, integer or string."""
    compare_csv("a,value\nx,1.0\n", "a,value\nx,1.0000000000001\n", "ok")
    with pytest.raises(AssertionError):
        compare_csv("a,value\ny,1.0\n", "a,value\nx,1.0\n", "text cell")
    with pytest.raises(AssertionError):
        compare_csv("a,value\nx,1.00001\n", "a,value\nx,1.0\n", "float cell")
    compare_json({"contraction_estimate": 0.5 * (1 + 1e-7)},
                 {"contraction_estimate": 0.5}, "ok")
    with pytest.raises(AssertionError):
        compare_json({"contraction_estimate": 0.5 * (1 + 1e-5)},
                     {"contraction_estimate": 0.5}, "ratio")
    for got, want in [(True, False), (3, 4), (1, True), ("a", "b"), (1.0, None)]:
        with pytest.raises(AssertionError):
            compare_json({"k": got}, {"k": want}, "exact")
