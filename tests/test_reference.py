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
integers must be equal; every float must agree within ``FLOAT_ABS``.

The same rule holds on other CPUs: ``test_outputs_match_reference_on_other_kernels``
regenerates the outputs in a subprocess that runs OpenBLAS's Haswell
kernels and numpy's dispatch without its AVX-512 paths, as an AVX2-only
CPU would.
"""

import json
import math
import os
import subprocess
import sys
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


def floats_agree(got, want):
    if math.isinf(want) or math.isnan(want):
        return got == want or (math.isnan(got) and math.isnan(want))
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


def compare_outputs(out, config):
    for name in FILES:
        got = (out / name).read_text()
        want = (REFERENCE / config / name).read_text()
        where = f"{config}/{name}"
        if name.endswith(".json"):
            compare_json(json.loads(got), json.loads(want), where)
        else:
            compare_csv(got, want, where)


@pytest.mark.parametrize("config", CONFIGS)
def test_outputs_match_reference(config, tmp_path):
    regenerate(config, tmp_path)
    compare_outputs(tmp_path, config)


# OpenBLAS's AVX2 kernels, and numpy's dispatch without its AVX-512 paths
# (the targets numpy 2.4 names; an older numpy may keep some of them on)
OTHER_CPU = {
    "OPENBLAS_CORETYPE": "Haswell",
    "NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR",
}

# prints the AVX-512 dispatch targets numpy still runs, then regenerates
# every config's outputs unless there are any
_OTHER_CPU_RUN = """
import sys
sys.path[:0] = sys.argv[1:3]
try:
    from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
except ImportError:
    from numpy.core._multiarray_umath import __cpu_dispatch__, __cpu_features__
import test_reference
on = [t for t in __cpu_dispatch__ if ("AVX512" in t or t == "X86_V4") and __cpu_features__.get(t)]
print("AVX-512 on:", " ".join(on))
if not on:
    for config in test_reference.CONFIGS:
        test_reference.regenerate(config, sys.argv[3] + "/" + config)
"""


def test_outputs_match_reference_on_other_kernels(tmp_path):
    """Every config's outputs regenerated under ``OTHER_CPU`` meet the same
    rule. Skipped where numpy still dispatches to AVX-512 code, since the
    run would then not be the one asked for."""
    here = Path(__file__).resolve().parent
    result = subprocess.run(
        [sys.executable, "-c", _OTHER_CPU_RUN, str(here.parent / "src"), str(here), str(tmp_path)],
        env={**os.environ, **OTHER_CPU}, capture_output=True, text=True, timeout=600,
    )
    assert result.returncode == 0, result.stderr[-2000:]
    report = next(line for line in result.stdout.splitlines() if line.startswith("AVX-512 on:"))
    if report.split(":", 1)[1].split():
        pytest.skip(f"numpy still runs AVX-512 code here ({report})")
    for config in CONFIGS:
        compare_outputs(tmp_path / config, config)


def test_comparison_rules():
    """The comparators accept last-bit float moves and reject any change
    to a verdict, level, integer or string."""
    compare_csv("a,value\nx,1.0\n", "a,value\nx,1.0000000000001\n", "ok")
    with pytest.raises(AssertionError):
        compare_csv("a,value\ny,1.0\n", "a,value\nx,1.0\n", "text cell")
    with pytest.raises(AssertionError):
        compare_csv("a,value\nx,1.00001\n", "a,value\nx,1.0\n", "float cell")
    compare_json({"k": 0.5 + 1e-13}, {"k": 0.5}, "ok")
    with pytest.raises(AssertionError):
        compare_json({"k": 0.5 + 1e-11}, {"k": 0.5}, "float")
    for got, want in [(True, False), (3, 4), (1, True), ("a", "b"), (1.0, None)]:
        with pytest.raises(AssertionError):
            compare_json({"k": got}, {"k": want}, "exact")
