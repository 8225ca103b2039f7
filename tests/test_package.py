"""The package's exports: config names load with ``import fidelityq``,
the numerical ones (and numpy with them) on first access."""

import importlib
import os
import subprocess
import sys

import pytest
import test_config

import fidelityq

SRC = os.path.dirname(os.path.dirname(os.path.abspath(fidelityq.__file__)))


def run_fresh(code, *args):
    """Run ``code`` in a fresh interpreter that imports this checkout."""
    env = {**os.environ, "PYTHONPATH": SRC}
    return subprocess.run([sys.executable, "-c", code, *args], env=env,
                          capture_output=True, text=True)


@pytest.mark.parametrize("name", fidelityq.__all__)
def test_export_is_its_submodule_object(name):
    owner = fidelityq._LAZY.get(name)
    if owner is None:
        owner = next(m for m in ("actions", "config", "errors")
                     if hasattr(importlib.import_module(f"fidelityq.{m}"), name))
    module = importlib.import_module(f"fidelityq.{owner}")
    assert getattr(fidelityq, name) is getattr(module, name)
    assert name in dir(fidelityq)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="'fidelityq' has no attribute 'no_such_name'"):
        fidelityq.no_such_name  # noqa: B018


def test_star_import_binds_every_name():
    code = (
        "import fidelityq\n"
        "from fidelityq import *\n"
        "missing = [n for n in fidelityq.__all__ if n not in globals()]\n"
        "assert not missing, missing\n"
    )
    run = run_fresh(code)
    assert run.returncode == 0, run.stderr


def test_resolving_a_config_loads_no_numpy(tmp_path):
    """``import fidelityq``, ``available_configs`` and ``resolve_config`` on
    every shipped config load neither numpy nor PyYAML. A file config with
    sweep rates (checked by the wait-law support rule) loads PyYAML and
    still no numpy; the first build loads it, and the model solves."""
    path = tmp_path / "sweep.yaml"
    path.write_text("name: sweep\nsweep: {arrival_rates: [0.3, 0.5]}\n")
    code = (
        "import sys, warnings\n"
        "warnings.simplefilter('ignore')\n"
        "import fidelityq\n"
        "cfgs = [fidelityq.resolve_config(n) for n in fidelityq.available_configs()]\n"
        "assert len(cfgs) == 5, cfgs\n"
        "loaded = sorted(n for n in sys.modules if n.split('.')[0] in ('numpy', 'yaml'))\n"
        "assert not loaded, loaded\n"
        "cfg = fidelityq.resolve_config(sys.argv[1])\n"
        "assert 'yaml' in sys.modules\n"
        "assert cfg.sweep['arrival_rates'] == [0.3, 0.5], cfg.sweep\n"
        "loaded = sorted(n for n in sys.modules if n.split('.')[0] == 'numpy')\n"
        "assert not loaded, loaded\n"
        "assert not {'fidelityq.model', 'fidelityq.sojourn', 'fidelityq.cogchain'}"
        " & set(sys.modules)\n"
        "result = fidelityq.value_iteration(cfg.build_model())\n"
        "assert result.converged and 'numpy' in sys.modules\n"
    )
    run = run_fresh(code, str(path))
    assert run.returncode == 0, run.stderr


def test_resolving_a_config_loads_no_hashlib_or_json():
    """Beyond what a bare interpreter has loaded, ``import fidelityq`` and
    ``resolve_config`` on every shipped config load none of dataclasses,
    inspect, hashlib, _hashlib or json. Each digest is computed when first
    read, which loads hashlib, and is the pinned one."""
    code = (
        "import sys\n"
        "bare = set(sys.modules)\n"
        "import fidelityq\n"
        "cfgs = {n: fidelityq.resolve_config(n) for n in fidelityq.available_configs()}\n"
        "new = {'dataclasses', 'inspect', 'hashlib', '_hashlib', 'json'} & set(sys.modules)\n"
        "assert not new - bare, sorted(new - bare)\n"
        "digests = [f'{n}={cfg.digest}' for n, cfg in cfgs.items()]\n"
        "assert digests == sys.argv[1:], digests\n"
        "assert 'hashlib' in sys.modules\n"
    )
    pinned = sorted(test_config.TestBuiltins.DIGESTS.items())
    run = run_fresh(code, *(f"{n}={d}" for n, d in pinned))
    assert run.returncode == 0, run.stderr


def refused(doc, key, text, id=None, command=None):
    """A case for ``test_refusing_an_arrival_rate_loads_no_numpy``: a file
    config, the key its refusal names and the rule's own text (what a
    library caller reads), loaded by ``resolve_config`` or, given a
    ``command``, by ``cli.main``."""
    return pytest.param(doc, key, text, command, id=id or key)


@pytest.mark.parametrize("doc, key, text, command", [
    refused("queue: {arrival_rate: 1.0e-6}", "queue.arrival_rate",
            "the wait law at arrival rate 1e-06 needs 13815511 support points", "1.0e-6"),
    refused("queue: {arrival_rate: 50.0}", "queue.arrival_rate",
            "arrival probability per step must be in (0,1)", "50.0"),
    refused("queue: {capacity: 0}", "queue.capacity", "queue capacity must be at least 1"),
    refused("cognition: {intervals: 1}", "cognition.intervals",
            "cognitive grid needs at least 2 intervals"),
    refused("cognition: {star_index: 0}", "cognition.star_index",
            "resting level must be an interior grid point"),
    refused("cognition: {step_scale: 2.0}", "cognition.step_scale",
            "rates for action W sum to 1.0400 > 1"),
    refused("cognition: {unit_rates: {wait: [1.0, 0.1]}}", "cognition.unit_rates.wait",
            "W must drift downward"),
    refused("cognition: {unit_rates: {high: [0.1, 0.0]}}", "cognition.unit_rates.high",
            "high fidelity must push the cognitive state harder than normal fidelity"),
    refused("rest: {cap_factor: 0}", "rest.cap_factor", "rest cap factor must be at least 1"),
    refused("skip: {duration: 0}", "skip.duration", "skip_time must be a positive integer"),
    refused("economics: {discount: 1.5}", "economics.discount",
            "discount factor must lie in (0,1)"),
    refused("economics: {reward_high: 1.0}", "economics.reward_high",
            "rewards must be finite and satisfy high > normal >= 0"),
    refused("economics: {holding_cost: .nan}", "economics.holding_cost",
            "holding cost must be positive and finite"),
    refused("service: {dispersion: -1}", "service.dispersion",
            "dispersion must be positive and finite"),
    refused("service: {support: 2}", "service.support", "service support cap must be at least 3"),
    refused("service: {base_mean: {normal: 0.5}}", "service.base_mean.normal",
            "base service means must exceed one time step"),
    refused("service: {family: neg-binomial, dispersion: 2.5}", "service.dispersion",
            "neg-binomial dispersion is an integer shape", "neg-binomial-dispersion"),
    refused("queue: {capacity: 100000}", "queue.capacity",
            "the backup window would take 880,017,600,088 bytes", "capacity-size"),
    refused("cognition: {intervals: 3000}", "cognition.intervals",
            "the step ladders would take 7,276,848,808 bytes", "intervals-size"),
    refused("economics: {discount: 1.5}", "economics.discount",
            "discount factor must lie in (0,1)", "cli", command="export-moments"),
    refused("queue: {capacity: 1}", "queue.capacity",
            "queue too short for the requested boundary buffer", "short-queue-check",
            command="check"),
    refused("queue: {capacity: 1}", "queue.capacity",
            "queue too short for the requested boundary buffer", "short-queue-sweep",
            command="sweep --grid 0.3"),
])
def test_refusing_an_arrival_rate_loads_no_numpy(tmp_path, doc, key, text, command):
    """A file config with an arrival rate that has no wait law, or any
    other model key out of its range, or sizes over ``MAX_TABLE_BYTES``
    for one table, is refused when it loads, before numpy is imported. The
    message names the key, then gives the rule's text (for a range, the
    text the parameter class gives a library caller). Through ``cli.main`` the
    command (its words split on spaces) exits 1 with that message; ``check``
    and ``sweep`` so refuse a queue too short to grade."""
    path = tmp_path / "refused.yaml"
    path.write_text(doc + "\n")
    code = (
        "import contextlib, io, sys, fidelityq\n"
        "path, key, text, command = sys.argv[1:]\n"
        "if command:\n"
        "    from fidelityq import cli\n"
        "    err = io.StringIO()\n"
        "    with contextlib.redirect_stderr(err):\n"
        "        status = cli.main([*command.split(), '--config', path, '--out', path + '.out'])\n"
        "    assert status == 1, status\n"
        "    message = err.getvalue().removeprefix('error: ')\n"
        "else:\n"
        "    try:\n"
        "        fidelityq.resolve_config(path)\n"
        "    except fidelityq.errors.ConfigError as exc:\n"
        "        message = str(exc)\n"
        "    else:\n"
        "        raise AssertionError('loaded')\n"
        "assert message.startswith(key + ': ') and text in message, message\n"
        "loaded = sorted(n for n in sys.modules if n.split('.')[0] == 'numpy')\n"
        "assert not loaded, loaded\n"
    )
    run = run_fresh(code, str(path), key, text, command or "")
    assert run.returncode == 0, run.stderr


@pytest.mark.parametrize("grid, text", [
    ("0.3,-1", "error: --grid[1] must be positive and finite, got -1.0"),
    (",".join(["0.3"] * 65), "error: sweep grid has 65 points, budget is 64"),
    ("", "no arrival rates to sweep; set sweep.arrival_rates or --grid"),
], ids=["bad-rate", "over-budget", "empty"])
def test_refusing_a_sweep_grid_loads_no_numpy(tmp_path, grid, text):
    """``sweep`` parses its ``--grid``, holds it to ``sweep.max_points`` and
    loads every point's config before numpy is imported, so a bad rate, an
    over-budget grid and an empty grid each exit 1 with numpy unloaded and
    no output directory made."""
    code = (
        "import contextlib, io, os, sys\n"
        "from fidelityq import cli\n"
        "grid, out, text = sys.argv[1:]\n"
        "err = io.StringIO()\n"
        "with contextlib.redirect_stderr(err):\n"
        "    status = cli.main(['sweep', '--config', 'tiny', '--grid=' + grid, '--out', out])\n"
        "assert status == 1 and text in err.getvalue(), (status, err.getvalue())\n"
        "assert not os.path.exists(out)\n"
        "loaded = sorted(n for n in sys.modules if n.split('.')[0] == 'numpy')\n"
        "assert not loaded, loaded\n"
    )
    run = run_fresh(code, grid, str(tmp_path / "out"), text)
    assert run.returncode == 0, run.stderr
