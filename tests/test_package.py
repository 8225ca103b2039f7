"""The package's exports: config names load with ``import fidelityq``,
the numerical ones (and numpy with them) on first access."""

import importlib
import os
import subprocess
import sys

import pytest

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
    every shipped config and on a file config with sweep rates (checked by
    the wait-law support rule) leave numpy unloaded; the first build loads
    it, and the model solves."""
    path = tmp_path / "sweep.yaml"
    path.write_text("name: sweep\nsweep: {arrival_rates: [0.3, 0.5]}\n")
    code = (
        "import sys, warnings\n"
        "warnings.simplefilter('ignore')\n"
        "import fidelityq\n"
        "cfgs = [fidelityq.resolve_config(n) for n in fidelityq.available_configs()]\n"
        "cfg = fidelityq.resolve_config(sys.argv[1])\n"
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


@pytest.mark.parametrize("rate", ["1.0e-6", "50.0"])
def test_refusing_an_arrival_rate_loads_no_numpy(tmp_path, rate):
    """A file config whose arrival rate has no wait law is refused when it
    loads, naming the key, before numpy is imported."""
    path = tmp_path / "rate.yaml"
    path.write_text(f"queue: {{arrival_rate: {rate}}}\n")
    code = (
        "import sys, fidelityq\n"
        "try:\n"
        "    fidelityq.resolve_config(sys.argv[1])\n"
        "except fidelityq.errors.ConfigError as exc:\n"
        "    assert str(exc).startswith('queue.arrival_rate: '), exc\n"
        "else:\n"
        "    raise AssertionError('loaded')\n"
        "loaded = sorted(n for n in sys.modules if n.split('.')[0] == 'numpy')\n"
        "assert not loaded, loaded\n"
    )
    run = run_fresh(code, str(path))
    assert run.returncode == 0, run.stderr
