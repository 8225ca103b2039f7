"""YAML run configurations.

A configuration file fills in any subset of the schema below; everything
else comes from the built-in defaults. Unknown keys are rejected with the
full dotted path so typos surface immediately instead of silently running
the default. Several ready-made configurations ship with the package and
can be addressed by name.
"""

import hashlib
import json
import math
import numbers
import os
from dataclasses import dataclass
from importlib import resources

import yaml

from .actions import Action
from .cogchain import ChainRates, CogGrid
from .errors import ConfigError
from .model import ModelParams, build_model
from .sojourn import SERVICE_FAMILIES, ServiceFamily, SkipWaitSpec

DEFAULTS = {
    "name": "default",
    "queue": {
        "capacity": 30,
        "arrival_rate": 0.45,
    },
    "cognition": {
        "intervals": 10,
        "star_index": 6,
        "step_scale": 0.8,
        "unit_rates": {},
    },
    "service": {
        "family": "beta-binomial",
        "base_mean": {"normal": 12.0, "high": 20.0},
        "curvature": {"normal": 60.0, "high": 80.0},
        "dispersion": 8.0,
        "support": 100,
    },
    "skip": {
        "duration": 2,
    },
    "rest": {
        "cap_factor": 50,
    },
    "economics": {
        "holding_cost": 0.015,
        "reward_normal": 6.0,
        "reward_high": 9.5,
        "discount": 0.96,
    },
    "solver": {
        "epsilon": 1e-9,
        "max_sweeps": 5000,
    },
    "simulation": {
        "episodes": 10000,
        "seed": 7,
        "starts": None,
        "bias_ratio": 0.1,
        "pilot_episodes": 256,
    },
    "analysis": {
        "buffer_fraction": 0.2,
    },
    "sweep": {
        "arrival_rates": [],
        "max_points": 64,
    },
}

# sections whose keys are data rather than schema and get validated on
# their own terms
_OPEN_SECTIONS = {
    "cognition.unit_rates",
    "service.base_mean",
    "service.curvature",
}

_ACTION_NAMES = {
    "wait": Action.WAIT,
    "rest": Action.REST,
    "skip": Action.SKIP,
    "normal": Action.NORMAL,
    "high": Action.HIGH,
}

_FIDELITY_NAMES = {"normal": Action.NORMAL, "high": Action.HIGH}

# keys read as integers; int() would silently truncate 3.7 or accept "3"
_INTEGER_KEYS = (
    "queue.capacity", "cognition.intervals", "cognition.star_index", "service.support",
    "skip.duration", "rest.cap_factor", "solver.max_sweeps", "simulation.episodes",
    "simulation.pilot_episodes", "simulation.seed", "sweep.max_points",
)


def _merge(defaults, override, path=""):
    if not isinstance(override, dict):
        raise ConfigError(
            f"expected a mapping at '{path or '<top>'}', "
            f"got {type(override).__name__}"
        )
    merged = {}
    for key, default_value in defaults.items():
        here = f"{path}.{key}" if path else key
        if key not in override:
            merged[key] = default_value
        elif isinstance(default_value, dict) and here not in _OPEN_SECTIONS:
            merged[key] = _merge(default_value, override[key], here)
        else:
            merged[key] = override[key]
    for key in override:
        if key not in defaults:
            here = f"{path}.{key}" if path else key
            raise ConfigError(f"unknown configuration key '{here}'")
    return merged


def _action_dict(section, names, path):
    out = {}
    if not isinstance(section, dict):
        raise ConfigError(f"expected a mapping at '{path}'")
    for key, value in section.items():
        if key not in names:
            raise ConfigError(
                f"unknown key '{path}.{key}'; expected one of "
                + ", ".join(sorted(names))
            )
        out[names[key]] = value
    return out


@dataclass(frozen=True)
class RunConfig:
    """A fully merged configuration plus its identity hash."""

    name: str
    data: dict
    digest: str

    @property
    def solver(self):
        return self.data["solver"]

    @property
    def simulation(self):
        return self.data["simulation"]

    @property
    def analysis(self):
        return self.data["analysis"]

    @property
    def sweep(self):
        return self.data["sweep"]

    def model_params(self, arrival_rate=None):
        """Assemble model parameters; ``arrival_rate`` overrides the
        configured one (used by sweeps)."""
        d = self.data
        grid = CogGrid(
            n_intervals=int(d["cognition"]["intervals"]),
            star_index=int(d["cognition"]["star_index"]),
        )
        overrides = {}
        for action, pair in _action_dict(
            d["cognition"]["unit_rates"], _ACTION_NAMES, "cognition.unit_rates"
        ).items():
            if not isinstance(pair, (list, tuple)) or len(pair) != 2:
                raise ConfigError(
                    "cognition.unit_rates entries must be [forward, backward]"
                )
            overrides[action] = (float(pair[0]), float(pair[1]))
        rates = ChainRates.default(
            step_scale=float(d["cognition"]["step_scale"]),
            overrides=overrides or None,
        )
        family = d["service"]["family"]
        if family not in SERVICE_FAMILIES:
            raise ConfigError(
                f"service.family must be one of {SERVICE_FAMILIES}, got {family!r}"
            )
        service = ServiceFamily(
            base_mean={
                a: float(v)
                for a, v in _action_dict(
                    d["service"]["base_mean"], _FIDELITY_NAMES, "service.base_mean"
                ).items()
            },
            curvature={
                a: float(v)
                for a, v in _action_dict(
                    d["service"]["curvature"], _FIDELITY_NAMES, "service.curvature"
                ).items()
            },
            dispersion=float(d["service"]["dispersion"]),
            support=int(d["service"]["support"]),
            family=family,
        )
        lam = d["queue"]["arrival_rate"] if arrival_rate is None else arrival_rate
        skip_wait = SkipWaitSpec(
            skip_time=int(d["skip"]["duration"]),
            arrival_rate=float(lam),
        )
        return ModelParams(
            queue_capacity=int(d["queue"]["capacity"]),
            grid=grid,
            rates=rates,
            service=service,
            skip_wait=skip_wait,
            holding_cost=float(d["economics"]["holding_cost"]),
            reward_normal=float(d["economics"]["reward_normal"]),
            reward_high=float(d["economics"]["reward_high"]),
            discount=float(d["economics"]["discount"]),
            rest_cap_factor=int(d["rest"]["cap_factor"]),
        )

    def build_model(self, arrival_rate=None):
        return build_model(self.model_params(arrival_rate))


def config_digest(data):
    """Stable identity of a merged configuration: sha256 of its canonical
    JSON form."""
    canonical = json.dumps(data, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def check_episode_count(name, episodes):
    """Reject a Monte-Carlo batch too small for a sample standard
    deviation, which needs two runs."""
    if episodes < 2:
        raise ConfigError(f"{name} must be at least 2, got {episodes}")
    return episodes


def _is_integer(x):
    """An integral value that is not a bool."""
    return isinstance(x, numbers.Integral) and not isinstance(x, bool)


def _check_integers(data):
    """Reject a non-integral value for any key read as an integer."""
    for key in _INTEGER_KEYS:
        section, name = key.split(".")
        value = data[section][name]
        if not _is_integer(value):
            raise ConfigError(f"{key} must be an integer, got {value!r}")


def _check_simulation(sim):
    """Reject Monte-Carlo settings the estimator cannot honour: the
    horizon targets a positive bias ratio, and both the main and the pilot
    batch need two runs. Settings that are not numbers are reported
    before the integer rule; the batch sizes are checked after it."""
    try:
        bias_ratio = float(sim["bias_ratio"])
        int(sim["episodes"]), int(sim["pilot_episodes"])
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"simulation settings must be numbers: {exc}") from exc
    if not 0 < bias_ratio < math.inf:
        raise ConfigError(
            f"simulation.bias_ratio must be positive and finite, got {bias_ratio!r}"
        )


def _check_analysis(analysis):
    """Reject a structural-check buffer outside [0, 1): it is the share of
    the top of the queue range that the checks leave out."""
    try:
        buffer_fraction = float(analysis["buffer_fraction"])
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"analysis.buffer_fraction must be a number: {exc}") from exc
    if not 0 <= buffer_fraction < 1:
        raise ConfigError(
            f"analysis.buffer_fraction must lie in [0, 1), got {buffer_fraction!r}"
        )


def check_start(start, capacity, intervals, what="start"):
    """Reject a start state off the model's grid: it must be an integer
    pair [q, cog] with 0 <= q <= capacity and 0 <= cog <= intervals.
    Returns the pair as Python ints."""
    if not (
        isinstance(start, (list, tuple))
        and len(start) == 2
        and all(_is_integer(x) for x in start)
        and 0 <= start[0] <= capacity
        and 0 <= start[1] <= intervals
    ):
        raise ConfigError(
            f"{what} {start!r} is not a state [q, cog] "
            f"with 0 <= q <= {capacity} and 0 <= cog <= {intervals}"
        )
    return int(start[0]), int(start[1])


def _check_starts(data):
    """Reject configured simulation start states off the model's grid."""
    starts = data["simulation"]["starts"]
    if not starts:
        return
    capacity = int(data["queue"]["capacity"])
    intervals = int(data["cognition"]["intervals"])
    for start in starts if isinstance(starts, (list, tuple)) else [starts]:
        check_start(start, capacity, intervals, what="simulation.starts entry")


def from_mapping(doc):
    """Merge a parsed document over the defaults and wrap it."""
    merged = _merge(DEFAULTS, doc or {})
    _check_simulation(merged["simulation"])
    _check_integers(merged)
    check_episode_count("simulation.episodes", merged["simulation"]["episodes"])
    check_episode_count("simulation.pilot_episodes", merged["simulation"]["pilot_episodes"])
    _check_analysis(merged["analysis"])
    _check_starts(merged)
    name = str(merged["name"])
    return RunConfig(name=name, data=merged, digest=config_digest(merged))


def load_config(path):
    """Read one YAML file into a run configuration."""
    with open(path) as fh:
        try:
            doc = yaml.safe_load(fh)
        except yaml.YAMLError as exc:
            raise ConfigError(f"could not parse {path}: {exc}") from exc
    if doc is None:
        doc = {}
    if not isinstance(doc, dict):
        raise ConfigError(f"{path} must contain a mapping at the top level")
    return from_mapping(doc)


def available_configs():
    """Names of the configurations shipped with the package."""
    root = resources.files(__package__) / "configs"
    return sorted(p.name[: -len(".yaml")] for p in root.iterdir()
                  if p.name.endswith(".yaml"))


def builtin_config(name):
    """Load a packaged configuration by name."""
    root = resources.files(__package__) / "configs"
    candidate = root / f"{name}.yaml"
    if not candidate.is_file():
        raise ConfigError(
            f"no built-in configuration named {name!r}; "
            f"available: {', '.join(available_configs())}"
        )
    doc = yaml.safe_load(candidate.read_text())
    return from_mapping(doc)


def resolve_config(spec=None):
    """Interpret a CLI ``--config`` value: a file path if a file exists there,
    otherwise a built-in name; ``None`` means the default configuration."""
    if spec is None:
        return from_mapping({})
    if os.path.isfile(spec):
        return load_config(spec)
    return builtin_config(spec)
