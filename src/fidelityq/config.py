"""YAML run configurations.

A configuration file fills in any subset of the schema below; everything
else comes from the built-in defaults. Unknown keys are rejected with the
full dotted path so typos surface immediately instead of silently running
the default. Each key's default also sets its type rule, applied once as
the override is merged, so the merged data hold typed values. Several
ready-made configurations ship with the package and can be addressed by
name.
"""

import hashlib
import json
import math
import numbers
import os
from dataclasses import dataclass
from importlib import resources

import yaml

from .actions import UNIT_RATES, Action
from .errors import ConfigError

# The sojourn laws' config-time rules live here, so a config resolves
# without numpy; ``sojourn`` imports them. TRUNCATION_TOL is the tail mass a
# truncated wait or neg-binomial law may drop. MAX_SUPPORT is the most points
# a law may have (the shipped configs reach 3,200) and, with skip.duration
# held to it, the longest sojourn: the tau layer has at most MAX_SUPPORT + 1.
TRUNCATION_TOL = 1e-6
MAX_SUPPORT = 10_000

SERVICE_FAMILIES = ("beta-binomial", "neg-binomial")

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

# the actions that move the cognitive chain; skipping leaves it in place
_CHAIN_NAMES = {a.name.lower(): a for a in UNIT_RATES}

_FIDELITY_NAMES = {"normal": Action.NORMAL, "high": Action.HIGH}


def _check_support(what, support):
    """Refuse a law of over ``MAX_SUPPORT`` points before allocating it."""
    if support > MAX_SUPPORT:
        raise ValueError(f"{what} needs {support} support points, over {MAX_SUPPORT}")


def wait_support(arrival_rate):
    """Points of the wait law at ``arrival_rate``: the support whose
    truncated geometric tail falls below the truncation tolerance. Raises
    ``ValueError`` over ``MAX_SUPPORT`` points, or when the chance of an
    arrival per step rounds to 0 or 1, so a rate can be refused before any
    law is built."""
    p = 1.0 - math.exp(-arrival_rate)
    # p rounds to 0 below ~1e-16 arrivals per step and to 1 above ~37
    if not 0 < p < 1:
        raise ValueError("arrival probability per step must be in (0,1)")
    support = max(1, math.ceil(math.log(TRUNCATION_TOL) / math.log1p(-p)))
    _check_support(f"the wait law at arrival rate {arrival_rate!r}", support)
    return support


def _is_integer(x):
    """An integral value that is not a bool."""
    return isinstance(x, numbers.Integral) and not isinstance(x, bool)


def _number(path, value):
    """A real number that is not a bool, or a string ``float()`` parses
    (PyYAML reads ``1e-9`` as a string), as a float."""
    if isinstance(value, (numbers.Real, str)) and not isinstance(value, bool):
        try:
            return float(value)
        except ValueError:
            pass
    raise ConfigError(f"{path} must be a number, got {value!r}")


def _pair(path, value):
    """A ``[forward, backward]`` pair of unit rates, as floats."""
    if not isinstance(value, (list, tuple)) or len(value) != 2:
        raise ConfigError(f"{path} must be a [forward, backward] pair, got {value!r}")
    return [_number(f"{path}[{i}]", x) for i, x in enumerate(value)]


# sections whose keys are action names rather than schema: the names each
# admits and the rule for one value
_OPEN_SECTIONS = {
    "cognition.unit_rates": (_CHAIN_NAMES, _pair),
    "service.base_mean": (_FIDELITY_NAMES, _number),
    "service.curvature": (_FIDELITY_NAMES, _number),
}


def _check_mapping(path, value):
    if not isinstance(value, dict):
        raise ConfigError(
            f"expected a mapping at '{path or '<top>'}', got {type(value).__name__}"
        )


def _typed(path, default, value):
    """``value`` converted by the type rule of its key, which the key's
    default sets (an open section merges over its default mapping); the
    range checks come later, in ``_check_ranges``."""
    if path in _OPEN_SECTIONS:
        names, rule = _OPEN_SECTIONS[path]
        _check_mapping(path, value)
        for key in value:
            if key not in names:
                raise ConfigError(
                    f"unknown key '{path}.{key}'; expected one of "
                    + ", ".join(sorted(names))
                )
        return {**default, **{key: rule(f"{path}.{key}", item) for key, item in value.items()}}
    if isinstance(default, dict):
        return _merge(default, value, path)
    if isinstance(default, int):
        if not _is_integer(value):
            raise ConfigError(f"{path} must be an integer, got {value!r}")
        return int(value)
    if isinstance(default, float):
        return _number(path, value)
    if isinstance(default, str):
        if not isinstance(value, str):
            raise ConfigError(f"{path} must be a string, got {value!r}")
        return value
    if isinstance(default, list):
        if not isinstance(value, (list, tuple)):
            raise ConfigError(f"{path} must be a list of numbers, got {value!r}")
        return [_number(f"{path}[{i}]", x) for i, x in enumerate(value)]
    return value  # simulation.starts, checked against the grid


def _merge(defaults, override, path=""):
    _check_mapping(path, override)
    merged = {}
    for key, default_value in defaults.items():
        here = f"{path}.{key}" if path else key
        if key in override:
            merged[key] = _typed(here, default_value, override[key])
        else:
            merged[key] = default_value
    for key in override:
        if key not in defaults:
            here = f"{path}.{key}" if path else key
            raise ConfigError(f"unknown configuration key '{here}'")
    return merged


def _by_action(section):
    """A loaded action-name section keyed by ``Action``."""
    return {Action[key.upper()]: value for key, value in section.items()}


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
        from .cogchain import ChainRates, CogGrid
        from .model import ModelParams
        from .sojourn import ServiceFamily
        d = self.data
        cognition, service, economics = d["cognition"], d["service"], d["economics"]
        lam = d["queue"]["arrival_rate"] if arrival_rate is None else arrival_rate
        return ModelParams(
            queue_capacity=d["queue"]["capacity"],
            grid=CogGrid(
                n_intervals=cognition["intervals"], star_index=cognition["star_index"]
            ),
            rates=ChainRates.default(
                step_scale=cognition["step_scale"],
                overrides=_by_action(cognition["unit_rates"]) or None,
            ),
            service=ServiceFamily(
                base_mean=_by_action(service["base_mean"]),
                curvature=_by_action(service["curvature"]),
                dispersion=service["dispersion"],
                support=service["support"],
                family=service["family"],
            ),
            skip_time=d["skip"]["duration"],
            arrival_rate=lam,
            holding_cost=economics["holding_cost"],
            reward_normal=economics["reward_normal"],
            reward_high=economics["reward_high"],
            discount=economics["discount"],
            rest_cap_factor=d["rest"]["cap_factor"],
        )

    def build_model(self, arrival_rate=None):
        return build_model(self.model_params(arrival_rate))


def build_model(params):
    """``model.build_model``, imported on first use: a config loads no numpy."""
    from . import model
    return model.build_model(params)


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


def check_arrival_rates(name, rates):
    """Reject a sweep rate that is not a number, not positive and finite,
    or so slow that its wait law would pass ``MAX_SUPPORT`` points, naming
    it as ``name[i]``; every rate is checked before any is solved. Returns
    the rates as floats."""
    checked = []
    for i, rate in enumerate(rates):
        rate = _number(f"{name}[{i}]", rate)
        if not 0 < rate < math.inf:
            raise ConfigError(f"{name}[{i}] must be positive and finite, got {rate!r}")
        try:
            wait_support(rate)
        except ValueError as exc:
            raise ConfigError(f"{name}[{i}]: {exc}") from None
        checked.append(rate)
    return checked


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


def _check_ranges(data):
    """Reject typed values the program cannot honour. Every comparison
    fails for NaN, so NaN is rejected wherever a range is checked."""
    family = data["service"]["family"]
    if family not in SERVICE_FAMILIES:
        raise ConfigError(
            f"service.family must be one of {SERVICE_FAMILIES}, got {family!r}"
        )
    arrival_rate = data["queue"]["arrival_rate"]
    if not 0 < arrival_rate < math.inf:
        raise ConfigError(
            f"queue.arrival_rate must be positive and finite, got {arrival_rate!r}"
        )
    sim = data["simulation"]
    # the horizon targets a positive bias ratio, and both the main and the
    # pilot batch need two runs
    check_episode_count("simulation.episodes", sim["episodes"])
    check_episode_count("simulation.pilot_episodes", sim["pilot_episodes"])
    if sim["seed"] < 0:
        raise ConfigError(f"simulation.seed must be nonnegative, got {sim['seed']}")
    bias_ratio = sim["bias_ratio"]
    if not 0 < bias_ratio < math.inf:
        raise ConfigError(
            f"simulation.bias_ratio must be positive and finite, got {bias_ratio!r}"
        )
    # the share of the top of the queue range the structural checks leave out
    buffer_fraction = data["analysis"]["buffer_fraction"]
    if not 0 <= buffer_fraction < 1:
        raise ConfigError(
            f"analysis.buffer_fraction must lie in [0, 1), got {buffer_fraction!r}"
        )
    # a skip lasts skip.duration steps, the longest sojourn of its law
    for key, value in (("service.support", data["service"]["support"]),
                       ("skip.duration", data["skip"]["duration"])):
        if value > MAX_SUPPORT:
            raise ConfigError(f"{key} must be at most {MAX_SUPPORT}, got {value}")
    epsilon, max_sweeps = data["solver"]["epsilon"], data["solver"]["max_sweeps"]
    if not 0 < epsilon < math.inf:
        raise ConfigError(f"solver.epsilon must be positive and finite, got {epsilon!r}")
    if max_sweeps < 1:
        raise ConfigError(f"solver.max_sweeps must be at least 1, got {max_sweeps}")
    sweep = data["sweep"]
    if sweep["max_points"] < 1:
        raise ConfigError(f"sweep.max_points must be at least 1, got {sweep['max_points']}")
    check_arrival_rates("sweep.arrival_rates", sweep["arrival_rates"])
    starts = sim["starts"]
    if starts is not None and not isinstance(starts, (list, tuple)):
        raise ConfigError(f"simulation.starts must be a list, got {starts!r}")
    for start in starts or []:
        check_start(start, data["queue"]["capacity"], data["cognition"]["intervals"],
                    what="simulation.starts entry")


def from_mapping(doc):
    """Merge a parsed document over the defaults, typed key by key, check
    the ranges and wrap it."""
    merged = _merge(DEFAULTS, doc or {})
    _check_ranges(merged)
    return RunConfig(name=merged["name"], data=merged, digest=config_digest(merged))


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
