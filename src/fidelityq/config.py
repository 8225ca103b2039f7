"""YAML run configurations.

A configuration file fills in any subset of the schema below; everything
else comes from the built-in defaults. Unknown keys are rejected with the
full dotted path so typos surface immediately instead of silently running
the default. Each key's default also sets its type rule, applied once as
the override is merged, so the merged data hold typed values. Several
ready-made configurations (``BUILTINS``) ship with the package and can be
addressed by name; they are Python data, so only a file loads PyYAML.
"""

import copy
import functools
import math
import numbers
import os

from .actions import UNIT_RATES, Action
from .errors import ConfigError, InvalidRatesError

# The sojourn laws' config-time rules live here, so a config resolves
# without numpy; ``sojourn`` and ``cogchain`` import them. TRUNCATION_TOL is
# the tail mass a truncated wait, neg-binomial or rest law may drop.
# MAX_SUPPORT is the most points a law may have (the shipped configs reach
# 3,200) and, with skip.duration held to it, the longest sojourn: the tau
# layer has at most MAX_SUPPORT + 1.
TRUNCATION_TOL = 1e-6
MAX_SUPPORT = 10_000
# the most bytes one table of the model may take (see _check_table_sizes)
MAX_TABLE_BYTES = 2**30

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

# the shipped configurations, each an override merged over DEFAULTS as a
# file holding it would be
BUILTINS = {
    # Reference desk: every fidelity level shows up in the optimal policy and
    # the queue stays comfortably stable.
    "default": {"name": "default"},
    # Heavy traffic: quick skips, arrivals fast enough that the queue almost
    # never drains under the optimal policy. The busy-regime value-gap bounds
    # and the monotonicity/unimodality shape checks are exercised here.
    "high_lambda": {
        "name": "high_lambda",
        "queue": {"arrival_rate": 0.6},
        "skip": {"duration": 1},
        "economics": {"holding_cost": 0.008},
        "simulation": {"episodes": 4000, "starts": [[20, 6]]},
    },
    # Slow everything: services take hundreds of steps, skips sixty, and the
    # fidelity gap between high and normal service dwarfs every discounted
    # continuation term. The sufficient condition for threshold structure
    # holds at every cognitive level, and the light-tail bound is satisfied by
    # every sojourn law, so the solved policy is certified end to end.
    "large_gap": {
        "name": "large_gap",
        "queue": {"capacity": 12, "arrival_rate": 0.012},
        "cognition": {
            "intervals": 2,
            "star_index": 1,
            "unit_rates": {"rest": [0.0, 0.008333333333333333]},
        },
        "service": {
            "family": "neg-binomial",
            "base_mean": {"normal": 250.0, "high": 395.0},
            "curvature": {"normal": 140.0, "high": 140.0},
            "dispersion": 3.0,
            "support": 3200,
        },
        "skip": {"duration": 60},
        "rest": {"cap_factor": 20},
        "economics": {
            "holding_cost": 0.001,
            "reward_normal": 6.0,
            "reward_high": 9.5,
            "discount": 0.96,
        },
        "simulation": {"episodes": 2000},
    },
    # Cheap skips under rising pressure. Sweeping the arrival rate upward
    # makes skipping reappear above the service band in some cognitive rows —
    # the non-threshold pattern that the sufficient condition deliberately
    # does not rule out (its margin is negative exactly there).
    "skip_cheap": {
        "name": "skip_cheap",
        "queue": {"arrival_rate": 1.0},
        "skip": {"duration": 1},
        "sweep": {"arrival_rates": [0.5, 1.0, 4.0]},
        "simulation": {"episodes": 2000},
    },
    # Smallest faithful instance: four queue slots, three cognitive levels,
    # single-step skips. Exact finite-horizon enumeration stays cheap here, so
    # cross-checks against the fixed point run in well under a second.
    "tiny": {
        "name": "tiny",
        "queue": {"capacity": 3, "arrival_rate": 0.5},
        "cognition": {
            "intervals": 2,
            "star_index": 1,
            "unit_rates": {"rest": [0.0, 0.8333333333333334]},
        },
        "service": {
            "base_mean": {"normal": 2.0, "high": 3.0},
            "curvature": {"normal": 0.5, "high": 1.0},
            "dispersion": 4.0,
            "support": 6,
        },
        "skip": {"duration": 1},
        "economics": {
            "holding_cost": 0.05,
            "reward_normal": 1.0,
            "reward_high": 2.0,
            "discount": 0.9,
        },
        "solver": {"epsilon": 1.0e-10},
        "simulation": {"episodes": 2000},
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
    law is built. A rate that is not positive is refused first."""
    if not arrival_rate > 0:
        raise ValueError("arrival rate must be positive")
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


def _is_count(x):
    """A positive integer that is not a bool."""
    return _is_integer(x) and x >= 1


def _is_positive(x):
    """A positive, finite value that is not a bool. Every comparison fails
    for NaN, so NaN is not positive."""
    return not isinstance(x, bool) and 0 < x < math.inf


def _integer(name, value):
    """Reject a value that is not an integer, or is a bool."""
    if not _is_integer(value):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    return value


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
        return int(_integer(path, value))
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


def _merge(defaults, doc, path=""):
    _check_mapping(path, doc)
    merged = {}
    for key, default_value in defaults.items():
        here = f"{path}.{key}" if path else key
        if key in doc:
            merged[key] = _typed(here, default_value, doc[key])
        else:
            merged[key] = copy.deepcopy(default_value)
    for key in doc:
        if key not in defaults:
            here = f"{path}.{key}" if path else key
            raise ConfigError(f"unknown configuration key '{here}'")
    return merged


def _by_action(section):
    """A loaded action-name section keyed by ``Action``."""
    return {Action[key.upper()]: value for key, value in section.items()}


def _refuse_first(rules, error=ConfigError):
    """Raise ``error(text)`` for the first ``(key, holds, text)`` rule that
    does not hold. The model's range rules below, one per parameter class,
    are applied by the class for library callers, who read the text as it
    stands, and by ``_check_ranges`` at load, which puts the exception's
    ``key`` in front of it."""
    for key, holds, text in rules:
        if not holds:
            exc = error(text)
            exc.key = key
            raise exc


def check_grid(n_intervals, star_index):
    """The cognitive grid's rule."""
    _refuse_first([
        ("cognition.intervals", n_intervals >= 2,
         "cognitive grid needs at least 2 intervals"),
        ("cognition.star_index", 0 < star_index < n_intervals,
         "resting level must be an interior grid point"),
    ])


def step_probs(step_scale, overrides=None):
    """Per-step ``(forward, backward)`` probabilities of each action that
    moves the chain: its unit rates (``UNIT_RATES``, or the pair in
    ``overrides``) times ``step_scale``."""
    rates = {**UNIT_RATES, **(overrides or {})}
    return {a: (pf * step_scale, pb * step_scale) for a, (pf, pb) in rates.items()}


def check_chain(probs, overridden=()):
    """The cognitive chain's rule on per-step ``probs[action] = (forward,
    backward)`` in ``UNIT_RATES`` order: stochastic rows, waiting and
    resting drift down, serving drifts up, high fidelity harder than normal.
    It raises ``InvalidRatesError``, keyed by ``cognition.unit_rates.<action>``
    for an action in ``overridden``, else by ``cognition.step_scale``."""
    keys = {a: f"cognition.unit_rates.{a.name.lower()}" if a in overridden
            else "cognition.step_scale" for a in probs}
    rules = []
    for action, (pf, pb) in probs.items():
        rules += [
            (keys[action], not (pf < 0 or pb < 0), f"negative rate for action {action}"),
            (keys[action], not pf + pb > 1.0,
             f"rates for action {action} sum to {pf + pb:.4f} > 1; "
             "per-step probabilities must leave a nonnegative stay-put mass"),
        ]
    for action, (pf, pb) in probs.items():
        down = action in (Action.WAIT, Action.REST)
        rules.append((keys[action], pb > pf if down else pf > pb,
                      f"{action} must drift {'downward' if down else 'upward'}"))
    high, normal = Action.HIGH, Action.NORMAL
    rules.append((keys[high] if high in overridden else keys[normal],
                  probs[high][0] > probs[normal][0],
                  "high fidelity must push the cognitive state harder than normal fidelity"))
    _refuse_first(rules, InvalidRatesError)


def check_service(base_mean, curvature, dispersion, support, family):
    """The service family's rule; ``base_mean`` and ``curvature`` are keyed
    by ``Action.NORMAL`` and ``Action.HIGH``."""
    _refuse_first([
        ("service.base_mean", base_mean[Action.HIGH] > base_mean[Action.NORMAL],
         "high fidelity must be slower than normal on average"),
        *((f"service.base_mean.{name}", base_mean[a] > 1.0,
           "base service means must exceed one time step")
          for name, a in _FIDELITY_NAMES.items()),
        *((f"service.curvature.{name}", 0 <= curvature[a] < math.inf,
           "curvature must be nonnegative and finite")
          for name, a in _FIDELITY_NAMES.items()),
        ("service.dispersion", _is_positive(dispersion),
         "dispersion must be positive and finite"),
        ("service.support", support >= 3, "service support cap must be at least 3"),
        ("service.family", family in SERVICE_FAMILIES,
         f"unknown service family {family!r}; expected one of {', '.join(SERVICE_FAMILIES)}"),
        ("service.dispersion", family != "neg-binomial" or float(dispersion).is_integer(),
         "neg-binomial dispersion is an integer shape"),
    ])


def check_model(queue_capacity, skip_time, holding_cost, reward_normal, reward_high,
                discount, rest_cap_factor):
    """The model's scalar rule; the arrival rate's is ``wait_support``."""
    rewards = "rewards must be finite and satisfy high > normal >= 0"
    _refuse_first([
        ("queue.capacity", queue_capacity >= 1, "queue capacity must be at least 1"),
        ("skip.duration", _is_count(skip_time), "skip_time must be a positive integer"),
        ("economics.holding_cost", _is_positive(holding_cost),
         "holding cost must be positive and finite"),
        ("economics.reward_normal", 0 <= reward_normal < math.inf, rewards),
        ("economics.reward_high", reward_normal < reward_high < math.inf, rewards),
        ("economics.discount", 0 < discount < 1, "discount factor must lie in (0,1)"),
        ("rest.cap_factor", rest_cap_factor >= 1, "rest cap factor must be at least 1"),
    ])


def _model_fields(data):
    """Merged config data as the parameter classes' fields: ``CogGrid``'s,
    ``ChainRates``' probabilities and the actions whose unit rates are
    overridden, ``ServiceFamily``'s, and ``ModelParams``' scalars but the
    arrival rate, whose rule is ``check_arrival_rate``."""
    cognition, service, economics = data["cognition"], data["service"], data["economics"]
    overridden = _by_action(cognition["unit_rates"])
    grid_fields = {"n_intervals": cognition["intervals"], "star_index": cognition["star_index"]}
    service_fields = {
        "base_mean": _by_action(service["base_mean"]),
        "curvature": _by_action(service["curvature"]),
        "dispersion": service["dispersion"],
        "support": service["support"],
        "family": service["family"],
    }
    scalars = {
        "queue_capacity": data["queue"]["capacity"],
        "skip_time": data["skip"]["duration"],
        "holding_cost": economics["holding_cost"],
        "reward_normal": economics["reward_normal"],
        "reward_high": economics["reward_high"],
        "discount": economics["discount"],
        "rest_cap_factor": data["rest"]["cap_factor"],
    }
    probs = step_probs(cognition["step_scale"], overridden)
    return grid_fields, probs, overridden, service_fields, scalars


class RunConfig:
    """A fully merged configuration plus its identity hash. Its attributes
    cannot be assigned, and ``data`` is read-only too: the hash is taken
    from it when ``digest`` is first read, so a config loads no hashlib."""

    def __init__(self, name, data):
        self.__dict__.update(name=name, data=data)

    def __setattr__(self, key, value):
        raise AttributeError(f"cannot assign to field {key!r}")

    def __delattr__(self, key):
        raise AttributeError(f"cannot delete field {key!r}")

    @functools.cached_property
    def digest(self):
        return config_digest(self.data)

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

    def model_params(self):
        """Assemble model parameters."""
        from .cogchain import ChainRates, CogGrid
        from .model import ModelParams
        from .sojourn import ServiceFamily
        grid, probs, _, service, scalars = _model_fields(self.data)
        return ModelParams(
            grid=CogGrid(**grid),
            rates=ChainRates(probs=probs),
            service=ServiceFamily(**service),
            arrival_rate=self.data["queue"]["arrival_rate"],
            **scalars,
        )

    def build_model(self):
        return build_model(self.model_params())


def build_model(params):
    """``model.build_model``, imported on first use: a config loads no numpy."""
    from . import model
    return model.build_model(params)


def config_digest(data):
    """Stable identity of a merged configuration: sha256 of its canonical
    JSON form. It imports hashlib and json on its first call, so a config
    loads without them."""
    import hashlib
    import json

    canonical = json.dumps(data, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def check_episode_count(name, episodes):
    """Reject a Monte-Carlo batch that is not an integer, or too small for
    a sample standard deviation, which needs two runs."""
    if _integer(name, episodes) < 2:
        raise ConfigError(f"{name} must be at least 2, got {episodes}")
    return episodes


def check_positive(name, value):
    """Reject a value that is not positive and finite, or is a bool. Every
    comparison fails for NaN, so NaN is rejected too."""
    if not _is_positive(value):
        raise ConfigError(f"{name} must be positive and finite, got {value!r}")
    return value


def check_count(name, value):
    """Reject a library caller's count that is not a positive integer."""
    if not _is_count(value):
        raise ConfigError(f"{name} must be a positive integer, got {value!r}")
    return value


def check_seed(name, seed):
    """Reject a seed that is not an integer, or is negative."""
    if _integer(name, seed) < 0:
        raise ConfigError(f"{name} must be nonnegative, got {seed}")
    return seed


def check_arrival_rate(name, rate):
    """Reject an arrival rate that is not positive and finite, or whose wait
    law ``wait_support`` refuses, naming it as ``name``."""
    check_positive(name, rate)
    try:
        wait_support(rate)
    except ValueError as exc:
        raise ConfigError(f"{name}: {exc}") from None
    return rate


def check_arrival_rates(name, rates):
    """``check_arrival_rate`` on each rate, read as a number and named
    ``name[i]``; every rate is checked before any is solved. Returns the
    rates as floats."""
    return [check_arrival_rate(f"{name}[{i}]", _number(f"{name}[{i}]", rate))
            for i, rate in enumerate(rates)]


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


def check_buffer_fraction(name, fraction):
    """Reject a share of the queue range to leave out that is not in [0, 1),
    naming it as ``name``."""
    if not 0 <= fraction < 1:
        raise ConfigError(f"{name} must lie in [0, 1), got {fraction!r}")
    return fraction


def check_queue_range(capacity, buffer_fraction):
    """Queue lengths the structural checks look at: q = 0 forces waiting
    and the top ``buffer_fraction`` of the range is excluded to keep the
    finite capacity from contaminating boundary states. A queue too short
    to keep any length raises ``ConfigError`` keyed by ``queue.capacity``;
    only the checks need a length, so the load does not apply this rule."""
    check_buffer_fraction("buffer fraction", buffer_fraction)
    hi = capacity - math.ceil(capacity * buffer_fraction)
    _refuse_first([("queue.capacity", hi >= 1,
                    "queue too short for the requested boundary buffer")])
    return range(1, hi + 1)


def _check_table_sizes(data):
    """Refuse a config whose model would allocate a float table over
    ``MAX_TABLE_BYTES``, sized from the config alone: the backup window
    (n_q x n_states), the step ladders (P^0 .. P^t of every chain-moving
    action, t up to the longest service or wait law) and the dense policy
    evaluation (n_states x n_states). The message starts with the key that
    sizes the table, for the dense one the key of the longer side."""
    n_q, n_cog = data["queue"]["capacity"] + 1, data["cognition"]["intervals"] + 1
    n_states = n_q * n_cog
    steps = max(data["service"]["support"], wait_support(data["queue"]["arrival_rate"])) + 1
    for key, table, size in (
        ("queue.capacity", "backup window", n_q * n_states * 8),
        ("cognition.intervals", "step ladders", steps * n_cog**2 * 8),
        ("queue.capacity" if n_q >= n_cog else "cognition.intervals",
         "dense policy evaluation", n_states**2 * 8),
    ):
        if size > MAX_TABLE_BYTES:
            raise ConfigError(
                f"{key}: the {table} would take {size:,} bytes, over {MAX_TABLE_BYTES:,}")


def _check_ranges(data):
    """Reject typed values the program cannot honour. Every comparison
    fails for NaN, so NaN is rejected wherever a range is checked."""
    grid, probs, overridden, service, scalars = _model_fields(data)
    try:
        check_grid(**grid)
        check_chain(probs, overridden)
        check_service(**service)
        check_model(**scalars)
    except (ConfigError, InvalidRatesError) as exc:
        raise ConfigError(f"{exc.key}: {exc}") from None
    check_arrival_rate("queue.arrival_rate", data["queue"]["arrival_rate"])
    sim = data["simulation"]
    # the horizon targets a positive bias ratio, and both the main and the
    # pilot batch need two runs
    check_episode_count("simulation.episodes", sim["episodes"])
    check_episode_count("simulation.pilot_episodes", sim["pilot_episodes"])
    check_seed("simulation.seed", sim["seed"])
    check_positive("simulation.bias_ratio", sim["bias_ratio"])
    # the share of the top of the queue range the structural checks leave out
    check_buffer_fraction("analysis.buffer_fraction", data["analysis"]["buffer_fraction"])
    # a skip lasts skip.duration steps, the longest sojourn of its law
    for key, value in (("service.support", data["service"]["support"]),
                       ("skip.duration", data["skip"]["duration"])):
        if value > MAX_SUPPORT:
            raise ConfigError(f"{key} must be at most {MAX_SUPPORT}, got {value}")
    _check_table_sizes(data)
    check_positive("solver.epsilon", data["solver"]["epsilon"])
    for key, value in (("solver.max_sweeps", data["solver"]["max_sweeps"]),
                       ("sweep.max_points", data["sweep"]["max_points"])):
        if value < 1:
            raise ConfigError(f"{key} must be at least 1, got {value}")
    check_arrival_rates("sweep.arrival_rates", data["sweep"]["arrival_rates"])
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
    return RunConfig(merged["name"], merged)


def override(cfg, changes):
    """``cfg`` with each dotted key of ``changes`` (``{"queue.arrival_rate":
    0.3}``) set in a copy of its data, loaded by ``from_mapping`` as a file
    holding them would be: every rule applies, and the digest is the copy's."""
    data = copy.deepcopy(cfg.data)
    for dotted, value in changes.items():
        *sections, key = dotted.split(".")
        node = data
        for section in sections:
            node = node.get(section) if isinstance(node, dict) else None
        if not isinstance(node, dict):
            raise ConfigError(f"unknown configuration key '{dotted}'")
        node[key] = value
    return from_mapping(data)


def load_config(path):
    """Read one YAML file into a run configuration."""
    import yaml

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
    return sorted(BUILTINS)


def builtin_config(name):
    """Load a packaged configuration by name. It loads from a copy, since
    ``simulation.starts`` is kept as given and would otherwise be shared."""
    if name not in BUILTINS:
        raise ConfigError(
            f"no built-in configuration named {name!r}; "
            f"available: {', '.join(available_configs())}"
        )
    return from_mapping(copy.deepcopy(BUILTINS[name]))


def resolve_config(spec=None):
    """Interpret a CLI ``--config`` value: a file path if a file exists there,
    otherwise a built-in name; ``None`` means the default configuration."""
    if spec is None:
        return from_mapping({})
    if os.path.isfile(spec):
        return load_config(spec)
    return builtin_config(spec)
