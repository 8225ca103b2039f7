"""Configuration loading, merging, and identity hashing."""

import copy
import inspect
import os
import re

import pytest

from fidelityq.actions import Action
from fidelityq.config import (
    DEFAULTS,
    MAX_SUPPORT,
    MAX_TABLE_BYTES,
    _merge,
    available_configs,
    builtin_config,
    config_digest,
    from_mapping,
    load_config,
    override,
    resolve_config,
)
from fidelityq.errors import ConfigError

WIDE_STATE = os.path.join(os.path.dirname(__file__), os.pardir, "bench", "wide_state.yaml")


class TestMerge:
    def test_empty_document_gives_defaults(self):
        cfg = from_mapping({})
        assert cfg.name == "default"
        assert cfg.data["queue"]["capacity"] == 30
        assert cfg.data["economics"]["discount"] == 0.96

    def test_partial_override_is_deep(self):
        cfg = from_mapping({"queue": {"arrival_rate": 0.9}})
        assert cfg.data["queue"]["arrival_rate"] == 0.9
        assert cfg.data["queue"]["capacity"] == DEFAULTS["queue"]["capacity"]
        assert cfg.data["service"] == DEFAULTS["service"]

    @pytest.mark.parametrize("section, given, value, kept", [
        ("base_mean", "normal", 15.0, "high"),
        ("curvature", "high", 90.0, "normal"),
    ])
    def test_partial_open_section_keeps_the_other_default(self, section, given, value, kept):
        cfg = from_mapping({"service": {section: {given: value}}})
        assert cfg.data["service"][section][given] == value
        assert cfg.data["service"][section][kept] == DEFAULTS["service"][section][kept]
        service = cfg.build_model().params.service
        assert getattr(service, section)[Action[kept.upper()]] == DEFAULTS["service"][section][kept]

    def test_loaded_data_shares_nothing_with_the_defaults(self):
        pristine = copy.deepcopy(DEFAULTS)
        cfg = from_mapping({})
        base = builtin_config("tiny")
        point = override(base, {"queue.arrival_rate": 0.3})
        for loaded in (cfg, point):
            loaded.data["sweep"]["arrival_rates"].append(0.3)
            loaded.data["solver"]["epsilon"] = 1.0
            loaded.data["service"]["base_mean"]["high"] = 99.0
        assert DEFAULTS == pristine
        fresh = from_mapping({})
        assert fresh.data == pristine and fresh.digest == config_digest(pristine)
        assert base.data == builtin_config("tiny").data
        assert config_digest(base.data) == base.digest

    def test_loaded_data_shares_nothing_with_the_builtins(self):
        pristine = {name: copy.deepcopy(builtin_config(name).data)
                    for name in ("high_lambda", "tiny")}
        builtin_config("high_lambda").data["simulation"]["starts"][0][0] = 0
        builtin_config("tiny").data["cognition"]["unit_rates"]["rest"][1] = 0.5
        for name, data in pristine.items():
            fresh = builtin_config(name)
            assert fresh.data == data and fresh.digest == config_digest(data)

    def test_unknown_top_level_key(self):
        with pytest.raises(ConfigError, match="unknown configuration key 'quue'"):
            from_mapping({"quue": {}})

    def test_unknown_nested_key_reports_path(self):
        with pytest.raises(ConfigError, match="'queue.capcity'"):
            from_mapping({"queue": {"capcity": 10}})

    def test_scalar_where_mapping_expected(self):
        with pytest.raises(ConfigError, match="expected a mapping at 'queue'"):
            from_mapping({"queue": 5})

    def test_fidelity_sections_reject_unknown_action(self):
        cases = [
            ({"service": {"base_mean": {"normal": 3.0, "turbo": 9.0}}},
             "service.base_mean.turbo"),
            # skipping does not move the chain, so it has no rates
            ({"cognition": {"unit_rates": {"skip": [0.0, 0.0]}}},
             "cognition.unit_rates.skip"),
        ]
        for doc, match in cases:
            with pytest.raises(ConfigError, match=match):
                from_mapping(doc)

    def test_unit_rates_reject_bad_pair(self):
        doc = {"cognition": {"unit_rates": {"rest": [0.1]}}}
        with pytest.raises(ConfigError, match="forward, backward"):
            from_mapping(doc).model_params()

    def test_unknown_family_rejected(self):
        doc = {"service": {"family": "zeta"}}
        with pytest.raises(ConfigError, match="service.family"):
            from_mapping(doc).model_params()

    @pytest.mark.parametrize(
        "sim, match",
        [
            ({"bias_ratio": 0.0}, "bias_ratio"),
            ({"bias_ratio": -0.1}, "bias_ratio"),
            ({"bias_ratio": float("inf")}, "bias_ratio"),
            ({"bias_ratio": "tiny"}, "simulation.bias_ratio must be a number"),
            ({"pilot_episodes": 1}, "pilot_episodes"),
            ({"pilot_episodes": 0}, "pilot_episodes"),
            ({"episodes": 1}, "simulation.episodes must be at least 2"),
            ({"episodes": 0}, "simulation.episodes must be at least 2"),
            ({"episodes": -3}, "simulation.episodes must be at least 2"),
            ({"episodes": "many"}, "simulation.episodes must be an integer"),
            ({"starts": [[-1, 0]]}, "simulation.starts"),
            ({"starts": [[99, 0]]}, "simulation.starts"),
            ({"starts": [[0, 11]]}, "simulation.starts"),
            ({"starts": [[1.5, 0]]}, "simulation.starts"),
            ({"starts": [[1, 0, 2]]}, "simulation.starts"),
            ({"starts": [5, 0]}, "simulation.starts"),
            ({"starts": "5,0"}, "simulation.starts"),
            ({"starts": False}, "simulation.starts must be a list"),
            ({"seed": -1}, "simulation.seed must be nonnegative, got -1"),
        ],
    )
    def test_simulation_settings_rejected(self, sim, match):
        with pytest.raises(ConfigError, match=match):
            from_mapping({"simulation": sim})

    @pytest.mark.parametrize(
        "sweep, match",
        [
            ({"max_points": 0}, "sweep.max_points must be at least 1, got 0"),
            ({"max_points": -3}, "sweep.max_points must be at least 1, got -3"),
            ({"arrival_rates": [0.3, float("nan")]},
             r"sweep.arrival_rates\[1\] must be positive and finite, got nan"),
            ({"arrival_rates": [float("inf")]},
             r"sweep.arrival_rates\[0\] must be positive and finite, got inf"),
            ({"arrival_rates": [0]},
             r"sweep.arrival_rates\[0\] must be positive and finite, got 0.0"),
            ({"arrival_rates": [0.3, -1]},
             r"sweep.arrival_rates\[1\] must be positive and finite, got -1.0"),
            # the wait law's support rule, applied when the config loads
            ({"arrival_rates": [0.3, 1e-6]},
             r"sweep.arrival_rates\[1\]: the wait law at arrival rate 1e-06 needs "
             rf"13815511 support points, over {MAX_SUPPORT}"),
            ({"arrival_rates": [1e-3]},
             r"sweep.arrival_rates\[0\]: the wait law at arrival rate 0.001 needs "
             rf"13816 support points, over {MAX_SUPPORT}"),
            ({"arrival_rates": [1e-300]},
             r"sweep.arrival_rates\[0\]: arrival probability per step must be in \(0,1\)"),
            ({"arrival_rates": [50.0]},
             r"sweep.arrival_rates\[0\]: arrival probability per step must be in \(0,1\)"),
        ],
    )
    def test_sweep_settings_rejected(self, sweep, match):
        with pytest.raises(ConfigError, match=f"^{match}$"):
            from_mapping({"sweep": sweep})

    @pytest.mark.parametrize(
        "rate, shown", [(float("nan"), "nan"), (float("inf"), "inf"), (0, "0.0"), (-0.3, "-0.3")]
    )
    def test_arrival_rate_must_be_positive_and_finite(self, rate, shown):
        with pytest.raises(
            ConfigError, match=f"^queue.arrival_rate must be positive and finite, got {shown}$"
        ):
            from_mapping({"queue": {"arrival_rate": rate}})

    # the sweep rates' wait-law rule, applied to the configured rate too
    @pytest.mark.parametrize(
        "rate, match",
        [
            (1e-6, "the wait law at arrival rate 1e-06 needs "
                   rf"13815511 support points, over {MAX_SUPPORT}"),
            (1e-3, "the wait law at arrival rate 0.001 needs "
                   rf"13816 support points, over {MAX_SUPPORT}"),
            (50.0, r"arrival probability per step must be in \(0,1\)"),
            (1e-300, r"arrival probability per step must be in \(0,1\)"),
        ],
        ids=["1e-6", "1e-3", "50", "1e-300"],
    )
    def test_arrival_rate_needs_a_wait_law(self, rate, match):
        with pytest.raises(ConfigError, match=f"^queue.arrival_rate: {match}$"):
            from_mapping({"queue": {"arrival_rate": rate}})

    @pytest.mark.parametrize(
        "solver, match",
        [
            ({"epsilon": float("nan")}, "solver.epsilon must be positive and finite, got nan"),
            ({"epsilon": float("inf")}, "solver.epsilon must be positive and finite, got inf"),
            ({"epsilon": 0}, "solver.epsilon must be positive and finite, got 0.0"),
            ({"epsilon": -1.0}, "solver.epsilon must be positive and finite, got -1.0"),
            ({"max_sweeps": 0}, "solver.max_sweeps must be at least 1, got 0"),
        ],
    )
    def test_solver_settings_rejected(self, solver, match):
        with pytest.raises(ConfigError, match=f"^{match}$"):
            from_mapping({"solver": solver})

    def test_service_support_is_bounded(self):
        assert from_mapping({"service": {"support": MAX_SUPPORT}})
        with pytest.raises(
            ConfigError, match=f"^service.support must be at most {MAX_SUPPORT}, got 10001$"
        ):
            from_mapping({"service": {"support": MAX_SUPPORT + 1}})

    def test_skip_duration_is_bounded(self):
        # the model's sojourn-length map is as long as the longest sojourn,
        # so a skip past the bound is refused before anything is built
        assert from_mapping({"skip": {"duration": MAX_SUPPORT}})
        with pytest.raises(
            ConfigError, match=f"^skip.duration must be at most {MAX_SUPPORT}, got 10001$"
        ):
            from_mapping({"skip": {"duration": MAX_SUPPORT + 1}})

    @pytest.mark.parametrize("load", [
        # a 5.1 MB backup window and a 56 MB dense evaluation
        lambda: override(builtin_config("high_lambda"), {"queue.capacity": 240}),
        lambda: load_config(WIDE_STATE),
        # step ladders of 8,192 powers of a 128-level chain: exactly the limit
        lambda: from_mapping({"queue": {"capacity": 3}, "cognition": {"intervals": 127},
                              "service": {"support": 8191}}),
    ], ids=["high_lambda-capacity-240", "wide_state", "ladders-at-the-limit"])
    def test_table_sizes_accepted(self, load):
        load()

    @pytest.mark.parametrize("doc, match", [
        ({"queue": {"capacity": 100000}},
         "queue.capacity: the backup window would take 880,017,600,088 bytes"),
        ({"cognition": {"intervals": 3000}},
         "cognition.intervals: the step ladders would take 7,276,848,808 bytes"),
        ({"queue": {"capacity": 3}, "cognition": {"intervals": 127},
          "service": {"support": 8192}},
         "cognition.intervals: the step ladders would take 1,073,872,896 bytes"),
        ({"queue": {"capacity": 199}, "cognition": {"intervals": 59}},
         "queue.capacity: the dense policy evaluation would take 1,152,000,000 bytes"),
        ({"queue": {"capacity": 30}, "cognition": {"intervals": 1000}},
         "cognition.intervals: the dense policy evaluation would take 7,703,383,688 bytes"),
    ])
    def test_table_sizes_refused(self, doc, match):
        with pytest.raises(ConfigError, match=f"^{re.escape(match)}, over {MAX_TABLE_BYTES:,}$"):
            from_mapping(doc)

    def test_simulation_settings_accepted(self):
        cfg = from_mapping(
            {"simulation": {"bias_ratio": "1e-4", "pilot_episodes": 2, "episodes": 2,
                            "starts": [[0, 0], [30, 10]]}}
        )
        assert cfg.simulation["pilot_episodes"] == 2
        assert cfg.simulation["episodes"] == 2
        assert cfg.simulation["starts"] == [[0, 0], [30, 10]]


    @pytest.mark.parametrize(
        "fraction, match",
        [
            (-0.5, r"must lie in \[0, 1\), got -0.5"),
            (1.0, r"must lie in \[0, 1\), got 1.0"),
            (float("nan"), r"must lie in \[0, 1\), got nan"),
            ("most", "must be a number"),
            (None, "must be a number"),
            ([0.2], "must be a number"),
        ],
    )
    def test_buffer_fraction_rejected(self, fraction, match):
        with pytest.raises(ConfigError, match=f"analysis.buffer_fraction {match}"):
            from_mapping({"analysis": {"buffer_fraction": fraction}})

    @pytest.mark.parametrize("fraction", [0, 0.0, 0.5, 0.999])
    def test_buffer_fraction_accepted(self, fraction):
        cfg = from_mapping({"analysis": {"buffer_fraction": fraction}})
        assert cfg.analysis["buffer_fraction"] == fraction


class TestDigest:
    def test_digest_is_sha256_hex(self):
        cfg = from_mapping({})
        assert len(cfg.digest) == 64
        assert int(cfg.digest, 16) >= 0

    def test_digest_stable_across_loads(self):
        assert from_mapping({}).digest == from_mapping({}).digest

    def test_digest_tracks_content(self):
        a = from_mapping({})
        b = from_mapping({"queue": {"arrival_rate": 0.46}})
        assert a.digest != b.digest

    def test_digest_ignores_key_order(self):
        a = config_digest({"x": 1, "y": 2})
        b = config_digest({"y": 2, "x": 1})
        assert a == b


class TestBuiltins:
    def test_all_names_listed(self):
        names = available_configs()
        assert names == sorted(names)
        for expected in ["default", "tiny", "high_lambda", "large_gap", "skip_cheap"]:
            assert expected in names

    @pytest.mark.parametrize("name", ["default", "tiny", "high_lambda",
                                      "large_gap", "skip_cheap"])
    def test_each_builtin_loads_and_builds_params(self, name):
        cfg = builtin_config(name)
        assert cfg.name == name
        params = cfg.model_params()
        assert params.queue_capacity >= 1

    def test_unknown_builtin_lists_alternatives(self):
        with pytest.raises(ConfigError, match="available: .*default"):
            builtin_config("nonesuch")

    # shipped configs set every action of each open section, so merging
    # those sections over their defaults leaves these digests as they were
    DIGESTS = {
        "default": "a8f9cf19c8ff08e57d890b22afb2277e214fe610b82f65c1b89f00e88ed6d087",
        "high_lambda": "975e0a716a65bc8c32833adc47f9da76be3ccd851ddb153a2612101db6653d95",
        "large_gap": "72ab9d4435d121b8b370e97aac1dcf6433afeb57b3de105ff7fe5866a3a9b111",
        "skip_cheap": "2ba9dbe2b8f142068c0fcc2405e6099792c9232460ffa2488c9e17b32bad83de",
        "tiny": "5a0d95973b10f5fb8a32d10e52e4ddc24635a0cb08073744ede5a5a43a3d2cb6",
    }

    @pytest.mark.parametrize("name", sorted(DIGESTS))
    def test_builtin_digests_are_pinned(self, name):
        assert builtin_config(name).digest == self.DIGESTS[name]

    def test_builtin_default_matches_bare_defaults(self):
        assert builtin_config("default").digest == from_mapping({}).digest

    @pytest.mark.parametrize("read_first", [False, True])
    def test_fields_cannot_be_assigned(self, read_first):
        # the digest is taken from the data when first read, so neither the
        # data nor the digest can be replaced before or after that
        cfg = builtin_config("tiny")
        if read_first:
            assert cfg.digest == self.DIGESTS["tiny"]
        for field in ("name", "data", "digest"):
            with pytest.raises(AttributeError, match=f"cannot assign to field '{field}'"):
                setattr(cfg, field, None)
            with pytest.raises(AttributeError, match=f"cannot delete field '{field}'"):
                delattr(cfg, field)
        assert cfg.name == "tiny" and cfg.digest == self.DIGESTS["tiny"]

    @pytest.mark.parametrize("name", sorted(DIGESTS))
    def test_arrival_rate_override_digest_is_the_changed_configs(self, name):
        cfg = builtin_config(name)
        same = override(cfg, {"queue.arrival_rate": cfg.data["queue"]["arrival_rate"]})
        assert same.digest == self.DIGESTS[name]
        data = copy.deepcopy(cfg.data)
        data["queue"]["arrival_rate"] = 0.3
        changed = override(cfg, {"queue.arrival_rate": 0.3})
        assert changed.digest == from_mapping(data).digest != self.DIGESTS[name]
        assert changed.data == data
        assert cfg.digest == self.DIGESTS[name]


class TestOverride:
    def test_unknown_key_refused_with_its_dotted_path(self):
        cfg = builtin_config("tiny")
        with pytest.raises(ConfigError, match="unknown configuration key 'queue.arival_rate'"):
            override(cfg, {"queue.arival_rate": 0.3})
        for key in ("queu.arrival_rate", "queue.capacity.slots"):
            with pytest.raises(ConfigError, match=f"unknown configuration key '{key}'"):
                override(cfg, {key: 0.3})

    def test_range_rule_applies(self):
        with pytest.raises(ConfigError,
                           match=re.escape("economics.discount: discount factor must lie in (0,1)")):
            override(from_mapping({}), {"economics.discount": 1.5})

    def test_type_rule_applies(self):
        with pytest.raises(ConfigError, match="queue.capacity must be an integer, got 3.5"):
            override(from_mapping({}), {"queue.capacity": 3.5})

    def test_simulation_starts_override_loads(self):
        cfg = override(builtin_config("high_lambda"), {"simulation.starts": [[1, 2], [5, 3]]})
        assert cfg.simulation["starts"] == [[1, 2], [5, 3]]

    def test_partial_open_section_keeps_the_other_fidelity(self):
        base = builtin_config("tiny")
        cfg = override(base, {"service.base_mean.high": 3.5})
        assert cfg.data["service"]["base_mean"] == {
            "normal": base.data["service"]["base_mean"]["normal"], "high": 3.5}


class TestModelParams:
    def test_arrival_rate_override_for_sweeps(self):
        cfg = from_mapping({})
        base = cfg.model_params()
        swept = override(cfg, {"queue.arrival_rate": 1.5}).model_params()
        assert base.arrival_rate == 0.45
        assert swept.arrival_rate == 1.5
        assert swept.queue_capacity == base.queue_capacity

    def test_unit_rate_override_reaches_chain(self):
        doc = {"cognition": {"unit_rates": {"rest": [0.0, 0.5]}}}
        params = from_mapping(doc).model_params()
        pf, pb = params.rates.probs[Action.REST]
        assert pf == 0.0
        assert pb == pytest.approx(0.5 * 0.8)

    def test_large_gap_uses_heavy_service_family(self):
        params = builtin_config("large_gap").model_params()
        assert params.service.family == "neg-binomial"
        assert params.skip_time == 60


class TestFiles:
    def test_load_from_file(self, tmp_path):
        path = tmp_path / "run.yaml"
        path.write_text("name: custom\nqueue:\n  capacity: 5\n")
        cfg = load_config(path)
        assert cfg.name == "custom"
        assert cfg.data["queue"]["capacity"] == 5

    def test_empty_file_is_defaults(self, tmp_path):
        path = tmp_path / "empty.yaml"
        path.write_text("")
        assert load_config(path).digest == from_mapping({}).digest

    def test_non_mapping_rejected(self, tmp_path):
        path = tmp_path / "list.yaml"
        path.write_text("- 1\n- 2\n")
        with pytest.raises(ConfigError, match="mapping at the top level"):
            load_config(path)

    def test_bad_yaml_rejected(self, tmp_path):
        path = tmp_path / "broken.yaml"
        path.write_text("queue: [unclosed\n")
        with pytest.raises(ConfigError, match="could not parse"):
            load_config(path)

    def test_resolve_prefers_existing_path(self, tmp_path):
        path = tmp_path / "default"  # shadows the builtin name
        path.write_text("name: shadowed\n")
        assert resolve_config(str(path)).name == "shadowed"
        assert resolve_config("default").name == "default"
        assert resolve_config(None).digest == from_mapping({}).digest

    def test_directory_with_a_builtin_name_is_not_a_config(self, tmp_path, monkeypatch):
        # per-config output directories are often named after the config
        (tmp_path / "tiny").mkdir()
        monkeypatch.chdir(tmp_path)
        assert resolve_config("tiny").digest == builtin_config("tiny").digest


INTEGER_KEYS = [
    "queue.capacity",
    "cognition.intervals",
    "cognition.star_index",
    "service.support",
    "skip.duration",
    "rest.cap_factor",
    "solver.max_sweeps",
    "simulation.episodes",
    "simulation.pilot_episodes",
    "simulation.seed",
    "sweep.max_points",
]


class TestIntegerKeys:
    @pytest.mark.parametrize("value", [3.7, True, "3"], ids=["float", "bool", "string"])
    @pytest.mark.parametrize("key", INTEGER_KEYS)
    def test_non_integral_value_rejected(self, key, value):
        section, name = key.split(".")
        with pytest.raises(ConfigError, match=rf"^{re.escape(key)} must be an integer"):
            from_mapping({section: {name: value}})


def nested(key, value):
    """A document that sets the dotted ``key`` to ``value``."""
    doc = value
    for part in reversed(key.split(".")):
        doc = {part: doc}
    return doc


def read(data, key):
    """The value at a dotted ``key``, where ``name[i]`` is a list entry."""
    for part in re.split(r"[.[]", key):
        data = data[int(part[:-1])] if part.endswith("]") else data[part]
    return data


def dotted_keys(tree, prefix=""):
    for key, value in tree.items():
        yield prefix + key
        if isinstance(value, dict):
            yield from dotted_keys(value, f"{prefix}{key}.")


# every number slot of the schema: the key an error names, and a document
# that puts a value there
NUMBER_SLOTS = {
    **{
        key: (lambda v, key=key: nested(key, v))
        for key in dotted_keys(DEFAULTS)
        if isinstance(read(DEFAULTS, key), float)
    },
    "cognition.unit_rates.rest[1]":
        lambda v: {"cognition": {"unit_rates": {"rest": [0.0, v]}}},
    "sweep.arrival_rates[0]": lambda v: {"sweep": {"arrival_rates": [v]}},
}


class TestFloatKeys:
    @pytest.mark.parametrize(
        "value", [True, "many", [0.5]], ids=["bool", "string", "list"]
    )
    @pytest.mark.parametrize("slot", NUMBER_SLOTS)
    def test_non_number_rejected(self, slot, value):
        with pytest.raises(ConfigError, match=rf"^{re.escape(slot)} must be a number"):
            from_mapping(NUMBER_SLOTS[slot](value))

    @pytest.mark.parametrize("slot", NUMBER_SLOTS)
    def test_integer_loads_as_float(self, slot):
        # the type rule applies as the override merges, before the range
        # rules; no integer lies in the range of economics.discount or, at
        # the default unit rates, of cognition.step_scale, so the merged
        # data are read
        loaded = read(_merge(DEFAULTS, NUMBER_SLOTS[slot](1)), slot)
        assert type(loaded) is float and loaded == 1

    # in range: an arrival rate of 1e-4 would need a 138,156-point wait
    # law, and high fidelity must be slower and pay more than normal
    IN_RANGE_TEXT = {
        "queue.arrival_rate": "1e-1",
        "sweep.arrival_rates[0]": "1e-1",
        "service.base_mean.normal": "1.5e1",
        "service.base_mean.high": "2.5e1",
        "economics.reward_high": "1e1",
    }

    @pytest.mark.parametrize("slot", NUMBER_SLOTS)
    def test_numeric_string_loads_as_float(self, slot):
        text = self.IN_RANGE_TEXT.get(slot, "1e-4")
        loaded = read(from_mapping(NUMBER_SLOTS[slot](text)).data, slot)
        assert type(loaded) is float and loaded == float(text)

    def test_yaml_exponent_without_a_dot_loads_as_float(self, tmp_path):
        # YAML 1.1, which PyYAML follows, reads 1e-9 as a string
        path = tmp_path / "run.yaml"
        path.write_text("solver: {epsilon: 1e-9}\n")
        epsilon = load_config(path).solver["epsilon"]
        assert type(epsilon) is float and epsilon == 1e-9

    @pytest.mark.parametrize("doc, match", [
        ({"name": 5}, "name must be a string, got 5"),
        ({"service": {"family": 3}}, "service.family must be a string, got 3"),
    ])
    def test_string_keys_reject_numbers(self, doc, match):
        with pytest.raises(ConfigError, match=match):
            from_mapping(doc)


@pytest.mark.parametrize("key", list(dotted_keys(DEFAULTS)))
def test_true_rejected_for_every_key(key):
    with pytest.raises(ConfigError, match=re.escape(key)):
        from_mapping(nested(key, True))


def test_library_defaults_are_the_config_defaults():
    """A library call with the defaults runs what a default config runs."""
    from fidelityq import simulate, solver, structure

    def default(func, name):
        return inspect.signature(func).parameters[name].default

    assert default(solver.value_iteration, "epsilon") == DEFAULTS["solver"]["epsilon"]
    assert default(solver.value_iteration, "max_sweeps") == DEFAULTS["solver"]["max_sweeps"]
    estimate, sim = simulate.PolicySampler.estimate, DEFAULTS["simulation"]
    assert default(estimate, "bias_ratio") == sim["bias_ratio"]
    assert default(estimate, "pilot_episodes") == sim["pilot_episodes"]
    graders = [f for _, f in inspect.getmembers(structure, inspect.isfunction)
               if "buffer_fraction" in inspect.signature(f).parameters]
    assert len(graders) >= 5
    for func in graders:
        assert default(func, "buffer_fraction") == DEFAULTS["analysis"]["buffer_fraction"]
