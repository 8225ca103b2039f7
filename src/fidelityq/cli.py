"""Command-line front end.

Subcommands cover the working loop: ``solve`` writes the value surface
and policy with rendered heatmaps, ``check`` writes the structural
reports, ``simulate`` rolls out the solved policy, ``sweep`` re-solves
across arrival rates, and ``export-moments`` dumps the sojourn statistics
table. Every output file starts with comment lines carrying the
configuration digest (and the seed where randomness is involved), and all
numeric formatting is deterministic, so identical inputs give identical
bytes.

Exit codes: 0 success, 1 invalid input, 2 violated structural guarantee,
3 solver did not converge.
"""

import argparse
import json
import os
import sys
import warnings
from dataclasses import asdict

import numpy as np

from .config import check_arrival_rates, check_episode_count, check_seed, resolve_config
from .errors import (
    ConfigError,
    FidelityQError,
    GridTooLargeError,
    GuaranteeViolationError,
    PolicyMismatchError,
)
from .simulate import EpochRecord, PolicySampler
from .solver import validate_policy, value_iteration
from .structure import checked_queue_range, enforce_guarantee, grade, light_tail_laws
from .svgplot import policy_heatmap, value_heatmap


def _fmt(x):
    """Deterministic scalar formatting for CSV cells."""
    if isinstance(x, (float, np.floating)):
        return repr(float(x))
    if x is None:
        return ""
    return str(x)


def _write_csv(path, comments, header, rows):
    lines = [f"# {line}" for line in comments]
    lines.append(",".join(header))
    for row in rows:
        lines.append(",".join(_fmt(cell) for cell in row))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _write_json(path, payload):
    # a non-finite float raises ValueError (exit 1) before the file is
    # opened, instead of writing a bare NaN or Infinity
    text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    with open(path, "w") as fh:
        fh.write(text + "\n")


def _outdir(args):
    os.makedirs(args.out, exist_ok=True)
    return args.out


def _build_model(cfg, arrival_rate=None):
    """The config's model, at ``arrival_rate`` if one is given. Each model
    warning is printed as one stderr line, ``warning:`` or, for a swept
    rate, ``warning at arrival rate R:``; warnings of other categories keep
    their filters."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", UserWarning)
        model = cfg.build_model(arrival_rate=arrival_rate)
    where = "" if arrival_rate is None else f" at arrival rate {arrival_rate!r}"
    for warning in caught:
        print(f"warning{where}: {warning.message}", file=sys.stderr)
    return model


def _solve(cfg, model):
    return value_iteration(
        model, epsilon=cfg.solver["epsilon"], max_sweeps=cfg.solver["max_sweeps"]
    )


def _sim_settings(cfg, args):
    sim = cfg.simulation
    if args.episodes is None:
        episodes = sim["episodes"]
    else:
        episodes = check_episode_count("--episodes", args.episodes)
    seed = sim["seed"] if args.seed is None else check_seed("--seed", args.seed)
    return episodes, seed


def _estimate(cfg, sampler, start, episodes, seed):
    sim = cfg.simulation
    return sampler.estimate(
        start,
        episodes=episodes,
        seed=seed,
        bias_ratio=sim["bias_ratio"],
        pilot_episodes=sim["pilot_episodes"],
    )


# per-level threshold columns shared by thresholds.csv and sweep.csv
_THRESHOLD_COLUMNS = (
    "q1", "q2", "q3", "is_threshold", "guaranteed", "switch_margin", "violations"
)


def _threshold_cells(report):
    """``_THRESHOLD_COLUMNS`` of each level of a ``StructureReport``."""
    thresholds = report.thresholds
    return [
        (
            float(row.q1),
            float(row.q2),
            float(row.q3) if row.q3 is not None else None,
            row.is_threshold,
            guaranteed,
            float(report.margins.combined_margin(row.cog_index)),
            "; ".join(row.violations),
        )
        for row, guaranteed in zip(thresholds.rows, report.margins.guaranteed)
    ]


def _starts(cfg, model):
    """Configured start states (checked by the config), else mid-queue at
    the resting level."""
    return cfg.simulation["starts"] or [(model.n_q // 2, model.grid.star_index)]


def write_policy_csv(path, policy, comments):
    rows = [
        (q, cog, str(policy[q, cog]))
        for q in range(policy.shape[0])
        for cog in range(policy.shape[1])
    ]
    _write_csv(path, comments, ("q", "cog_index", "action"), rows)


def read_policy_csv(path, model):
    """Reload a policy table written by ``solve``; validates coverage."""
    policy = np.full((model.n_q, model.n_cog), None, dtype=object)
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#") or line.startswith("q,"):
                continue
            try:
                q, cog, action = line.split(",")
                q, cog = int(q), int(cog)
            except ValueError:
                raise PolicyMismatchError(
                    f"{path}, line {lineno}: expected q,cog,action with integer "
                    f"q and cog, got {line!r}"
                ) from None
            if not (0 <= q < model.n_q and 0 <= cog < model.n_cog):
                raise PolicyMismatchError(
                    f"policy row ({q},{cog}) lies outside the "
                    f"{model.n_q}x{model.n_cog} state space"
                )
            if policy[q, cog] is not None:
                raise PolicyMismatchError(
                    f"{path}, line {lineno}: second row for state ({q},{cog})"
                )
            policy[q, cog] = action
    missing = np.argwhere(np.equal(policy, None))
    if missing.size:
        q, cog = missing[0]
        raise PolicyMismatchError(f"policy file has no row for state ({q},{cog})")
    policy = policy.astype(str)
    validate_policy(model, policy)
    return policy


def cmd_solve(args):
    cfg = resolve_config(args.config)
    model = _build_model(cfg)
    solution = _solve(cfg, model)
    out = _outdir(args)
    comments = [f"config: {cfg.digest}"]

    values = solution.values
    rows = [
        (q, cog, model.grid.level(cog), float(values[q, cog]))
        for q in range(model.n_q)
        for cog in range(model.n_cog)
    ]
    _write_csv(
        os.path.join(out, "value.csv"),
        comments,
        ("q", "cog_index", "cog_level", "value"),
        rows,
    )
    write_policy_csv(os.path.join(out, "policy.csv"), solution.policy, comments)
    _write_json(
        os.path.join(out, "convergence.json"),
        {
            "config": cfg.digest,
            "epsilon": float(solution.epsilon),
            "sweeps": int(solution.sweeps),
            "residual": float(solution.residual),
            "converged": bool(solution.converged),
            "n_states": int(model.n_q * model.n_cog),
        },
    )
    with open(os.path.join(out, "value_heatmap.svg"), "w") as fh:
        fh.write(value_heatmap(values, model.grid.star_index,
                               title=f"value surface [{cfg.name}]"))
    with open(os.path.join(out, "policy_heatmap.svg"), "w") as fh:
        fh.write(policy_heatmap(solution.policy, model.grid.star_index,
                                title=f"policy [{cfg.name}]"))
    if not solution.converged:
        print(
            f"did not converge within {solution.sweeps} sweeps "
            f"(residual {solution.residual:.3e})",
            file=sys.stderr,
        )
        return 3
    print(
        f"solved {model.n_q}x{model.n_cog} states in {solution.sweeps} sweeps; "
        f"outputs in {out}"
    )
    return 0


def cmd_check(args):
    cfg = resolve_config(args.config)
    # a queue too short for the boundary buffer fails before anything is built
    checked_queue_range(cfg.data["queue"]["capacity"] + 1, cfg.analysis["buffer_fraction"])
    episodes, seed = _sim_settings(cfg, args)
    model = _build_model(cfg)
    solution = _solve(cfg, model)
    if not solution.converged:
        print("solver did not converge; refusing to grade structure",
              file=sys.stderr)
        return 3
    out = _outdir(args)

    sampler = PolicySampler(model, solution.policy)
    start = _starts(cfg, model)[0]
    estimate = _estimate(cfg, sampler, start, episodes, seed)
    report = grade(
        model,
        solution,
        cfg.analysis["buffer_fraction"],
        empty_queue_fraction=estimate.empty_queue_fraction,
    )

    rows = [
        (cog, model.grid.level(cog), *cells)
        for cog, cells in enumerate(_threshold_cells(report))
    ]
    comments = [f"config: {cfg.digest}", f"seed: {seed}"]
    _write_csv(
        os.path.join(out, "thresholds.csv"),
        comments,
        ("cog_index", "cog_level", *_THRESHOLD_COLUMNS),
        rows,
    )
    light_tail = report.light_tail
    _write_json(
        os.path.join(out, "structure.json"),
        {
            "config": cfg.digest,
            "seed": seed,
            "rho": light_tail.rho,
            "light_tail_ok": light_tail.light_tail_ok,
            "light_tail_violations": light_tail.violations,
            "slowest_service": asdict(report.margins.ceiling),
            "switch_margins": report.margins.per_cog,
            "all_guaranteed": report.margins.all_guaranteed,
            "empty_queue_fraction": report.empty_queue_fraction,
            "busy_assumption_ok": report.busy_assumption_ok,
            "value_gap": {
                **asdict(report.value_gap),
                "passed": report.value_gap.passed(),
            },
            "value_shape_notes": report.value_shape_notes,
        },
    )
    # raises on a violated guarantee -> exit code 2 via main()
    enforce_guarantee(report.thresholds, report.margins)
    n_threshold = sum(1 for row in report.thresholds.rows if row.is_threshold)
    print(
        f"structure checks written to {out}: rho={light_tail.rho:.6f}, "
        f"{n_threshold}/{model.n_cog} threshold rows, "
        f"light tail {'ok' if light_tail.light_tail_ok else 'violated'}"
    )
    return 0


def cmd_simulate(args):
    if args.trajectories < 0:
        raise ConfigError(f"--trajectories must be nonnegative, got {args.trajectories}")
    cfg = resolve_config(args.config)
    episodes, seed = _sim_settings(cfg, args)
    model = _build_model(cfg)
    out = _outdir(args)
    if args.policy is not None:
        policy = read_policy_csv(args.policy, model)
    else:
        solution = _solve(cfg, model)
        if not solution.converged:
            print("solver did not converge; pass --policy to simulate anyway",
                  file=sys.stderr)
            return 3
        policy = solution.policy
    sampler = PolicySampler(model, policy)

    comments = [f"config: {cfg.digest}", f"seed: {seed}"]
    starts = _starts(cfg, model)
    estimates = []
    for start in starts:
        estimates.append(_estimate(cfg, sampler, start, episodes, seed))
    _write_json(
        os.path.join(out, "mc_value.json"),
        {
            "config": cfg.digest,
            "seed": seed,
            "episodes": episodes,
            "estimates": [
                {
                    "start": list(est.start),
                    "mean": est.mean,
                    "std_error": est.std_error,
                    "horizon_epochs": est.horizon_epochs,
                    "simulated_epochs": est.simulated_epochs,
                    "truncation_bias_bound": est.truncation_bias_bound,
                    "empty_queue_fraction": est.empty_queue_fraction,
                }
                for est in estimates
            ],
        },
    )
    horizon = max(est.horizon_epochs for est in estimates)
    rows = []
    for episode in range(args.trajectories):
        traj = sampler.run_episode(
            starts[episode % len(starts)],
            horizon_epochs=horizon,
            seed=np.random.SeedSequence([seed, episode]),
        )
        rows += [(episode, *rec) for rec in traj.records]
    _write_csv(
        os.path.join(out, "trajectories.csv"),
        comments,
        ("episode", *EpochRecord._fields),
        rows,
    )
    for est in estimates:
        print(
            f"start {est.start}: value {est.mean:.6f} "
            f"(se {est.std_error:.6f}, {episodes} episodes, "
            f"horizon {est.horizon_epochs}, {est.simulated_epochs} of "
            f"{episodes * est.horizon_epochs} episode-epochs simulated)"
        )
    return 0


def cmd_sweep(args):
    cfg = resolve_config(args.config)
    checked_queue_range(cfg.data["queue"]["capacity"] + 1, cfg.analysis["buffer_fraction"])
    if args.grid is not None:
        rates = check_arrival_rates(
            "--grid", [x for x in args.grid.split(",") if x.strip()]
        )
    else:
        rates = cfg.sweep["arrival_rates"]
    if not rates:
        print("no arrival rates to sweep; set sweep.arrival_rates or --grid",
              file=sys.stderr)
        return 1
    budget = cfg.sweep["max_points"]
    if len(rates) > budget:
        raise GridTooLargeError(
            f"sweep grid has {len(rates)} points, budget is {budget}"
        )
    out = _outdir(args)
    rows = []
    any_unconverged = False
    for rate in rates:
        model = _build_model(cfg, rate)
        solution = _solve(cfg, model)
        if not solution.converged:
            any_unconverged = True
        report = grade(model, solution, cfg.analysis["buffer_fraction"])
        rows.extend(
            (rate, cog, *cells)
            for cog, cells in enumerate(_threshold_cells(report))
        )
    _write_csv(
        os.path.join(out, "sweep.csv"),
        [f"config: {cfg.digest}"],
        ("arrival_rate", "cog_index", *_THRESHOLD_COLUMNS),
        rows,
    )
    print(f"swept {len(rates)} arrival rates; table in {out}")
    return 3 if any_unconverged else 0


def cmd_export_moments(args):
    cfg = resolve_config(args.config)
    model = _build_model(cfg)
    out = _outdir(args)
    rows = [
        (
            law["cog_index"],
            model.grid.level(law["cog_index"]),
            law["action"],
            float(law["mean"]),
            float(pmf.second_moment),
            float(law["variance"]),
            float(law["transform"]),
            float(law["bound"]),
            law["light_tail_ok"],
        )
        for pmf, law in light_tail_laws(model)
    ]
    _write_csv(
        os.path.join(out, "moments.csv"),
        [f"config: {cfg.digest}"],
        (
            "cog_index",
            "cog_level",
            "action",
            "mean",
            "second_moment",
            "variance",
            "discount_transform",
            "light_tail_bound",
            "light_tail_ok",
        ),
        rows,
    )
    print(f"sojourn moment table in {out}")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="fidelityq",
        description=(
            "Solve, check, and simulate the fidelity-selection queue model."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, sim=False):
        p.add_argument(
            "--config",
            help="path to a YAML file or the name of a built-in configuration",
        )
        p.add_argument("--out", default="out", help="output directory")
        if sim:
            p.add_argument("--seed", type=int, help="override the configured seed")
            p.add_argument(
                "--episodes", type=int, help="override the configured episode count"
            )

    p = sub.add_parser("solve", help="value iteration; tables and heatmaps")
    common(p)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("check", help="structural reports on the solved policy")
    common(p, sim=True)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("simulate", help="Monte-Carlo rollouts of the policy")
    common(p, sim=True)
    p.add_argument(
        "--policy", help="reuse a policy.csv instead of re-solving", default=None
    )
    p.add_argument(
        "--trajectories",
        type=int,
        default=3,
        help="number of full trajectories to export",
    )
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("sweep", help="re-solve across arrival rates")
    common(p)
    p.add_argument(
        "--grid", help="comma-separated arrival rates overriding the config"
    )
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("export-moments", help="sojourn moment table")
    common(p)
    p.set_defaults(func=cmd_export_moments)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except GuaranteeViolationError as exc:
        print(f"guarantee violated: {exc}", file=sys.stderr)
        return 2
    except (FidelityQError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
