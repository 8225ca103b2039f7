"""End-to-end and per-layer benchmark for fidelityq.

Run from the repository root; it imports the package from ``src/``:

    python3 bench/run.py --workload all --seed 1 --seconds 40
    python3 bench/run.py --workload wide-state --seed 3 --trace 1

Load comes from this one process, one operation at a time (closed loop,
one client), pinned to one core. With ``--trace 0`` it repeats cycles of
build -> solve -> Monte Carlo -> ``fidelityq check`` for ``--seconds``
and prints the end-to-end metrics: medians over the cycles, plus a high
percentile where at least ten samples lie beyond it. Times are scaled to
a reference machine speed by the probes in ``speed.py``; raw medians are
printed beside them. With ``--trace 1`` it
runs one untraced and one traced cycle, then a traced in-process
``check`` and ``solve``, and prints the per-layer metrics (see README.md
for which end-to-end metric each should move). Every timed result passes
the correctness gate in ``gate.py`` first; the last line of output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
Raw samples, spans and the environment go to ``.bench_out/``.
"""

import argparse
import contextlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
import traceback

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")

SETUP_RUNS = 3  # fresh interpreters timed per run for setup_s
MIN_REPEAT_SECONDS = 0.3  # cheap operations repeat until they take this long
MAX_REPEATS = 500
SETUP_SNIPPET = "import sys, fidelityq; fidelityq.resolve_config(sys.argv[1])"
# runs argv[1:] and prints [wall seconds, peak RSS in KiB, exit code]
LAUNCHER = (
    "import json, os, subprocess, sys, time\n"
    "t0 = time.perf_counter()\n"
    "p = subprocess.Popen(sys.argv[1:], stdout=subprocess.DEVNULL)\n"
    "_, status, usage = os.wait4(p.pid, 0)\n"
    "print(json.dumps([time.perf_counter() - t0, usage.ru_maxrss,"
    " os.waitstatus_to_exitcode(status)]))\n"
)

END_TO_END_UNITS = {
    "setup_s": "s",
    "build_s": "s",
    "solve_s": "s",
    "mc_s": "s",
    "cli_check_s": "s",
    "peak_rss_mb": "MB",
}


PER_LAYER_UNITS = {
    "config.resolve_s": "s",
    "sojourn.pmf_s": "s",
    "sojourn.support_points": "count",
    "cogchain.step_powers_s": "s",
    "cogchain.power_matrices": "count",
    "model.arrival_row_calls": "count",
    "model.arrival_row_s": "s",
    "model.distinct_taus": "count",
    "model.self_s": "s",
    "model.operator_bytes": "B-computed",
    "solver.sweeps": "count",
    "solver.backup_s": "s",
    "solver.backup_bytes": "B-computed",
    "solver.policy_evaluation_s": "s",
    "structure.grade_s": "s",
    "simulate.batch_s": "s",
    "simulate.sampler_init_s": "s",
    "simulate.epoch_steps": "count",
    "simulate.horizon_epochs": "count",
    "svgplot.heatmap_s": "s",
    "cli.self_s": "s",
    "trace.overhead_s": "s",
}


# -- environment ------------------------------------------------------------


def prepare_environment():
    """Point imports at this checkout, pin the process and its children to
    one core and BLAS to that core's one thread. Must run before numpy is
    imported anywhere in the process.

    With one core, the speed probes run where the timed work runs, the CLI
    subprocess included; on a shared host the cores' speeds drift apart.
    """
    if not os.path.isfile(os.path.join(SRC, "fidelityq", "__init__.py")):
        sys.exit("bench: src/fidelityq not found; run from the repository root")
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    threads = str(len(os.sched_getaffinity(0)))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        os.environ[var] = threads
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH")) if p
    )
    sys.path.insert(0, SRC)
    import fidelityq

    if not os.path.abspath(fidelityq.__file__).startswith(SRC + os.sep):
        sys.exit(f"bench: imported fidelityq from {fidelityq.__file__}, not {SRC}")


def environment_record():
    import numpy
    import scipy

    try:
        l3 = int(subprocess.run(["getconf", "LEVEL3_CACHE_SIZE"], capture_output=True,
                                text=True, check=True).stdout.strip())
    except (OSError, ValueError, subprocess.CalledProcessError):
        l3 = None
    return {
        "nproc": os.cpu_count(),
        "cores_used": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "l3_bytes": l3,
        "machine": platform.machine(),
    }


# -- bookkeeping --------------------------------------------------------------


class Record:
    """Samples per metric plus attempted/failed operation counts."""

    def __init__(self):
        self.samples = {}  # normalized to reference machine speed
        self.raw_samples = {}
        self.probes = []
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.cycles = 0
        self.window_s = 0.0
        self.trace = None

    def add(self, metric, raw, normalized):
        self.raw_samples.setdefault(metric, []).append(raw)
        self.samples.setdefault(metric, []).append(normalized)

    def attempt(self, what, failures):
        self.attempted += 1
        self.failed += bool(failures)
        self.failures.extend(f"{what}: {msg}" for msg in failures)
        return not failures

    def crashed(self, what):
        self.attempted += 1
        self.failed += 1
        self.failures.append(f"{what}: {traceback.format_exc(limit=3)}")


def timed(fn, *args, **kwargs):
    t0 = time.perf_counter()
    out = fn(*args, **kwargs)
    return out, time.perf_counter() - t0


def high_percentile(values):
    """The highest of p99/p90 with at least ten samples beyond it."""
    for p in (99, 90):
        if len(values) * (100 - p) / 100 >= 10:
            return p, statistics.quantiles(values, n=100)[p - 1]
    return None


# -- operations ---------------------------------------------------------------


def fresh_setup(workload):
    """A new interpreter imports fidelityq and resolves the workload config;
    returns gate failures."""
    proc = subprocess.run([sys.executable, "-c", SETUP_SNIPPET, workload.config],
                          capture_output=True, text=True)
    return [] if proc.returncode == 0 else [proc.stderr.strip()[-500:]]


def cli_check(cfg, workload, seed):
    """Run ``fidelityq check`` in a subprocess; returns its wall time, peak
    RSS in MB and gate failures.

    The command is started from a small launcher process, because a child
    forked from this (large) process inherits its memory high-water mark.
    """
    from gate import check_cli_outputs

    out_dir = os.path.join(OUT_DIR, f"cli-{os.getpid()}")
    shutil.rmtree(out_dir, ignore_errors=True)
    cmd = [sys.executable, "-m", "fidelityq.cli", "check", "--config", workload.config,
           "--seed", str(seed), "--out", out_dir]
    proc = subprocess.run([sys.executable, "-c", LAUNCHER, *cmd],
                          capture_output=True, text=True)
    if proc.returncode != 0:
        return None, None, [f"launcher failed: {proc.stderr.strip()[-500:]}"]
    elapsed, maxrss_kb, code = json.loads(proc.stdout)
    failures = check_cli_outputs(code, out_dir, cfg, seed)
    if code != 0:
        failures.append(proc.stderr.strip()[-500:])
    shutil.rmtree(out_dir, ignore_errors=True)
    return elapsed, maxrss_kb / 1024.0, failures


def repeat(fn):
    """Run a cheap deterministic operation until it has taken
    MIN_REPEAT_SECONDS; returns every result and every run's time."""
    results, times = [], []
    while sum(times) < MIN_REPEAT_SECONDS and len(times) < MAX_REPEATS:
        out, elapsed = timed(fn)
        results.append(out)
        times.append(elapsed)
    return results, times


def run_cycle(workload, cfg, seed, reference, rec, clock):
    """One closed-loop cycle: build, solve, Monte Carlo, CLI check."""
    import numpy as np

    from fidelityq import simulate, solver
    from gate import check_estimate, check_solution, error_bound
    from workloads import mc_start

    try:
        model, raw, factor = clock.time(cfg.build_model)
    except Exception:
        rec.crashed("build")
        return
    rec.attempt("build", [])
    rec.add("build_s", raw, raw * factor)

    solve = lambda: solver.value_iteration(  # noqa: E731
        model, epsilon=float(cfg.solver["epsilon"]), max_sweeps=int(cfg.solver["max_sweeps"]))
    try:
        (results, times), _, factor = clock.time(repeat, solve)
        result = results[0]
        rec.attempt("solve", check_solution(model, cfg, result, reference))
    except Exception:
        rec.crashed("solve")
        return
    for other in results[1:]:
        same = (np.array_equal(other.values, result.values)
                and np.array_equal(other.policy, result.policy))
        rec.attempt("solve", [] if same else ["repeated solve gave another result"])
    for t in times:
        rec.add("solve_s", t, t * factor)

    start = mc_start(cfg, model)
    mc = lambda: simulate.monte_carlo_value(  # noqa: E731
        model, result.policy, start, workload.episodes, seed)
    try:
        (estimates, times), _, factor = clock.time(repeat, mc)
    except Exception:
        rec.crashed("mc")
        return
    estimate = estimates[0]
    rec.attempt("mc", check_estimate(estimate, float(result.values[start]),
                                     error_bound(model, result)))
    for other in estimates[1:]:
        same = other.mean == estimate.mean and other.std_error == estimate.std_error
        rec.attempt("mc", [] if same else ["same seed gave another estimate"])
    for t in times:
        rec.add("mc_s", t, t * factor)
    del model, result, results, estimates

    try:
        (elapsed, rss_mb, failures), _, factor = clock.time(cli_check, cfg, workload, seed)
    except Exception:
        rec.crashed("cli_check")
        return
    rec.attempt("cli_check", failures)
    if not failures:
        rec.add("cli_check_s", elapsed, elapsed * factor)
        rec.add("peak_rss_mb", rss_mb, rss_mb)


def measure(workload, seed, seconds):
    """Untraced run: setup timings, then cycles for ``seconds``."""
    from fidelityq.config import resolve_config
    from gate import load_reference
    from speed import SpeedClock

    rec = Record()
    clock = SpeedClock()
    # this process has already imported the package, so bytecode and page
    # caches are warm for every timed interpreter alike
    for _ in range(SETUP_RUNS):
        failures, raw, factor = clock.time(fresh_setup, workload)
        if rec.attempt("setup", failures):
            rec.add("setup_s", raw, raw * factor)

    cfg = resolve_config(workload.config)
    reference = load_reference(workload.name)
    t_start = time.perf_counter()
    cycles = []
    while True:
        _, elapsed = timed(run_cycle, workload, cfg, seed, reference, rec, clock)
        cycles.append(elapsed)
        # stop unless another cycle fits, allowing half a cycle of overrun
        if time.perf_counter() - t_start + 0.5 * statistics.mean(cycles) > seconds:
            break
    rec.cycles = len(cycles)
    rec.window_s = time.perf_counter() - t_start
    rec.probes = clock.probes
    return rec


# -- traced run ---------------------------------------------------------------


def run_cli_inprocess(argv):
    from fidelityq import cli

    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


def trace(workload, seed):
    """Per-layer run: spans from wrapped module functions, counts from
    public data, and the overhead of tracing itself."""
    from fidelityq import config, simulate, solver
    from counts import epoch_steps, model_counts
    from gate import (check_cli_outputs, check_estimate, check_solution, error_bound,
                      load_reference)
    from speed import SpeedClock
    from tracer import LAYER_SPANS, Tracer
    from workloads import mc_start

    rec = Record()
    reference = load_reference(workload.name)

    def ops():
        cfg = config.resolve_config(workload.config)
        model = cfg.build_model()
        result = solver.value_iteration(model, epsilon=float(cfg.solver["epsilon"]),
                                        max_sweeps=int(cfg.solver["max_sweeps"]))
        start = mc_start(cfg, model)
        estimate = simulate.monte_carlo_value(model, result.policy, start,
                                              workload.episodes, seed)
        return cfg, model, result, start, estimate

    # the overhead compares passes at reference speed, with untraced passes
    # on both sides of the traced one, so machine-speed drift mostly cancels
    clock = SpeedClock()
    _, raw, factor = clock.time(ops)
    untraced_before = raw * factor
    tracers = {"ops": Tracer(), "check": Tracer(), "solve": Tracer()}
    with tracers["ops"].instrument(LAYER_SPANS):
        (cfg, model, result, start, estimate), raw, factor = clock.time(ops)
        traced = raw * factor
        rec.attempt("solve", check_solution(model, cfg, result, reference))
    _, raw, factor = clock.time(ops)
    untraced = 0.5 * (untraced_before + raw * factor)
    rec.attempt("mc", check_estimate(estimate, float(result.values[start]),
                                     error_bound(model, result)))

    for command, tracer in (("check", tracers["check"]), ("solve", tracers["solve"])):
        out_dir = os.path.join(OUT_DIR, f"cli-{command}-{os.getpid()}")
        shutil.rmtree(out_dir, ignore_errors=True)
        argv = [command, "--config", workload.config, "--out", out_dir]
        if command == "check":
            argv += ["--seed", str(seed)]
        with tracer.instrument(LAYER_SPANS), tracer.span(f"cli.{command}"):
            code = run_cli_inprocess(argv)
        failures = (check_cli_outputs(code, out_dir, cfg, seed) if command == "check"
                    else [] if code == 0 else [f"fidelityq solve exited with {code}"])
        rec.attempt(f"cli_{command}", failures)
        shutil.rmtree(out_dir, ignore_errors=True)

    t_ops, t_check, t_solve = tracers["ops"], tracers["check"], tracers["solve"]
    counts = model_counts(model)
    metrics = dict(counts)
    metrics.update({
        "config.resolve_s": _median_or_zero(
            [d for t in tracers.values() for d in t.durations("config.resolve")]),
        "sojourn.pmf_s": t_ops.total("sojourn.pmf"),
        "cogchain.step_powers_s": t_ops.total("cogchain.step_powers"),
        "model.arrival_row_s": t_ops.total("model.arrival_row"),
        "model.self_s": sum(t_ops.self_times("model.build")),
        "solver.sweeps": result.sweeps,
        "solver.backup_s": _median_or_zero(t_ops.durations("solver.backup")),
        "solver.policy_evaluation_s": t_ops.total("solver.policy_evaluation"),
        "structure.grade_s": t_check.total("structure.grade"),
        "simulate.batch_s": t_ops.total("simulate.batch"),
        "simulate.sampler_init_s": t_ops.total("simulate.sampler_init"),
        "simulate.epoch_steps": epoch_steps(model, estimate),
        "simulate.horizon_epochs": estimate.horizon_epochs,
        "svgplot.heatmap_s": t_solve.total("svgplot.heatmap"),
        "cli.self_s": sum(t_check.self_times("cli.check")),
        "trace.overhead_s": traced - untraced,
    })
    observed = {
        "model.arrival_row": len(t_ops.durations("model.arrival_row")),
        "solver.backup": len(t_ops.durations("solver.backup")),
        "cogchain.step_powers": len(t_ops.durations("cogchain.step_powers")),
    }
    rec.trace = {"untraced_s": untraced, "traced_s": traced, "observed_calls": observed,
                 "absent": sorted(set(t_ops.absent))}
    os.makedirs(OUT_DIR, exist_ok=True)
    for name, tracer in tracers.items():
        tracer.dump(os.path.join(OUT_DIR, f"trace-{workload.name}-seed{seed}-{name}.json"))
    return rec, metrics


def _median_or_zero(values):
    return statistics.median(values) if values else 0.0


# -- reporting ----------------------------------------------------------------


def summarize(rec, units):
    metrics, lines = {}, []
    for name, unit in units.items():
        values = rec.samples.get(name)
        if not values:
            continue
        metrics[name] = {"value": statistics.median(values), "unit": unit}
        raw = statistics.median(rec.raw_samples[name])
        line = (f"  {name:<16} {metrics[name]['value']:12.6f} {unit:<3} median of "
                f"{len(values)} (raw {raw:.6f})")
        tail = high_percentile(values)
        if tail:
            line += f", p{tail[0]} {tail[1]:.6f}"
        lines.append(line)
    return metrics, lines


def run_workload(workload, seed, seconds, traced, env):
    if traced:
        rec, values = trace(workload, seed)
        metrics = {k: {"value": values[k], "unit": u} for k, u in PER_LAYER_UNITS.items()}
        lines = [f"  {k:<28} {v['value']:16.6f} {v['unit']}" for k, v in metrics.items()]
        lines.append(f"  observed calls {rec.trace['observed_calls']}")
        if rec.trace["absent"]:
            lines.append(f"  absent spans (reported as 0): {', '.join(rec.trace['absent'])}")
        header = f"{workload.name}: traced, seed {seed}"
    else:
        rec = measure(workload, seed, seconds)
        metrics, lines = summarize(rec, END_TO_END_UNITS)
        header = (f"{workload.name}: seed {seed}, {rec.cycles} cycles in "
                  f"{rec.window_s:.1f} s, closed loop, one client")
    failed = rec.failed
    lines.append(f"  {'failed_fraction':<16} {failed / max(rec.attempted, 1):12.6f} "
                 f"    ({failed} of {rec.attempted} operations)")
    result = {"correct": failed == 0, "attempted": rec.attempted, "failed": failed,
              "metrics": metrics}
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"result-{workload.name}-seed{seed}-trace{int(traced)}.json")
    with open(path, "w") as fh:
        json.dump({"workload": workload.name, "seed": seed, "env": env,
                   "samples": rec.samples, "raw_samples": rec.raw_samples,
                   "probes": rec.probes, "failures": rec.failures, "trace": rec.trace,
                   "result": result}, fh, indent=1)
    print(header)
    print(f"  ({workload.why})")
    print("\n".join(lines))
    for msg in rec.failures:
        print(f"  FAILED {msg}", file=sys.stderr)
    return result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all",
                        help="a workload name, or 'all' for every workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    prepare_environment()
    from workloads import WORKLOADS

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        if name not in WORKLOADS:
            parser.error(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
    env = environment_record()
    print(f"env: {json.dumps(env, sort_keys=True)}")
    results = {name: run_workload(WORKLOADS[name], args.seed, args.seconds,
                                  bool(args.trace), env)
               for name in names}
    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    if any(set(r["metrics"]) != set(units) for r in results.values()):
        sys.exit("bench: some metrics have no successful sample; see the failures above")
    if len(results) == 1:
        final = next(iter(results.values()))
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {name: r["metrics"] for name, r in results.items()},
        }
    print(json.dumps(final))


if __name__ == "__main__":
    main()
