"""Benchmark for blamelogic: one workload, one seed, one measured run.

Run from the root of a checkout (see bench/README.md):

    python3 bench/run.py --workload modelcheck --seed 1 --seconds 25 --trace 0

The program is imported from `src/` of the checkout.  With `--trace 0` the
run measures the end-to-end metrics with tracing off, its times scaled to a
reference host speed (see speed.py); with `--trace 1` it
runs the same ops traced and then untraced, and reports per-layer self
times, counts and the tracing overhead.  Lines before the last are for
people; the last line of standard output is one JSON object.
"""

import argparse
import gc
import importlib
import json
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from spans import LAYERS, OP, Recorder
from speed import Speed
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent  # the checkout being measured
SETUP_ROUNDS = 9  # import and warm-up are repeated and their median reported
CLI_PROBES = 5  # bare-interpreter and import-only child pairs, before and after the traced cli ops

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "latency_ms_p50": "ms",
    "latency_ms_p90": "ms",
    "peak_rss_mb": "MB",
}
SHAPE = {
    "plays_per_game_mean": "count",
    "plays_per_game_max": "count",
    "subformulas_mean": "count",
    "blame_coalition_max": "count",
    "point_share": "ratio",
    "script_lines_mean": "count",
    "script_lines_max": "count",
    "script_bytes_max": "bytes",
    "taut_atoms_max": "count",
}


def per_layer_units():
    units = {}
    for layer, functions in LAYERS.items():
        for fn in functions:
            units[f"{layer}.{fn}.ms"] = "ms"
            units[f"{layer}.{fn}.calls"] = "count"
    units["game.plays_loaded"] = "count"
    units["generator.instances_checked"] = "count"
    units["semantics.share"] = "ratio"
    for part in ("interp", "import", "reported", "rest"):
        units[f"cli.{part}_ms"] = "ms"
    units["cli.known_defect_failures"] = "count"
    units["trace.overhead_ratio"] = "ratio"
    units["trace.op_ms"] = "ms"
    units["trace.harness_ms"] = "ms"
    for name, unit in SHAPE.items():
        units[f"shape.{name}"] = unit
    return units


def import_program(baseline):
    """Import blamelogic afresh from the checkout's src/ directory.

    Every module loaded since `baseline` (a set of module names) is
    dropped first, so each import runs all the modules the program brings
    in, not only its own.
    """
    for name in [m for m in sys.modules if m not in baseline]:
        del sys.modules[name]
    bl = importlib.import_module("blamelogic")
    where = Path(bl.__file__).resolve()
    if ROOT / "src" not in where.parents:
        raise SystemExit(f"blamelogic imported from {where}, not from {ROOT / 'src'}")
    return bl


class Pass:
    """Outcome of running ops in a closed loop: one client, one op at a time."""

    def __init__(self):
        self.latencies = []
        self.windows = []  # per op, the Speed window it ran in
        self.failed = 0
        self.errors = []
        self.wall = 0.0


def measure(workload, seconds=None, count=None, recorder=None, speed=None):
    """Run ops in order until `count` ops, or whole cycles past `seconds`.

    With `speed`, host speed is sampled between ops (see speed.py).
    """
    ops, cycle = workload.ops, workload.cycle
    result = Pass()
    # keep the benchmark's own inputs and answers out of the collector's
    # scans, so that collections inside ops cost what the program allocates
    gc.collect()
    gc.freeze()
    if speed is not None:
        speed.sample()
    start = perf_counter()
    k = 0
    while True:
        if count is not None:
            if k >= count:
                break
        elif k % cycle == 0 and perf_counter() - start >= seconds:
            break
        op = ops[k % len(ops)]
        if speed is not None:
            result.windows.append(speed.due())
        if recorder is not None:
            recorder.op_id = k
            span = recorder.open(0)
        t0 = perf_counter()
        try:
            ok, why = workload.run(op), "wrong answer"
        except Exception as e:  # an op that raises is a failed op; keep going
            ok, why = False, f"{type(e).__name__}: {e}"
        t1 = perf_counter()
        if recorder is not None:
            recorder.close(span)
        result.latencies.append(t1 - t0)
        if not ok:
            result.failed += 1
            result.errors.append(f"op {k} ({op.get('kind', op.get('name'))}): {why}")
        k += 1
    result.wall = perf_counter() - start
    if speed is not None:
        speed.sample()  # the last window's right-hand side
    return result


def peak_rss_mb(workload_name):
    who = resource.RUSAGE_CHILDREN if workload_name == "cli" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024  # kB on Linux


def timings(setup_s, latencies):
    ms = sorted(x * 1000 for x in latencies)
    deciles = statistics.quantiles(ms, n=10, method="inclusive")
    return {
        "setup_s": setup_s,
        "ops_per_s": len(ms) / (sum(ms) / 1000),
        "latency_ms_p50": statistics.median(ms),
        "latency_ms_p90": deciles[8],
    }


def scaled(run, speed):
    """The run's op times at the reference host speed (see speed.py)."""
    return [x * speed.factor(w) for x, w in zip(run.latencies, run.windows)]


def end_to_end(workload, setup, run, speed):
    """Metrics at the reference host speed, and the same unscaled."""
    metrics = timings(setup["scaled"], scaled(run, speed))
    metrics["peak_rss_mb"] = peak_rss_mb(workload.name)
    return metrics, timings(setup["raw"], run.latencies)


def cli_probe_ms(workload):
    """Wall ms of a bare interpreter and of `import blamelogic.cli`, in pairs."""

    def timed(code):
        t0 = perf_counter()
        subprocess.run(
            [sys.executable, "-c", code],
            cwd=workload.root,
            env=workload.env,
            capture_output=True,
            timeout=workload.TIMEOUT_S,
            check=True,
        )
        return (perf_counter() - t0) * 1000

    return [(timed("pass"), timed("import blamelogic.cli")) for _ in range(CLI_PROBES)]


def per_layer(workload, bl, seconds, out_dir):
    modules = [bl, bl.syntax, bl.game, bl.semantics, bl.hilbert, bl.generator]
    recorder = Recorder()
    recorder.install(
        modules,
        after={
            "load_game": lambda r, g: r.count("game.plays_loaded", len(g.plays)),
            "soundness_sweep": lambda r, rep: r.count(
                "generator.instances_checked", sum(rep.counts.values())
            ),
        },
    )
    probes = cli_probe_ms(workload) if workload.name == "cli" else []
    workload.child_ms = workload.reported_ms = 0.0
    speeds = Speed(), Speed()  # the two passes may meet different host speeds
    try:
        traced = measure(workload, seconds=seconds / 2, recorder=recorder, speed=speeds[0])
    finally:
        recorder.restore()
    child_ms, reported_ms = workload.child_ms, workload.reported_ms
    if workload.name == "cli":
        # probes on both sides of the traced ops, so they share its machine state
        probes += cli_probe_ms(workload)
    untraced = measure(workload, count=len(traced.latencies), speed=speeds[1])

    times = recorder.self_times()
    metrics = {}
    for name, (self_ms, calls) in times.items():
        if name != OP:
            metrics[f"{name}.ms"] = self_ms
            metrics[f"{name}.calls"] = calls
    for name in ("game.plays_loaded", "generator.instances_checked"):
        metrics[name] = recorder.counters.get(name, 0)
    op_ms = sum(traced.latencies) * 1000
    semantics_ms = sum(v for k, v in metrics.items() if k.startswith("semantics.") and k.endswith(".ms"))
    metrics["semantics.share"] = semantics_ms / op_ms
    cli = {"interp": 0.0, "import": 0.0, "reported": 0.0, "rest": 0.0}
    if workload.name == "cli":
        bare = statistics.median(b for b, _ in probes)
        imported = statistics.median(i for _, i in probes)
        n = len(traced.latencies)
        cli["interp"] = bare * n
        cli["import"] = (imported - bare) * n
        cli["reported"] = reported_ms
        cli["rest"] = child_ms - cli["interp"] - cli["import"] - reported_ms
    for part, value in cli.items():
        metrics[f"cli.{part}_ms"] = value
    metrics["trace.overhead_ratio"] = sum(scaled(traced, speeds[0])) / sum(
        scaled(untraced, speeds[1])
    )
    metrics["trace.op_ms"] = op_ms
    # the benchmark's own time inside ops: checking answers, building
    # arguments, and waiting on a child outside the split above
    metrics["trace.harness_ms"] = times[OP][0] - (child_ms if workload.name == "cli" else 0)

    out_dir.mkdir(parents=True, exist_ok=True)
    recorder.write(out_dir / f"spans-{workload.name}-{workload.seed}.tsv.gz")
    return metrics, [traced, untraced]


def run_all(args):
    """Each workload in its own process, one after another."""
    worst = 0
    for name in WORKLOADS:
        argv = ["--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]  # fmt: skip
        worst = max(worst, subprocess.run([sys.executable, __file__, *argv]).returncode)
    return worst


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"],
                        help="one workload, or all four, each in a fresh process")  # fmt: skip
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "blamelogic" / "__init__.py").is_file():
        print(f"error: no program to measure: {ROOT / 'src' / 'blamelogic'} is missing",
              file=sys.stderr)  # fmt: skip
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(ROOT / "src"))

    workload = WORKLOADS[args.workload](ROOT, args.seed)
    t0 = perf_counter()
    workload.generate()
    inputs_s = perf_counter() - t0
    baseline = set(sys.modules)
    rounds, setup_speed = [], Speed()
    for _ in range(SETUP_ROUNDS):
        gc.collect()
        window = setup_speed.sample()
        t0 = perf_counter()
        bl = import_program(baseline)
        workload.warm_up(bl)
        rounds.append((perf_counter() - t0, window))
    setup_speed.sample()
    setup = {
        "raw": statistics.median(t for t, _ in rounds),
        "scaled": statistics.median(t * setup_speed.factor(w) for t, w in rounds),
    }
    t0 = perf_counter()
    workload.expect()
    reference_s = perf_counter() - t0

    if args.trace:
        metrics, passes = per_layer(workload, bl, args.seconds, ROOT / ".bench_out")
        workload.finish_shape()
    else:
        speed = Speed()
        passes = [measure(workload, seconds=args.seconds, speed=speed)]
        metrics, raw = end_to_end(workload, setup, passes[0], speed)
    probe_ok = workload.probe() if workload.name == "cli" else True

    attempted = sum(len(p.latencies) for p in passes)
    failed = sum(p.failed for p in passes)
    name = f"{args.workload} seed={args.seed}"
    setups = ", ".join(f"{t:.3f}" for t, _ in rounds)
    print(f"{name}: {attempted} ops, {failed} failed, error_rate {failed / attempted:.4g} ratio;"
          f" inputs {inputs_s:.3f} s; set-up rounds {setups} s (unscaled);"
          f" reference answers {reference_s:.3f} s")  # fmt: skip
    for p in passes:
        for error in p.errors[:5]:
            print(f"  failed {error}")
    if workload.name == "cli":
        print(f"  known defect: `eval --game <directory>` "
              f"{'exits 2' if probe_ok else 'does not exit 2 cleanly'} (documented: exit 2)")  # fmt: skip
    if args.trace:
        metrics["cli.known_defect_failures"] = 0 if probe_ok else 1
        for key in SHAPE:
            metrics[f"shape.{key}"] = workload.shape.get(key, 0)
        units = per_layer_units()
    else:
        units = END_TO_END
    for key, value in metrics.items():
        unscaled = f" (unscaled {raw[key]:.6g})" if not args.trace and key in raw else ""
        print(f"  {key} {value:.6g} {units[key]}{unscaled}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
