"""phmaps benchmark: one workload, one seed, a closed loop with one client.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; phmaps is imported from ./src. Ops run one
at a time in one thread, each starting when the previous one finishes. Inputs
are generated from the seed before timing starts, and every op's output is
checked after its timing ends. The loop runs whole rounds over the inputs (single
ops on cli-session, whose commands cost about the same) and starts another
while that brings the measured time closer to --seconds.

--trace 0 prints the end-to-end metrics; --trace 1 runs every op untraced and
then traced, adds per-layer probes, and prints the per-layer metrics. Human
readable lines come first; the last line of stdout is one JSON object. The
exit code is 1 if any output was wrong and 2 if the run could not start.
"""

from __future__ import annotations

import os

# Pin numeric libraries to one thread, for this process and its children.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 5       # set-up children per run; setup_s is their median
IMPORT_REPEATS = 5      # fresh processes per start-up probe on cli-session
CHILD_TIMEOUT_S = 150

sys.path.insert(0, str(ROOT / "src"))
try:
    import phmaps  # noqa: E402
except ImportError as e:
    print(f"error: cannot import phmaps from {ROOT / 'src'}: {e}", file=sys.stderr)
    sys.exit(2)
import hostspeed  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

NULL = spans.NullTracer()

LAYER_SPANS = (
    "phmio.parse_map", "phmio.serialize_map",
    "classes.membership",
    "operators.convolve", "operators.integral_convolve", "operators.combine",
    "operators.neighborhood_report", "operators.rescale",
    "geometry.verify_geometry", "geometry.evaluate", "geometry.theta_derivative", "geometry.jacobian",
    "geometry.check.jacobian", "geometry.check.starlike", "geometry.check.convex", "geometry.check.injective",
    "geometry.distortion", "geometry.rescale_convexity_certificate",
    "render.render_svg", "render.render_csv",
)
LAYERS = ("phmio", "classes", "operators", "geometry", "render", "cli")
CLI_COMMANDS = ("catalog", "extremal", "check_hs_lambda", "check_hs", "check_hc", "convolve", "iconvolve",
                "neighborhood", "verify_starlike", "verify_all", "render")
COUNTS = ("phmio.bytes", "classes.membership.calls", "classes.membership.used_epsilon",
          "geometry.kernel.term_points", "geometry.collision.count", "geometry.collision.documented_rule_count",
          "geometry.grid.points",
          "render.bytes", "cli.exit_0", "cli.exit_1", "cli.exit_2")


class SetupError(RuntimeError):
    pass


def p90(values) -> float:
    """90th percentile, as statistics.quantiles(n=10) gives it."""
    return statistics.quantiles(values, n=10)[8] if len(values) > 1 else values[0]


def source_loc() -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines()) for p in (ROOT / "src" / "phmaps").glob("*.py"))


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment() -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "src_loc": source_loc(),
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "loop": "closed, one client, one thread",
    }


def setup_children(name: str, seed: int) -> tuple[float, float, list]:
    """Median set-up time over fresh children, scaled to the reference host speed
    by kernels timed before and after each child; the raw median; and the
    oracle values from the first child."""
    times, expect = [], None
    hostspeed.warm_up()
    kernels = [hostspeed.sample()]
    for i in range(SETUP_REPEATS):
        cmd = [sys.executable, str(HERE / "probe.py"), "--workload", name, "--seed", str(seed)]
        if i == 0:
            cmd.append("--expect")
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, cwd=ROOT)
        if proc.returncode != 0:
            raise SetupError(f"set-up child failed:\n{proc.stderr}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        times.append(result["setup_s"])
        hostspeed.warm_up(2)   # the first kernels after a child run on cold caches
        kernels.append(hostspeed.sample())
        if i == 0:
            expect = result["expect"]
    scaled = [hostspeed.scale_between(t, kernels[i], kernels[i + 1]) for i, t in enumerate(times)]
    return statistics.median(scaled), statistics.median(times), expect


class Run:
    def __init__(self, wl, cases, order, expect):
        self.wl, self.cases, self.order, self.expect = wl, cases, order, expect
        self.latencies: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.layer_failed: Counter = Counter()
        self.counts: Counter = Counter()

    def attempt(self, idx: int, tr, count: bool = False) -> float:
        """One op on input idx; returns its latency. Output checks stay outside the timing."""
        c = self.cases[idx]
        start = time.perf_counter()
        try:
            with tr.span("op"):
                out = self.wl.op(c, tr)
        except Exception:
            elapsed = time.perf_counter() - start
            traceback.print_exc(file=sys.stderr)
            out, bad = None, ["op"]
        else:
            elapsed = time.perf_counter() - start
            bad = self.wl.check(c, self.expect[idx], out)
        self.attempted += 1
        if bad:
            self.failed += 1
            self.layer_failed.update(set(bad))
            print(f"wrong output: input {idx} ({bad})", file=sys.stderr)
        elif count:
            self.counts.update(self.wl.counts(c, self.expect[idx], out))
        return elapsed

    def loop(self, seconds: float, step, whole_rounds: bool) -> float:
        """Run step(idx, first_round) over the round, cyclically, in batches of a
        whole round or of one op. Another batch starts while the run would end
        closer to `seconds` with it than without it. Returns the rounds run."""
        batch = len(self.order) if whole_rounds else 1
        start = time.perf_counter()
        done = 0
        while True:
            for _ in range(batch):
                step(self.order[done % len(self.order)], done < len(self.order))
                done += 1
            elapsed = time.perf_counter() - start
            if elapsed + elapsed * batch / done / 2 > seconds:
                return done / len(self.order)


def timings(latencies: list[float], per_round: int) -> tuple[float, float, float]:
    """Throughput (ops per round over the median round time, where a round's time
    is the summed latency of its ops), p50 and p90 latency in ms."""
    lat_ms = [t * 1e3 for t in latencies]
    round_s = [sum(latencies[i:i + per_round]) for i in range(0, len(latencies) - per_round + 1, per_round)]
    throughput = per_round / statistics.median(round_s) if round_s else len(latencies) / sum(latencies)
    return throughput, statistics.median(lat_ms), p90(lat_ms)


def end_to_end(run: Run, setup: tuple[float, float], seconds: float, is_cli: bool) -> tuple[dict, dict]:
    if run.wl.child_process:
        time_kernel, reference_ms = hostspeed.time_process_kernel, hostspeed.REFERENCE_PROCESS_MS
    else:
        time_kernel, reference_ms = hostspeed.time_kernel, hostspeed.REFERENCE_MS
    kernel_ms = []

    def step(idx: int, first: bool):
        run.latencies.append(run.attempt(idx, NULL, count=first))
        kernel_ms.append(time_kernel())

    run.attempt(run.order[0], NULL)   # warm-up: checked, but not timed or counted
    for _ in range(3):
        time_kernel()
    kernel_ms.append(time_kernel())
    rounds = run.loop(seconds, step, whole_rounds=not run.wl.stop_between_ops)
    per_round = len(run.order)
    scaled = hostspeed.scale(run.latencies, kernel_ms, reference_ms)
    throughput, p50, p90_ms = timings(scaled, per_round)
    rss_kb = run.wl.peak_rss_kb if is_cli else resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "setup_s": (setup[0], "s"),
        "throughput_ops_per_s": (throughput, "1/s"),
        "latency_p50_ms": (p50, "ms"),
        "latency_p90_ms": (p90_ms, "ms"),
        "peak_rss_mb": (rss_kb / 1024, "MB"),
    }
    info = {
        "failed_ratio": (run.failed / max(run.attempted, 1), "ratio"),
        "latency_samples": (len(scaled), "count"),
        "latency_samples_beyond_p90": (sum(t * 1e3 > p90_ms for t in scaled), "count"),
        "rounds": (rounds, "count"),
        "ops_per_round": (per_round, "count"),
        "host_speed": (hostspeed.speed(kernel_ms, reference_ms), "ratio"),
        "unscaled.setup_s": (setup[1], "s"),
    }
    raw = timings(run.latencies, per_round)
    for name, value in zip(("throughput_ops_per_s", "latency_p50_ms", "latency_p90_ms"), raw):
        info[f"unscaled.{name}"] = (value, metrics[name][1])
    return metrics, info


def per_layer(run: Run, build_s: float, seconds: float, is_cli: bool, workdir: Path) -> tuple[dict, dict]:
    tracer = spans.Tracer()
    totals = {"untraced": 0.0}

    def step(idx: int, first: bool):
        totals["untraced"] += run.attempt(idx, NULL, count=first)
        run.attempt(idx, tracer)
        with tracer.span("probe"):
            run.wl.decompose(run.cases[idx], tracer)

    passes = run.loop(seconds, step, whole_rounds=True)
    self_s = tracer.self_times()
    op_s = sum(tracer.durations("op"))
    metrics = {}
    for name in LAYER_SPANS:
        metrics[f"{name}.busy_s"] = (self_s.get(name, 0.0) / passes, "s")
    collision = self_s.get("geometry.check.injective", 0.0) - self_s.get("geometry.evaluate", 0.0)
    metrics["geometry.collision.self_s"] = (collision / passes if "geometry.check.injective" in self_s else 0.0, "s")
    metrics["sampling.busy_s"] = (build_s, "s")
    ops = len(run.order)
    for name in COUNTS:
        metrics[name] = (run.counts.get(name, 0), "bytes" if name.endswith("bytes") else "count")
    calls = run.counts.get("classes.membership.calls", 0)
    metrics["classes.membership.exact_ratio"] = (run.counts["classes.membership.exact"] / calls if calls else 0.0,
                                                 "ratio")
    metrics["geometry.spacing_ratio_ge_1e3.share"] = (run.counts.get("geometry.spacing_ratio_ge_1e3", 0) / ops, "ratio")
    for layer in LAYERS:
        raised = sum(n for name, n in tracer.failed.items() if name.startswith(layer + "."))
        metrics[f"{layer}.failed"] = (raised + run.layer_failed.get(layer, 0), "count")
    for command in CLI_COMMANDS:
        times = tracer.durations(f"cli.{command}")
        metrics[f"cli.{command}.p50_ms"] = (statistics.median(times) * 1e3 if times else 0.0, "ms")
    startup = cli_startup(workdir) if is_cli else {}
    for name in ("interpreter_ms", "import_numpy_ms", "import_phmaps_ms"):
        metrics[f"cli.{name}"] = (startup.get(name, 0.0), "ms")
    metrics["op.unattributed_share"] = (self_s.get("op", 0.0) / op_s, "ratio")
    metrics["trace.overhead_share"] = (op_s / totals["untraced"] - 1.0, "ratio")
    info = {"passes": (passes, "count"), "ops_per_round": (ops, "count")}
    tracer.dump(workdir.parent / f"trace-{run.wl.name}-{os.getpid()}.json")
    return metrics, info


def cli_startup(workdir: Path) -> dict:
    """Median wall time of fresh processes: bare interpreter, then each import on top of it."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out, err = str(workdir / "probe.out"), str(workdir / "probe.err")

    def median_ms(code: str) -> float:
        times = []
        for _ in range(IMPORT_REPEATS):
            start = time.perf_counter()
            status, _ = workloads.run_process(["-c", code], env, out, err)
            times.append((time.perf_counter() - start) * 1e3)
            if status != 0:
                raise SetupError(f"start-up probe {code!r} exited {status}")
        return statistics.median(times)

    bare = median_ms("pass")
    return {
        "interpreter_ms": bare,
        "import_numpy_ms": median_ms("import numpy") - bare,
        "import_phmaps_ms": median_ms("import phmaps") - bare,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if Path(phmaps.__file__).resolve().parent != ROOT / "src" / "phmaps":
        print(f"error: phmaps imported from {phmaps.__file__}, not from this checkout", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2

    wl = workloads.WORKLOADS[args.workload]()
    is_cli = wl.name == "cli-session"
    workdir = workloads.make_workdir(wl.name)
    try:
        setup_s, raw_setup_s, expect = setup_children(wl.name, args.seed)
        start = time.perf_counter()
        cases, order = wl.build(args.seed, workdir)
        build_s = time.perf_counter() - start
        run = Run(wl, cases, order, expect)
        if args.trace:
            metrics, info = per_layer(run, build_s, args.seconds, is_cli, workdir)
        else:
            metrics, info = end_to_end(run, (setup_s, raw_setup_s), args.seconds, is_cli)
    except (SetupError, subprocess.TimeoutExpired, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"workload {wl.name} seed {args.seed} trace {args.trace}")
    print("environment " + json.dumps(environment()))
    for name, (value, unit) in {**metrics, **info}.items():
        print(f"{name} {value:.6g} {unit}")
    correct = run.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
