"""Pipeline benchmark for airpolicy: CLI stage wall times and traced layers.

    python3 pipebench/run.py --workload quickstart --seed 0 --seconds 40 --trace 0

Run from the repository root. One client runs the CLI stages one after
another, one process per stage, exactly as a user types them (a closed
loop of one). Every input is generated from ``--seed`` with
``airpolicy.synth`` (plus the edits of the screen-sweep workload), so the
program only ever sees files. The workload's stage sequence (a pass)
repeats while the next pass should end within ``--seconds`` (at least one
runs), and each metric is the median over passes.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` runs one
untraced pass, then the same pass in process with every layer boundary
wrapped (see tracing.py), and prints the per-layer metrics; end-to-end
figures never come from a traced pass. The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``. The
full record (environment, digests, problems, spans) goes to
``pipebench/.results/``.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import importlib.util
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from dataclasses import dataclass, field

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(BENCH_DIR, ".work")
RESULTS = os.path.join(BENCH_DIR, ".results")

WORKLOADS = ("quickstart", "screen-sweep", "benchmark-jobs2")
SETUP_REPEATS = 3
SETUP_MIN_S = 1.0  # per sampling point
STARTUP_REPEATS = 5
STAGE_TIMEOUT_S = 170.0
STAGE_METRICS = ("ingest_s", "screen_s", "benchmark_s", "predict_s")
SWEEP_WINDOW = 10
GAP_CITIES = ("city_a", "city_c")
GAP_PERIODS = 15  # density rows removed per gap city and pollutant, of 183


@dataclass
class Step:
    metric: str               # stage metric the wall time adds to
    argv: list[str]           # airpolicy.cli arguments
    out: str                  # the stage's output directory
    kind: str | None = None   # predict only: its forecast.csv is read before the next overwrites it


@dataclass
class Plan:
    """A workload's generated inputs and the stage sequence of one pass."""

    steps: list[Step]
    out_dirs: list[str]                    # output directories, relative to the work dir
    keep: tuple[str, ...] = ()             # entries of out_dirs a pass must not delete
    setup_s: list[float] = field(default_factory=list)


# ---------------------------------------------------------------------------
# Stage execution
# ---------------------------------------------------------------------------

def _child_env() -> dict:
    env = dict(os.environ)
    env.pop("AIRPOLICY_OUT", None)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_process(argv: list[str], log: str) -> tuple[float, int, int]:
    """Run one child to completion: (wall seconds, exit code, max RSS in KiB)."""
    with open(log, "ab") as out:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=subprocess.STDOUT, env=_child_env())
        killer = threading.Timer(STAGE_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - t0
    # wait4 reaped the child; tell the Popen object so it does not wait again.
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, usage.ru_maxrss


def run_stage(argv: list[str], traced: bool) -> tuple[float, int, int]:
    """One CLI stage, as a child process or (traced) in this process."""
    if not traced:
        return run_process([sys.executable, "-m", "airpolicy.cli", *argv], "stages.log")
    from airpolicy.cli import main

    sink = io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = main(argv)
    except Exception:  # a traceback is a failed stage, recorded below
        sink.write(traceback.format_exc())
        code = -1
    wall = time.perf_counter() - t0
    with open("stages.log", "a") as fh:
        fh.write(sink.getvalue())
    return wall, code, 0


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

def _generate(out: str, profile: str, seed: int, grid_cities: int = 0) -> str:
    """A four-city dataset; its first ``grid_cities`` cities take the grid route."""
    from airpolicy import synth

    res = synth.generate(out, profile=profile, seed=seed)
    if grid_cities:
        # A city's series depend only on the seed and its position, so the
        # grid files of a smaller dataset with the same seed are that city's.
        synth.generate(os.path.join(out, "grids"), profile=profile, seed=seed,
                       emit_grids=True, n_cities=grid_cities)
        with open(res.config_path) as fh:
            config = json.load(fh)
        for city in config["cities"][:grid_cities]:
            del city["density_csv"]
            city["grids_dir"] = os.path.join(out, "grids", city["name"], "grids")
        with open(res.config_path, "w") as fh:
            json.dump(config, fh, indent=2, sort_keys=True)
    return res.config_path


def _remove_periods(out: str, seed: int) -> None:
    """Drop a seeded subset of density rows (and their grid files) in GAP_CITIES."""
    from airpolicy.dataset import POLLUTANTS, period_start_date
    from airpolicy.rng import SplitMix64

    gen = SplitMix64(seed)
    for city in GAP_CITIES:
        drop = set()
        for p in POLLUTANTS:
            order = list(range(183))
            gen.shuffle(order)
            drop.update((period_start_date(2020, t).isoformat(), p.value)
                        for t in order[:GAP_PERIODS])
        path = os.path.join(out, city, "densities.csv")
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        with open(path, "w", newline="") as fh:
            csv.writer(fh).writerows(r for r in rows if (r[0], r[1]) not in drop)
        for date, pollutant in drop:
            grid = os.path.join(out, "grids", city, "grids", pollutant, date + ".csv")
            for f in (grid, grid + ".meta.json"):
                if os.path.exists(f):
                    os.remove(f)


def setup_quickstart(seed: int) -> Plan:
    from airpolicy.models import KINDS

    cfg, out = _generate("data", "linear", seed), "data/out"
    steps = [
        Step("ingest_s", ["ingest", "--config", cfg], out),
        Step("screen_s", ["screen", "--config", cfg], out),
        Step("benchmark_s", ["benchmark", "--config", cfg, "--jobs", "1"], out),
    ] + [Step("predict_s", ["predict", "--config", cfg, "--set", f"predict.kind={k}"], out, k)
         for k in KINDS]
    return Plan(steps, [out])


# (profile, cities on the grid route, missing periods, banded squared-cost
# DTW). Each factor takes both values. Only one dataset takes the grid route,
# and in it only city_a (732 grids, 1 464 files): writing grid files
# dominates set-up, and file creation is the least steady thing on a shared
# machine. city_a is a gap city, so gaps reach the grid route too.
SWEEP = (
    ("linear", 0, False, False),
    ("linear", 1, True, True),
    ("null", 0, True, False),
    ("null", 0, False, True),
)


def setup_screen_sweep(seed: int) -> Plan:
    from airpolicy.rng import SplitMix64

    gen = SplitMix64(seed)
    steps, outs = [], []
    for i, (profile, grid_cities, gaps, banded) in enumerate(SWEEP):
        data_seed, gap_seed = gen.u64(), gen.u64()
        cfg, out = _generate(f"d{i}", profile, data_seed, grid_cities), f"d{i}/out"
        if gaps:
            _remove_periods(f"d{i}", gap_seed)
        screen = ["screen", "--config", cfg]
        if banded:
            screen += ["--set", f"dtw.window={SWEEP_WINDOW}", "--set", "dtw.cost=squared"]
        steps += [Step("ingest_s", ["ingest", "--config", cfg], out), Step("screen_s", screen, out)]
        outs.append(out)
    return Plan(steps, outs)


def setup_benchmark_jobs2(seed: int) -> Plan:
    cfg = _generate("data", "linear", seed)
    _, code, _ = run_stage(["ingest", "--config", cfg], traced=False)
    if code != 0:
        raise RuntimeError(f"set-up ingest exited {code}")
    return Plan([Step("benchmark_s", ["benchmark", "--config", cfg, "--jobs", "2"], "data/out")],
                ["data/out"], keep=("cities",))


SETUPS = {
    "quickstart": setup_quickstart,
    "screen-sweep": setup_screen_sweep,
    "benchmark-jobs2": setup_benchmark_jobs2,
}


def set_up(workload: str, seed: int, work: str) -> Plan:
    """Generate the inputs the passes use: the first set-up point of the run."""
    os.makedirs(work, exist_ok=True)
    os.chdir(work)
    open("stages.log", "w").close()
    t0 = time.perf_counter()
    plan = SETUPS[workload](seed)
    plan.setup_s.append(time.perf_counter() - t0)
    sample_setup(plan, workload, seed, point_start=0)
    return plan


def sample_setup(plan: Plan, workload: str, seed: int, point_start: int) -> None:
    """Set up again until this point of the run has SETUP_REPEATS samples and SETUP_MIN_S.

    A shared host's speed drifts over seconds to minutes, so a run times
    its set-up at its start and again after every pass, and reports the
    median of all samples. Every set-up writes the same files over the
    inputs the passes use, which the work directory keeps from run to run:
    on ext4 mounted with ``discard`` (the reference machine), creating a
    file cost up to twenty times more than rewriting one for minutes after
    many files were deleted, so deleting and recreating the inputs would
    time the file system's state.
    """
    point = plan.setup_s[point_start:]
    while len(point) < SETUP_REPEATS or sum(point) < SETUP_MIN_S:
        t0 = time.perf_counter()
        SETUPS[workload](seed)
        point.append(time.perf_counter() - t0)
        plan.setup_s.append(point[-1])


# ---------------------------------------------------------------------------
# One pass
# ---------------------------------------------------------------------------

@dataclass
class Pass:
    pipeline_s: float
    stage_s: dict[str, float]
    peak_rss_mb: float
    attempted: int
    failed: int
    problems: list[str]
    notes: list[str]
    digest: str
    bench_digest: str


def _reset(plan: Plan) -> None:
    for out in plan.out_dirs:
        if not os.path.isdir(out):
            continue
        for name in os.listdir(out):
            if name not in plan.keep:
                path = os.path.join(out, name)
                shutil.rmtree(path) if os.path.isdir(path) else os.remove(path)


def run_pass(plan: Plan, workload: str, seed: int, traced: bool) -> Pass:
    import checks

    _reset(plan)
    stage_s = dict.fromkeys(STAGE_METRICS, 0.0)
    codes, snaps = [], {}
    rss_kb = 0
    t_start = time.perf_counter()
    for step in plan.steps:
        wall, code, rss = run_stage(step.argv, traced)
        stage_s[step.metric] += wall
        rss_kb = max(rss_kb, rss)
        codes.append(code)
        if step.kind:
            path = os.path.join(step.out, "forecast.csv")
            snaps[step.kind] = b""
            if os.path.isfile(path):
                with open(path, "rb") as fh:
                    snaps[step.kind] = fh.read()
    pipeline_s = time.perf_counter() - t_start

    attempted = failed = 0
    problems, notes = [], []
    for step, code in zip(plan.steps, codes):
        if step.metric == "ingest_s":
            result = (0, 0, [] if code == 0 else [f"ingest into {step.out} exited {code}"])
        elif step.metric == "screen_s":
            result = checks.check_screen(step.out, code)
        elif step.metric == "benchmark_s":
            *result, found = checks.check_benchmark(step.out, code, all_cells_bound=seed == 0)
            notes += found
        else:
            result = checks.check_forecast(snaps[step.kind], code, step.kind)
        attempted += result[0]
        failed += result[1]
        problems += result[2]

    h = hashlib.sha256()
    for out in plan.out_dirs:
        h.update(checks.digest_tree(out).encode())
    for kind in sorted(snaps):
        h.update(kind.encode() + hashlib.sha256(snaps[kind]).digest())
    bench_digest = ""
    if workload != "screen-sweep":
        bench_digest = checks.digest_tree(plan.out_dirs[0], only={"report.json", "models"})
    return Pass(pipeline_s, stage_s, rss_kb / 1024.0, attempted, failed, problems, notes,
                h.hexdigest(), bench_digest)


# ---------------------------------------------------------------------------
# Determinism records and environment
# ---------------------------------------------------------------------------

def source_digest() -> str:
    import checks

    return checks.digest_tree(os.path.join(SRC, "airpolicy"))


def _recorded(name: str) -> str | None:
    path = os.path.join(RESULTS, name)
    if not os.path.isfile(path):
        return None
    with open(path) as fh:
        return fh.read().strip()


def _record(name: str, value: str) -> str | None:
    """Store ``value`` under ``name`` unless a value is there; return the earlier one."""
    earlier = _recorded(name)
    if earlier is None:
        with open(os.path.join(RESULTS, name), "w") as fh:
            fh.write(value + "\n")
    return earlier


def _git_commit() -> str:
    # Read .git directly: the checkout may not be a repository, and asking
    # git would search the directories above it.
    head = os.path.join(ROOT, ".git", "HEAD")
    if not os.path.isfile(head):
        return "unknown"
    with open(head) as fh:
        ref = fh.read().strip()
    if not ref.startswith("ref: "):
        return ref
    path = os.path.join(ROOT, ".git", ref[5:])
    if os.path.isfile(path):
        with open(path) as fh:
            return fh.read().strip()
    return "unknown"


def environment() -> dict:
    import numpy

    from airpolicy import kernels

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "kernels_backend": kernels.BACKEND,
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "git_commit": _git_commit(),
        "loadavg_start": os.getloadavg(),
    }


def startup_s() -> float:
    samples = [run_process([sys.executable, "-c", "import airpolicy.cli"], "stages.log")[0]
               for _ in range(STARTUP_REPEATS)]
    return statistics.median(samples)


# ---------------------------------------------------------------------------
# Main
# ---------------------------------------------------------------------------

def _fail_early(message: str) -> int:
    print(f"pipebench: {message}", file=sys.stderr)
    return 2


def determinism_problems(workload: str, seed: int, key: str, plan: Plan,
                         passes: list[Pass]) -> list[str]:
    """Passes agree, reruns agree, and the benchmark's bytes do not depend on --jobs."""
    import checks

    problems = []
    digests = {ps.digest for ps in passes}
    if len(digests) > 1:
        problems.append(f"outputs differ between passes: {sorted(digests)}")
    earlier = _record(f"digest-{workload}-{key}.txt", passes[0].digest)
    if earlier not in (None, passes[0].digest):
        problems.append(f"outputs differ from an earlier run with seed {seed}: "
                        f"{earlier} != {passes[0].digest}")
    if workload == "quickstart":
        _record(f"bench-{key}.txt", passes[0].bench_digest)
    elif workload == "benchmark-jobs2":
        jobs1 = _recorded(f"bench-{key}.txt")
        if jobs1 is None:
            # No quickstart run with this seed here yet: rerun at --jobs 1, untimed.
            _reset(plan)
            code = run_stage(plan.steps[0].argv[:-1] + ["1"], traced=False)[1]
            jobs1 = checks.digest_tree(plan.out_dirs[0], only={"report.json", "models"})
            if code == 0:
                _record(f"bench-{key}.txt", jobs1)
        if any(ps.bench_digest != jobs1 for ps in passes):
            problems.append("report.json and models/ differ between --jobs 1 and --jobs 2")
    return problems


def traced_run(workload: str, seed: int, plan: Plan, untraced: Pass) -> tuple[dict, Pass, list[str]]:
    """One in-process pass under the tracer; returns (layer metrics, pass, problems)."""
    import micro
    import tracing
    from airpolicy.models import KINDS

    tracer = tracing.Tracer(run_id=f"{workload}-{seed}-{os.getpid()}")
    tracer.install()
    try:
        traced = run_pass(plan, workload, seed, traced=True)
    finally:
        tracer.uninstall()
    problems = list(traced.problems)
    if traced.digest != untraced.digest:
        problems.append("traced in-process outputs differ from the untraced run")
    missing = tracing.missing_boundaries(tracer, tracing.required_for(workload, KINDS))
    if missing:
        problems.append(f"traced boundaries never reached: {missing}")
    tracer.write_spans(os.path.join(RESULTS, f"spans-{workload}-{seed}.jsonl"))
    layers = tracing.layer_metrics(tracer, KINDS)
    layers["trace.overhead_s"] = traced.pipeline_s - untraced.pipeline_s
    layers["cli.startup_s"] = startup_s()
    layers.update(micro.run(seed))
    layers.update(untraced.stage_s)
    return layers, traced, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "airpolicy", "cli.py")):
        return _fail_early(f"no airpolicy sources under {SRC}; run from a repository checkout")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        declared = json.load(fh)
    sys.path.insert(0, SRC)

    os.makedirs(RESULTS, exist_ok=True)
    env = environment()
    src_hash = source_digest()
    key = f"{args.seed}-{src_hash[:16]}"
    os.makedirs(WORK, exist_ok=True)
    os.chdir(WORK)
    # Compile the package's bytecode once so no stage pays it.
    run_process([sys.executable, "-c", "import airpolicy.cli"], os.devnull)

    plan = set_up(args.workload, args.seed, os.path.join(WORK, args.workload))
    passes = []
    began = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        passes.append(run_pass(plan, args.workload, args.seed, traced=False))
        sample_setup(plan, args.workload, args.seed, point_start=len(plan.setup_s))
        # Start another pass only if it should end within --seconds.
        now = time.perf_counter()
        if args.trace or now - began + (now - t0) > args.seconds:
            break
    problems = [p for ps in passes for p in ps.problems]
    problems += determinism_problems(args.workload, args.seed, key, plan, passes)

    metrics = {
        "setup_s": statistics.median(plan.setup_s),
        "pipeline_s": statistics.median(ps.pipeline_s for ps in passes),
        "peak_rss_mb": statistics.median(ps.peak_rss_mb for ps in passes),
    }
    metrics.update({m: statistics.median(ps.stage_s[m] for ps in passes) for m in STAGE_METRICS})
    runs = list(passes)
    if args.trace:
        layers, traced, traced_problems = traced_run(args.workload, args.seed, plan, passes[0])
        metrics.update(layers)
        runs.append(traced)
        problems += traced_problems
    attempted = sum(ps.attempted for ps in runs)
    failed = sum(ps.failed for ps in runs)
    metrics["failed_share"] = failed / attempted

    section = declared["per_layer" if args.trace else "end_to_end"]
    unit_of = {m["name"]: m["unit"] for m in declared["end_to_end"] + declared["per_layer"]}
    missing = [m["name"] for m in section if m["name"] not in metrics]
    if missing:
        problems.append(f"metrics declared in BENCHMARK.json but not measured: {missing}")
    for name, value in metrics.items():
        print(f"{name:40s} {value:14.6g} {unit_of.get(name, '')}")
    notes = sorted({n for ps in runs for n in ps.notes})
    for n in notes:
        print(f"NOTE: {n}")
    for p in problems:
        print(f"PROBLEM: {p}")

    env["loadavg_end"] = os.getloadavg()
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "environment": env, "source_digest": src_hash,
        "output_digest": passes[0].digest, "bench_digest": passes[0].bench_digest,
        "setup_samples_s": plan.setup_s, "passes": [vars(ps) for ps in runs],
        "metrics": metrics, "problems": problems, "notes": notes,
        "attempted": attempted, "failed": failed,
    }
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(RESULTS, name), "w") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in section if m["name"] in metrics},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
