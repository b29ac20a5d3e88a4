"""One benchmark run: one workload, measured for a fixed time.

    python3 perfbench/run.py --workload flagship-verify --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout; the package is taken from `src/`
with PYTHONPATH, as the tests take it. Every pass is a fresh process, since
each pipeline stage is memoized and a warm repeat would measure nothing.
Passes run one at a time, at least three, until the next one would end
after `--seconds`; each pass's outputs are checked after it ends, outside
its timing.

With `--trace 0` the last line of standard output is a JSON object with the
end-to-end metrics (medians over the run's passes): wall_s, cpu_s,
peak_rss_mb, and setup_s, the median of fresh-process imports of the
modules the workload uses, two before each pass. With `--trace 1` passes alternate between
untraced and traced processes, and the metrics are the per-layer figures
of tracer.METRICS (medians over the traced passes) and the tracing
overhead. `--out FILE` also appends the run, with every pass and the
machine's description, to a JSON-lines result set for compare.py.
"""

import argparse
import contextlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import sweep
import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"
# setup_s probes before each untraced pass: spread over the run, they see the
# same drift of the machine's speed as the passes
SETUP_PROBES_PER_PASS = 2
MIN_PASSES = 3  # the median of fewer untraced passes is one noisy pass
PASS_TIMEOUT_S = 150
IMPORT_PROBE = (
    "import importlib, sys, time\n"
    "t = time.perf_counter()\n"
    "for m in sys.argv[1:]:\n"
    "    importlib.import_module(m)\n"
    "print(time.perf_counter() - t)\n"
)


# name: (modules imported by setup_s, program, its arguments, operations per pass)
WORKLOADS = {
    "flagship-verify": (
        ("fusioncat.cli", "fusioncat.acceptance"),
        "cli", lambda seed, work: ["verify", "--fixture", "e4"],
        12,  # criteria
    ),
    "flagship-ocneanu": (
        ("fusioncat.cli", "fusioncat.pipeline", "fusioncat.catalog"),
        "cli", lambda seed, work: ["ocneanu"],
        6,  # records
    ),
    "ring-sweep": (
        ("fusioncat.weights", "fusioncat.modular", "fusioncat.fusion",
         "fusioncat.embedding", "fusioncat.catalog"),
        "sweep", lambda seed, work: ["--seed", str(seed), "--results", str(work / "results.json")],
        len(sweep.plan(0)),
    ),
}


def check(name, work, code, seed):
    """Run checks.py on a finished pass, in a process of its own."""
    out = subprocess.run(
        [sys.executable, str(HERE / "checks.py"), name, str(work), str(code), str(seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=PASS_TIMEOUT_S,
    )
    if out.returncode != 0:
        return WORKLOADS[name][3], [f"checks.py failed: {out.stderr[-2000:]}"]
    verdict = json.loads(out.stdout)
    return verdict["failed"], verdict["problems"]


def child_env(catalog=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    if catalog is not None:
        env["FUSIONCAT_CATALOG"] = str(catalog)
    return env


def setup_time(modules):
    out = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, *modules],
        cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=60, check=True,
    )
    return float(out.stdout.split()[-1])


def run_pass(name, seed, traced, n):
    """One fresh process on an empty catalog, timed by the parent, then
    checked. Returns the pass's figures, failed operations and problems."""
    _, target, args, _ = WORKLOADS[name]
    work = WORK / f"{os.getpid()}-{n}"
    shutil.rmtree(work, ignore_errors=True)
    (work / "catalog").mkdir(parents=True)
    argv = [sys.executable, str(HERE / "traced.py"), str(work / "trace.json"), target] if traced else (
        [sys.executable, "-m", "fusioncat.cli"] if target == "cli" else [sys.executable, str(HERE / "sweep.py")]
    )
    argv += args(seed, work)
    try:
        with open(work / "stdout", "wb") as out, open(work / "stderr", "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(work / "catalog"), stdout=out, stderr=err)
            timer = threading.Timer(PASS_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - t0
        proc.returncode = code = os.waitstatus_to_exitcode(status)
        failed, probs = check(name, work, code, seed)
        fig = {
            "wall_s": wall,
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "peak_rss_mb": usage.ru_maxrss / 1024,
        }
        if traced and code == 0:
            fig["layers"] = tracer.layer_metrics(json.loads((work / "trace.json").read_text()), wall)
        if code != 0:
            probs.append((work / "stderr").read_text()[-2000:])
        return fig, failed, probs
    finally:
        shutil.rmtree(work, ignore_errors=True)


def machine():
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.strip()
    except OSError:
        commit = ""
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "commit": commit or "unknown",
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {
            v: os.environ.get(v, "unset")
            for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
    }


def run(name, seed, seconds, trace):
    modules, _, _, per_pass = WORKLOADS[name]
    setup_time(modules)  # not counted: writes the bytecode a fresh checkout lacks
    setups = []
    deadline = time.perf_counter() + seconds
    passes, failed, problems, rounds = [], 0, [], []
    kinds = (False, True) if trace else (False,)
    min_rounds = 1 if trace else MIN_PASSES
    while True:
        t = time.perf_counter()
        if not trace:
            setups += [setup_time(modules) for _ in range(SETUP_PROBES_PER_PASS)]
        for traced in kinds:
            fig, f, probs = run_pass(name, seed, traced, len(passes))
            fig["traced"] = traced
            passes.append(fig)
            failed += f
            problems += probs
            print(
                f"{name} seed {seed} pass {len(passes)}{' traced' if traced else ''}: "
                f"{fig['wall_s']:.3f} s wall, {fig['cpu_s']:.3f} s cpu, {fig['peak_rss_mb']:.1f} MB, "
                f"{f} failed, {len(probs)} problems",
                file=sys.stderr,
            )
        rounds.append(time.perf_counter() - t)
        if problems or (len(rounds) >= min_rounds and time.perf_counter() + statistics.median(rounds) > deadline):
            break

    plain = [p for p in passes if not p["traced"]]
    if trace:
        layers = [p["layers"] for p in passes if "layers" in p]
        metrics = {m: statistics.median(lay[m] for lay in layers) for m in (layers or [{}])[0]}
        metrics["trace.untraced_wall_s"] = statistics.median(p["wall_s"] for p in plain)
        metrics["trace.overhead_s"] = metrics.get("trace.wall_s", 0) - metrics["trace.untraced_wall_s"]
        units = {m: u for m, u, _ in tracer.METRICS}
    else:
        metrics = {m: statistics.median(p[m] for p in plain) for m in ("wall_s", "cpu_s", "peak_rss_mb")}
        metrics["setup_s"] = statistics.median(setups)
        units = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}
    result = {
        "correct": not problems,
        "attempted": per_pass * len(passes),
        "failed": failed,
        "metrics": {m: {"value": v, "unit": units[m]} for m, v in metrics.items()},
    }
    return result, passes, setups, problems


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", help="append the run to this JSON-lines result set")
    args = p.parse_args(argv)
    if not (SRC / "fusioncat" / "cli.py").is_file():
        print(f"run.py: no fusioncat sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2

    result, passes, setups, problems = run(args.workload, args.seed, args.seconds, bool(args.trace))
    with contextlib.suppress(OSError):
        WORK.rmdir()  # only if no other run is using it
    for prob in problems:
        print(f"problem: {prob}", file=sys.stderr)
    if args.out:
        record = {
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "machine": machine(), "result": result,
            "passes": passes, "setups": setups, "problems": problems,
        }
        with open(args.out, "a") as fh:
            fh.write(json.dumps(record) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
