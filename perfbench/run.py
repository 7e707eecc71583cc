"""helmdual benchmark: run one workload through its CLI mode, check it, report metrics.

    python3 perfbench/run.py --workload {solve2d,farfield3d,selftest} --seed N --seconds S --trace {0,1}

Run from a checkout of the repository; helmdual is imported from its `src/`.
Each pass is a fresh worker process (perfbench/worker.py) with
HELMDUAL_THREADS=1 and one BLAS thread (WORKER_ENV): one closed-loop client,
workloads one after another.

--trace 0 repeats timed passes for --seconds and prints the end-to-end
metrics: the median wall time of the timed passes, the median set-up time
over at least SETUP_SAMPLES set-ups, and the peak resident memory of the
timed passes.  solve2d and farfield3d time the fixed reference draw, and
solve2d then runs the --seed draw once for its outcomes (see workloads.py).
--trace 1 runs one untraced and one traced pass of the --seed draw and prints
the per-layer metrics of the traced pass plus the tracing overhead.

Passes that share a seed must repeat their exact counts (descent and polish
steps, FFT and lstsq calls, distinct orbits) and their CSV bytes.  The last
line of standard output is one JSON object: correct, attempted, failed,
metrics.  Work files go to .perfbench/ in the checkout.
"""

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import HERE, ROOT, WORKLOADS

OUT_DIR = ROOT / ".perfbench"
SETUP_SAMPLES = 5       # set-ups timed per run (passes plus set-up-only processes)
RUN_LIMIT_S = 170.0     # every worker is killed once a run has lasted this long
# Set for every worker.  One helmdual worker and single-threaded BLAS: the load
# is one closed-loop client, and on a shared 2-core machine OpenBLAS threads in
# lstsq made farfield3d passes 20% slower and twice as noisy (8.4-9.7 s against
# 7.0-7.3 s).
WORKER_ENV = {
    "HELMDUAL_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}
DETERMINISTIC_COUNTS = ("descent_steps", "polish_steps", "fft_calls", "lstsq_calls", "distinct_orbits")


class BenchError(RuntimeError):
    pass


def _declared():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec["end_to_end"], spec["per_layer"]


def _version(dist: str) -> str:
    try:
        return importlib.metadata.version(dist)
    except importlib.metadata.PackageNotFoundError:
        return "not installed"


def _git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def _blas() -> str:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        return "unknown"


def environment(seed: int) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "blas": _blas(),
        "worker_env": WORKER_ENV,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "seed": seed,
        "git_commit": _git_commit(),
        "warmup": "in wall_s: every pass is a fresh process, so first-call warm-up is timed each pass",
    }


class Runner:
    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.seed = seed
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self.dir = OUT_DIR / "run"
        shutil.rmtree(self.dir, ignore_errors=True)
        self.env = dict(os.environ, **WORKER_ENV)
        self.count = 0

    def run_pass(self, seed: int, traced=False, setup_only=False) -> dict:
        self.count += 1
        out = self.dir / f"pass-{self.count}"
        out.mkdir(parents=True)
        cmd = [sys.executable, str(HERE / "worker.py"), "--workload", self.workload,
               "--seed", str(seed), "--out", str(out), "--run-id", str(self.count)]
        cmd += ["--traced"] if traced else []
        cmd += ["--setup-only"] if setup_only else []
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise BenchError(f"run exceeded {RUN_LIMIT_S:.0f} s")
        with open(out / "worker.log", "w") as log:
            try:
                proc = subprocess.run(cmd, cwd=ROOT, env=self.env, stdout=log,
                                      stderr=subprocess.STDOUT, timeout=timeout)
            except subprocess.TimeoutExpired:
                raise BenchError(f"pass {self.count} killed after {timeout:.0f} s") from None
        if proc.returncode != 0:
            tail = (out / "worker.log").read_text()[-2000:]
            raise BenchError(f"pass {self.count} exited with {proc.returncode}:\n{tail}")
        result = json.loads((out / "result.json").read_text())
        result["pass"] = self.count
        return result


def repeat_checks(passes) -> list:
    """Passes with the same seed must agree on exact counts and CSV bytes."""
    checks = []
    by_seed = {}
    for p in passes:
        by_seed.setdefault(p["seed"], []).append(p)
    for seed, group in sorted(by_seed.items()):
        first = group[0]
        for other in group[1:]:
            diff = [k for k in DETERMINISTIC_COUNTS if other["counts"][k] != first["counts"][k]]
            checks.append((f"repeat_counts_seed{seed}", not diff,
                           f"pass {other['pass']} vs {first['pass']}: "
                           + (f"differ in {diff}" if diff else "identical")))
            same = other["csv_sha256"] == first["csv_sha256"]
            checks.append((f"repeat_csv_seed{seed}", same,
                           f"pass {other['pass']} vs {first['pass']}: "
                           + ("byte-identical" if same else "CSV bytes differ")))
    return checks


def untraced(runner: Runner, seconds: float):
    """Timed passes until `seconds` have passed, then one untimed pass of the
    --seed draw for workloads that time a reference draw and ask for it."""
    wl = WORKLOADS[runner.workload]
    timed_seed = runner.seed if wl.timed_seed is None else wl.timed_seed
    t0 = time.monotonic()
    timed = [runner.run_pass(timed_seed)]
    while time.monotonic() - t0 < seconds:
        timed.append(runner.run_pass(timed_seed))
    passes = timed + ([runner.run_pass(runner.seed)] if wl.seed_pass else [])
    setups = [p["setup_s"] for p in passes]
    while len(setups) < SETUP_SAMPLES:
        setups.append(runner.run_pass(runner.seed, setup_only=True)["setup_s"])
    metrics = {
        "wall_s": statistics.median(p["wall_s"] for p in timed),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": max(p["peak_rss_mb"] for p in timed),
    }
    return passes, metrics


def traced(runner: Runner):
    plain = runner.run_pass(runner.seed)
    spanned = runner.run_pass(runner.seed, traced=True)
    metrics = dict(spanned["layers"])
    metrics["trace.overhead_s"] = spanned["wall_s"] - plain["wall_s"]
    return [plain, spanned], metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=12345)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # SIGTERM becomes SystemExit, on which subprocess.run kills and reaps the running worker
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (ROOT / "src" / "helmdual" / "__init__.py").is_file():
        print(f"error: no helmdual sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    end_to_end, per_layer = _declared()
    runner = Runner(args.workload, args.seed)
    env = environment(args.seed)
    print(f"helmdual benchmark: workload={args.workload} seed={args.seed} trace={args.trace}")
    print("env " + json.dumps(env))
    try:
        passes, metrics = traced(runner) if args.trace else untraced(runner, args.seconds)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    checks = [tuple(c) for p in passes for c in p["checks"]] + repeat_checks(passes)
    correct = all(ok for _, ok, _ in checks)
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes) if correct else attempted
    metrics["fail_frac"] = failed / attempted if attempted else 1.0

    units = {m["name"]: m["unit"] for m in end_to_end + per_layer}
    reported = [m["name"] for m in (per_layer if args.trace else end_to_end)]
    missing = sorted(set(reported) - set(metrics))
    if missing:
        print(f"error: declared metrics not measured: {missing}", file=sys.stderr)
        return 1

    for p in passes:
        kind = "traced" if p["traced"] else "untraced"
        print(f"pass {p['pass']}: {kind} seed={p['seed']} wall_s={p['wall_s']:.3f} cpu_s={p['cpu_s']:.3f} "
              f"setup_s={p['setup_s']:.3f} peak_rss_mb={p['peak_rss_mb']:.1f} "
              f"operations={p['attempted']} failed={p['failed']} counts={json.dumps(p['counts'])}")
    for name, ok, detail in checks:
        print(f"check {'ok  ' if ok else 'FAIL'} {name}: {detail}")
    for name, value in metrics.items():
        print(f"metric {name} = {value:.6g} {units[name]}")

    record = {"env": env, "workload": args.workload, "trace": args.trace, "correct": correct,
              "attempted": attempted, "failed": failed, "metrics": metrics, "passes": passes,
              "checks": checks}
    (OUT_DIR / "results").mkdir(parents=True, exist_ok=True)
    (OUT_DIR / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in reported},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
