"""One benchmark pass in a fresh process: set up, run one CLI mode, check it.

    python3 perfbench/worker.py --workload NAME --seed N --out DIR [--traced] [--setup-only]

Writes DIR/result.json (and DIR/spans.npz when traced).  Set-up time is
`import helmdual` + `parse_config` + `cli.build_context`, taken before any
wrapper is installed; only the standard library is imported before the clock
starts.  Wall time runs from the first solver call until the CLI returns
with its artifacts written.  Every pass runs in a fresh process, so the
first-call warm-up a CLI user pays on each run is inside the wall time.
"""

import argparse
import hashlib
import json
import resource
import sys
import time
from pathlib import Path

from workloads import CONFIG_DIR, ROOT, WORKLOADS

SRC = ROOT / "src"


def _import_helmdual():
    sys.path.insert(0, str(SRC))
    import helmdual

    if not Path(helmdual.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"helmdual imported from {helmdual.__file__}, not from {SRC}")


def _csv_digests(out: Path) -> dict:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out.glob("*.csv"))}


def _read_csv(path: Path):
    import csv

    if not path.is_file():
        return []
    with open(path, newline="") as handle:
        return list(csv.DictReader(handle))


def _check_outputs(workload, status: int, out: Path, ctx, threshold: float) -> list:
    """Seed-independent output checks: (name, ok, detail) triples."""
    checks = [("exit_status", status == 0, f"CLI exit status {status}")]
    if workload.mode != "solve":
        if workload.mode == "selftest":
            rows = _read_csv(out / "selftest.csv")
            failed = [r["suite"] for r in rows if r["passed"] != "1"]
            checks.append(("selftest_suites", bool(rows) and not failed, f"failed suites: {failed}"))
        return checks

    from helmdual import config, search

    rows = _read_csv(out / "solutions.csv")
    checks.append(("has_solutions", bool(rows), f"{len(rows)} records"))
    worst_dual = max((float(r["dual_residual"]) for r in rows), default=float("inf"))
    worst_primal = max((float(r["primal_residual"]) for r in rows), default=float("inf"))
    checks.append(("dual_residual", worst_dual <= 1e-8, f"max {worst_dual:.3e} <= 1e-8"))
    checks.append(("primal_residual", worst_primal <= 1e-6, f"max {worst_primal:.3e} <= 1e-6"))
    if workload.level is not None:
        level = min((float(r["level"]) for r in rows), default=float("nan"))
        gap = abs(level - workload.level)
        checks.append(("level", gap <= 1e-9, f"|c - {workload.level}| = {gap:.2e} <= 1e-9"))

    eps = ctx.grid.shell_epsilon
    fields = [config.read_field((out / f"v_{i:03d}.hlmf").read_bytes(), eps) for i in range(len(rows))]
    pc = ctx.exponents.p_conj
    closest = float("inf")
    for i, a in enumerate(fields):
        for b in fields[i + 1:]:
            scale = max(a.lp_norm(pc), b.lp_norm(pc))
            closest = min(closest, search.orbit_distance(ctx, a, b) / scale)
    checks.append(("orbits_distinct", closest > threshold,
                   f"min relative orbit distance {closest:.3e} > {threshold}"))
    return checks


def _operations(workload, out: Path, starts):
    """(attempted, failed): one per multistart start or selftest suite."""
    if workload.mode == "selftest":
        rows = _read_csv(out / "selftest.csv")
        return len(rows), sum(r["passed"] != "1" for r in rows)
    return len(starts), sum(status != "converged" for *_, status in starts)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--run-id", type=int, default=0)
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()
    workload = WORKLOADS[args.workload]
    config_path = CONFIG_DIR / workload.config if workload.config else None
    args.out.mkdir(parents=True, exist_ok=True)

    t0 = time.perf_counter()
    _import_helmdual()
    from helmdual import cli, config

    text = config_path.read_text() if config_path else ""
    cfg = config.parse_config(text, mode_override=workload.mode)
    cfg.seed = args.seed
    ctx = cli.build_context(cfg) if workload.mode != "selftest" else None
    setup_s = time.perf_counter() - t0
    result = {"setup_s": setup_s}
    if args.setup_only:
        (args.out / "result.json").write_text(json.dumps(result))
        return 0

    from tracer import Recorder

    recorder = Recorder(args.run_id, spans=args.traced)
    recorder.install()
    cli_out = args.out / "cli"
    argv = [workload.mode, "--out", str(cli_out), "--seed", str(args.seed)]
    if config_path:
        argv += ["--config", str(config_path)]
    cpu0 = time.process_time()
    try:
        status = cli.main(argv)
        t_end = time.perf_counter()
        cpu_s = time.process_time() - cpu0
    finally:
        recorder.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    ops = _operations(workload, cli_out, recorder.starts)
    checks = _check_outputs(workload, status, cli_out, ctx, cfg.descent_dedup_rel_threshold)
    result.update({
        "seed": args.seed,
        "traced": args.traced,
        "wall_s": t_end - recorder.first_solver_call,
        "cpu_s": cpu_s,
        "peak_rss_mb": peak_rss_mb,
        "attempted": ops[0],
        "failed": ops[1],
        "checks": checks,
        "counts": recorder.exact_counts(),
        "steps_per_start": [s[0] for s in recorder.starts],
        "csv_sha256": _csv_digests(cli_out),
    })
    if args.traced:
        from helmdual.selftest import SUITES

        result["layers"] = recorder.layer_metrics([name for name, _ in SUITES])
        recorder.write_spans(args.out / "spans.npz")
    (args.out / "result.json").write_text(json.dumps(result, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
