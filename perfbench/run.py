"""Cold-run benchmark of the tauberlab command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. Each round starts a fresh Python
process (probe.py) that calls `tauberlab.cli.main` with the workload's
arguments, so every number is what a user pays cold. Rounds repeat until
`--seconds` have passed; a round takes longer than the benchmark's
run_seconds, so a run is one round. After the timed part the artifacts are
checked against the benchmark's own computation (checks.py).

The last line of standard output is one JSON object: correct, attempted,
failed and metrics (the end-to-end metrics, or with --trace 1 the per-layer
metrics of a separate traced round).
"""

import argparse
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SCRATCH = ROOT / ".perfbench"
# a round that outlives this is killed and its operations count as failed
ROUND_LIMIT_S = 170.0

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}


def _oscillate_grid(seed: int):
    """The seed shifts the 200-row grid on [10, 60] by under one row step."""
    step = 50.0 / 199
    x_min = 10.0 + random.Random(seed).random() * step
    return x_min, x_min + 50.0, 200


WORKLOADS = {
    "verify_real_axis": "verify --only lemma21,lemma22,witness_s,witness_tau",
    "verify_continuation": "verify --only continuation,residue",
    "oscillate_pow_table": "oscillate --rate pow --alpha 0.5",
}


def cli_args(workload: str, seed: int, out_dir: Path) -> list:
    args = WORKLOADS[workload].split() + ["--out", str(out_dir)]
    if workload == "oscillate_pow_table":
        args += ["--x-range", "%r:%r:%d" % _oscillate_grid(seed)]
    return args


def operations(workload: str) -> int:
    """One operation is a report record, or a table row plus the witness table."""
    from checks import CONTINUATION_RECORDS, REAL_AXIS_RECORDS

    if workload == "verify_real_axis":
        return len(REAL_AXIS_RECORDS)
    if workload == "verify_continuation":
        return len(CONTINUATION_RECORDS)
    return _oscillate_grid(0)[2] + 1


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def run_round(workload: str, seed: int, traced: bool, out_dir: Path) -> dict:
    """Spawn one cold process, wait for it, return its timings and usage."""
    out_dir.mkdir(parents=True, exist_ok=True)
    timing = out_dir / "timing.json"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(HERE)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    cmd = [sys.executable, str(HERE / "probe.py"), str(timing), "1" if traced else "0",
           "--"] + cli_args(workload, seed, out_dir)
    with open(out_dir / "stdout.txt", "wb") as out, open(out_dir / "stderr.txt", "wb") as err:
        t_spawn = _now()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=env, cwd=ROOT)
        killer = threading.Timer(ROUND_LIMIT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
    result = {"process_exit": proc.returncode,
              "cpu_s": usage.ru_utime + usage.ru_stime,
              "peak_rss_mb": usage.ru_maxrss / 1024.0}
    if proc.returncode == 0 and timing.exists():
        stamps = json.loads(timing.read_text(encoding="utf-8"))
        result["exit_code"] = stamps["exit_code"]
        result["wall_s"] = stamps["done"] - t_spawn
        if stamps["setup"] is not None:
            result["setup_s"] = stamps["setup"] - t_spawn
        for key in ("per_layer", "wrapped_calls", "wrapper_cost_s", "missing"):
            if key in stamps:
                result[key] = stamps[key]
    return result


def check_round(workload: str, seed: int, out_dir: Path, exit_code) -> tuple:
    """(attempted, failed, problems) for one round's artifacts."""
    import checks
    from reference import Reference

    attempted = operations(workload)
    if workload == "oscillate_pow_table":
        import numpy as np

        if exit_code != 0:
            return attempted, attempted, []
        x_min, x_max, points = _oscillate_grid(seed)
        problems = checks.check_oscillation(
            Reference("pow", 0.5), out_dir, np.linspace(x_min, x_max, points))
        return attempted, 0, problems
    report, problems = checks.read_report(out_dir / "report.json")
    if report is None:
        return attempted, attempted, []
    if workload == "verify_real_axis":
        expected = checks.REAL_AXIS_RECORDS
        problems = checks.check_real_axis_report(Reference("log"), report, (10.0, 60.0))
    else:
        expected = checks.CONTINUATION_RECORDS
        problems = checks.check_continuation_report(report)
    return attempted, len(checks.failed_records(report, expected)), problems


def result_line(correct: bool, attempted: int, failed: int, metrics: dict) -> str:
    return json.dumps({"correct": bool(correct), "attempted": int(attempted),
                       "failed": int(failed), "metrics": metrics})


def end_to_end_metrics(rounds: list) -> dict:
    out = {}
    for name, unit in END_TO_END_UNITS.items():
        values = [r[name] for r in rounds if name in r]
        if values:
            out[name] = {"value": statistics.median(values), "unit": unit}
    return out


def per_layer_metrics(traced: dict) -> dict:
    import tracing

    units = {name: "count" for name in tracing.COUNTS}
    units["contour.F_warm_ms"] = "ms"
    out = {}
    for name, value in traced.get("per_layer", {}).items():
        out[name] = {"value": value, "unit": units.get(name, "s")}
    out["trace.wall_s"] = {"value": traced.get("wall_s", 0.0), "unit": "s"}
    out["trace.wrapped_calls"] = {"value": traced.get("wrapped_calls", 0), "unit": "count"}
    out["trace.overhead_s"] = {
        "value": traced.get("wrapped_calls", 0) * traced.get("wrapper_cost_s", 0.0),
        "unit": "s"}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "tauberlab" / "cli.py").is_file():
        print(f"no tauberlab source under {ROOT / 'src'}; run from the repository root",
              file=sys.stderr)
        return 2

    rounds, problems = [], []
    attempted = failed = 0
    t_start = _now()
    while not rounds or _now() - t_start < args.seconds:
        out_dir = SCRATCH / f"{args.workload}-{os.getpid()}-{len(rounds)}"
        try:
            res = run_round(args.workload, args.seed, bool(args.trace), out_dir)
            n_ops, n_failed, found = check_round(
                args.workload, args.seed, out_dir, res.get("exit_code"))
            if "wall_s" not in res:
                n_failed = n_ops
                found.append("round did not finish: "
                             + (out_dir / "stderr.txt").read_text(errors="replace")[-500:])
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)
        rounds.append(res)
        attempted += n_ops
        failed += n_failed
        problems += found
        if args.trace:
            break
    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)
    if args.trace:
        # kept for inspection: the full traced round, next to the run dirs
        (SCRATCH / f"trace-{args.workload}.json").write_text(
            json.dumps(rounds[0], indent=1), encoding="utf-8")
        if rounds[0].get("missing"):
            print(f"not traced (absent): {rounds[0]['missing']}", file=sys.stderr)
        metrics = per_layer_metrics(rounds[0])
    else:
        metrics = end_to_end_metrics(rounds)
    print(result_line(not problems, attempted, failed, metrics))
    return 0


if __name__ == "__main__":
    sys.exit(main())
