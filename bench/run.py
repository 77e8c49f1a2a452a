"""Benchmark of tweezer_forge: one workload per call.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (the package is imported from
``src/``).  With ``--trace 0`` the workload runs untraced in three fresh
processes of a third of ``--seconds`` each; their samples are pooled and the
last line of the output holds the end-to-end metrics.  With ``--trace 1`` it
runs once untraced and once with spans around every layer, each for
``--seconds``, and the last line holds the per-layer metrics and the tracing
overhead.  Workloads, metrics and seeds are described in ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from types import SimpleNamespace

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402
from worker import SHOTS_PER_ROUND, WORKLOADS  # noqa: E402

# Timings of one process on the shared reference machine differ by up to a
# third from those of the next process on the same inputs, so a run pools
# the samples of several fresh processes; each also gives a set-up time.
PARTS = 3
DEADLINE_S = 175.0  # every process of a run has ended by then
RESULTS_DIR = os.path.join(HERE, "results")

# paper figures checked on the pooled statistics of a run
BILAYER_FILL_BAND = (0.95, 0.03)  # criterion 06
FOUR_PLANE_RATE_HZ = (0.5, 2.0)  # criterion 09


def worker_env(root: str) -> dict:
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    cores = str(len(os.sched_getaffinity(0)))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = cores
    env["PYTHONHASHSEED"] = "0"
    return env


def run_worker(args: list[str], env: dict, started: float) -> dict:
    """Run bench/worker.py to its end and return its last line as JSON."""
    left = DEADLINE_S - (time.monotonic() - started)
    if left <= 1.0:
        raise RuntimeError("no time left for another worker process")
    proc = subprocess.run([sys.executable, os.path.join(HERE, "worker.py"), *args],
                          env=env, capture_output=True, text=True, timeout=left)
    if proc.returncode != 0:
        raise RuntimeError(f"worker {' '.join(args)} exited {proc.returncode}:\n"
                           f"{proc.stderr[-4000:]}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"worker {' '.join(args)} printed nothing")
    return json.loads(lines[-1])


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def percentile_ms(values, q):
    return float(np.percentile(np.asarray(values) * 1e3, q))


def figures(workload, samples):
    """(the workload's own figures, named as in the README, and the
    end-to-end metrics every workload reports) from pooled samples."""
    steps = samples["step_s"]
    if workload == "hologram":
        work = float(np.median(2.0 / np.asarray(samples["solve_wall_s"])))
        own = {"wgs_solve_s": float(np.median(samples["solve_wall_s"])),
               "slab_volume_s": float(np.median(steps)),
               "passes": len(samples["solve_wall_s"]),
               "wgs_iterations_per_mask": float(np.mean(samples["wgs_iterations"]))}
    else:
        label = "cycle" if workload == "control" else "plan"
        own = {f"{label}_ms_p50": percentile_ms(steps, 50),
               f"{label}_ms_p99": percentile_ms(steps, 99), f"{label}s": len(steps)}
        if workload == "control":
            work = 1.0 / float(np.mean(steps))
        else:
            work = float(np.median(np.asarray(samples["shots"])
                                   / np.asarray(samples["shots_wall_s"])))
            own["shots_per_s"] = work
    return own, {"work_per_s": work,
                 "step_ms_p50": percentile_ms(steps, 50),
                 "step_ms_p95": percentile_ms(steps, 95)}


def pooled_statistics_errors(workload, parts):
    """The statistics checks over every run_experiment call of ``parts``,
    processes that drew distinct inputs.

    The crosstalk-free bound is left out on ``bilayer72``: there the fill
    with crosstalk sits at that bound, not below it, and exceeds it by 3
    standard errors on some seeds (see CHANGES.md)."""
    stats = [SimpleNamespace(**s) for part in parts for s in part["stats"]]
    if workload == "bilayer72":
        return checks.check_pooled(stats, fill_band=BILAYER_FILL_BAND)
    return checks.check_pooled(stats, parts[0]["oracle_fill"], rate_band_hz=FOUR_PLANE_RATE_HZ)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    started = time.monotonic()
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "tweezer_forge", "__init__.py")):
        print(f"no src/tweezer_forge under {root}: run from the root of a source checkout",
              file=sys.stderr)
        return 2
    env = worker_env(root)
    os.makedirs(RESULTS_DIR, exist_ok=True)
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"

    if args.trace == 0:
        parts = [run_worker(common + ["--part", str(k), "--seconds", str(args.seconds / PARTS)],
                            env, started) for k in range(PARTS)]
        samples = {}
        for part in parts:
            for name, values in part["samples"].items():
                samples.setdefault(name, []).extend(values)
        own, e2e = figures(args.workload, samples)
        setups = [part["setup_s"] for part in parts]
        metrics = {
            "setup_s": metric(statistics.median(setups), "s"),
            "peak_rss_mb": metric(max(part["peak_rss_mb"] for part in parts), "MB"),
            "work_per_s": metric(e2e["work_per_s"], "1/s"),
            "step_ms_p50": metric(e2e["step_ms_p50"], "ms"),
            "step_ms_p95": metric(e2e["step_ms_p95"], "ms"),
        }
        detail = {"setup_s_samples": setups, "own": own,
                  "rounds": [part["rounds"] for part in parts]}
        independent = [parts]
    else:
        timed = common + ["--part", "0", "--seconds", str(args.seconds)]
        plain = run_worker(timed, env, started)
        trace_file = os.path.join(RESULTS_DIR, f"spans-{tag}.json")
        traced = run_worker(timed + ["--trace-file", trace_file], env, started)
        parts = [plain, traced]
        plain_own, plain_e2e = figures(args.workload, plain["samples"])
        traced_own, traced_e2e = figures(args.workload, traced["samples"])
        overhead = plain_e2e["work_per_s"] / traced_e2e["work_per_s"] - 1.0
        metrics = {name: metric(value, unit) for name, (value, unit) in traced["layers"].items()}
        metrics["trace.overhead_pct"] = metric(100.0 * overhead, "%")
        detail = {"absent_spans": traced["absent"], "spans_file": trace_file,
                  "untraced_own": plain_own, "traced_own": traced_own}
        independent = [[plain], [traced]]  # the two ran the same inputs

    errors = [e for part in parts for e in part["errors"]]
    failed = sum(part["failed"] for part in parts)
    correct = all(part["check_failed"] == 0 for part in parts)
    for group in independent if args.workload in SHOTS_PER_ROUND else []:
        pooled = pooled_statistics_errors(args.workload, group)
        if pooled:
            # the pooled figures speak for every run_experiment call they pool
            failed += sum(len(part["stats"]) for part in group)
            correct = False
            errors += [f"pooled statistics: {e}" for e in pooled]
    result = {
        "correct": correct,
        "attempted": sum(part["attempted"] for part in parts),
        "failed": failed,
        "metrics": metrics,
    }
    detail.update(workload=args.workload, seed=args.seed, errors=errors[:20])
    with open(os.path.join(RESULTS_DIR, f"result-{tag}.json"), "w") as fh:
        json.dump({"result": result, "detail": detail}, fh, indent=1)
    if detail.get("absent_spans"):
        print("absent spans (their metrics read 0): " + ", ".join(detail["absent_spans"]))
    for e in errors[:20]:
        print(f"check failed: {e}")
    print("detail: " + json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
