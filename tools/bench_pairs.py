"""Run the benchmark on two checkouts in alternating order and write every
run, with each side's medians and quartiles, to one JSON file.

    python3 tools/bench_pairs.py PARENT CHANGE --workload hologram \\
        --seed 1101 --pairs 10 --out BENCH_11.json

PARENT and CHANGE are the roots of two source checkouts.  Pair ``i`` of a
workload runs seed ``seed + i`` on both; even pairs run the parent first and
odd pairs the change, so a drift in the machine's speed falls on both sides
alike.  Each run is ``python3 bench/run.py --workload W --seed N --seconds S
--trace 0`` in the checkout's own directory, and the last line it prints is
its result.  The end-to-end metrics, the direction in which each is better
and its bound are read from the change's ``BENCHMARK.json``.

The file records, per workload, every run (pair, seed, side, order,
``correct``, ``attempted``, ``failed`` and each end-to-end metric), and for
each metric the median and quartiles of both sides, the ratio of the
change's median to the parent's, the number of pairs the change won and a
verdict against the metric's ``bound`` in ``BENCHMARK.json``:

- ``unresolved`` when the parent's quartile spread is wider than ``bound``
  times its median, unless every change run beats every parent run;
- ``worse`` when the change's median is worse than the parent's by more
  than ``bound`` times the parent's median;
- ``ok`` otherwise.

An existing file keeps the workloads this call does not run, so several
calls with different pair counts build one file.

An A/A run, with PARENT and CHANGE two ``git archive`` copies of one
commit, shows how far the machine alone moves each metric: an offset that
appears there, as in a consistent ``peak_rss_mb`` difference, is not the
change's.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

import numpy as np

SIDES = ("parent", "change")


def run_bench(checkout: str, workload: str, seed: int, seconds: float) -> dict:
    """One ``bench/run.py`` run in ``checkout``; its last output line as JSON."""
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def verdict(parent: np.ndarray, change: np.ndarray, sign: float, bound: float) -> str:
    """``unresolved``, ``worse`` or ``ok`` (see the module docstring);
    ``sign`` is +1 where higher is better and -1 where lower is."""
    q1, med, q3 = np.percentile(parent, [25, 50, 75])
    if q3 - q1 > bound * abs(med) and (sign * change).min() <= (sign * parent).max():
        return "unresolved"
    if sign * (np.median(change) - med) < -bound * abs(med):
        return "worse"
    return "ok"


def summarize(runs: list[dict], metrics: dict[str, dict]) -> dict:
    """Per metric (its ``BENCHMARK.json`` entry, keyed by name): each side's
    median and quartiles, the change/parent median ratio, the pairs the
    change won (ties count for neither side) and the verdict."""
    out = {}
    for name, spec in metrics.items():
        side = {s: np.array([r["metrics"][name] for r in runs if r["side"] == s]) for s in SIDES}
        by_pair = {}
        for r in runs:
            by_pair.setdefault(r["pair"], {})[r["side"]] = r["metrics"][name]
        sign = 1.0 if spec["better"] == "higher" else -1.0
        wins = sum(sign * (p["change"] - p["parent"]) > 0 for p in by_pair.values())
        entry = {}
        for s in SIDES:
            q1, med, q3 = np.percentile(side[s], [25, 50, 75])
            entry[s] = {"median": float(med), "q1": float(q1), "q3": float(q3)}
        entry["ratio"] = entry["change"]["median"] / entry["parent"]["median"]
        entry["change_wins"] = f"{wins}/{len(by_pair)}"
        entry["verdict"] = verdict(side["parent"], side["change"], sign, spec["bound"])
        out[name] = entry
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", help="root of the parent's checkout")
    parser.add_argument("change", help="root of the change's checkout")
    parser.add_argument("--workload", nargs="+", required=True)
    parser.add_argument("--seed", type=int, required=True, help="seed of the first pair")
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")

    with open(os.path.join(args.change, "BENCHMARK.json")) as f:
        metrics = {m["name"]: m for m in json.load(f)["end_to_end"]}
    checkouts = {"parent": args.parent, "change": args.change}
    report = {}
    if os.path.exists(args.out):
        with open(args.out) as f:
            report = json.load(f)
    report["command"] = ("python3 bench/run.py --workload W --seed N "
                         f"--seconds {args.seconds:g} --trace 0")
    workloads = report.setdefault("workloads", {})

    for workload in args.workload:
        runs = []
        for i in range(args.pairs):
            seed = args.seed + i
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            for k, side in enumerate(order):
                res = run_bench(checkouts[side], workload, seed, args.seconds)
                runs.append({
                    "pair": i, "seed": seed, "side": side, "order": k,
                    "correct": res["correct"], "attempted": res["attempted"],
                    "failed": res["failed"],
                    "metrics": {m: res["metrics"][m]["value"] for m in metrics},
                })
                print(workload, seed, side, json.dumps(runs[-1]["metrics"]), flush=True)
        workloads[workload] = {"pairs": args.pairs, "runs": runs,
                               "summary": summarize(runs, metrics)}
        with open(args.out, "w") as f:
            json.dump(report, f, indent=1)
            f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
