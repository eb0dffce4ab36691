"""Paired, alternating benchmark runs of two checkouts, summarized against BENCHMARK.json.

    python3 tools/ab_bench.py <parent_root> <change_root> [--pairs 15] [--seconds 1]
                              [--workload all] [--seed 1]

Each pair runs every chosen workload once on each tree, each tree with its
own ``perfbench/run.py`` (end-to-end metrics, ``--trace 0``), from that
tree's root, one process at a time.  The tree that goes first alternates
from pair to pair, so a drift of the host's speed falls on both sides
alike.  Every run prints its failed ops and whether the oracle accepted
every answer.  Then, per workload and end-to-end metric, the summary gives
each side's median [q1, q3], the relative change of the medians (positive
is worse), the pairs the change wins, and the bound that BENCHMARK.json
declares.  A metric whose parent interquartile spread, relative to its
median, exceeds the bound is "unresolved": these runs cannot tell a change
of the bound's size from noise.  BENCHMARK.json is read from this script's
own tree and never written; nothing under perfbench/ is touched.
"""

import argparse
import glob
import json
import os
import shutil
import subprocess
import sys
from time import perf_counter

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
SIDES = ("parent", "change")


def run_once(root, workload, seed, seconds, timeout):
    """One perfbench run: (its summary dict, None), or (None, why it failed)."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    before = set(glob.glob(os.path.join(root, ".perfbench-*")))
    try:
        proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=timeout,
                              check=False)
    except subprocess.TimeoutExpired:
        # a killed run leaves its work directory behind
        for path in set(glob.glob(os.path.join(root, ".perfbench-*"))) - before:
            shutil.rmtree(path, ignore_errors=True)
        return None, f"timed out after {timeout} s"
    lines = proc.stdout.splitlines()
    if proc.returncode or not lines:
        return None, f"exit {proc.returncode}: {proc.stderr.strip()[-300:]}"
    return json.loads(lines[-1]), None


def quartiles(values):
    return np.percentile(values, [25, 50, 75]).tolist() if values else [float("nan")] * 3


def summarize(workload, runs, metrics):
    """Lines of the per-metric table of one workload; runs[side] is a list of summaries."""
    lines = [f"{workload}:"]
    for m in metrics:
        name, bound, lower = m["name"], m["bound"], m["better"] == "lower"
        pairs = [(p["metrics"][name]["value"], c["metrics"][name]["value"])
                 for p, c in zip(runs["parent"], runs["change"]) if p and c]
        if not pairs:
            lines.append(f"  {name}: no complete pair")
            continue
        (pq1, pmed, pq3), (cq1, cmed, cq3) = (quartiles([x[k] for x in pairs]) for k in (0, 1))
        worse = (cmed / pmed - 1) if lower else (pmed / cmed - 1)
        wins = sum((c < p) if lower else (c > p) for p, c in pairs)
        spread = (pq3 - pq1) / pmed
        if spread > bound:
            verdict = f"unresolved (parent IQR {spread:.1%} of median > bound)"
        elif worse > bound:
            verdict = "WORSE past bound"
        else:
            verdict = "within bound"
        lines.append(f"  {name} [{m['unit']}]: parent {pmed:.4g} [{pq1:.4g}, {pq3:.4g}]  "
                     f"change {cmed:.4g} [{cq1:.4g}, {cq3:.4g}]  worse by {worse:+.1%}  "
                     f"wins {wins}/{len(pairs)}  bound {bound:.0%}  {verdict}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent_root")
    parser.add_argument("change_root")
    parser.add_argument("--pairs", type=int, default=15)
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    names = [w["name"] for w in bench["workloads"]]
    if args.workload != "all":
        if args.workload not in names:
            parser.error(f"--workload must be one of {names} or all")
        names = [args.workload]
    roots = dict(zip(SIDES, (os.path.abspath(args.parent_root),
                             os.path.abspath(args.change_root))))
    timeout = 120 + 5 * args.seconds  # set-up, 11 times over, takes most of a short run
    runs = {w: {side: [] for side in SIDES} for w in names}
    for k in range(args.pairs):
        order = SIDES if k % 2 == 0 else SIDES[::-1]
        for w in names:
            for side in order:
                t0 = perf_counter()
                summary, why = run_once(roots[side], w, args.seed, args.seconds, timeout)
                runs[w][side].append(summary)
                took = f"{perf_counter() - t0:.1f} s"
                if summary is None:
                    print(f"pair {k + 1} {w} {side}: run failed, {why} ({took})", flush=True)
                else:
                    print(f"pair {k + 1} {w} {side}: failed ops {summary['failed']} of "
                          f"{summary['attempted']}, correct {summary['correct']} ({took})",
                          flush=True)
    print(f"\n{args.pairs} pairs, {args.seconds} s per run, seed {args.seed}; "
          "worse by: relative change of the medians, positive is worse")
    for w in names:
        print("\n".join(summarize(w, runs[w], bench["end_to_end"])))
        for side in SIDES:
            done = [s for s in runs[w][side] if s]
            failed = sum(s["failed"] for s in done)
            attempted = sum(s["attempted"] for s in done)
            correct = all(s["correct"] for s in done) if done else "n/a"
            print(f"  {side}: {len(done)} of {args.pairs} runs completed, failed ops "
                  f"{failed} of {attempted}, all correct {correct}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
