"""Seed-spread and regression checks for the repository benchmark.

  python3 benchmark/spread.py run [--seeds 1-10] [--workloads a,b]
                                  [--trace 0|1] [--out set.json]
      Runs BENCHMARK.json's command once per (seed, workload), seeds in the
      outer loop so every workload sees the same stretch of machine time,
      and prints for each end-to-end metric the median, the quartiles and
      the spread: (q3 - q1) / median, with the quartiles of Python's
      statistics.quantiles(values, n=4).

  python3 benchmark/spread.py compare FIRST.json SECOND.json
      The regression rule between two sets of runs: for every workload and
      metric, the second median may be worse than the first by at most the
      metric's bound (a share of the first median).

  python3 benchmark/spread.py --self-test
      Hand-computed cases for the spread and the regression rule.

Run from the repository root. Every run's full output goes to stderr.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def spread(values):
    """Interquartile distance as a share of the median."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


def regressed(first_median, second_median, bound, better):
    """True when the second median is worse than the first by more than
    `bound` times the first median, in the metric's bad direction."""
    limit = bound * abs(first_median)
    if better == "higher":
        return second_median < first_median - limit
    return second_median > first_median + limit


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_set(args):
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    workloads = args.workloads.split(",") if args.workloads else names
    metrics_key = "end_to_end" if args.trace == "0" else "per_layer"
    runs = []
    for seed in parse_seeds(args.seeds):
        for w in workloads:
            cmd = spec["command"] + [
                "--workload", w, "--seed", str(seed),
                "--seconds", str(spec["run_seconds"]), "--trace", args.trace]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True,
                                  text=True, timeout=900)
            sys.stderr.write(proc.stdout + proc.stderr)
            if proc.returncode != 0:
                sys.exit(f"spread: {w} seed {seed} exited {proc.returncode}")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            runs.append({"workload": w, "seed": seed, **result})
            print(f"{w} seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']}",
                  flush=True)
    summary = summarize(runs, spec[metrics_key], workloads)
    if args.out:
        with open(args.out, "w") as f:
            json.dump({"runs": runs, "summary": summary}, f, indent=1)
    print_summary(summary, spec[metrics_key])
    if any(not r["correct"] for r in runs):
        sys.exit("spread: some runs reported correct=false")


def summarize(runs, metrics, workloads):
    summary = {}
    for w in workloads:
        summary[w] = {}
        for m in metrics:
            values = [r["metrics"][m["name"]]["value"] for r in runs
                      if r["workload"] == w]
            q1, q2, q3 = statistics.quantiles(values, n=4)
            summary[w][m["name"]] = {
                "n": len(values), "median": statistics.median(values),
                "q1": q1, "q3": q3,
                "spread": (q3 - q1) / q2 if q2 else 0.0}
    return summary


def print_summary(summary, metrics):
    bounds = {m["name"]: m.get("bound") for m in metrics}
    for w, rows in summary.items():
        print(f"\n{w}")
        print(f"  {'metric':<26}{'median':>14}{'q1':>14}{'q3':>14}"
              f"{'spread':>9}{'bound':>7}")
        for name, s in rows.items():
            bound = bounds[name]
            flag = ""
            if bound is not None and name != "setup_s":
                flag = ("ok" if s["spread"] < bound / 3 else
                        "within bound" if s["spread"] <= bound else "OVER")
            print(f"  {name:<26}{s['median']:>14.6g}{s['q1']:>14.6g}"
                  f"{s['q3']:>14.6g}{s['spread']:>9.4f}"
                  f"{bound if bound is not None else '':>7}  {flag}")


def compare(first_path, second_path):
    spec = load_spec()
    with open(first_path) as f:
        first = json.load(f)["summary"]
    with open(second_path) as f:
        second = json.load(f)["summary"]
    worse = 0
    for w in first:
        for m in spec["end_to_end"]:
            a = first[w][m["name"]]["median"]
            b = second[w][m["name"]]["median"]
            bad = regressed(a, b, m["bound"], m["better"])
            worse += bad
            change = (b - a) / a if a else 0.0
            print(f"{w:<18}{m['name']:<18}{a:>14.6g}{b:>14.6g}"
                  f"{change:>+9.2%}  bound {m['bound']:.0%}  "
                  f"{'WORSE' if bad else 'ok'}")
    if worse:
        sys.exit(f"compare: {worse} metric(s) worse than their bound")


def self_test():
    cases = [
        (abs(spread(list(range(1, 11))) - 1.0) < 1e-12,
         "spread of 1..10 is (8.25 - 2.75) / 5.5 = 1"),
        (abs(spread([10, 2, 4, 5, 4]) - 1.125) < 1e-12,
         "spread of {2,4,4,5,10} is (7.5 - 3) / 4"),
        (regressed(100, 111, 0.10, "lower"), "lower-better 100 -> 111 fails"),
        (not regressed(100, 109, 0.10, "lower"),
         "lower-better 100 -> 109 passes"),
        (not regressed(100, 50, 0.10, "lower"),
         "lower-better improvement passes"),
        (regressed(100, 89, 0.10, "higher"), "higher-better 100 -> 89 fails"),
        (not regressed(100, 91, 0.10, "higher"),
         "higher-better 100 -> 91 passes"),
        (not regressed(100, 150, 0.10, "higher"),
         "higher-better improvement passes"),
    ]
    failed = [what for ok, what in cases if not ok]
    for what in failed:
        print(f"SELF-TEST FAILED: {what}")
    print(f"spread.py self-test: {len(cases)} checks, {len(failed)} failed")
    return 1 if failed else 0


def main():
    if sys.argv[1:] == ["--self-test"]:
        sys.exit(self_test())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="mode", required=True)
    run = sub.add_parser("run")
    run.add_argument("--seeds", default="1-10")
    run.add_argument("--workloads", default="")
    run.add_argument("--trace", default="0", choices=["0", "1"])
    run.add_argument("--out", default="")
    cmp_ = sub.add_parser("compare")
    cmp_.add_argument("first")
    cmp_.add_argument("second")
    args = parser.parse_args()
    if args.mode == "run":
        run_set(args)
    else:
        compare(args.first, args.second)


if __name__ == "__main__":
    main()
