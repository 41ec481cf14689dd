"""Check one hfl_bench result line against BENCHMARK.json.

usage: hfl_bench ... | tail -n 1 | python3 check_result.py BENCHMARK.json WORKLOAD TRACE

The result must be one JSON object with exactly the keys correct, attempted,
failed and metrics; it must be correct; and its metrics must be exactly the
end_to_end metrics (TRACE 0) or per_layer metrics (TRACE 1) that
BENCHMARK.json names, with the units it names. Exits 1 on any mismatch.
"""
import json
import math
import sys


def main():
    spec_path, workload, trace = sys.argv[1], sys.argv[2], sys.argv[3]
    with open(spec_path) as f:
        spec = json.load(f)
    result = json.loads(sys.stdin.read())
    errors = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"result keys are {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0:
        errors.append("result is not correct")
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        errors.append("attempted must be a whole number >= 1")
    wanted = spec["end_to_end"] if trace == "0" else spec["per_layer"]
    metrics = result.get("metrics", {})
    names = {m["name"] for m in wanted}
    if set(metrics) != names:
        errors.append(f"missing {sorted(names - set(metrics))}, "
                      f"unexpected {sorted(set(metrics) - names)}")
    for m in wanted:
        got = metrics.get(m["name"])
        if got is None:
            continue
        if got.get("unit") != m["unit"]:
            errors.append(f"{m['name']}: unit {got.get('unit')} != {m['unit']}")
        value = got.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            errors.append(f"{m['name']}: value {value!r} is not a number")
    for e in errors:
        print(f"check_result: {workload} trace {trace}: {e}", file=sys.stderr)
    if errors:
        sys.exit(1)
    print(f"check_result: {workload} trace {trace}: "
          f"{len(metrics)} metrics ok, {result['attempted']} checks passed")


if __name__ == "__main__":
    main()
