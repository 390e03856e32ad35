"""Self-test of the benchmark, at tiny problem sizes.

Usage (from the repository root): ``python3 perfbench/selftest.py``

* every workload runs once untraced and once traced; each run must pass its
  oracles, and the metric names and units it emits must be exactly the ones
  ``BENCHMARK.json`` declares for that mode;
* one operation is fed a config that violates the schema: it must exit 2 and
  be counted as failed.

Exits 0 when every check passes, 1 otherwise.
"""

import json
import sys

import run

SEED = 7


def declared(section):
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in bench[section]}


def main():
    problems = []
    expected = {False: declared("end_to_end"), True: declared("per_layer")}
    for name in sorted(run.WORKLOADS):
        for trace in (False, True):
            result, info = run.measure(name, SEED, 0.0, trace, tiny=True)
            emitted = {k: v["unit"] for k, v in result["metrics"].items()}
            tag = f"{name} trace={int(trace)}"
            want = set(expected[trace].items())
            if set(emitted.items()) != want:
                problems.append(f"{tag}: undeclared {sorted(set(emitted.items()) - want)}, "
                                f"not emitted {sorted(want - set(emitted.items()))}")
            if not result["correct"] or result["failed"]:
                problems.append(f"{tag}: failures {info['failures']}")
            print(f"{tag}: {result['attempted']} op(s), rate path {info['rate_path']}")

    def break_schema(cfg):
        cfg["solver"]["unknown_key"] = 1

    result, info = run.measure("brownian", SEED, 0.0, False, tiny=True, mutate=break_schema)
    if info["exit_codes"] != [2]:
        problems.append(f"bad config: exit codes {info['exit_codes']}, want [2]")
    if (result["attempted"], result["failed"], info["fail_rate"]) != (1, 1, 1.0) \
            or result["metrics"]["ok_rate"]["value"] != 0.0 or result["correct"]:
        problems.append(f"bad config not counted as failed: {result}")
    print(f"bad config: exit codes {info['exit_codes']}, fail_rate {info['fail_rate']}")

    for p in problems:
        print("FAIL", p)
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
