"""girthscope benchmark: one workload per run, result as a JSON object on the last stdout line.

    python3 perfbench/run.py --workload edge-complete --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all          # every workload, each in a fresh process
    python3 perfbench/run.py --crosscheck            # stored digests vs the baseline engine (slow)

--trace 0 prints the end-to-end metrics; --trace 1 runs untraced and traced
passes side by side and prints the per-layer metrics. Lines before the last
one, starting with "#" or the workload name, are for people.

Run from the repository root; the package is imported from src/.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time

import harness


def crosscheck(names) -> int:
    """Recompute every stored enumeration digest with the baseline engine and compare."""
    prog = harness.load_package()
    table = harness.load_expected()
    bad = 0
    for name in names:
        instances, searches = harness.WORKLOADS[name].build()
        for inst in instances:
            for mode, k in inst.calls:
                key = harness.call_key(inst, mode, k)
                t0 = time.perf_counter()
                ref = harness.enumeration_reference(prog, inst, mode, k)
                verdict = "ok" if table.get(key) == ref else "MISMATCH"
                bad += verdict != "ok"
                print(f"{verdict} {key} reference={json.dumps(ref)} ({time.perf_counter() - t0:.1f} s)")
        for search in searches:
            ref = harness.search_reference(prog, search)
            if ref is None:
                print(f"skipped {search.key}: past the brute-force budget; stored {json.dumps(table.get(search.key))}")
                continue
            verdict = "ok" if table.get(search.key) == ref else "MISMATCH"
            bad += verdict != "ok"
            print(f"{verdict} {search.key} reference={json.dumps(ref)}")
    return 1 if bad else 0


def run_all(args) -> int:
    """Each workload in its own process, so peak RSS is per workload; one combined JSON line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in harness.WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            return proc.returncode or 1
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}/{metric}"] = value
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=[*harness.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--crosscheck", action="store_true",
                        help="check expected.json against the baseline engine instead of timing")
    args = parser.parse_args(argv)
    if args.crosscheck:
        names = list(harness.WORKLOADS) if args.workload == "all" else [args.workload]
        return crosscheck(names)
    if args.workload == "all":
        return run_all(args)
    result = harness.run(harness.WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
