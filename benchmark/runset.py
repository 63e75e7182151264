#!/usr/bin/env python3
"""Collect a run-set: every workload of BENCHMARK.json, once per seed.

Run from the repository root:

    python3 benchmark/runset.py OUT.jsonl [--seeds 1-10] [--trace]

Each run is the BENCHMARK.json command with
`--workload W --seed S --seconds <run_seconds> --trace 0` (or 1); its last
output line (the result object) is appended to OUT.jsonl as
{"workload": W, "seed": S, "result": {...}}.  Compare two run-sets with
`dune exec benchmark/main.exe -- --compare A.jsonl B.jsonl`.
"""

import argparse
import json
import subprocess
import sys


def seed_range(text):
    lo, _, hi = text.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("out")
    ap.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    ap.add_argument("--trace", action="store_true",
                    help="traced runs: per-layer metrics instead of end-to-end")
    args = ap.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    ok = True
    with open(args.out, "a") as out:
        # seed by seed, every workload in turn: a slow stretch of the
        # host then lands on a few seeds of every workload, not on most
        # seeds of one
        for seed in args.seeds:
            for name in names:
                cmd = bench["command"] + [
                    "--workload", name, "--seed", str(seed),
                    "--seconds", str(bench["run_seconds"]),
                    "--trace", "1" if args.trace else "0"]
                proc = subprocess.run(cmd, capture_output=True, text=True)
                lines = proc.stdout.strip().splitlines()
                if proc.returncode != 0 or not lines:
                    sys.stderr.write(proc.stdout + proc.stderr)
                    sys.exit(f"{name} seed {seed}: exit {proc.returncode}")
                result = json.loads(lines[-1])
                ok = ok and result["correct"]
                out.write(json.dumps({"workload": name, "seed": seed,
                                      "result": result}) + "\n")
                out.flush()
                print(f"{name} seed {seed}: correct={result['correct']} "
                      f"attempted={result['attempted']} failed={result['failed']}",
                      flush=True)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
