"""Run every workload, untraced and traced, each in a fresh process, and print
every end-to-end metric by name and unit, the error rate and the tracing
overhead in one table.

    python3 benchmarks/report.py [--seed 0] [--seconds 50]

Each child's own lines (sample counts, digests) are passed through. The exit
code is non-zero if any run failed a check or did not finish.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_one(workload: str, seed: int, seconds: float, trace: int) -> tuple[int, dict | None]:
    """One fresh process; returns its exit code and parsed result line."""
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.splitlines()
    for line in lines[:-1]:
        print(line)
    sys.stderr.write(proc.stderr)
    try:
        return proc.returncode, json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return proc.returncode or 1, None


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=bench["run_seconds"])
    args = p.parse_args(argv)

    workloads = [w["name"] for w in bench["workloads"]]
    status = 0
    results = {}
    for workload in workloads:
        for trace in (0, 1):
            code, result = run_one(workload, args.seed, args.seconds, trace)
            status = status or code
            results[workload, trace] = result

    print()
    print(f"{'metric':16} {'unit':9}" + "".join(f"{w:>14}" for w in workloads))
    rows = [(m["name"], m["unit"], 0) for m in bench["end_to_end"]]
    rows.append(("trace.overhead_s", "s", 1))
    for name, unit, trace in rows:
        cells = []
        for workload in workloads:
            result = results[workload, trace]
            value = result["metrics"].get(name, {}).get("value") if result else None
            cells.append(f"{value:14.6g}" if value is not None else f"{'-':>14}")
        print(f"{name:16} {unit:9}" + "".join(cells))
    cells = []
    for workload in workloads:
        done = [r for r in (results[workload, 0], results[workload, 1]) if r]
        attempted = sum(r["attempted"] for r in done)
        failed = sum(r["failed"] for r in done)
        cells.append(f"{failed / attempted:14.6g}" if len(done) == 2 else f"{'did not finish':>14}")
    print(f"{'error_rate':16} {'fraction':9}" + "".join(cells))
    return status


if __name__ == "__main__":
    sys.exit(main())
