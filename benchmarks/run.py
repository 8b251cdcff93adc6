"""lshkit benchmark: runs one workload in this process and prints one JSON line.

    python3 benchmarks/run.py --workload serve --seed 0 --seconds 10 --trace 0

Run from the root of a source checkout; lshkit is imported from ``src/``.
With ``--trace 0`` the result carries the end-to-end metrics, with
``--trace 1`` the per-layer metrics of a traced run. Human-readable lines
(sample counts, error rate, digests) come first; the last line of standard
output is the JSON result. The exit code is 0 only if every output check
passed. ``report.py`` runs every workload, each in a fresh process.
"""

from __future__ import annotations

import os
import sys

# one thread everywhere: set before numpy is imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import shutil
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_run")
GOLDEN = os.path.join(HERE, "golden.json")
DEFAULT_SEED = 0
WORKLOAD_NAMES = ("serve", "sweep")


def _import_lshkit() -> None:
    """Import lshkit from this checkout's src/ and nowhere else."""
    sys.path.insert(0, SRC)
    try:
        import lshkit
    except ImportError as exc:
        sys.exit(f"cannot import lshkit from {SRC}: {exc}")
    if not os.path.realpath(lshkit.__file__).startswith(os.path.realpath(SRC) + os.sep):
        sys.exit(f"lshkit was imported from {lshkit.__file__}, not from {SRC}")


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True,
                   help="how long the workload's main phase repeats")
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--scale", choices=("full", "tiny"), default="full",
                   help="tiny: the smoke test's small inputs")
    p.add_argument("--record-golden", action="store_true",
                   help=f"write this run's digests into golden.json instead of checking them "
                        f"(seed {DEFAULT_SEED}, --trace 0 only)")
    return p.parse_args(argv)


def _check_golden(args, out) -> None:
    key = args.workload if args.scale == "full" else f"{args.workload}@{args.scale}"
    if args.record_golden:
        if args.seed != DEFAULT_SEED or args.trace:
            sys.exit(f"--record-golden needs --seed {DEFAULT_SEED} --trace 0")
        golden = {}
        if os.path.exists(GOLDEN):
            with open(GOLDEN, encoding="utf-8") as fh:
                golden = json.load(fh)
        golden[key] = out.digests
        with open(GOLDEN, "w", encoding="utf-8") as fh:
            json.dump(golden, fh, indent=2, sort_keys=True)
            fh.write("\n")
        return
    if args.seed != DEFAULT_SEED:
        return
    with open(GOLDEN, encoding="utf-8") as fh:
        expected = json.load(fh).get(key, {})
    for name, digest in out.digests.items():
        want = expected.get(name)
        out.check([] if digest == want else [f"{name} digest {digest} != golden {want}"])


def _declared(trace: int) -> dict[str, str]:
    """Metric name -> unit, in BENCHMARK.json's order, for this kind of run."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    return {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    args = _parse_args(argv)
    _import_lshkit()
    units = _declared(args.trace)
    import workloads

    os.makedirs(WORK, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK)
    try:
        out = workloads.run(args.workload, args.seed, args.seconds, bool(args.trace), workdir, args.scale)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(WORK)
        except OSError:
            pass  # another run still uses it
    _check_golden(args, out)

    if set(out.metrics) != set(units):
        sys.exit(f"measured {sorted(out.metrics)}, BENCHMARK.json declares {sorted(units)}")
    print(f"workload={args.workload} seed={args.seed} scale={args.scale} trace={args.trace}")
    for name, unit in units.items():
        note = out.notes.get(name)
        print(f"  {name:36} {out.metrics[name]:14.6g} {unit:8}" + (f" ({note})" if note else ""))
    print(f"  error_rate {out.failed / out.attempted:.6g} ({out.failed} of {out.attempted} operations failed)")
    for name, digest in out.digests.items():
        print(f"  digest.{name} {digest}")
    for problem in out.problems[:20]:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    result = {
        "correct": out.failed == 0,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": {name: {"value": out.metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result), flush=True)
    return 0 if out.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
