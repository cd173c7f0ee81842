"""geninv benchmark: `python3 perfbench/run.py [--workload NAME|all] [--seed N]
[--seconds S] [--trace 0|1]`, run from the repository root.

With one workload it runs that workload in this process and prints its
metrics, one per line, then the result as one JSON object on the last line.
With `all` (the default) it runs conformance, float-family and cli one
after another, each in its own child process so that peak memory is its
own, and ends with one JSON object holding every workload's metrics under
`<workload>.<metric>`. `--trace 1` replaces the end-to-end metrics with the
per-layer metrics of a traced pass. See perfbench/README.md.
"""

import os

# One BLAS thread, set before numpy loads; child processes inherit it.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
NAMES = ("conformance", "float-family", "cli")


def _run_each(args) -> int:
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in NAMES:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900)
        sys.stdout.write(proc.stdout.rpartition("\n")[0].rpartition("\n")[0] + "\n")
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"workload {name} exited with {proc.returncode}", file=sys.stderr)
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        total["correct"] &= result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            total["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(total))
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=NAMES + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "geninv" / "__init__.py").is_file():
        print(f"geninv sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return _run_each(args)
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    result = workloads.run(args.workload, args.seed, args.seconds, bool(args.trace), ROOT)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
