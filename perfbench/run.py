"""Benchmark of the bevnext pipeline: set-up, latency, throughput, memory, per-layer trace.

Run from the repository root:

    python3 perfbench/run.py --workload desk-clip --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

One workload runs in one process. ``--trace 0`` reports the end-to-end
metrics; ``--trace 1`` reports the per-layer metrics of a traced run and
writes its spans to ``.perfbench/trace-<workload>-seed<seed>.jsonl``.
``--workload all`` runs every workload untraced and traced, each in its
own child process, and prints everything. The last line of standard
output is one JSON object: correct, attempted, failed and metrics.
"""

import os

# Set before NumPy loads: the pipeline's --threads is the only parallelism.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
NAMES = ("desk-clip", "desk-stream", "full-clip")


def environment() -> dict:
    import numpy as np

    try:
        openblas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
    except (KeyError, TypeError):
        openblas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "openblas": openblas,
        "OPENBLAS_NUM_THREADS": os.environ["OPENBLAS_NUM_THREADS"],
    }


def run_one(args) -> int:
    import tracing
    import workloads
    from bevnext.errors import BevnextError

    wl = workloads.WORKLOADS[args.workload]
    work = ROOT / ".perfbench" / f"run-{wl.name}-{os.getpid()}"
    try:
        res = workloads.run_workload(wl, args.seed, args.seconds, bool(args.trace), work)
    except (BevnextError, OSError) as exc:
        print(f"error: {wl.name}: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
    units = tracing.PER_LAYER if args.trace else workloads.END_TO_END
    print(f"workload {wl.name}  seed {args.seed}  threads {wl.threads}  trace {args.trace}")
    print("env " + json.dumps(environment(), sort_keys=True))
    for name, value in res.metrics.items():
        print(f"  {name:<52} {value:>14.4f} {units[name][0]}")
    rate = res.failed / res.attempted
    print(f"  {'error_rate':<52} {rate:>14.4f} ({res.failed} failed of {res.attempted} attempted)")
    print(f"digest {res.digest}")
    if args.trace:
        print("absent bindings: " + (", ".join(res.absent) or "none"))
        print(f"trace: .perfbench/trace-{wl.name}-seed{args.seed}.jsonl")
    for error in res.errors[:5]:
        print(f"check failed: {error}", file=sys.stderr)
    metrics = {k: {"value": v, "unit": units[k][0]} for k, v in res.metrics.items()}
    print(json.dumps({
        "correct": res.correct,
        "attempted": res.attempted,
        "failed": res.failed,
        "metrics": metrics,
    }))
    return 0


def run_all(args) -> int:
    """Every workload, untraced then traced, each in a child process of its own."""
    ok, attempted, failed, metrics = True, 0, 0, {}
    for name in NAMES:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)]
            child = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
            lines = child.stdout.splitlines()
            sys.stderr.write(child.stderr)
            if child.returncode != 0 or not lines:
                print(f"{name} trace {trace}: exit {child.returncode}")
                ok = False
                continue
            print("\n".join(lines[:-1]))
            res = json.loads(lines[-1])
            ok = ok and res["correct"]
            attempted += res["attempted"]
            failed += res["failed"]
            metrics.update({f"{name}.{k}": v for k, v in res["metrics"].items()})
    print(json.dumps({"correct": ok, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if ok else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="length of the timed phase")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 0:
        parser.error("--seed and --seconds must be >= 0")
    if not (ROOT / "src" / "bevnext" / "pipeline.py").is_file():
        print(f"error: no bevnext sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
