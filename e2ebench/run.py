"""End-to-end benchmark of the t2vec pipeline; see README.md beside this file.

Run from the root of a checkout::

    python3 e2ebench/run.py --workload fit-paper --seed 1 --seconds 6 --trace 0

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  A traced run also
writes its spans to ``.bench_build/e2ebench/traces/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: name -> unit, for the end-to-end metrics (``--trace 0``).
END_TO_END = {
    "setup_s": "s",
    "train_tokens_per_s": "1/s",
    "val_loss": "nats",
    "query_p50_ms": "ms",
    "query_p99_ms": "ms",
    "eval_s": "s",
    "mean_rank_r0": "rank",
    "mean_rank_r04": "rank",
    "peak_rss_mb": "MB",
}


def per_layer_unit(name: str) -> str:
    if name in ("spatial.vocab_size", "trainer.steps"):
        return "count"
    if name.endswith("_s"):
        return "s"
    return "ratio"


def environment() -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
            "madvise_hugepage": os.environ["NUMPY_MADVISE_HUGEPAGE"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program source under {ROOT / 'src'}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    # Cap BLAS at the CPUs this process may use, before numpy loads.
    threads = str(len(os.sched_getaffinity(0)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = threads
    # numpy asks for transparent huge pages on large arrays; whether the
    # kernel grants them depends on the host's free memory, and it moved
    # peak RSS by a third between runs of the same code.
    os.environ["NUMPY_MADVISE_HUGEPAGE"] = "0"
    sys.path.insert(0, str(ROOT / "src"))

    from workloads import WORKLOADS, run_workload
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(WORKLOADS)}")

    env = environment()
    print("env " + json.dumps(env), flush=True)
    result = run_workload(args.workload, args.seed, args.seconds,
                          bool(args.trace), ROOT)
    tally = result["tally"]
    for what, count in tally.failures.items():
        print(f"failed: {what} x{count}", file=sys.stderr)
    if args.trace:
        values = result["per_layer"]
        metrics = {name: {"value": float(value),
                          "unit": per_layer_unit(name)}
                   for name, value in sorted(values.items())}
        trace_path = (ROOT / ".bench_build" / "e2ebench" / "traces"
                      / f"{args.workload}-seed{args.seed}.json")
        result["tracer"].write(trace_path, {"env": env, "metrics": values})
    else:
        metrics = {name: {"value": float(result["metrics"][name]),
                          "unit": unit}
                   for name, unit in END_TO_END.items()}
    print(json.dumps({"correct": tally.failed == 0,
                      "attempted": tally.attempted, "failed": tally.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
