"""Run one workload of the xlinear benchmark and print its metrics.

    python3 perfbench/run.py --workload train_m --seed 1 --seconds 38 --trace 0

Run from the repository root. The library is imported from ``src/`` of
the same tree. With ``--trace 0`` the last stdout line reports every
end-to-end metric of ``BENCHMARK.json``; with ``--trace 1`` every
per-layer metric. The lines before it give the machine, the p50, mean
and tail of each latency with its sample count (or, traced, the tracing
overhead), and any failed operation. The full
result (and, when traced, the span list) is written under
``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

# Pin BLAS to one thread for this process only, before numpy loads. On the
# 2-core reference machine one thread was as fast as two for these shapes.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _import_library():
    """Import xlinear from this tree's ``src/`` and nowhere else."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "xlinear", "__init__.py")):
        raise SystemExit(f"perfbench: no xlinear sources under {src}")
    sys.path[:0] = [src, HERE]
    import xlinear

    if os.path.dirname(os.path.dirname(os.path.abspath(xlinear.__file__))) != src:
        raise SystemExit(f"perfbench: xlinear imported from {xlinear.__file__}, not {src}")


def _blas_threads(np):
    """Thread count the loaded OpenBLAS reports, or None if it cannot be asked."""
    import ctypes
    import glob

    libs = glob.glob(os.path.join(os.path.dirname(os.path.dirname(np.__file__)),
                                  "numpy.libs", "lib*openblas*"))
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def _git_commit():
    """HEAD commit read from .git without starting git; None outside a checkout."""
    try:
        with open(os.path.join(ROOT, ".git", "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if head.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", head[5:]), encoding="utf-8") as fh:
                return fh.read().strip()
        return head
    except OSError:
        return None


def machine():
    import platform

    import numpy as np

    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "blas": blas.get("name"),
            "blas_version": blas.get("version"), "blas_threads": _blas_threads(np),
            "blas_threads_pinned": BLAS_THREADS, "git_commit": _git_commit()}


def _metric_block(names_units, values):
    missing = [n for n, _ in names_units if values.get(n) is None]
    if missing:
        raise SystemExit(f"perfbench: no value for metric(s) {', '.join(missing)}")
    return {n: {"value": values[n], "unit": u} for n, u in names_units}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        raise SystemExit(f"perfbench: unknown workload {args.workload!r}")
    _import_library()
    import harness

    out_dir = os.path.join(HERE, "out")
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = os.path.join(out_dir, f"work-{tag}-{os.getpid()}")
    os.makedirs(work)
    try:
        run = harness.Run(args.workload, args.seed, args.seconds, bool(args.trace), work)
        run.execute()
    finally:
        shutil.rmtree(work, ignore_errors=True)

    summary = run.summary()
    detail = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "machine": machine(), **summary}
    if args.trace:
        section, values = spec["per_layer"], run.per_layer()
        detail["trace_overhead"] = run.trace_overhead()
    else:
        section, (values, detail["latency"]) = spec["end_to_end"], run.end_to_end()
    detail["metrics"] = values
    metrics = _metric_block([(m["name"], m["unit"]) for m in section], values)
    extra = set(values) - {m["name"] for m in section}
    if extra:
        raise SystemExit(f"perfbench: metric(s) missing from BENCHMARK.json: {sorted(extra)}")

    with open(os.path.join(out_dir, tag + ".json"), "w", encoding="utf-8") as fh:
        json.dump(detail, fh, indent=1)
    if args.trace:
        with open(os.path.join(out_dir, tag + ".spans.jsonl"), "w", encoding="utf-8") as fh:
            for span in run.tracer.spans:
                fh.write(json.dumps(span) + "\n")

    print("machine: " + json.dumps(detail["machine"]))
    for name, lat in detail.get("latency", {}).items():
        print(f"latency: {name} p50 {lat['p50_ms']:.3f} ms, mean {lat['mean_ms']:.3f} ms, "
              f"tail {lat['tail_ms']:.3f} ms at p{lat['tail_percentile']} of "
              f"{lat['samples']} samples")
    if args.trace:
        print("trace overhead: " + ", ".join(
            f"{kind} {'n/a' if pct is None else f'{pct:+.1f}%'}"
            for kind, pct in detail["trace_overhead"].items()))
    print(f"error_rate: {summary['error_rate']} ({summary['failed']} of "
          f"{summary['attempted']} operations failed)")
    for op, reason in summary["failures"]:
        print(f"failed: {op}: {reason}")
    print(json.dumps({"correct": not summary["failed"], "attempted": summary["attempted"],
                      "failed": summary["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
