"""Seeded codegaze benchmark: end-to-end metrics, or per-layer ones when traced.

    python3 perfbench/run.py --workload train-linear --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

Run from the repository root; the library is imported from `src/`. The
run is a single process with BLAS pinned to one thread. The workloads and
their checks are in `workloads.py`; the tracing is in `spans.py`.

A pass is one set-up plus one round of the workload. `--trace 0` runs
two whole passes, then operations until `--seconds` have passed (the last
pass may be cut short), and reports every end-to-end metric, timed in the
normalized seconds of `hostclock.py`.
`--trace 1` alternates untraced and traced passes (at least two pairs,
within `--seconds` otherwise) and reports every per-layer metric of the
fastest traced pass in measured seconds, the `other` bucket and the tracing
overhead; the counts must repeat exactly between traced passes.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. A provenance line comes
before it, and the full report (with the spans when traced) is written to
`.bench_work/results/`. The exit code is 0 when every check passed, 1 when
one failed, and 2 when the library cannot be imported.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import hashlib
import json
import os
import platform
import resource
import shutil
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORK = os.path.join(ROOT, ".bench_work")
BLAS_THREADS = 1
MIN_PASSES = 2
MIN_TRACED = 2
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv, names):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*names, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


# ---------------------------------------------------------------------------
# Provenance

def _git_commit() -> str | None:
    """HEAD of the checkout's git repository, read without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as f:
            for line in f:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(ROOT, "src", "codegaze", "*.py"))):
        h.update(os.path.basename(path).encode())
        with open(path, "rb") as f:
            h.update(f.read())
    return h.hexdigest()


def _blas(numpy) -> dict:
    info = {"threads_env": {var: os.environ.get(var) for var in BLAS_ENV}}
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["name"], info["version"] = blas.get("name"), blas.get("version")
    except (TypeError, KeyError):
        info["name"] = info["version"] = None
    libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir,
                                  "numpy.libs", "*openblas*"))
    info["threads"] = None
    for lib_path in libs:
        lib = ctypes.CDLL(lib_path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["threads"] = fn()
                return info
    return info


def provenance(numpy, workload: str, seed: int, config: dict | None) -> dict:
    return {
        "git_commit": _git_commit(), "source_sha256": _source_digest(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "blas": _blas(numpy), "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(), "machine": platform.machine(),
        "workload": workload, "seed": seed, "config": config,
    }


# ---------------------------------------------------------------------------
# Modes

def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _timed_pass(run) -> float:
    start = time.perf_counter()
    run.pass_()
    return time.perf_counter() - start


def run_untraced(workloads, hostclock, spec, seed, seconds, workdir):
    """Whole passes up to MIN_PASSES, then operations until `seconds` are up."""
    run = workloads.Run(spec, seed, workdir, hostclock.HostClock())
    deadline = time.perf_counter() + seconds
    passes = 0
    with run.clock:
        while passes < MIN_PASSES:
            run.pass_()
            passes += 1
        run.deadline = deadline
        while run.pass_():
            passes += 1
    metrics = {name: {"value": value, "unit": unit}
               for name, (value, unit) in run.end_to_end(_peak_rss_mb()).items()}
    return run, metrics, {"passes": passes, "samples": run.report()}


def run_traced(workloads, spans, hostclock, spec, seed, seconds, workdir):
    # No reference sampling here: its handler would run inside the spans.
    run = workloads.Run(spec, seed, workdir, hostclock.HostClock())
    untraced, traced, tracers = [], [], []
    deadline = time.perf_counter() + seconds
    while (len(tracers) < MIN_TRACED
           or time.perf_counter() + untraced[-1] + traced[-1] <= deadline):
        untraced.append(_timed_pass(run))
        tracer = spans.Tracer(f"{spec.name}-seed{seed}-pass{len(tracers)}")
        with tracer:
            traced.append(_timed_pass(run))
        tracers.append(tracer)

    counts = dict(tracers[0].counts)
    for tracer in tracers[1:]:
        run.ledger.attempt("trace counts repeat", _expect_same_counts,
                           counts, dict(tracer.counts))

    # Layer times come from the fastest traced pass, so that they add up to
    # its wall time; the host's speed varies too much to average passes.
    best = min(range(len(traced)), key=traced.__getitem__)
    totals, top = tracers[best].self_times()
    unknown = set(totals) - set(spans.LAYERS)
    if unknown:
        raise RuntimeError(f"spans outside the layer list: {sorted(unknown)}")
    metrics = {f"{name}_s": (totals.get(name, 0.0), "s") for name in spans.LAYERS}
    metrics["other_s"] = (traced[best] - top, "s")
    for name in spans.COUNTS:
        if name != "gaze.mapped":
            metrics[name] = (counts.get(name, 0), _count_unit(name))
    fixations = counts.get("gaze.fixations", 0)
    metrics["gaze.mapped_frac"] = (counts.get("gaze.mapped", 0) / fixations if fixations
                                   else 0.0, "fraction")
    metrics["trace.wall_s"] = (traced[best], "s")
    metrics["trace.untraced_wall_s"] = (min(untraced), "s")
    metrics["trace.overhead_frac"] = (traced[best] / min(untraced) - 1.0, "fraction")
    metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}
    spans_out = [span for tracer in tracers for span in tracer.spans]
    return run, metrics, {"passes": len(tracers), "untraced_s": untraced,
                          "traced_s": traced, "spans": spans_out}


def _count_unit(name: str) -> str:
    return "bytes" if name.endswith("_bytes") else "count"


def _expect_same_counts(first: dict, other: dict) -> None:
    if first != other:
        diff = {k: (first.get(k), other.get(k)) for k in first.keys() | other.keys()
                if first.get(k) != other.get(k)}
        raise AssertionError(f"counts differ between traced passes: {diff}")


# ---------------------------------------------------------------------------

def _print_table(title: str, metrics: dict) -> None:
    print(title)
    for name, m in metrics.items():
        value = "n/a" if m["value"] is None else f"{m['value']:.6g}"
        print(f"  {name:<30} {value:>14} {m['unit']}")


def _write_report(name: str, report: dict) -> None:
    out = os.path.join(WORK, "results")
    os.makedirs(out, exist_ok=True)
    with open(os.path.join(out, name), "w", encoding="utf-8") as f:
        json.dump(report, f)
        f.write("\n")


def run_one(modules, name, seed, seconds, traced):
    numpy, workloads, spans, hostclock = modules
    spec = workloads.WORKLOADS[name]
    workdir = os.path.join(WORK, f"{name}-seed{seed}-pid{os.getpid()}")
    os.makedirs(workdir)
    try:
        if traced:
            run, metrics, extra = run_traced(workloads, spans, hostclock, spec, seed, seconds,
                                             workdir)
        else:
            run, metrics, extra = run_untraced(workloads, hostclock, spec, seed, seconds,
                                               workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    ledger = run.ledger
    complete = all(m["value"] is not None for m in metrics.values())
    result = {"correct": ledger.failed == 0 and complete, "attempted": ledger.attempted,
              "failed": ledger.failed, "metrics": metrics}
    prov = provenance(numpy, name, seed, run.config())
    for error in ledger.errors:
        print(f"failed: {error}", file=sys.stderr)
    _print_table(f"{name} seed {seed}: {'traced' if traced else 'untraced'}, "
                 f"{extra['passes']} passes", metrics)
    print("provenance " + json.dumps(prov, sort_keys=True))
    _write_report(f"{name}-seed{seed}-trace{int(traced)}.json",
                  {"provenance": prov, "result": result, "run": extra})
    return result


def main(argv=None) -> int:
    for var in BLAS_ENV:
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    try:
        import numpy
        import codegaze
        if not os.path.abspath(codegaze.__file__).startswith(os.path.join(ROOT, "src") + os.sep):
            raise ImportError(f"codegaze imported from {codegaze.__file__}, not from this checkout")
        import hostclock
        import spans
        import workloads
    except ImportError as e:
        print(f"error: cannot import the library from {ROOT}/src: {e}", file=sys.stderr)
        return 2
    args = parse_args(argv, list(workloads.WORKLOADS))
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    results = {name: run_one((numpy, workloads, spans, hostclock), name, args.seed, args.seconds,
                             bool(args.trace)) for name in names}
    if len(results) == 1:
        final = results[names[0]]
    else:
        for name, result in results.items():
            print(name + " " + json.dumps(result))
        final = {"correct": all(r["correct"] for r in results.values()),
                 "attempted": sum(r["attempted"] for r in results.values()),
                 "failed": sum(r["failed"] for r in results.values()),
                 "metrics": {f"{name}/{m}": v for name, r in results.items()
                             for m, v in r["metrics"].items()}}
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
