"""Benchmark entry point: one workload, one seed, a fixed measuring time.

    python3 perfbench/run.py --workload tree-f1 --seed 0 --seconds 20 --trace 0

Runs from the root of a source checkout and imports ``hingetree`` from its
``src/``.  BLAS is pinned to one thread.  The last line of standard output
is the result: ``{"correct", "attempted", "failed", "metrics"}``, with the
end-to-end metrics under ``--trace 0`` and the per-layer metrics of a
separate traced run under ``--trace 1``.  The line before it records the
environment and the input provenance.  ``--out FILE`` also appends both
to FILE as one JSON line, for ``perfbench/compare.py``.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
BLAS_PIN = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
WORKLOAD_NAMES = ("tree-f1", "boost-f1", "serve-f2", "cli-wide")


def _percentile(values, q: float) -> float:
    """Linear-interpolated percentile, q in [0, 100]."""
    v = sorted(values)
    pos = (len(v) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(v) - 1)
    return v[lo] + (v[hi] - v[lo]) * (pos - lo)


def _environment(load_at_start) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": os.cpu_count(),
        "cpu_pin": sorted(os.sched_getaffinity(0)),
        "blas_thread_pin": {k: os.environ.get(k) for k in BLAS_PIN},
        "loadavg_at_start": load_at_start,
        "platform": platform.platform(),
    }


def _peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux; the children's figure is their largest.
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


class Tally:
    """Attempted and failed operations; a failure is an exception or a failed check."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def run(self, fn, *args):
        self.attempted += 1
        try:
            return fn(*args)
        except Exception as exc:  # one failed operation must not end the run
            self.failed += 1
            if len(self.reasons) < 5:
                self.reasons.append(f"{type(exc).__name__}: {exc}")
                traceback.print_exc(file=sys.stderr)
            return None


def measure(wl, seed: int, seconds: float, workdir: str, tally: Tally, ref) -> tuple:
    def timed_setup():
        t0 = time.perf_counter()
        state = wl.setup(seed, workdir)
        return state, time.perf_counter() - t0

    setup_s, setup_fits, speed = [], [], []
    for _ in range(wl.setups):
        (state, wall), k = ref.bracket(timed_setup)
        setup_s.append(wall * k)
        speed.append(k)
        if "fit_s" in state:
            setup_fits.append(state["fit_s"] * k)
    tally.run(wl.op, state, ref)  # warm-up: checked, not timed
    results = []
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        r = tally.run(wl.op, state, ref)
        if r is not None:
            results.append(r)
    if not results:
        raise RuntimeError("no operation succeeded")
    fits = [r["fit_s"] for r in results if "fit_s" in r] or setup_fits
    # Percentiles across the rows of one operation, median over operations.
    p50 = [_percentile(r["one_us"], 50) for r in results]
    p90 = [_percentile(r["one_us"], 90) for r in results]
    speed += [k for r in results for k in r["speed"]]
    metrics = {
        "setup_s": (statistics.median(setup_s), "s"),
        "fit_s": (statistics.median(fits), "s"),
        "predict_rows_per_s": (statistics.median(r["rows_per_s"] for r in results), "1/s"),
        "predict_one_p50_us": (statistics.median(p50), "us"),
        "predict_one_p90_us": (statistics.median(p90), "us"),
        "peak_rss_mb": (_peak_rss_mb(), "MB"),
    }
    last = results[-1]
    samples = {
        "operations": len(results), "setups": len(setup_s), "fits": len(fits),
        "scalar_predictions": sum(len(r["one_us"]) for r in results),
        "speed_factor": {"min": min(speed), "median": statistics.median(speed),
                         "max": max(speed)},
        "test_rmse": last["test_rmse"], "test_median_abs_err": last["test_median_abs_err"],
    }
    return metrics, samples


def measure_traced(wl, seed: int, seconds: float, workdir: str, tally: Tally, ref) -> tuple:
    from speed import Unscaled
    from tracer import COUNT_METRICS, Tracer, installed, layer_metrics

    setup_tracer = Tracer()
    with installed(setup_tracer):
        state = wl.setup(seed, workdir)
    failures = list(setup_tracer.failures)
    # The CLI workload traces its commands in-process; its process operation
    # still runs once per cycle to measure interpreter start-up.
    in_process = hasattr(wl, "inprocess")
    unscaled = Unscaled()
    unit = wl.inprocess if in_process else (lambda s: wl.op(s, unscaled))

    def untraced_unit():
        t0 = time.perf_counter()
        r = unit(state)
        wall = time.perf_counter() - t0
        if in_process:
            wl.check(state, unscaled)
        return wall, r

    def traced_unit():
        tracer = Tracer()
        t0 = time.perf_counter()
        with installed(tracer):
            r = unit(state)
        wall = time.perf_counter() - t0
        if in_process:
            wl.check(state, unscaled)
        if tracer.failures:
            failures.extend(tracer.failures)
            raise RuntimeError(tracer.failures[0])
        return wall, r, layer_metrics(tracer)

    tally.run(untraced_unit)  # warm-up
    plain, traced, process_ops = [], [], []
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        for fn, into in ((untraced_unit, plain), (traced_unit, traced)):
            r = tally.run(ref.bracket, fn)
            if r is not None:
                into.append(r)
        if in_process:
            r = tally.run(wl.op, state, ref)
            if r is not None:
                process_ops.append(r)
    if not plain or not traced:
        raise RuntimeError("no traced operation succeeded")

    per_op = []
    for (_, _, m), k in traced:
        per_op.append({name: (v if name in COUNT_METRICS or name.endswith("frac") else v * k)
                       for name, v in m.items()})
    first = per_op[0]
    for m in per_op[1:]:
        changed = [name for name in COUNT_METRICS if m[name] != first[name]]
        if changed:
            tally.failed += 1
            tally.reasons.append(f"counts differ between identical operations: {changed}")
    layers = {name: (first[name] if name in COUNT_METRICS
                     else statistics.median(m[name] for m in per_op))
              for name in first}
    # The serve-f2 model round-trip happens in set-up, so serialize.* covers
    # one set-up plus one operation.
    setup_layers = layer_metrics(setup_tracer)
    for name in ("serialize.dumps_model.s", "serialize.loads_model.s", "serialize.model_bytes"):
        layers[name] += setup_layers[name]
    layers["cli.startup_s"] = 0.0
    if process_ops:
        layers["cli.startup_s"] = (
            statistics.median(r["fit_s"] for r in process_ops)
            - statistics.median(r["train_s"] * k for (_, r), k in plain))
    layers["trace.overhead_frac"] = (statistics.median(w * k for (w, _, _), k in traced)
                                     / statistics.median(w * k for (w, _), k in plain) - 1.0)
    units = {name: ("count" if name in COUNT_METRICS else
                    "us" if name.endswith("us_per_call") else
                    "ratio" if name.endswith("frac") else "s") for name in layers}
    units["serialize.model_bytes"] = "B"
    metrics = {name: (v, units[name]) for name, v in layers.items()}
    samples = {"plain": len(plain), "traced": len(traced), "process_ops": len(process_ops),
               "speed_factor_median": statistics.median(k for _, k in traced),
               "trace_failures": failures[:5]}
    return metrics, samples


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None, help="append the record to this JSONL file")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "hingetree", "__init__.py")):
        print(f"perfbench: no hingetree sources under {SRC}", file=sys.stderr)
        return 2
    load_at_start = os.getloadavg()
    # One CPU for this process and its CLI children, so that the speed
    # reference and the timed work always run on the same CPU.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    os.environ.update(BLAS_PIN)  # before numpy is imported, here and in CLI children
    sys.path.insert(0, SRC)
    import hingetree

    if os.path.dirname(os.path.abspath(hingetree.__file__)) != os.path.join(SRC, "hingetree"):
        print(f"perfbench: imported hingetree from {hingetree.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    from speed import SpeedRef
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload]
    os.makedirs(WORK, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK)
    tally = Tally()
    try:
        measure_fn = measure_traced if args.trace else measure
        metrics, samples = measure_fn(wl, args.seed, args.seconds, workdir, tally, SpeedRef())
    except Exception:
        traceback.print_exc(file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(WORK)
        except OSError:
            pass

    detail = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": _environment(load_at_start),
        "provenance": wl.inputs(args.seed)["provenance"], "samples": samples,
        "failures": tally.reasons,
    }
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps({"perfbench": detail}))
    if args.out:
        with open(args.out, "a", encoding="utf-8") as fh:
            fh.write(json.dumps({"detail": detail, "result": result}) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
