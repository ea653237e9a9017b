"""Seeded end-to-end benchmark of groupqft.

    python3 qftbench/run.py --workload verify_n8 --seed 1 --seconds 20 --trace 0

Runs one workload (see workloads.py for why each exists) from one process
in a closed loop: each call starts when the previous one returns, with no
arrival schedule.  It imports groupqft from the `src/` directory next to
this one and fails with exit code 2 when that is missing.

--trace 0 reports the end-to-end metrics named in BENCHMARK.json:
  call_s        mean over the workload's inputs of each input's median
                call time (verify_n8: one full_report at n = 8;
                simulate_w21: one whole width-21 circuit; gate_sweep: one
                sweep pass, build plus simulation)
  setup_s       median over SETUP_REPS repetitions of: importing groupqft
                in a fresh interpreter plus building the workload's
                circuits and states
  peak_rss_mib  peak resident set size of this process
--trace 1 reports the per-layer metrics: each call is made once untraced
and once traced, the traced calls give per-call span totals, the ratio of
the two gives tracing.overhead_share, and width-21 kernel probes give the
per-gate-kind figures.

Every output is checked outside the timed region; `attempted` and `failed`
in the result count those checks.  The last line of stdout is the JSON
result; a fuller record, with the environment and (traced) the spans,
goes to qftbench/results/.
"""

from __future__ import annotations

import argparse
import ctypes
import importlib.util
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RESULTS = Path(__file__).resolve().parent / "results"
SETUP_REPS = 9
IMPORT_CODE = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
               "t = time.perf_counter(); import groupqft; "
               "print(time.perf_counter() - t)")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def import_seconds() -> float:
    """Time `import groupqft` in a fresh interpreter."""
    done = subprocess.run([sys.executable, "-c", IMPORT_CODE, str(SRC)],
                          capture_output=True, text=True, timeout=120,
                          check=True)
    return float(done.stdout)


def timed_setup(cls, seed: int, reps: int):
    """Median set-up time over `reps` repetitions, and the last workload."""
    times = []
    wl = None
    for _ in range(reps):
        wl = None  # free the previous inputs before building new ones
        imported = import_seconds()
        t0 = time.perf_counter()
        wl = cls(seed)
        times.append(imported + time.perf_counter() - t0)
    return statistics.median(times), wl


def closed_loop(wl, seconds: float, checks):
    """Whole cycles over the inputs while another cycle fits in `seconds`
    (at least one cycle)."""
    samples = [[] for _ in wl.inputs]
    stages: dict[str, list[float]] = {}
    deadline = time.perf_counter() + seconds
    while True:
        start = time.perf_counter()
        for i, inp in enumerate(wl.inputs):
            t0 = time.perf_counter()
            out, stage = wl.call(inp)
            samples[i].append(time.perf_counter() - t0)
            for k, v in stage.items():
                stages.setdefault(k, []).append(v)
            wl.check(inp, out, checks)
            del out
        now = time.perf_counter()
        if 2 * now - start > deadline:
            return samples, stages


def traced_loop(wl, seconds: float, checks, tracer):
    """Untraced/traced pairs on the same input while another pair fits in
    `seconds` (at least one pair); returns the traced call count and the
    tracing overhead share."""
    plain = traced = 0.0
    calls = 0
    deadline = time.perf_counter() + seconds
    while True:
        start = time.perf_counter()
        inp = wl.inputs[calls % len(wl.inputs)]
        t0 = time.perf_counter()
        out, _ = wl.call(inp)
        plain += time.perf_counter() - t0
        wl.check(inp, out, checks)
        del out
        with tracer.active("bench.call"):
            t0 = time.perf_counter()
            out, _ = wl.call(inp)
            traced += time.perf_counter() - t0
        wl.check(inp, out, checks)
        del out
        calls += 1
        now = time.perf_counter()
        if 2 * now - start > deadline:
            return calls, traced / plain - 1.0


def _blas_threads() -> str:
    """Thread count reported by the OpenBLAS library numpy loaded."""
    try:
        with open("/proc/self/maps") as f:
            paths = {ln.split()[-1] for ln in f
                     if "openblas" in ln and ln.rstrip().endswith(".so")}
    except OSError:
        paths = set()
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype, fn.argtypes = ctypes.c_int, []
                return str(fn())
    return "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for ln in f:
                if ln.startswith("model name"):
                    return ln.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _cache_size(level: int) -> str:
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")):
        try:
            if (index / "level").read_text().strip() == str(level) and \
                    (index / "type").read_text().strip() != "Instruction":
                return (index / "size").read_text().strip()
        except OSError:
            continue
    return "unknown"


def _git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() or "unknown"


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "GROUPQFT_PURE_NUMPY": os.environ.get("GROUPQFT_PURE_NUMPY", "unset"),
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": _blas_threads(),
        "cpu": _cpu_model(),
        "l2": _cache_size(2),
        "l3": _cache_size(3),
        "git_sha": _git_sha(),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "groupqft" / "__init__.py").is_file():
        print(f"error: groupqft sources not found under {SRC}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import layers
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer" if args.trace else "end_to_end"]
    cls = workloads.WORKLOADS[args.workload]
    checks = workloads.Checks()
    env = environment()
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "env": env,
              "loop": "closed, one client"}
    notes = {}

    if args.trace:
        wl = cls(args.seed)
        tracer = layers.Tracer()
        calls, overhead = traced_loop(wl, args.seconds, checks, tracer)
        wl.final_checks(checks)
        coverage = workloads.Coverage(args.seed)
        with tracer.active("bench.coverage"):
            out = coverage.call()
        coverage.check(out, checks)
        del out
        probe_state = workloads.unit_state(
            np.random.default_rng(args.seed), layers.PROBE_WIDTH)
        values = layers.span_metrics(tracer.spans, calls)
        values.update(layers.kernel_probes(probe_state, checks))
        values["tracing.overhead_share"] = overhead
        record["traced_calls"] = calls
        record["spans"] = tracer.records()
        notes = {
            "kernels": "GiB/s computed from array sizes (one read and one "
                       "write of the 32 MiB width-21 state per gate), not "
                       "measured traffic; the state fits in L3 "
                       f"({env['l3']}), so this is no DRAM roofline",
            "spans": f"per-layer figures are per traced call ({calls} calls) "
                     "plus one small coverage call (qd, n = 3)",
        }
    else:
        setup_s, wl = timed_setup(cls, args.seed, SETUP_REPS)
        samples, stages = closed_loop(wl, args.seconds, checks)
        wl.final_checks(checks)
        medians = [statistics.median(s) for s in samples]
        values = {
            "call_s": statistics.fmean(medians),
            "setup_s": setup_s,
            "peak_rss_mib":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        record["samples_s"] = samples
        record["stages_s"] = stages
        record["named"] = {wl.call_metric: values["call_s"]}
        record["named"].update(
            (k, statistics.median(v)) for k, v in stages.items())
        n = sum(len(s) for s in samples)
        notes = {"samples": f"{n} calls over {len(samples)} inputs"}

    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        print(f"error: metrics not measured: {missing}", file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in declared}
    failed_share = checks.failed / checks.attempted
    result = {"correct": checks.failed == 0, "attempted": checks.attempted,
              "failed": checks.failed, "metrics": metrics}
    record.update(result=result, notes=notes, failed_share=failed_share)

    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} "
          f"trace {args.trace} (closed loop, one client)")
    print("env " + " ".join(f"{k}={v}" for k, v in env.items()))
    if not env["numba_importable"]:
        print("note: numba is not importable, so only the numpy kernel path "
              "runs; no backends are compared")
    for k, v in record.get("named", {}).items():
        print(f"{k:34s} {v:.6g} s")
    for k, m in metrics.items():
        print(f"{k:34s} {m['value']:.6g} {m['unit']}")
    print(f"{'failed_share':34s} {failed_share:g} "
          f"({checks.failed} of {checks.attempted} checks failed)")
    for note in notes.values():
        print(f"note: {note}")
    RESULTS.mkdir(exist_ok=True)
    path = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1))
    print(f"record written to {path.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
