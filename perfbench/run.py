"""Benchmark for mdlnfa: seeded workloads timed through the public functions
of `mdlnfa.experiments`, with every output checked.

    python3 perfbench/run.py --workload squares --seed 0 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 10 --trace 0

Run it from anywhere inside a source tree: it imports `mdlnfa` from the
tree's `src/` (never an installed copy) and fails without printing a result
when `src/` is missing.  One process, `workers=1`, and the BLAS pool held to
at most the usable CPU count.  A workload seed builds one pass of calls; the
pass is repeated, each call starting when the previous one returned, until
`--seconds` have passed.  Program outputs go to a temporary directory under
`.perfbench_out/` that is removed at exit.

`--trace 0` reports the end-to-end metrics:
  units_per_s  median over passes of checked units per second of the pass,
               with the time of each call scaled to the reference speed
               (see `measure`); the unscaled value is printed as well
  setup_s      median of 5 fresh-process set-ups: cold `import mdlnfa`, the
               pass inputs and a small warm-up call per timed code path,
               scaled the same way
  peak_rss_mb  peak resident set size of this process
`--trace 1` rebinds the traced functions (see tracing.py) and reports the
per-layer metrics per pass, plus the traced `units_per_s`; the raw spans of
the first pass go to `.perfbench_out/spans-<workload>-seed<seed>.jsonl`.

Lines starting with `#` describe the run (environment, error rate); the last
line is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
WORKLOAD_NAMES = ("squares", "bss", "lsd_h0", "equiv")
SETUP_PROBES = 5
FAILED = object()      # output of a call that raised


def hold_blas_threads() -> int:
    nproc = len(os.sched_getaffinity(0))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        current = os.environ.get(var, "")
        limit = int(current) if current.isdigit() and int(current) > 0 else nproc
        os.environ[var] = str(min(limit, nproc))
    return nproc


def timed_setup(name: str, seed: int):
    """Import mdlnfa, build one pass and warm up; return (seconds, calls)."""
    start = time.perf_counter()
    import workloads
    workload = workloads.WORKLOADS[name]
    calls = workload.build(seed)
    workload.warm_up()
    return time.perf_counter() - start, calls


def setup_seconds(name: str, seed: int) -> tuple[float, float]:
    """Median set-up time of fresh processes, scaled and unscaled; each
    probe is scaled by the reference loop timed around it, like a call."""
    scaled, unscaled = [], []
    before = reference_loop()
    for _ in range(SETUP_PROBES):
        probe = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(seed), "--setup-only"],
            capture_output=True, text=True, timeout=120, check=True)
        after = reference_loop()
        seconds = float(probe.stdout.split()[-1])
        unscaled.append(seconds)
        scaled.append(seconds * REFERENCE_S / ((before + after) / 2))
        before = after
    return statistics.median(scaled), statistics.median(unscaled)


def call_digests(call, output, out_dir) -> list:
    """(units, digest) groups of one call; empty when the call failed."""
    if output is FAILED:
        return []
    try:
        return call.check(output, out_dir)
    except Exception:
        traceback.print_exc()
        return []


# How long reference_loop() takes on the machine of baseline.json when that
# machine is quiet.  Only the scale of units_per_s depends on it.
REFERENCE_S = 0.008


def reference_loop() -> float:
    """Median of three timings of a fixed pure-Python and numpy loop."""
    import numpy as np
    samples = []
    for _ in range(3):
        start = time.perf_counter()
        total = 0
        for i in range(120_000):
            total += i * i
        a = np.arange(1000.0)
        for _ in range(300):
            a = np.sqrt(a + 1.0)
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


@dataclass
class Measurement:
    busy_s: list = field(default_factory=list)   # per pass, inside the calls
    scaled_s: list = field(default_factory=list) # busy_s at reference speed
    good: list = field(default_factory=list)     # per pass, checked units
    attempted: int = 0
    output_bytes: int = 0


def measure(calls, seconds: float, tmp: Path, reference,
            tracer=None) -> Measurement:
    """Repeat the pass until `seconds` have passed.

    Each output is checked right after its call, outside the call's timing,
    and then dropped.  Pass 0 is compared with the recorded reference when
    the seed has one, every later pass with pass 0.  The reference loop is
    timed before the first call and after every call, and each call's time
    is also kept scaled by REFERENCE_S over the mean of the two loop timings
    around it.  That takes out part of the shifts in the machine's speed
    (a shared machine runs the same code up to 1.7x slower for seconds at
    a time); no program change can alter the loop.
    """
    m = Measurement()
    expected = {}
    before = reference_loop()
    start = time.perf_counter()
    while not m.busy_s or time.perf_counter() - start < seconds:
        busy = scaled = good = 0
        for i, call in enumerate(calls):
            out_dir = tmp / f"call{i}"
            call_start = time.perf_counter()
            try:
                output = call.run(out_dir)
            except Exception:
                traceback.print_exc()
                output = FAILED
            call_s = time.perf_counter() - call_start
            after = reference_loop()
            busy += call_s
            scaled += call_s * REFERENCE_S / ((before + after) / 2)
            before = after
            groups = call_digests(call, output, out_dir)
            want = expected.setdefault(
                i, reference[i] if reference is not None
                else [digest for _, digest in groups])
            matched = sum(units for (units, digest), wanted in zip(groups, want)
                          if digest is not None and digest == wanted)
            good += min(matched, call.units)
            m.attempted += call.units
            if out_dir.exists():
                m.output_bytes += sum(f.stat().st_size
                                      for f in out_dir.rglob("*") if f.is_file())
                shutil.rmtree(out_dir)
        m.busy_s.append(busy)
        m.scaled_s.append(scaled)
        m.good.append(good)
        if tracer is not None:
            tracer.recording = False
    return m


def load_reference(name: str, seed: int):
    path = BENCH_DIR / "reference" / f"{name}.json"
    if not path.exists():
        return None
    recorded = json.loads(path.read_text())["seeds"].get(str(seed))
    if recorded is None:
        return None
    return [[digests[j:j + 8] for j in range(0, len(digests), 8)]
            for digests in recorded]


def git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment(nproc: int) -> dict:
    import numpy
    return {"nproc": nproc, "cpu": cpu_model(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "commit": git_commit()}


def declared_metrics(trace: bool) -> list:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def run_all(args) -> int:
    status = 0
    for name in WORKLOAD_NAMES:
        status |= subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)]).returncode
    return status


def run_workload(args, nproc: int) -> int:
    _, calls = timed_setup(args.workload, args.seed)   # compiles bytecode
    setup_s, raw_setup_s = setup_seconds(args.workload, args.seed)
    reference = load_reference(args.workload, args.seed)
    OUT.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    tracer = None
    if args.trace:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()
    try:
        m = measure(calls, args.seconds, tmp, reference, tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()
        shutil.rmtree(tmp, ignore_errors=True)

    passes = len(m.busy_s)
    busy_s = sum(m.busy_s)
    failed = m.attempted - sum(m.good)
    units_per_s = statistics.median(good / scaled
                                    for good, scaled in zip(m.good, m.scaled_s))
    raw_units_per_s = statistics.median(good / busy
                                        for good, busy in zip(m.good, m.busy_s))
    env = environment(nproc)
    print("# env " + json.dumps(env))
    print(f"# {args.workload} seed {args.seed}: {passes} passes, "
          f"{busy_s:.3f} s in calls, reference digests "
          f"{'checked' if reference is not None else 'not recorded'}")
    print(f"# unscaled units_per_s {raw_units_per_s:.6g} 1/s, "
          f"setup_s {raw_setup_s:.6g} s")
    print(f"# error_rate {failed / m.attempted:.6g} share "
          f"({failed} of {m.attempted} units failed)")
    if tracer is None:
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics = {"units_per_s": (units_per_s, "1/s"),
                   "setup_s": (setup_s, "s"),
                   "peak_rss_mb": (peak_rss_mb, "MB")}
    else:
        metrics = tracer.layer_metrics(passes)
        metrics["experiments.output_bytes"] = (m.output_bytes / passes,
                                               "bytes")
        metrics["bench.traced_units_per_s"] = (units_per_s, "1/s")
        metrics["bench.top_span_coverage"] = (tracer.top_level_s / busy_s,
                                              "share")
        spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
        tracer.write_spans(spans_path, {"workload": args.workload,
                                        "seed": args.seed, "env": env})
        print(f"# spans of pass 0 written to {spans_path.relative_to(ROOT)}")
    for name, (value, unit) in metrics.items():
        print(f"# {name} {value:.6g} {unit}")

    declared = declared_metrics(bool(args.trace))
    if set(metrics) != set(declared):
        print(f"error: metrics differ from BENCHMARK.json: "
              f"{sorted(set(metrics) ^ set(declared))}", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": failed == 0, "attempted": m.attempted, "failed": failed,
        "metrics": {name: {"value": metrics[name][0], "unit": metrics[name][1]}
                    for name in declared}}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="time one set-up in this process and print it")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (SRC / "mdlnfa" / "__init__.py").is_file():
        print(f"error: no mdlnfa sources under {SRC}", file=sys.stderr)
        return 2
    nproc = hold_blas_threads()
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(SRC))
    if args.setup_only:
        seconds, _ = timed_setup(args.workload, args.seed)
        print(seconds)
        return 0
    return run_workload(args, nproc)


if __name__ == "__main__":
    sys.exit(main())
