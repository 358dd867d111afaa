"""Benchmark of the colide package: one seeded workload per invocation.

    python3 perfbench/run.py --workload fit_d50 --seed 0 --seconds 15 --trace 0

Imports colide from ``src/`` of the checkout this file sits in, pins BLAS to
one thread (before numpy loads, so pool workers inherit it), makes the
workload's inputs from --seed and checks every output.

--trace 0 repeats the timed round for at least --seconds seconds (and at
least the workload's MIN_ROUNDS) with no tracing and prints the end-to-end
metrics. --trace 1 runs
one untraced round and then the same round traced, and prints the per-layer
metrics and the tracing overhead. The last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics. The exit
code is 0 when every check passes, 1 when a check fails or the workload
raises (each failure is also written to standard error) and 2 when colide
cannot be imported from the checkout. Scratch files live in a directory of
their own under .perfbench-out/ that is removed when the run ends.
"""

import argparse
import json
import os
import resource
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter, sleep

import summary

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".perfbench-out"
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 5
IMPORT_REPEATS = 9
SPAWN_ATTEMPTS = 3
WORKLOADS = ("fit_d50", "grid_d20_jobs2", "eval_d200")

# End-to-end metrics of the final JSON line: the ones every workload defines
# and that are never 0. The other end-to-end figures are printed above it.
END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("peak_rss_mb", "MB"))

IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
                "import colide; print(time.perf_counter() - t)")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_colide():
    """Import colide from the checkout's src/; None when it is not there."""
    sys.path.insert(0, str(SRC))
    try:
        import colide
    except ImportError as exc:
        print(f"error: cannot import colide from {SRC}: {exc}", file=sys.stderr)
        return None
    if Path(colide.__file__).resolve().parent != (SRC / "colide").resolve():
        print(f"error: colide resolved to {colide.__file__}, not {SRC}", file=sys.stderr)
        return None
    return colide


def import_seconds() -> list:
    """Time `import colide` (numpy included) in fresh interpreters.

    A probe the host could not start (fork or exec failing for want of
    processes or memory) is tried again; a probe that fails to import is not.
    """
    out = []
    for _ in range(IMPORT_REPEATS):
        for attempt in range(SPAWN_ATTEMPTS):
            try:
                proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC)],
                                      capture_output=True, text=True, timeout=120, check=True)
                break
            except OSError as exc:
                if attempt + 1 == SPAWN_ATTEMPTS:
                    raise
                print(f"warning: import probe did not start ({exc}); retrying", file=sys.stderr)
                sleep(1.0)
        out.append(float(proc.stdout.split()[-1]))
    return out


def peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest finished child, in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def run_rounds(wl, inputs, seconds: float) -> list:
    rounds = []
    t0 = perf_counter()
    while len(rounds) < wl.MIN_ROUNDS or perf_counter() - t0 < seconds:
        rounds.append(wl.run_round(inputs, len(rounds)))
    return rounds


def show(name, value, unit="", detail=""):
    text = "n/a" if value is None else f"{value:.6g}"
    print(f"  {name:<40} {text:>12} {unit:<7} {detail}".rstrip())


def untraced(wl, seed, seconds, checks) -> dict:
    setup_s, inputs = [], None
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        inputs = wl.make_inputs(seed)
        setup_s.append(perf_counter() - t0)
    rounds = run_rounds(wl, inputs, seconds)
    rss = peak_rss_mb()
    # after the peak-RSS reading, so these interpreters do not count as children
    imports = import_seconds()
    wl.check(inputs, rounds, checks)
    m = wl.metrics(inputs, rounds)

    wall = summary.summarize([r.seconds for r in rounds])
    setup = summary.median(imports) + summary.median(setup_s)
    values = {"setup_s": setup, "wall_s": wall["median"], "peak_rss_mb": rss}
    for name, unit in END_TO_END:
        checks.add(f"{name} measured and nonzero", values[name] is not None and values[name] > 0)

    print("end-to-end metrics:")
    show("setup_s", setup, "s", f"import p50 of {len(imports)} + inputs p50 of {len(setup_s)}")
    show("wall_s", wall["median"], "s", f"per round: {summary.describe(wall)}")
    print("    rounds (s): " + " ".join(f"{r.seconds:.3f}" for r in rounds))
    iters = wl.stage_iters(rounds)
    if iters:
        total = sum(sum(stages) for stages in iters)
        print(f"    solver iterations: {total} over {len(iters)} fits, "
              f"{sum(r.seconds for r in rounds) / total * 1e6:.1f} us per iteration of round time")
    for name in ("fit_s_p50", "eval_s_p50"):
        samples = m[name]
        if samples:
            s = summary.summarize(samples)
            show(name, s["median"], "s", summary.describe(s))
        else:
            show(name, None, "s", "no such operation in this workload")
    cpm = m["cells_per_min"]
    show("cells_per_min", cpm and cpm[0], "1/min", f"from the median of {cpm[1]} rounds" if cpm else "no grid")
    show("peak_rss_mb", rss, "MB", "this process + its largest child")
    for name in ("shd_mean", "tpr_mean", "noise_rel_error_mean"):
        q = m[name]
        show(name, q and q[0], "frac" if name != "shd_mean" else "edges",
             f"n={q[1]}" if q else "no such estimate in this workload")
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}


def traced(wl, seed, checks, scratch: Path) -> dict:
    import layers
    import numpy as np
    import spans

    inputs = wl.make_inputs(seed)
    reference = wl.run_round(inputs, 0)
    worker_dir = scratch / "worker-spans"
    worker_dir.mkdir()
    tracer = spans.Tracer(worker_dir=worker_dir)
    missing = layers.install(tracer)
    try:
        tracer.enabled = True
        wl.make_inputs(seed)
        traced_round = wl.run_round(inputs, 0)
    finally:
        restored = tracer.restore()
    checks.add("every wrapper removed after tracing",
               all(getattr(module, attr) is original for module, attr, original in restored))
    worker_parts = tracer.take_worker_spans()
    sp = spans.merge([tracer.spans()] + worker_parts)
    self_s = spans.self_times(sp)
    bad = spans.nesting_errors(sp, self_s)
    checks.add("self time + children's durations = duration for every span", bad == 0,
               f"{bad} of {len(sp)} spans differ")
    wl.check(inputs, [reference, traced_round], checks)

    caps = wl.stage_caps(inputs)
    cells_failed = wl.cells_failed([traced_round]) if hasattr(wl, "cells_failed") else 0
    jobs = getattr(wl, "JOBS", 1)
    overhead = traced_round.seconds - reference.seconds
    metrics = layers.layer_metrics(tracer.names, sp, self_s, wl.stage_iters([traced_round]),
                                   caps, cells_failed, jobs, overhead)
    np.savez_compressed(WORK_DIR / f"trace-{wl.name}-seed{seed}.npz", names=np.array(tracer.names),
                        name_id=sp.name_id, start=sp.start, end=sp.end, parent=sp.parent,
                        raised=sp.raised, self_s=self_s)

    print(f"traced round: {traced_round.seconds:.6g} s, untraced round: {reference.seconds:.6g} s, "
          f"overhead {overhead:.6g} s ({overhead / reference.seconds:+.1%})")
    print(f"spans: {len(sp)} ({len(worker_parts)} worker processes)")
    if jobs > 1 and not worker_parts:
        print("worker-side spans unavailable: no pool worker wrote its spans; solver, scores "
              "and metrics figures cover this process only")
    if missing:
        print(f"not traced (absent from the package): {', '.join(missing)}")
    print("per-layer metrics:")
    for name, m in metrics.items():
        show(name, m["value"], m["unit"])
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    if import_colide() is None:
        return 2
    import environment
    import workloads

    WORK_DIR.mkdir(exist_ok=True)
    checks = workloads.Checks()
    metrics = {}
    print(f"colide benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    with tempfile.TemporaryDirectory(dir=WORK_DIR, prefix=f"{args.workload}-",
                                     ignore_cleanup_errors=True) as scratch:
        try:
            wl = workloads.make(args.workload, Path(scratch))
            if args.trace:
                metrics = traced(wl, args.seed, checks, Path(scratch))
            else:
                metrics = untraced(wl, args.seed, args.seconds, checks)
        except Exception:
            traceback.print_exc()
            checks.add("workload ran to completion", False)

    try:
        env = environment.describe(ROOT, BLAS_THREAD_VARS)
    except Exception as exc:
        # the record describes the run; failing to take it does not fail the run
        print(f"warning: environment not recorded: {exc!r}", file=sys.stderr)
        env = {"error": repr(exc), "blas_threads": None}
    if env["blas_threads"] is not None:
        checks.add("BLAS runs one thread", env["blas_threads"] == 1, f"got {env['blas_threads']}")
    print("environment: " + json.dumps(env, sort_keys=True))
    failures = checks.failures()
    for name, _, detail in failures:
        line = f"FAILED check: {name} {detail}".rstrip()
        print(line)
        print(line, file=sys.stderr)
    show("failed_frac", len(failures) / len(checks.items), "frac",
         f"{len(failures)} of {len(checks.items)} checks failed")
    result = {"correct": not failures, "attempted": len(checks.items),
              "failed": len(failures), "metrics": metrics}
    (WORK_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({**result, "environment": env}, indent=1) + "\n")
    print(json.dumps(result), flush=True)
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
