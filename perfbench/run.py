"""Run one ktphase benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a ktphase checkout; it imports the package from
``./src``.  Rounds of the workload (see ``workloads.py``) repeat for at most
``--seconds``, and at least once; each call of a round is timed on its own.

* ``--trace 0``: end-to-end metrics.  ``setup_s`` is the median, over
  ``SETUP_RUNS`` fresh child processes, of the time from process start until
  ktphase is imported and the workload's builtins, charts, constraint sets
  and golden records are built.  ``peak_rss_mb`` is the peak resident
  memory of this process.  ``run_s`` is the median round time at a fixed
  host speed: each round's wall time times ``REFERENCE_S`` over the mean
  time of a fixed pure-Python loop run after each call of that round.  A
  shared host's speed moves by a third and more, at times for minutes, and
  moves a round and the loops run within it alike; the unscaled median round
  time and each call's median time are printed too.
* ``--trace 1``: per-layer metrics.  Rounds alternate between untraced and
  traced; the traced ones run under the span recorder (``spans.py``), which
  wraps the functions listed in ``layers.py``.

Every round's check entries are scored against the golden records
(``workloads.score``); ``fail_ratio`` and ``tol_margin_dec`` are printed on
every run.  The output is an ``env`` line (machine, versions, commit,
``src/`` line count), the round times, one ``metric`` line per metric (name,
value, unit, sample count), with ``--trace 1`` the spans and modules holding
most self time, and as its last line a JSON object with the keys
``correct`` (no entry failed), ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SETUP_RUNS = 5
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _cap_blas_threads(nproc: int) -> int:
    """Cap the BLAS thread pools at ``nproc``; must run before numpy loads."""
    threads = nproc
    for var in BLAS_THREAD_VARS:
        value = os.environ.get(var, "")
        if value.isdigit() and int(value) > 0:
            threads = min(threads, int(value))
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(threads)
    return threads


def _git_commit(root: Path) -> str | None:
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    loose = root / ".git" / ref[5:]
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    import platform
    return platform.processor() or "unknown"


def environment(root: Path, threads: int) -> dict:
    """Metadata recorded with each result; not gated."""
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
        "commit": _git_commit(root),
        "src_lines": sum(len(p.read_bytes().splitlines())
                         for p in sorted((root / "src").rglob("*.py"))),
    }


def bootstrap():
    """Find the checkout, cap BLAS threads and put ``src`` on the import
    path.  Returns (root, BLAS threads), or (None, None) with a message on
    stderr when the working directory holds no ktphase source."""
    root = Path.cwd()
    if not (root / "src" / "ktphase" / "__init__.py").is_file():
        print(f"{Path(sys.argv[0]).name}: no ktphase source under ./src; "
              "run it from the root of a checkout", file=sys.stderr)
        return None, None
    threads = _cap_blas_threads(len(os.sched_getaffinity(0)))
    sys.path[:0] = [str(root / "src"), str(HERE)]
    return root, threads


def measure_setup(workload: str) -> float:
    """Seconds from the start of a fresh process until the workload's set-up
    is done, as seen by this process."""
    t0 = time.perf_counter()
    with subprocess.Popen([sys.executable, str(Path(__file__).resolve()), "--workload",
                           workload, "--setup-only"],
                          stdout=subprocess.PIPE, text=True) as child:
        line = child.stdout.readline()
        elapsed = time.perf_counter() - t0
        child.stdout.read()
        code = child.wait(timeout=120)
    if line != "ready\n" or code != 0:
        raise RuntimeError(f"set-up child for {workload!r} failed with exit code {code}")
    return elapsed


def reference_loop() -> float:
    """Seconds of a fixed pure-Python loop that runs no ktphase code."""
    t0 = time.perf_counter()
    d = {}
    for i in range(20_000):
        d[i & 1023] = d.get(i & 1023, 0) + i
    return time.perf_counter() - t0


# about the time of ``reference_loop`` on the 2-vCPU Xeon host (Python 3.11)
# the benchmark was tuned on, when it is quiet, so that ``run_s`` reads as
# that host's wall seconds
REFERENCE_S = 0.0025


def run_rounds(workload, seed: int, seconds: float, recorder=None):
    """Rounds while another one, as long as the last, fits in ``seconds``.
    With a recorder, rounds alternate untraced and traced, and at least one
    of each runs.

    Returns (untraced round times, untraced times of each call by label,
    mean time of the reference loop run after each call of each untraced
    round, traced round times, traced stats per round, outcomes).
    """
    from layers import DURATIONS, TARGETS

    calls = workload.calls(seed)
    plain, traced, stats, outcomes = [], [], [], []
    per_call = {label: [] for label, _ in calls}
    reference = []
    start = time.perf_counter()
    elapsed = 0.0
    while (not plain or (recorder and not traced)
           or time.perf_counter() - start + elapsed <= seconds):
        trace_this = recorder is not None and len(traced) < len(plain)
        if trace_this:
            recorder.install(TARGETS, DURATIONS)
        elapsed = 0.0
        loops = []
        try:
            for label, call in calls:
                t0 = time.perf_counter()
                outcomes.extend(call())
                took = time.perf_counter() - t0
                elapsed += took
                if not trace_this:
                    per_call[label].append(took)
                    loops.append(reference_loop())
        finally:
            if trace_this:
                recorder.uninstall()
        if trace_this:
            traced.append(elapsed)
            stats.append(recorder.take())
        else:
            plain.append(elapsed)
            reference.append(statistics.fmean(loops))
    return plain, per_call, reference, traced, stats, outcomes


def _top(label: str, shares: dict, total: float, n: int = 4) -> str:
    ranked = sorted(shares.items(), key=lambda kv: -kv[1])[:n]
    return f"top {label}: " + ", ".join(f"{k} {v:.3f}s ({100 * v / total:.0f}%)"
                                        for k, v in ranked)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    root, threads = bootstrap()
    if root is None:
        return 2
    from workloads import WORKLOADS, score

    if args.workload not in WORKLOADS:
        print(f"run.py: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    if args.setup_only:
        workload.setup()
        print("ready", flush=True)
        return 0

    import resource

    from layers import (DURATIONS, TARGETS, layer_metrics, metric_units, self_by_module,
                        self_by_span)
    from spans import Recorder

    metrics = {}   # name -> (value, unit, samples)
    if args.trace:
        recorder = Recorder()
        recorder.install(TARGETS, DURATIONS)
        workload.setup()
        recorder.uninstall()
        setup_stats = recorder.take()
        plain, per_call, reference, traced, stats, outcomes = run_rounds(
            workload, args.seed, args.seconds, recorder)
    else:
        setups = [measure_setup(args.workload) for _ in range(SETUP_RUNS)]
        workload.setup()
        plain, per_call, reference, traced, stats, outcomes = run_rounds(
            workload, args.seed, args.seconds)
    s = score(outcomes)

    if args.trace:
        units = metric_units()
        values = layer_metrics(setup_stats, stats)
        run_traced = statistics.median(traced)
        values["trace.run_s"] = run_traced
        values["trace.overhead_s"] = run_traced - statistics.median(plain)
        self_total = [sum(st.self_s for st in r.values()) for r in stats]
        values["trace.self_share"] = statistics.median(
            a / t for a, t in zip(self_total, traced))
        values["fail_ratio"] = s.fail_ratio
        values["tol_margin_dec"] = s.tol_margin_dec
        for name, value in values.items():
            metrics[name] = (value, units[name][0], len(traced))
    else:
        metrics["setup_s"] = (statistics.median(setups), "s", len(setups))
        metrics["run_s"] = (statistics.median(t * REFERENCE_S / loop
                                              for t, loop in zip(plain, reference)),
                            "s", len(plain))
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics["peak_rss_mb"] = (rss_kb / 1024.0, "MB", 1)

    print("env " + json.dumps(environment(root, threads), sort_keys=True))
    print(f"workload {args.workload} seed {args.seed}: {len(plain)} untraced and "
          f"{len(traced)} traced rounds, {s.attempted} entries, {s.failed} failed, "
          f"{s.errors} drivers raised")
    for label, times in per_call.items():
        print(f"call {label}: median {statistics.median(times):.6g} s (n={len(times)})")
    print(f"median round, unscaled: {statistics.median(plain):.6g} s; reference loop, "
          f"median of round means: {statistics.median(reference):.6g} s (n={len(plain)})")
    print("round seconds: untraced " + " ".join(f"{t:.3f}" for t in plain)
          + "; traced " + " ".join(f"{t:.3f}" for t in traced))
    print(f"metric fail_ratio {s.fail_ratio:.6g} ratio ({s.failed}/{s.attempted})")
    print(f"metric tol_margin_dec {s.tol_margin_dec:.6g} dec (min over all rounds)")
    for name, (value, unit, n) in metrics.items():
        if name not in ("fail_ratio", "tol_margin_dec"):
            print(f"metric {name} {value:.6g} {unit} (n={n})")
    if args.trace:
        last = stats[-1]
        total = traced[-1]
        print(_top("spans", self_by_span(last), total))
        print(_top("modules", self_by_module(last), total))
    for o in outcomes:
        if o.error:
            print(f"error in {o.driver}({o.theory}):\n{o.error}", file=sys.stderr)

    result = {
        "correct": s.failed == 0,
        "attempted": s.attempted,
        "failed": s.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
