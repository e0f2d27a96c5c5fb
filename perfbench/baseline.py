"""Regenerate the baseline table of ROADMAP.md from one traced run.

    python3 perfbench/baseline.py

Run it from the root of a ktphase checkout.  Each row is one call, timed
with the span recorder installed (so wall times include its few percent of
overhead), with the spans that hold most of its self time.  Rows run in
order in one process: ``builtin("pc4")`` first, so it builds from scratch.
"""

from __future__ import annotations

import json
import sys
import time

from run import bootstrap, environment

SEED = 0
POINT_SAMPLES = 100


def rows():
    from ktphase import calc_var as CV
    from ktphase import theories as TH
    from ktphase import verify as VF

    def extract(name):
        t, split = TH.builtin(name), TH.derived_split(name)
        return lambda: CV.constraint_extract(t, split)

    yield '`builtin("pc4")`', lambda: TH.builtin("pc4")
    yield "`constraint_extract`, em", extract("em")
    yield "`constraint_extract`, pc4", extract("pc4")
    yield f'`check_point("pc4")`, {POINT_SAMPLES} samples', lambda: VF.check_point(
        "pc4", TH.golden("pc4"), samples=POINT_SAMPLES, seed=SEED)
    yield '`check_lattice("pc4")`', lambda: VF.check_lattice("pc4", TH.golden("pc4"), seed=SEED)
    yield '`check_lattice("em")`, 16³ grid, 1000 steps', lambda: VF.check_lattice(
        "em", TH.golden("em"), seed=SEED)


def main() -> int:
    root, threads = bootstrap()
    if root is None:
        return 2
    from layers import DURATIONS, TARGETS, self_by_span
    from spans import Recorder

    print("env " + json.dumps(environment(root, threads), sort_keys=True))
    print("| what | wall time | where the time goes (self time) |")
    print("| --- | --- | --- |")
    rec = Recorder()
    rec.install(TARGETS, DURATIONS)
    try:
        for label, call in rows():
            rec.take()
            t0 = time.perf_counter()
            call()
            wall = time.perf_counter() - t0
            ranked = sorted(self_by_span(rec.take()).items(), key=lambda kv: -kv[1])[:3]
            where = "; ".join(f"`{name}` {100 * s / wall:.0f}%" for name, s in ranked)
            print(f"| {label} | {wall:.2f} s | {where} |", flush=True)
    finally:
        rec.uninstall()
    return 0


if __name__ == "__main__":
    sys.exit(main())
