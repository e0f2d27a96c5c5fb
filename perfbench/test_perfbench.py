"""Tests of the benchmark itself: span arithmetic, that tracing changes no
result, entry scoring, and the metric list in BENCHMARK.json."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from ktphase import expr as ex
from ktphase import theories as TH
from ktphase import verify as VF

import layers
import workloads as W
from spans import Recorder

ROOT = Path(__file__).resolve().parent.parent


def test_self_time_of_nested_and_recursive_spans():
    now = [0.0]
    rec = Recorder(clock=lambda: now[0])

    def work(dt):
        now[0] += dt

    def leaf():
        work(1.0)

    def countdown(n):
        work(2.0)
        if n:
            countdown_span(n - 1)

    def outer():
        work(0.5)
        leaf_span()
        countdown_span(2)
        work(0.25)

    leaf_span = rec.wrap("leaf", leaf)
    countdown_span = rec.wrap("countdown", countdown)
    rec.wrap("outer", outer)()

    stats = rec.take()
    assert (stats["outer"].calls, stats["outer"].self_s, stats["outer"].total_s) == (1, 0.75, 7.75)
    assert (stats["leaf"].calls, stats["leaf"].self_s) == (1, 1.0)
    # three nested calls, 2 s of own work each; inclusive times 6 + 4 + 2
    assert (stats["countdown"].calls, stats["countdown"].self_s,
            stats["countdown"].total_s) == (3, 6.0, 12.0)
    assert sum(st.self_s for st in stats.values()) == stats["outer"].total_s
    assert all(st.calls == 0 and st.self_s == 0.0 for st in rec.take().values())


def test_install_wraps_every_binding_and_uninstall_restores():
    add, assemble = ex.Expr.__add__, VF.assemble_two_form
    rec = Recorder()
    rec.install({"expr.Expr.__add__": None, "lattice.assemble_two_form": None})
    try:
        assert ex.Expr.__add__ is ex.Expr.__radd__ is not add
        assert VF.assemble_two_form is not assemble
        one = ex.Expr.const(1)
        assert 1 + one == one + 1 == ex.Expr.const(2)
        assert rec.take()["expr.Expr.__add__"].calls == 2
    finally:
        rec.uninstall()
    assert ex.Expr.__add__ is ex.Expr.__radd__ is add
    assert VF.assemble_two_form is assemble


def _quick_outcomes():
    """A fast cut of every workload: derive renderings of all builtins, and
    the cheap drivers."""
    out = [W._call("derive", n, lambda: W._renderings(n)) for n in W.THEORIES]
    out.append(W._call("check_symbolic", "length",
                       lambda: VF.check_symbolic("length", TH.golden("length"))["entries"]))
    out.append(W._call("check_point", "pc4",
                       lambda: VF.check_point("pc4", TH.golden("pc4"), samples=1,
                                              seed=3)["entries"]))
    for n in ("mechanics", "length"):
        out.append(W._call("check_lattice", n,
                           lambda: VF.check_lattice(n, TH.golden(n), seed=3)["entries"]))
    return out


def _comparable(outcomes):
    return [(o.driver, o.theory, o.error,
             {k: v for k, v in o.entries.items() if k != "runtime_s"}) for o in outcomes]


def test_traced_results_equal_untraced():
    plain = _quick_outcomes()
    rec = Recorder()
    rec.install(layers.TARGETS, layers.DURATIONS)
    try:
        traced = _quick_outcomes()
    finally:
        rec.uninstall()
    assert _comparable(traced) == _comparable(plain)
    stats = rec.take()
    assert stats["cli.run_pipeline"].calls == len(W.THEORIES)
    assert stats["pointlin.structural_fix"].calls == 1
    assert W.score(plain).failed == 0


def test_fail_ratio_counts_a_wrong_golden_record(monkeypatch):
    wrong = json.loads(json.dumps(TH.golden("length")))
    wrong["alpha"] = "p*q + 1"
    wrong["lattice"]["gap_min"] = 1e300
    real = TH.golden
    monkeypatch.setattr(TH, "golden", lambda n: wrong if n == "length" else real(n))

    outcomes = [
        W._call("derive", "length", lambda: W._renderings("length")),
        W._call("check_symbolic", "length",
                lambda: VF.check_symbolic("length", TH.golden("length"))["entries"]),
        W._call("check_lattice", "length",
                lambda: VF.check_lattice("length", TH.golden("length"), seed=0)["entries"]),
        W._call("check_lattice", "em", lambda: 1 / 0),
    ]
    s = W.score(outcomes)
    # 4 renderings + 7 symbolic + 4 lattice entries + 4 for the raising driver
    assert s.attempted == 19
    # alpha twice, spectral_gap, and every entry of the raising driver
    assert s.failed == 7
    assert s.errors == 1
    assert s.fail_ratio == pytest.approx(7 / 19)
    assert s.tol_margin_dec == -W.MARGIN_CAP


@pytest.mark.parametrize("tol, measured, upper, want", [
    (1e-10, 0.0, True, W.MARGIN_CAP),
    (1e-10, 1e-12, True, 2.0),
    (0.2, 0.3, True, -0.17609125905568124),
    (1e6, 1e8, False, 2.0),
    (1e-6, float("nan"), True, -W.MARGIN_CAP),
    (1e-6, float("inf"), True, -W.MARGIN_CAP),
])
def test_margin_dec(tol, measured, upper, want):
    assert W.margin_dec(tol, measured, upper) == pytest.approx(want)


def test_calls_of_a_round_have_distinct_labels():
    # run.py keeps the times of each call under its label
    for workload in W.WORKLOADS.values():
        labels = [label for label, _ in workload.calls(0)]
        assert len(set(labels)) == len(labels)


def test_benchmark_json_lists_every_reported_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(W.WORKLOADS)
    assert {m["name"] for m in spec["end_to_end"]} == {"setup_s", "run_s", "peak_rss_mb"}
    units = layers.metric_units()
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == units


def test_run_refuses_a_directory_without_the_program():
    here = ROOT / "perfbench"
    done = subprocess.run([sys.executable, str(here / "run.py"), "--workload", "lattice-grid",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=here, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""
