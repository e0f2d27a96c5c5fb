"""The per-layer metrics of the benchmark: which ktphase functions a traced
run wraps, the statistics reported for each, and how a traced run's spans
become metric values.

A span name is ``<module>.<qualname>`` inside the ``ktphase`` package; a
metric name is ``<span name>.<stat>``.  The comment above each group says
which end-to-end metric it should move, on which workload.
"""

from __future__ import annotations

import statistics


def _terms(exprs) -> int:
    return sum(len(e.terms) for e in exprs)


def _el_terms(args, split) -> dict:
    return {"el_terms": _terms(e for _, e in split.el)}


def _constraint_terms(args, cons) -> dict:
    return {"terms": _terms(d for _, d in cons)}


def _rref_cells(args, out) -> dict:
    m = args["matrix"]
    return {"cells": len(m) * len(m[0]) if m else 0}


def _em_site_steps(args, out) -> dict:
    return {"site_steps": args["grid"].nsites * args["steps"]}


# span name -> (reported stats, counter or None)
LAYERS = {
    # run_s on derive-point-site (derive calls; diff_jet also check_lattice pc4,
    # through _grad_terms)
    "expr.Expr.__add__": (("calls", "self_s"), None),
    "expr.Expr.__mul__": (("calls", "self_s"), None),
    "expr.diff_jet": (("calls", "self_s"), None),
    "expr.total_derivative": (("calls", "self_s"), None),
    "expr.map_vars": (("calls", "self_s"), None),
    "expr.substitute": (("calls", "self_s"), None),
    # run_s on derive-point-site (derive calls)
    "calc_var.variation": (("self_s",), None),
    "calc_var.ibp_split": (("self_s", "el_terms"), _el_terms),
    "calc_var.vertical_delta": (("self_s",), None),
    "calc_var.boundary_restrict": (("self_s",), None),
    "calc_var.constraint_extract": (("self_s", "terms"), _constraint_terms),
    "calc_var.reconstruction_defect": (("self_s",), None),
    "calc_var.verify_chart": (("self_s",), None),
    "cli.run_pipeline": (("self_s",), None),
    # run_s on derive-point-site (check_point calls) only
    "pointlin.rref": (("calls", "self_s", "cells"), _rref_cells),
    "pointlin.solve_exact": (("self_s",), None),
    "pointlin.nullspace": (("self_s",), None),
    "pointlin.internal_act": (("self_s",), None),
    "pointlin.coframe_kernel_dim": (("self_s",), None),
    "pointlin.injective_w21": (("self_s",), None),
    "pointlin.wedge": (("calls", "self_s"), None),
    "pointlin.structural_fix": (("calls", "self_s", "p50_ms", "p90_ms"), None),
    # run_s on derive-point-site (check_lattice calls); flat on lattice-grid
    "lattice.LatticeModel.evaluate": (("calls", "self_s"), None),
    "lattice.LatticeModel.density_gradient": (("calls", "self_s"), None),
    "lattice.assemble_two_form": (("calls", "self_s"), None),
    "lattice.coisotropy_check": (("self_s",), None),
    "theories.pc_on_surface_state": (("calls", "self_s"), None),
    "theories.pc_structural_rows": (("self_s",), None),
    # run_s and peak_rss_mb on lattice-grid
    "lattice.evolve_em": (("self_s", "site_steps_per_s"), _em_site_steps),
    "lattice.em_gauss": (("self_s",), None),
    "lattice.hamiltonian_vector_field": (("calls", "self_s"), None),
    "lattice.poisson_bracket": (("self_s",), None),
    "lattice.symplectic_current_check": (("self_s",), None),
    "lattice.two_form_rank": (("self_s",), None),
    # setup_s on every workload
    "theories.builtin": (("self_s",), None),
    "theories.chart": (("self_s",), None),
    "theories.constraint_set": (("self_s",), None),
    # driver overhead: should stay near zero
    "verify.check_symbolic": (("self_s",), None),
    "verify.check_point": (("self_s",), None),
    "verify.check_lattice": (("self_s",), None),
}

TARGETS = {name: counter for name, (_, counter) in LAYERS.items()}
DURATIONS = {name for name, (stats, _) in LAYERS.items() if "p50_ms" in stats}

# metrics of the traced run that are not the stats of one span
TRACE_METRICS = {
    "trace.run_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
    "trace.self_share": ("ratio", "higher"),
    "fail_ratio": ("ratio", "lower"),
    "tol_margin_dec": ("dec", "higher"),
}

_STAT_UNITS = {
    "calls": ("count", "lower"),
    "self_s": ("s", "lower"),
    "cells": ("count", "lower"),
    "el_terms": ("count", "lower"),
    "terms": ("count", "lower"),
    "p50_ms": ("ms", "lower"),
    "p90_ms": ("ms", "lower"),
    "site_steps_per_s": ("1/s", "higher"),
}


def metric_units() -> dict:
    """Every per-layer metric name -> (unit, better)."""
    out = {f"{name}.{stat}": _STAT_UNITS[stat]
           for name, (stats, _) in LAYERS.items() for stat in stats}
    out.update(TRACE_METRICS)
    return out


def _percentile_ms(durations, q: int) -> float:
    if len(durations) < 2:
        return sum(durations) * 1e3
    return statistics.quantiles(durations, n=100, method="inclusive")[q - 1] * 1e3


def layer_metrics(setup: dict, rounds: list) -> dict:
    """Per-layer metric values of a traced run: the cost of one fresh
    process, that is the traced set-up plus the median (lower middle) traced
    round.

    ``setup`` and each element of ``rounds`` (at least one) are
    ``Recorder.take()`` results of the same recorder.
    Percentiles and rates are taken over every call recorded.
    """
    out = {}
    for name, (stats, _) in LAYERS.items():
        got = [setup[name]] + [r[name] for r in rounds]
        for stat in stats:
            key = f"{name}.{stat}"
            if stat in ("p50_ms", "p90_ms"):
                durations = [d for st in got for d in st.durations]
                out[key] = _percentile_ms(durations, 50 if stat == "p50_ms" else 90)
            elif stat == "site_steps_per_s":
                busy = sum(st.total_s for st in got)
                steps = sum(st.counters.get("site_steps", 0) for st in got)
                out[key] = steps / busy if busy else 0.0
            else:
                per = [getattr(st, stat) if stat in ("calls", "self_s")
                       else st.counters.get(stat, 0) for st in got]
                out[key] = per[0] + statistics.median_low(per[1:])
    return out


def self_by_span(stats: dict) -> dict:
    """Self seconds per span name of one ``Recorder.take()`` result."""
    return {name: st.self_s for name, st in stats.items() if st.calls}


def self_by_module(stats: dict) -> dict:
    """Self seconds per ktphase module of one ``Recorder.take()`` result."""
    out = {}
    for name, st in stats.items():
        module = name.split(".", 1)[0]
        out[module] = out.get(module, 0.0) + st.self_s
    return out
