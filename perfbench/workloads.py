"""The two benchmark workloads, and the scoring of their check entries.

``derive-point-site`` is the work done one Python object at a time: exact
derivation, exact pointwise elimination and the lattice on single sites.
``lattice-grid`` is the lattice in bulk numpy kernels.  A change to the
lattice's expression evaluator can show a gain on the first and a cost on
the second.

Each workload is a closed loop: one process, one caller, one round after
another.  A round is a fixed list of timed calls into the public entry
points (``cli.run_pipeline`` and the ``verify.check_*`` drivers), made with
inputs derived from the run's seed; every round repeats the same calls, so
``run.py`` can time each call many times.  A call returns the ``Outcome``
of each driver it ran.  Every attribute is looked up at call time, so a
round runs whatever the span recorder has installed.
"""

from __future__ import annotations

import math
import sys
import traceback
from dataclasses import dataclass

from ktphase import cli
from ktphase import theories as TH
from ktphase import verify as VF

THEORIES = ("mechanics", "length", "scalar", "em", "pc4")
RENDERINGS = ("el", "alpha", "omega", "constraints")
# pc4 samples per round, in one ``check_point`` call: under a second of exact
# elimination
POINT_SAMPLES = 5
# pc4 lattice states per round, in one ``check_lattice`` call (the golden
# record asks for 20): about two seconds
PC4_STATES = 5

# entries a driver reports, counted as failed when it raises instead
DRIVER_ENTRIES = {"derive": len(RENDERINGS), "check_symbolic": 7, "check_point": 4,
                  "check_lattice": 4}

# A tolerance-based entry's margin is log10(tolerance / measured) in decades,
# or log10(measured / bound) for a lower bound; at most MARGIN_CAP.
MARGIN_CAP = 16.0
FLOAT_EPS = sys.float_info.epsilon


@dataclass
class Outcome:
    driver: str
    theory: str
    entries: dict | None      # None when the driver raised
    error: str = ""


@dataclass(frozen=True)
class Workload:
    setup_parts: tuple        # (theories accessor, builtin names) whose caches set-up fills
    calls: object             # seed -> [(label, () -> list[Outcome])], one round

    def setup(self) -> None:
        for part, names in self.setup_parts:
            for name in names:
                getattr(TH, part)(name)


def _call(driver: str, theory: str, fn) -> Outcome:
    try:
        return Outcome(driver, theory, fn())
    except Exception:  # a raising driver is a failed check, not a benchmark crash
        return Outcome(driver, theory, None, traceback.format_exc(limit=4))


def _renderings(name: str) -> dict:
    """``ktphase derive`` of a builtin, compared with its golden record."""
    got = cli.run_pipeline(TH.builtin(name), cli.RunOptions(symbolic_only=True))["derivation"]
    want = TH.golden(name)
    return {key: {"pass": got[key] == want[key], "got": got[key]} for key in RENDERINGS}


def _timed(label: str, driver: str, theory: str, fn):
    return label, lambda: [_call(driver, theory, fn)]


def _lattice(name: str, seed: int, golden=None):
    return _timed(f"check_lattice {name}", "check_lattice", name,
                  lambda: VF.check_lattice(name, golden or TH.golden(name), seed=seed)["entries"])


_SITE = ("mechanics", "length", "pc4")
_GRID = ("scalar", "em")


def _derive_point_site_calls(seed: int) -> list:
    # every round derives from scratch, as a fresh ``ktphase check`` does
    out = [("derived_split.cache_clear", lambda: TH.derived_split.cache_clear() or [])]
    for name in THEORIES:
        out.append(_timed(f"derive {name}", "derive", name, lambda name=name: _renderings(name)))
        out.append(_timed(f"check_symbolic {name}", "check_symbolic", name,
                          lambda name=name: VF.check_symbolic(name, TH.golden(name))["entries"]))
    out.append(_timed("check_point pc4", "check_point", "pc4",
                      lambda: VF.check_point("pc4", TH.golden("pc4"), samples=POINT_SAMPLES,
                                             seed=seed)["entries"]))
    golden = TH.golden("pc4")
    pc4 = {**golden, "lattice": {**golden["lattice"], "states": PC4_STATES}}
    out += [_lattice("mechanics", seed), _lattice("length", seed), _lattice("pc4", seed, pc4)]
    return out


def _grid_calls(seed: int) -> list:
    return [_lattice(name, seed) for name in _GRID]


WORKLOADS = {
    "derive-point-site": Workload(
        (("builtin", THEORIES), ("chart", THEORIES), ("golden", THEORIES),
         ("constraint_set", _SITE)), _derive_point_site_calls),
    "lattice-grid": Workload(
        tuple((part, _GRID) for part in ("builtin", "chart", "golden", "constraint_set")),
        _grid_calls),
}


# ---------------------------------------------------------------------------
# scoring
# ---------------------------------------------------------------------------

def _upper(key, measured):
    return lambda entry, spec: (spec[key], measured(entry, spec), True)


def _lower(key, measured):
    return lambda entry, spec: (spec[key], measured(entry, spec), False)


# (theory, entry) -> the entry's threshold decisions against the tolerances of
# the golden record's "lattice" block: (tolerance, measured, is upper bound)
TOLERANCES = {
    ("mechanics", "hamiltonian_flow"): (_upper("ham_tol", lambda e, s: e["max_err"]),),
    ("length", "spectral_gap"): (_lower("gap_min", lambda e, s: e["min_gap"]),),
    ("length", "kernel_direction"): (_upper("cos_tol", lambda e, s: 1.0 - e["min_cosine"]),),
    ("scalar", "current_order"): (_upper("order_tol", lambda e, s: abs(e["order"] - s["order"])),),
    ("em", "gauss_drift"): (_upper("gauss_drift_tol", lambda e, s: e["drift"]),),
    ("em", "gauge_vector_field"): (
        _upper("xlam_tol", lambda e, s: max(e["max_A_err"], e["max_F0"])),),
    ("em", "abelian_brackets"): (_upper("jj_tol", lambda e, s: e["max_bracket"]),),
    ("pc4", "internal_rotation"): (
        _upper("xc_tol", lambda e, s: max(e["max_err"], e["max_residual"])),),
    ("pc4", "coisotropy"): (_upper("bracket_tol", lambda e, s: e["max_bracket"]),
                            _upper("surface_tol", lambda e, s: e["max_violation"])),
}


def margin_dec(tol: float, measured: float, upper: bool = True) -> float:
    """How many decades a measured value keeps from its threshold; negative
    when it is on the failing side.  A value at or below float64 resolution
    of its tolerance counts as ``MARGIN_CAP``; NaN counts as ``-MARGIN_CAP``."""
    if math.isnan(measured):
        return -MARGIN_CAP
    if upper and measured <= tol * FLOAT_EPS:
        return MARGIN_CAP
    ratio = tol / measured if upper else measured / tol
    if ratio <= 0.0:
        return -MARGIN_CAP
    return max(-MARGIN_CAP, min(MARGIN_CAP, math.log10(ratio)))


@dataclass
class Score:
    attempted: int = 0
    failed: int = 0
    tol_margin_dec: float = MARGIN_CAP
    errors: int = 0           # drivers that raised

    @property
    def fail_ratio(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


def score(outcomes) -> Score:
    """Entries attempted and failed, and the smallest tolerance margin.

    An entry is each ``{"pass": ...}`` entry of a driver and each ``derive``
    rendering; a driver that raised counts all its entries as failed.
    """
    s = Score()
    for o in outcomes:
        if o.entries is None:
            s.attempted += DRIVER_ENTRIES[o.driver]
            s.failed += DRIVER_ENTRIES[o.driver]
            s.errors += 1
            continue
        s.attempted += len(o.entries)
        s.failed += sum(not e["pass"] for e in o.entries.values())
        if o.driver != "check_lattice":
            continue
        spec = TH.golden(o.theory)["lattice"]
        for key, entry in o.entries.items():
            for decision in TOLERANCES.get((o.theory, key), ()):
                s.tol_margin_dec = min(s.tol_margin_dec, margin_dec(*decision(entry, spec)))
    return s
