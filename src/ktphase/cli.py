"""Front end: theory files, pipeline reports, and the command line.

Theory files are line-oriented::

    theory NAME
    dim D
    [vdim N]                                # internal index range, default D
    coords x0 x1 ... [@transversal xk]      # distinct identifiers; default transversal: first
    field NAME [base=N] [internal=N] [antisym] [positive]
    background NAME [base=N] [constant] [time-independent] [positive]
    function NAME
    metric split h time-independent         # declares hinv (2 indices) and rh
    boundary FIELD ORDER SYMBOL             # boundary symbol name override
    side upper|lower                        # boundary copy of the 1-form
    jetorder N
    lagrangian "EXPR"

The attributes of ``field`` and ``background`` lines are the fields of
``FieldDecl`` and ``BackgroundDecl``: an int is ``KEY=N``, a bool a flag word
(``_`` written ``-``).  ``emit_theory`` writes the canonical text, and
``parse_theory(emit_theory(t)) == t`` whatever the order of the declarations.

Unknown keys are rejected, as are ``dim``, ``vdim`` or ``jetorder`` below 1
and negative index counts; errors carry line numbers, and an error inside
the lagrangian's expression also its file column.  Reports serialize
deterministically: UTF-8, sorted keys, floats at 17 significant digits.

Exit codes: 0 all requested checks pass (and ``--help``); 1 user error: a
usage error (a negative ``--seed`` among them), a theory file that cannot be read or parsed, an ``--out`` path
that cannot be written, or a check option that the theory's golden record
cannot honour (``--lattice`` without a golden ``grid``, ``--point-checks``
below 1 or without a golden ``point`` block); 2 check failure; 3 internal
error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, fields, replace

from . import expr as ex
from . import theories as TH
from .calc_var import (
    BackgroundDecl,
    FieldDecl,
    TheorySpec,
    vertical_delta,
)
from .errors import CheckFailure, KtError, OrderLimitError, ParseError, UsageError

__all__ = ["parse_theory", "emit_theory", "run_pipeline", "emit_report",
           "canonical_json", "RunOptions", "main"]


# ---------------------------------------------------------------------------
# canonical serialization
# ---------------------------------------------------------------------------

def _json_scalar(x) -> str:
    if isinstance(x, bool):
        return "true" if x else "false"
    if x is None:
        return "null"
    if isinstance(x, int):
        return str(x)
    if isinstance(x, float):
        if x != x or x in (float("inf"), float("-inf")):
            return json.dumps(str(x))
        return "%.17g" % x
    if isinstance(x, str):
        return json.dumps(x, ensure_ascii=False)
    raise TypeError(f"cannot serialize {type(x).__name__}")


def canonical_json(obj, indent: int = 0) -> str:
    """Deterministic JSON: sorted keys, fixed float format, stable layout."""
    pad = "  " * indent
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = []
        for k in sorted(obj, key=str):
            items.append(f'{pad}  {json.dumps(str(k), ensure_ascii=False)}: '
                         f'{canonical_json(obj[k], indent + 1)}')
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [f"{pad}  {canonical_json(v, indent + 1)}" for v in obj]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    return _json_scalar(obj)


# ---------------------------------------------------------------------------
# theory files
# ---------------------------------------------------------------------------

_DECLS = {"field": FieldDecl, "background": BackgroundDecl}
# what a ``metric split h time-independent`` line declares
_SPLIT_PAIR = (BackgroundDecl("hinv", base=2, time_independent=True),
               BackgroundDecl("rh", time_independent=True, positive=True))


def _attributes(cls) -> dict:
    """``word -> (attribute, is_flag)`` for each attribute of a declaration
    class after its name: an int is a ``KEY=N`` attribute, a bool a flag."""
    return {f.name.replace("_", "-"): (f.name, type(f.default) is bool) for f in fields(cls)[1:]}


def _parse_decl(words, lineno):
    key = words[0]
    attrs = _attributes(_DECLS[key])
    if len(words) < 2:
        usage = [f"[{word}]" if flag else f"[{word}=N]" for word, (_, flag) in attrs.items()]
        raise ParseError(" ".join([f"usage: {key} NAME", *usage]), lineno)
    kw = {}
    for w in words[2:]:
        word, eq, value = w.partition("=")
        attr, flag = attrs.get(word, (None, None))
        if attr is None or flag == bool(eq):  # a flag takes no value, an int one
            raise ParseError(f"unknown {key} {'attribute' if eq else 'flag'} {word!r}", lineno)
        kw[attr] = True if flag else _int(value, word, lineno)
    return _DECLS[key](words[1], **kw)


def _emit_decl(key: str, decl) -> str:
    words = [key, decl.name]
    for word, (attr, flag) in _attributes(type(decl)).items():
        value = getattr(decl, attr)
        if value:
            words.append(word if flag else f"{word}={value}")
    return " ".join(words)


def parse_theory(text: str) -> TheorySpec:
    """Parse a theory file; raises ParseError with the offending line."""
    name = None
    ints = {"vdim": 0, "jetorder": ex.DEFAULT_MAX_JET_ORDER}  # and "dim", required
    coords = None
    transversal = None
    decls = {key: [] for key in _DECLS}
    functions = []
    boundary_names = []
    lines = {}  # declared name or ("boundary", i) -> its line
    side = 1
    lagrangian_src = None
    lagrangian_line = lagrangian_col = 0
    seen = set()

    def dup(key, line):
        if key in seen:
            raise ParseError(f"duplicate {key!r} declaration", line)
        seen.add(key)

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        words = line.split()
        key = words[0]
        if key == "theory":
            dup("theory", lineno)
            if len(words) != 2:
                raise ParseError("usage: theory NAME", lineno)
            name = words[1]
        elif key in ("dim", "vdim", "jetorder"):
            dup(key, lineno)
            if len(words) != 2:
                raise ParseError(f"usage: {key} N", lineno)
            ints[key] = _int(words[1], key, lineno)
            if ints[key] < 1:
                raise ParseError(f"{key} must be at least 1, got {ints[key]}", lineno)
        elif key == "coords":
            dup("coords", lineno)
            rest = words[1:]
            names = []
            i = 0
            while i < len(rest):
                if rest[i] == "@transversal":
                    if transversal is not None:
                        raise ParseError("second @transversal mark", lineno)
                    if i + 1 >= len(rest):
                        raise ParseError("@transversal needs a coordinate name", lineno)
                    marked = rest[i + 1]
                    if marked not in names:
                        raise ParseError(f"@transversal names unknown coordinate {marked!r}", lineno)
                    transversal = names.index(marked)
                    i += 2
                    continue
                if not (rest[i].isascii() and rest[i].isidentifier()) or rest[i] in names:
                    raise ParseError(f"coordinate {rest[i]!r} is not a new identifier", lineno)
                names.append(rest[i])
                i += 1
            coords = tuple(names)
        elif key in _DECLS:
            decls[key].append(_parse_decl(words, lineno))
        elif key == "function":
            if len(words) != 2:
                raise ParseError("usage: function NAME", lineno)
            functions.append(words[1])
        elif key == "metric":
            if words[1:] != ["split", "h", "time-independent"]:
                raise ParseError("usage: metric split h time-independent", lineno)
            decls["background"].extend(_SPLIT_PAIR)
            lines["hinv"] = lines["rh"] = lineno
        elif key == "boundary":
            if len(words) != 4:
                raise ParseError("usage: boundary FIELD ORDER SYMBOL", lineno)
            lines[("boundary", len(boundary_names))] = lineno
            boundary_names.append((words[1], _int(words[2], "ORDER", lineno), words[3]))
        elif key == "side":
            dup("side", lineno)
            if words[1:] not in (["upper"], ["lower"]):
                raise ParseError("side must be 'upper' or 'lower'", lineno)
            side = 1 if words[1] == "upper" else -1
        elif key == "lagrangian":
            dup("lagrangian", lineno)
            rest = line[len("lagrangian"):].strip()
            if not (rest.startswith('"') and rest.endswith('"') and len(rest) >= 2):
                raise ParseError('usage: lagrangian "EXPR"', lineno)
            lagrangian_src = rest[1:-1]
            lagrangian_line, lagrangian_col = lineno, raw.index('"') + 1
        else:
            raise ParseError(f"unknown declaration {key!r}", lineno)
        if key in ("field", "background", "function"):
            lines[words[1]] = lineno

    dim, vdim, jet_order = ints.get("dim"), ints["vdim"], ints["jetorder"]
    if name is None or dim is None or coords is None:
        raise ParseError("theory, dim, and coords are required")
    if transversal is None:
        transversal = 0
    if lagrangian_src is None:
        raise ParseError("missing lagrangian")

    try:
        base = TheorySpec(name=name, dim=dim, coords=coords, transversal=transversal,
                          fields=tuple(decls["field"]), backgrounds=tuple(decls["background"]),
                          functions=tuple(functions), vdim=vdim, jet_order=jet_order,
                          boundary_side=side, boundary_names=tuple(boundary_names))
    except ParseError as exc:  # attach the line of what it is about
        raise ParseError(exc.message, lines.get(exc.subject)) from None
    try:
        L = ex.parse(lagrangian_src, base.context())
    except ParseError as exc:  # the expression is one line: its column counts from the quote
        col = None if exc.col is None else lagrangian_col + exc.col
        raise type(exc)(f"in lagrangian: {exc.message}", lagrangian_line, col) from exc
    except ZeroDivisionError as exc:  # division by a sum, or by zero
        raise ParseError(f"in lagrangian: {exc}", lagrangian_line) from exc
    except RecursionError:  # nesting deeper than the interpreter's stack
        raise ParseError("in lagrangian: expression nested too deeply", lagrangian_line) from None
    try:
        return replace(base, lagrangian=L)
    except ParseError as exc:  # what the spec checks of the Lagrangian
        raise ParseError(exc.message, lagrangian_line) from None


def _int(word: str, what: str, lineno: int) -> int:
    try:
        return int(word)
    except ValueError:
        raise ParseError(f"{what} must be an integer, got {word!r}", lineno) from None


def emit_theory(t: TheorySpec) -> str:
    """Canonical theory-file text; parse_theory(emit_theory(t)) == t."""
    ctx = t.context()
    lines = [f"theory {t.name}", f"dim {t.dim}"]
    if t.vdim != t.dim:
        lines.append(f"vdim {t.vdim}")
    coords = " ".join(t.coords)
    if t.transversal != 0:
        coords += f" @transversal {t.coords[t.transversal]}"
    lines.append(f"coords {coords}")
    bgs = list(t.backgrounds)
    while bgs:
        if tuple(bgs[:2]) == _SPLIT_PAIR:
            lines.append("metric split h time-independent")
            del bgs[:2]
        else:
            lines.append(_emit_decl("background", bgs.pop(0)))
    lines.extend(_emit_decl("field", f) for f in t.fields)
    for fn in t.functions:
        lines.append(f"function {fn}")
    for field, order, sym in t.boundary_names:
        lines.append(f"boundary {field} {order} {sym}")
    lines.append(f"side {'upper' if t.boundary_side == 1 else 'lower'}")
    lines.append(f"jetorder {t.jet_order}")
    lines.append(f'lagrangian "{ex.to_text(t.lagrangian, ctx)}"')
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# pipeline reports
# ---------------------------------------------------------------------------

@dataclass
class RunOptions:
    symbolic_only: bool = False
    point_checks: int | None = None
    grid_shape: tuple | None = None
    seed: int = 0


def _derivation_block(t: TheorySpec) -> dict:
    split = TH.derived_split(t)
    return {**split.renderings,
            "variation": split.variation.to_text(t.context()),
            "alpha_side": t.boundary_side,
            "tangential_divergences": len(split.divergences)}


def run_pipeline(t: TheorySpec, options: RunOptions | None = None) -> dict:
    """Run the derivation and, unless ``symbolic_only``, the checks against
    the golden record; return the report.

    Stage errors propagate as exceptions tagged with the stage name in their
    message; check failures are recorded in the report, not raised.
    """
    options = options or RunOptions()
    report = {
        "theory": {"name": t.name, "dim": t.dim, "vdim": t.vdim,
                   "coords": list(t.coords), "transversal": t.transversal,
                   "jet_order": t.jet_order},
        "options": {"seed": options.seed, "symbolic_only": options.symbolic_only},
    }
    try:
        report["derivation"] = _derivation_block(t)
    except KtError as exc:
        raise type(exc)(f"[derivation] {exc}") from exc

    is_builtin = t.name in TH.THEORY_NAMES and t == TH.builtin(t.name)
    report["builtin"] = is_builtin
    if options.symbolic_only:
        report["passed"] = True
        return report

    if not is_builtin:
        raise CheckFailure(f"[check] no golden record for theory {t.name!r}; "
                           "checks run against the builtin corpus")
    golden = TH.golden(t.name)
    if options.grid_shape is not None and "grid" not in golden["lattice"]:
        raise ParseError(f"--lattice: the golden record of {t.name!r} has no lattice grid")
    if options.point_checks is not None and "point" not in golden:
        raise ParseError(f"--point-checks: the golden record of {t.name!r} has no point block")
    if options.point_checks is not None and options.point_checks < 1:
        raise ParseError(f"--point-checks {options.point_checks}: need at least 1 sample")
    from . import verify as VF
    checks = {"symbolic": VF.check_symbolic(t.name, golden)}
    if "point" in golden:
        checks["point"] = VF.check_point(t.name, golden, samples=options.point_checks,
                                         seed=options.seed)
    checks["lattice"] = VF.check_lattice(t.name, golden, seed=options.seed,
                                         grid_shape=options.grid_shape)
    report["checks"] = checks
    report["passed"] = all(c["passed"] for c in checks.values())
    return report


# ---------------------------------------------------------------------------
# report emission
# ---------------------------------------------------------------------------

def _latex_block(t: TheorySpec) -> str:
    ctx = t.context()
    split = TH.derived_split(t)
    lines = [r"\documentclass{article}", r"\usepackage{amsmath}", r"\begin{document}",
             r"\section*{%s}" % t.name.replace("_", r"\_")]
    lines.append(r"\subsection*{Field equations}")
    for w, e in split.el:
        lhs = ex.var_latex(w, ctx)
        lines.append(r"\[ \mathrm{el}_{%s} = %s \]" % (lhs, ex.to_latex(e, ctx)))
    lines.append(r"\subsection*{Boundary 1-form}")
    lines.append(r"\[ \alpha = %s \]" % split.alpha.to_latex(ctx))
    lines.append(r"\subsection*{Boundary 2-form}")
    lines.append(r"\[ \omega = %s \]" % vertical_delta(split.alpha).to_latex(ctx))
    lines.append(r"\end{document}")
    return "\n".join(lines) + "\n"


def _plain_block(report: dict) -> str:
    out = [f"theory {report['theory']['name']} (dim {report['theory']['dim']})"]
    der = report.get("derivation", {})
    for key in ("variation", "alpha", "omega"):
        if key in der:
            out.append(f"{key}: {der[key]}")
    for name, e in der.get("el", {}).items():
        out.append(f"el[{name}]: {e}")
    for name, e in der.get("constraints", {}).items():
        out.append(f"constraint[{name}]: {e}")
    for stage, block in report.get("checks", {}).items():
        for entry, val in block["entries"].items():
            status = "PASS" if val["pass"] else "FAIL"
            extra = {k: v for k, v in val.items() if k != "pass"}
            out.append(f"[{status}] {stage}.{entry} {extra if extra else ''}".rstrip())
    out.append("status: " + ("pass" if report.get("passed") else "FAIL"))
    return "\n".join(out) + "\n"


def emit_report(report: dict, fmt: str, t: TheorySpec | None = None) -> bytes:
    """Serialize a report; identical reports give identical bytes."""
    if fmt == "data":
        return (canonical_json(report) + "\n").encode("utf-8")
    if fmt == "plain":
        return _plain_block(report).encode("utf-8")
    if fmt == "latex":
        if t is None:
            raise KtError("latex emission needs the theory spec")
        return _latex_block(t).encode("utf-8")
    raise KtError(f"unknown report format {fmt!r}")


# ---------------------------------------------------------------------------
# command line
# ---------------------------------------------------------------------------

def _load_theory(arg: str) -> TheorySpec:
    if arg in TH.THEORY_NAMES:
        return TH.builtin(arg)
    try:
        with open(arg, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot read theory file {arg!r}: {_reason(exc)}") from None
    return parse_theory(text)


def _reason(exc: Exception) -> str:
    return getattr(exc, "strerror", None) or str(exc)


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on a usage error; here that is a user error, exit 1
    (``--help`` still exits 0).  Subcommand parsers share the class."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


# largest --lattice grid accepted: em measured 46 MB at 16^3 and 96 MB at
# 32^3 sites (peak RSS), so 2^20 sites is about 2 GB (estimated, not run)
MAX_SITES = 2 ** 20


def _parse_grid(s: str, t: TheorySpec) -> tuple:
    """The ``--lattice`` shape, checked against the grid rules and against
    the theory's boundary slice before any check runs."""
    from .lattice import LatticeGrid
    try:
        shape = tuple(int(p) for p in s.lower().split("x"))
        LatticeGrid(shape=shape)
    except ValueError as exc:
        raise ParseError(f"--lattice {s!r}: {exc}") from None
    axes = len(t.tangential())
    if len(shape) != axes:
        raise ParseError(f"--lattice {s!r}: {len(shape)} axes, but the boundary slice of "
                         f"{t.name!r} has {axes}")
    if math.prod(shape) > MAX_SITES:
        raise ParseError(f"--lattice {s!r}: {math.prod(shape)} sites, more than {MAX_SITES}")
    return shape


def main(argv=None) -> int:
    parser = _Parser(prog="ktphase", description="boundary phase-space workbench")
    sub = parser.add_subparsers(dest="command", required=True)
    for cmd in ("derive", "check"):
        p = sub.add_parser(cmd)
        p.add_argument("theory", help="builtin name or theory file path")
        p.add_argument("--format", choices=("data", "latex", "plain"), default="data")
        p.add_argument("--out", default=None)
        p.add_argument("--seed", type=int, default=0)
        if cmd == "check":
            p.add_argument("--lattice", default=None, help="grid, e.g. 16x16x16")
            p.add_argument("--point-checks", type=int, default=None)
    args = parser.parse_args(argv)

    try:
        empty = [k for k, v in vars(args).items() if v == []]  # argparse reads --opt=-- as []
        if empty:
            raise ParseError(f"--{empty[0].replace('_', '-')}: expected one argument")
        if args.seed < 0:  # numpy's generators take no negative seed
            raise ParseError(f"--seed {args.seed}: need a non-negative integer")
        t = _load_theory(args.theory)
        if args.command == "derive":
            options = RunOptions(symbolic_only=True, seed=args.seed)
        else:
            grid = None if args.lattice is None else _parse_grid(args.lattice, t)
            options = RunOptions(seed=args.seed, point_checks=args.point_checks, grid_shape=grid)
        report = run_pipeline(t, options)
        payload = emit_report(report, args.format, t)
        if args.out:
            try:
                with open(args.out, "wb") as fh:
                    fh.write(payload)
            except OSError as exc:
                raise UsageError(f"cannot write --out file {args.out!r}: {_reason(exc)}") from None
        else:
            sys.stdout.buffer.write(payload)
        if args.command == "check" and not report.get("passed", False):
            return 2
        return 0
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 1
    except (OrderLimitError, UsageError) as exc:  # too small a jetorder; an unusable file
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except CheckFailure as exc:
        print(f"check failure: {exc}", file=sys.stderr)
        return 2
    except KtError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:  # noqa: BLE001 - exit-code contract
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
