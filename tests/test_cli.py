"""Theory files, report serialization, and the command-line front end."""

import dataclasses
import hashlib
import importlib.resources
import json
import os
import pathlib
import re
import string
import subprocess
import sys
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from ktphase import cli
from ktphase import theories as TH
from ktphase.cli import (
    RunOptions,
    canonical_json,
    emit_report,
    emit_theory,
    main,
    parse_theory,
    run_pipeline,
)
from ktphase.errors import ParseError, UndeclaredSymbolError

DATA = pathlib.Path(__file__).resolve().parents[1] / "src" / "ktphase" / "theories_data"
MECHANICS = (DATA / "mechanics.theory").read_text(encoding="utf-8")


# ---------------------------------------------------------------------------
# theory files
# ---------------------------------------------------------------------------

def test_shipped_files_equal_builtins():
    # the shipped files are the builtins; each is stored in canonical form
    for name in TH.THEORY_NAMES:
        text = (DATA / f"{name}.theory").read_text(encoding="utf-8")
        assert text == emit_theory(TH.builtin(name))


def test_shipped_theory_files_match_theory_names():
    data = importlib.resources.files("ktphase").joinpath("theories_data")
    files = [p for p in data.iterdir() if p.name.endswith(".theory")]
    assert sorted(p.name for p in files) == sorted(f"{n}.theory" for n in TH.THEORY_NAMES)
    for p in files:
        decls = [line.split() for line in p.read_text(encoding="utf-8").splitlines()
                 if line.split()[:1] == ["theory"]]
        assert decls == [["theory", p.name.removesuffix(".theory")]]


def test_long_lagrangian_derives(tmp_path, capsys):
    # a chain of 1201 terms, and one of 1200 factors: each longer than the
    # interpreter's recursion limit
    powers = " - ".join(f"q^{k}" for k in range(1, 1201))
    product = "*".join(["q"] * 1200)
    for body, nterms in ((powers, 1201), (product, 2)):
        path = tmp_path / "long.theory"
        path.write_text(f'theory long\ndim 1\ncoords t\nfield q\nlagrangian "1/2*q\'^2 - {body}"\n')
        assert main(["derive", str(path)]) == 0, capsys.readouterr().err
        assert len(parse_theory(path.read_text()).lagrangian.terms) == nterms


def test_emit_parse_round_trip():
    for name in TH.THEORY_NAMES:
        t = TH.builtin(name)
        text = emit_theory(t)
        assert parse_theory(text) == t
        assert emit_theory(parse_theory(text)) == text


_ORDERED = """theory ordered
dim 2
coords x0 x1
{backgrounds}
field phi
side upper
jetorder 3
lagrangian "c*lam*phi + 1/2*hinv[1,1]*d[1]phi^2*rh - 1/2*phi'^2*rh"
"""
_METRIC = "metric split h time-independent"


@pytest.mark.parametrize("order", [
    (_METRIC, "background c constant", "background lam"),
    ("background c constant", _METRIC, "background lam"),
    ("background c constant", "background lam", _METRIC),
], ids=["metric-first", "metric-between", "metric-last"])
def test_emit_keeps_the_background_order(order):
    # the metric line declares the pair (hinv, rh) where it stands, and is
    # emitted there: the canonical text is the file itself
    text = _ORDERED.format(backgrounds="\n".join(order))
    t = parse_theory(text)
    assert emit_theory(t) == text
    assert parse_theory(emit_theory(t)) == t


@pytest.mark.parametrize("line, message", [
    ("field", "usage: field NAME [base=N] [internal=N] [antisym] [positive]"),
    ("background", "usage: background NAME [base=N] [constant] [time-independent] [positive]"),
    ("field q constant", "unknown field flag 'constant'"),
    ("field q positive=1", "unknown field attribute 'positive'"),
    ("field q base", "unknown field flag 'base'"),
    ("background q internal=1", "unknown background attribute 'internal'"),
    ("background q time_independent", "unknown background flag 'time_independent'"),
    ("field q internal=x", "internal must be an integer, got 'x'"),
], ids=["field-usage", "background-usage", "background-flag-on-field", "flag-with-value",
        "attribute-without-value", "field-attribute-on-background", "flag-spelled-with-underscore",
        "attribute-not-int"])
def test_declaration_words_are_the_dataclass_fields(line, message):
    with pytest.raises(ParseError, match=re.escape(message)) as info:
        parse_theory(f"theory x\ndim 1\ncoords t\n{line}\nlagrangian \"0\"\n")
    assert info.value.line == 4
    if message.startswith("usage: "):
        # the grammar in the module docstring is the parser's
        assert message.removeprefix("usage: ") in cli.__doc__


def test_two_transversal_marks_rejected():
    text = """theory bad
dim 2
coords x0 x1 @transversal x0 @transversal x1
field q
lagrangian "q"
"""
    with pytest.raises(ParseError) as err:
        parse_theory(text)
    assert "second @transversal" in str(err.value)
    assert err.value.line == 3


def test_undeclared_symbol_named_in_error():
    text = """theory bad
dim 1
coords t
field q
lagrangian "q*w"
"""
    with pytest.raises(UndeclaredSymbolError) as err:
        parse_theory(text)
    assert "'w'" in str(err.value)


def test_duplicate_field_rejected():
    text = """theory bad
dim 1
coords t
field q
field q
lagrangian "q"
"""
    with pytest.raises(ParseError):
        parse_theory(text)


def test_unknown_key_rejected():
    with pytest.raises(ParseError):
        parse_theory("theory x\ndim 1\ncoords t\nfield q\nhamiltonian \"q\"\nlagrangian \"q\"\n")


def test_transversal_marker_parsed():
    text = """theory tm
dim 2
coords x0 x1 @transversal x1
field q
lagrangian "q"
"""
    t = parse_theory(text)
    assert t.transversal == 1
    assert "@transversal x1" in emit_theory(t)


# a renamed mechanics copy; a file whose second field is the default
# boundary name of the first one's transversal jet (a' -> a0); and one whose
# field is the default boundary name of a background varying in time (b' -> b0)
_RENAMED = MECHANICS.replace("theory mechanics", "theory mine")
_SHADOWING = 'theory shadow\ndim 1\ncoords t\nfield a\nfield a0\nlagrangian "1/2*a\'^2 + a*a0"\n'
_MOVING = 'theory moving\ndim 1\ncoords t\nbackground b\nfield b0\nlagrangian "1/2*b0^2*b\' + 1/2*b0\'^2"\n'


# the line is that of the offending boundary line, or of the declaration of
# the name a default boundary symbol collides with
@pytest.mark.parametrize("text, message, line", [
    (_RENAMED.replace("boundary q 1 v", "boundary q 1 m"), "boundary symbol 'm'", 7),
    (_SHADOWING, "boundary symbol 'a0'", 5),
    (_MOVING, "boundary symbol 'b0'", 5),
    (_RENAMED.replace("boundary q 1 v", "boundary q 1 v\nboundary q 2 v"), "boundary symbol 'v'", 8),
    (_RENAMED.replace("boundary q 1 v", "boundary q 1 v\nboundary zz 1 w"), "undeclared field 'zz'", 8),
    (_RENAMED.replace("boundary q 1 v", "boundary q 0 w"), "order 0", 7),
    (_RENAMED.replace("boundary q 1 v", "boundary q 4 w"), "order 4", 7),
    (_RENAMED.replace("boundary q 1 v", "boundary q 1 v\nboundary q 1 w"), "second boundary name", 8),
], ids=["symbol-is-background", "default-symbol-is-field", "background-symbol-is-field",
        "two-equal-symbols", "undeclared-field", "order-zero", "order-above-jetorder",
        "repeated-field-order"])
def test_malformed_boundary_line_exits_one(tmp_path, capsys, text, message, line):
    path = tmp_path / "bad.theory"
    path.write_text(text)
    with pytest.raises(ParseError, match=re.escape(message)) as info:
        parse_theory(text)
    assert info.value.line == line
    assert main(["derive", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("parse error:") and message in err and err.rstrip().endswith(f" at line {line}")


@pytest.mark.parametrize("text, message", [
    (MECHANICS.replace("function V", "function V\nfield m"), "declaration 'm' at line 7"),
    # sqrt is built in
    (MECHANICS.replace("function V", "function sqrt"), "declaration 'sqrt' at line 6"),
    (MECHANICS.replace("field q", "field q\nfield sqrt"), "declaration 'sqrt' at line 6"),
], ids=["field-is-background", "function-sqrt", "field-sqrt"])
def test_duplicate_declaration_names_its_line(text, message):
    with pytest.raises(ParseError, match=re.escape(f"duplicate symbol {message}")):
        parse_theory(text)


def test_boundary_names_checked_on_specs_built_directly():
    t = TH.builtin("mechanics")
    with pytest.raises(ParseError, match="boundary symbol 'm'"):
        dataclasses.replace(t, boundary_names=(("q", 1, "m"),))
    assert dataclasses.replace(t, boundary_names=(("q", 1, "p"),)).renames() == {("q", 1): "p"}


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

def test_canonical_json_deterministic_and_sorted():
    a = canonical_json({"b": 1.5, "a": [True, None, 2]})
    b = canonical_json({"a": [True, None, 2], "b": 1.5})
    assert a == b
    assert a.index('"a"') < a.index('"b"')
    assert "1.5" in a


def test_float_formatting_17_digits():
    s = canonical_json({"x": 0.1})
    assert "0.10000000000000001" in s


def test_identical_reports_identical_bytes():
    t = TH.builtin("mechanics")
    r1 = run_pipeline(t, RunOptions(symbolic_only=True))
    r2 = run_pipeline(t, RunOptions(symbolic_only=True))
    assert emit_report(r1, "data") == emit_report(r2, "data")


def test_latex_contains_textbook_notation():
    t = TH.builtin("mechanics")
    r = run_pipeline(t, RunOptions(symbolic_only=True))
    latex = emit_report(r, "latex", t).decode()
    assert r"m\,v\,\delta q" in latex
    assert r"\documentclass" in latex and r"\end{document}" in latex


def _latex(name):
    t = TH.builtin(name)
    return emit_report(run_pipeline(t, RunOptions(symbolic_only=True)), "latex", t).decode()


def test_checked_run_extracts_constraints_once(monkeypatch):
    # the derivation block, check_symbolic and a derived chart share the
    # extraction kept with the derived_split entry; pc4 runs on a copy of its
    # golden record with fewer samples and states to keep the suite fast
    from ktphase import calc_var
    calls = []
    extract = calc_var.constraint_extract
    monkeypatch.setattr(calc_var, "constraint_extract",
                        lambda *a, f=extract: calls.append(a[0].name) or f(*a))
    golden, small = TH.golden, {}
    for name in TH.THEORY_NAMES:
        record = json.loads(json.dumps(golden(name)))
        if name == "pc4":
            record["point"]["samples"] = 2
            record["lattice"]["states"] = 1
        small[name] = record
    monkeypatch.setattr(TH, "golden", small.__getitem__)
    for name in TH.THEORY_NAMES:
        TH.derived_split.cache_clear()
        calls.clear()
        report = run_pipeline(TH.builtin(name), RunOptions())
        assert report["passed"], name
        assert calls == [name]
        if name in ("mechanics", "scalar", "pc4"):
            # a chart derived cold (as in a fresh process) extracts nothing more
            TH.chart.__wrapped__(name)
            assert calls == [name]


def test_latex_derives_once(monkeypatch, capsys):
    from ktphase import calc_var, cli
    calls = []
    for module in (calc_var, TH, cli):
        if hasattr(module, "ibp_split"):
            wrapped = getattr(module, "ibp_split")
            monkeypatch.setattr(module, "ibp_split",
                                lambda *a, f=wrapped: calls.append(1) or f(*a))
    TH.derived_split.cache_clear()
    assert main(["derive", "em", "--format", "latex"]) == 0
    assert len(calls) == 1


def test_latex_forms_parenthesize_coefficients():
    # alpha is the restricted split.alpha; every multi-term or negative
    # coefficient is parenthesized, so no sign reaches only one term
    latex = _latex("em")
    alpha = re.search(r"\\alpha = (.*) \\\]", latex).group(1)
    for term in alpha.split(" + "):
        coeff = term.split(r"\,\delta ")[0]
        assert coeff.startswith("(") and coeff.endswith(")"), term
    assert "--" not in latex and "+ -" not in latex


# every control word the LaTeX report may contain
KNOWN_MACROS = {r"\documentclass", r"\usepackage", r"\begin", r"\end", r"\section",
                r"\subsection", r"\mathrm", r"\alpha", r"\omega", r"\delta", r"\dot",
                r"\ddot", r"\partial", r"\frac", r"\sqrt", r"\phi", r"\lambda",
                r"\Lambda", r"\varepsilon", r"\rho", r"\xi", r"\eta", r"\sigma", r"\mu"}


# factors of the boundary 1-form as they must render: multi-letter names
# upright, adjacent factors separated by a thin space
LATEX_ALPHA = {"scalar": r"\alpha = {\mathrm{phi0}}\,{\mathrm{rh}}\,\delta {\phi}",
               "em": r"+{\mathrm{A0}}_{1}\,{\mathrm{hinv}}_{1,1}\,{\mathrm{rh}}+"}


@pytest.mark.parametrize("name", TH.THEORY_NAMES)
def test_latex_uses_only_known_macros(name):
    latex = _latex(name)
    assert set(re.findall(r"\\[A-Za-z]+", latex)) <= KNOWN_MACROS
    assert LATEX_ALPHA.get(name, "") in latex
    # no two letters run together in a formula outside a control word or an
    # upright name
    for line in latex.splitlines():
        if line.startswith(r"\["):
            bare = re.sub(r"\\mathrm\{[^}]*\}|\\[A-Za-z]+", "", line)
            assert not re.search(r"[A-Za-z]{2}", bare), line


def test_empty_check_report_is_valid_minimal_document():
    t = TH.builtin("length")
    r = run_pipeline(t, RunOptions(symbolic_only=True))
    data = emit_report(r, "data").decode()
    parsed = json.loads(data)
    assert parsed["theory"]["name"] == "length"
    plain = emit_report(r, "plain").decode()
    assert plain.strip().endswith("status: pass")


def test_unknown_format_rejected():
    t = TH.builtin("mechanics")
    r = run_pipeline(t, RunOptions(symbolic_only=True))
    from ktphase.errors import KtError
    with pytest.raises(KtError):
        emit_report(r, "yaml")


# ---------------------------------------------------------------------------
# command line: exit codes
# ---------------------------------------------------------------------------

# sha256 of the stdout of ``ktphase derive NAME --format FORMAT`` for each
# builtin: the exact core's output, which a change to its speed must keep
# byte for byte
DERIVE_DIGESTS = [
    ("mechanics", "data", "d2267f032226101c843aaa91966a21c5707acce359c9b357982147777a005285"),
    ("mechanics", "plain", "a9f36d60117359f1291b90c238b267c7311a5073e7dc3101c63b2a904d65d6dd"),
    ("mechanics", "latex", "06257ce831e8db67b22632f1fd3c808b6a108d5139d42d0f6f9776f77318f8ba"),
    ("length", "data", "a0ab8be0799417a8a2bb8445a13d9571c2499d670adb9707f43686a3d9cb80d1"),
    ("length", "plain", "a968ff2f5f66f44fb47864c956f1ac9bc8b8665ffd31df823ed57a71e1ef6bb5"),
    ("length", "latex", "e72a07ce7df805fec45d67ac6fb3a7a1ce6563e0411bce4016a04b9d93bf34eb"),
    ("scalar", "data", "4e47108dfbdf5ea13b560a847a0b0ba001c977736fb4186314b522ef8beef03b"),
    ("scalar", "plain", "9dc680cd3f2da98ffcca7268e84203041aef4c97d96675b013fab6bca8b59db9"),
    ("scalar", "latex", "58d8c6bb55aaabf39968bad9baab25254ed868cff1c0565387f24bf285d04d65"),
    ("em", "data", "281ddff5452a361d787863737a9546f554501dc8c26440cef2cc57e7b08ae568"),
    ("em", "plain", "9a608194e610ba3772a70e5988a00cb288f7359111a679ce9aec49f47e23b652"),
    ("em", "latex", "03e74a8782f9936da702a55f5378bfb78de156db737a0eff936a094d8c73c83d"),
    ("pc4", "data", "5a88f1d5b7a111a5bf0796db6c0249266382159dd16b8115d9a74ff0a0f93fb2"),
    ("pc4", "plain", "1338efb1406937e611e0ffb06ec2bae08758cc5ad8f3524aba5abf479c81116b"),
    ("pc4", "latex", "44a4d0e06a1af37595f665aaab7113a45cc47d620e021bbe494510c8d95065ce"),
]


@pytest.mark.parametrize("name, fmt, digest", DERIVE_DIGESTS)
def test_derive_output_bytes_are_pinned(capsysbinary, name, fmt, digest):
    assert main(["derive", name, "--format", fmt]) == 0
    out, err = capsysbinary.readouterr()
    assert err == b""
    assert hashlib.sha256(out).hexdigest() == digest


def test_cli_derive_exit_zero(capsys):
    assert main(["derive", "mechanics", "--format", "plain"]) == 0
    out = capsys.readouterr().out
    assert "m*v δ(q)" in out


def test_cli_parse_error_exit_one(tmp_path, capsys):
    bad = tmp_path / "bad.theory"
    bad.write_text("theory x\ndim 1\ncoords t\nfield q\nlagrangian \"q +\"\n")
    assert main(["derive", str(bad)]) == 1
    assert "parse error" in capsys.readouterr().err


def test_cli_check_failure_exit_two(tmp_path, capsys):
    # checking a non-builtin theory has no golden record: exit code 2
    custom = tmp_path / "custom.theory"
    custom.write_text("theory custom\ndim 1\ncoords t\nfield q\n"
                      "lagrangian \"1/2*q'^2\"\n")
    assert main(["check", str(custom)]) == 2
    assert "check failure" in capsys.readouterr().err


def test_cli_internal_error_exit_three(capsys):
    # a bug inside the pipeline, not a bad input
    with mock.patch("ktphase.cli.run_pipeline", side_effect=RuntimeError("boom")):
        assert main(["derive", "mechanics"]) == 3
    assert capsys.readouterr().err == "internal error: RuntimeError: boom\n"


def _exit_code(argv) -> int:
    try:
        return main(argv)
    except SystemExit as exc:  # argparse: usage errors and --help
        return exc.code


@pytest.mark.parametrize("argv, message", [
    (["derive", "mechanics", "--bogus"], "unrecognized arguments: --bogus"),
    (["check", "mechanics", "--seed", "abc"], "invalid int value: 'abc'"),
    (["frob"], "invalid choice: 'frob'"),
    (["derive", "mechanics", "--tol", "1e-8"], "unrecognized arguments: --tol"),
    (["derive", "{tmp}/missing.theory"], "cannot read theory file '{tmp}/missing.theory'"),
    (["derive", "{tmp}"], "cannot read theory file '{tmp}'"),
    (["derive", "{tmp}/latin1.theory"], "cannot read theory file '{tmp}/latin1.theory'"),
    (["derive", "mechanics", "--out", "{tmp}/missing/x.json"],
     "cannot write --out file '{tmp}/missing/x.json'"),
    (["check", "em", "--lattice=--"], "parse error: --lattice: expected one argument"),
    (["derive", "mechanics", "--format=--"], "parse error: --format: expected one argument"),
    (["check", "mechanics", "--seed", "-1"], "parse error: --seed -1: need a non-negative integer"),
    (["derive", "mechanics", "--seed", "-1"], "parse error: --seed -1: need a non-negative integer"),
], ids=["unknown-option", "bad-seed", "unknown-command", "tol", "missing-file", "directory",
        "not-utf8", "out-dir-missing", "lattice-dashes", "format-dashes", "check-negative-seed",
        "derive-negative-seed"])
def test_cli_usage_and_file_errors_exit_one(tmp_path, capsys, argv, message):
    # argparse's own code is 2, which the contract keeps for check failures;
    # a file that cannot be read or written is the user's error, not a bug
    (tmp_path / "latin1.theory").write_bytes(("# é\n" + MECHANICS).encode("latin-1"))
    argv = [a.format(tmp=tmp_path) for a in argv]
    assert _exit_code(argv) == 1
    out, err = capsys.readouterr()
    assert out == "" and message.format(tmp=tmp_path) in err


def test_cli_help_exits_zero(capsys):
    # control for the usage errors above
    assert _exit_code(["--help"]) == 0
    assert _exit_code(["check", "--help"]) == 0
    assert "--point-checks" in capsys.readouterr().out


def test_cli_check_options_the_golden_record_honours(tmp_path, capsys):
    # controls: pc4's record has a point block; a user theory has no record,
    # so after the axes check it still fails the check, not the options
    out = tmp_path / "pc4.json"
    with mock.patch("ktphase.verify.check_lattice", return_value={"entries": {}, "passed": True}):
        assert main(["check", "pc4", "--point-checks", "1", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["checks"]["point"]["entries"]["kernel_dim"]["samples"] == 1
    custom = tmp_path / "custom.theory"
    custom.write_text(MECHANICS.replace("theory mechanics", "theory custom"))
    assert main(["check", str(custom), "--point-checks", "0"]) == 2
    assert "no golden record" in capsys.readouterr().err
    assert main(["check", str(custom), "--lattice", "4"]) == 1
    assert "boundary slice of 'custom' has 0" in capsys.readouterr().err


def test_python_m_ktphase_runs_the_cli():
    # ``python -m ktphase`` is the ``ktphase`` command, with nothing on stderr
    src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    proc = subprocess.run([sys.executable, "-m", "ktphase", "derive", "mechanics"],
                          capture_output=True, env=env, timeout=120)
    assert (proc.returncode, proc.stderr) == (0, b"")
    report = run_pipeline(TH.builtin("mechanics"), RunOptions(symbolic_only=True))
    assert proc.stdout == emit_report(report, "data")


@pytest.mark.parametrize("args", [["mechanics"], ["pc4", "--format", "latex"]],
                         ids=["mechanics", "pc4-latex"])
def test_derive_does_not_import_numpy(args):
    # the derivation is exact; only checks load numpy and the lattice
    src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    proc = subprocess.run([sys.executable, "-X", "importtime", "-m", "ktphase", "derive", *args],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0
    imported = {line.rsplit("|", 1)[-1].strip() for line in proc.stderr.splitlines()
                if line.startswith("import time:")}
    assert "ktphase.cli" in imported
    assert not {m for m in imported if m.split(".")[0] == "numpy" or m == "ktphase.lattice"}


def test_export_lists_resolve():
    # every name in the export list of the package and of each submodule that
    # has one resolves, the lattice names the package loads on first use too
    import importlib
    import pkgutil

    import ktphase
    modules = [ktphase] + [importlib.import_module(f"ktphase.{m.name}")
                           for m in pkgutil.iter_modules(ktphase.__path__) if m.name != "__main__"]
    missing = [f"{m.__name__}.{name}" for m in modules for name in getattr(m, "__all__", ())
               if not hasattr(m, name)]
    assert missing == []
    assert "evolve_em" in ktphase.__all__ and callable(ktphase.evolve_em)
    for gone in ("InternalSpace", "LinMap", "linmap_kernel",
                 "ConstraintSet", "SmearedConstraint", "pc_internal_rotation", "eps4"):
        assert gone not in ktphase.__all__ and not hasattr(ktphase, gone)
        assert all(not hasattr(m, gone) for m in modules)


def test_cli_check_mechanics_passes(tmp_path, capsys):
    out = tmp_path / "report.json"
    assert main(["check", "mechanics", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["passed"] is True
    assert report["checks"]["symbolic"]["entries"]["alpha"]["pass"] is True


def test_cli_seed_sets_the_report_seed(tmp_path):
    outs = [tmp_path / "a.json", tmp_path / "b.json"]
    for out in outs:
        assert main(["check", "mechanics", "--seed", "7", "--out", str(out)]) == 0
    r1, r2 = (json.loads(out.read_text()) for out in outs)
    assert r1["options"] == {"seed": 7, "symbolic_only": False}

    def strip_walltime(checks):
        for block in checks.values():
            block["entries"].pop("runtime_s", None)
        return checks

    assert strip_walltime(r1["checks"]) == strip_walltime(r2["checks"])


def test_cli_scalar_lattice_flag(tmp_path):
    out = tmp_path / "s.json"
    assert main(["check", "scalar", "--lattice", "16", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["checks"]["lattice"]["entries"]["rank"]["rank"] == 32


@pytest.mark.parametrize("edit, argv, line", [
    (("dim 1", "dim abc"), ["derive"], None),
    (("dim 1", "dim 1\nvdim x"), ["derive"], None),
    (("boundary q 1 v", "boundary q x v"), ["derive"], None),
    (("jetorder 3", "jetorder x"), ["derive"], None),
    (("jetorder 3", "jetorder 1"), ["derive"], None),
    (("jetorder 3\nlagrangian \"-V(q) + 1/2*m*q'^2\"", "jetorder 1\nlagrangian \"q''^2\""),
     ["derive"], None),
    (("field q", "field q\nfield w internal=1 antisym"), ["derive"], None),
    (("lagrangian \"-V(q) + 1/2*m*q'^2\"",
      "vdim 2\nfield w internal=2 antisym\nlagrangian \"-V(q) + 1/2*m*q'^2 + w[1,0]^2\""),
     ["derive"], None),
    (("side upper", "side"), ["derive"], None),
    (("field q", "field q base=x"), ["derive"], None),
    (("field q", "field q internal=1.5"), ["derive"], None),
    (("background m", "background m base=x"), ["derive"], None),
    # counts out of range: each names its own line
    (("field q", "field q base=-1"), ["derive"], 5),
    (("field q", "field q internal=-1"), ["derive"], 5),
    (("background m", "background m base=-1"), ["derive"], 4),
    (("dim 1", "dim 0"), ["derive"], 2),
    (("dim 1", "dim 1\nvdim -1"), ["derive"], 3),
    (("dim 1", "dim 1\nvdim 0"), ["derive"], 3),
    (("jetorder 3", "jetorder -2"), ["derive"], 9),
    (("jetorder 3", "jetorder 0"), ["derive"], 9),
    (("-V(q) + 1/2*m*q'^2", "q^2/(q+1)"), ["derive"], None),
    (("-V(q) + 1/2*m*q'^2", "(" * 250 + "q'^2" + ")" * 250), ["derive"], None),
    (None, ["check", "em", "--lattice", "16x"], None),
    (None, ["check", "em", "--lattice", "2x2x2"], None),
    (None, ["check", "em", "--lattice", "8x8"], None),
    (None, ["check", "em", "--lattice", "100000x100000x100000"], None),
    (None, ["check", "em", "--lattice", "128x128x65"], None),
    (None, ["check", "em", "--lattice", ""], None),
    # options that the golden record cannot honour
    (None, ["check", "pc4", "--lattice", "4x4x4"], None),
    (None, ["check", "pc4", "--point-checks", "-3"], None),
    (None, ["check", "pc4", "--point-checks", "0"], None),
    (None, ["check", "mechanics", "--point-checks", "2"], None),
], ids=["dim", "vdim", "boundary-order", "jetorder", "jetorder-too-small",
        "lagrangian-above-jetorder", "antisym-one-index", "antisym-decreasing-pair", "side",
        "field-base",
        "field-internal", "background-base", "field-negative-base", "field-negative-internal",
        "background-negative-base", "dim-zero", "vdim-negative", "vdim-zero", "jetorder-negative",
        "jetorder-zero", "rational-lagrangian", "deep-nesting", "lattice-16x",
        "lattice-2x2x2", "lattice-rank", "lattice-huge", "lattice-over-max-sites", "lattice-empty",
        "lattice-without-golden-grid", "point-checks-negative", "point-checks-zero",
        "point-checks-without-golden-point"])
def test_cli_user_errors_exit_one(tmp_path, capsys, edit, argv, line):
    if edit is not None:
        assert edit[0] in MECHANICS
        bad = tmp_path / "bad.theory"
        bad.write_text(MECHANICS.replace(*edit))
        argv = argv + [str(bad)]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(("parse error:", "error:"))
    if edit is not None and err.startswith("parse error:"):
        assert " at line " in err
    if line is not None:
        assert err.rstrip().endswith(f" at line {line}"), err


_WORDS = st.text(alphabet=string.ascii_letters + string.digits + string.punctuation,
                 min_size=1, max_size=8)
# (start, end) of each whitespace-delimited integer token: dim, boundary order, jetorder
_INT_TOKENS = [m.span() for m in re.finditer(r"(?m)(?<= )\d+(?= |$)", MECHANICS)]


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.sampled_from(_INT_TOKENS), _WORDS)
def test_theory_integer_token_fuzz_never_exits_three(tmp_path, capsys, span, word):
    assert len(_INT_TOKENS) == 3
    path = tmp_path / "fuzz.theory"
    path.write_text(MECHANICS[:span[0]] + word + MECHANICS[span[1]:])
    assert main(["derive", str(path)]) != 3, capsys.readouterr().err


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.text(alphabet="0123456789xX-+_ ", max_size=12) | st.text(max_size=8))
def test_cli_lattice_strings_never_exit_three(capsys, grid):
    # the run itself is stubbed out: a valid random grid may be huge
    with mock.patch("ktphase.cli.run_pipeline", return_value={"passed": True}):
        assert main(["check", "em", f"--lattice={grid}"]) in (0, 1), capsys.readouterr().err
