import gc
import os
import shlex
import subprocess
import sys
import textwrap

import pytest

import eqhom
from eqhom import cli
from eqhom.cli import parse_group_spec, run
from eqhom.coarse import CayleyBall, gromov_counterexample_report, ponzi_feasible
from eqhom.complexes import cycle_complex, lens_space, torus_complex
from eqhom.errors import InputError
from eqhom.group_homology import (bar_homology, projective_vanishing_check,
                                  shift_chain_check, shift_homology)
from eqhom.groups import (FiniteGroup, FreeAbelianGroup, FreeGroup, GroupPresentation,
                          ProductGroup, todd_coxeter)

from conftest import fixture_path

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)


def invoke(*argv):
    return run(list(argv))


class TestGroupSpecs:
    def test_shorthands(self):
        assert isinstance(parse_group_spec("f2"), FreeGroup)
        assert parse_group_spec("f2").rank == 2
        assert isinstance(parse_group_spec("z2"), FreeAbelianGroup)
        assert parse_group_spec("z^5").rank == 5
        assert parse_group_spec("z").rank == 1

    def test_product(self):
        model = parse_group_spec("z^5*f2")
        assert isinstance(model, ProductGroup)
        assert model.describe() == "Z^5 x F_2"

    def test_bad_spec(self):
        code, text = invoke("ball", "q3", "--radius", "2")
        assert code == 1 and text.startswith("error:")


class TestGoldenOutputs:
    def test_homology_t2(self):
        code, text = invoke("homology", fixture_path("t2.cplx"))
        assert code == 0
        assert text == "H0 = Z^1\nH1 = Z^2\nH2 = Z^1\n"

    def test_homology_matches_golden_files(self):
        for name in ("circle", "t2", "s2", "s3", "rp2", "rp3", "t3", "q8space"):
            code, text = invoke("homology", fixture_path(f"{name}.cplx"))
            assert code == 0
            with open(fixture_path(f"{name}.golden")) as fh:
                assert text == fh.read()

    def test_pd_check_q8_space_with_the_ideal(self):
        # the same golden file the installed-console-script CI step diffs against
        code, text = invoke("pd-check", fixture_path("q8space.cplx"),
                            "--coeff", fixture_path("i.rep"))
        assert code == 0
        golden = os.path.join(os.path.dirname(__file__), "golden", "q8space_pd_i.out")
        with open(golden) as fh:
            assert text == fh.read()

    def test_cover_q8_space(self):
        # The largest shipped coset enumeration: 3389 cosets for |Q8| = 8.
        code, text = invoke("cover", fixture_path("q8space.cplx"))
        assert code == 0
        golden = os.path.join(os.path.dirname(__file__), "golden", "q8space_cover.out")
        with open(golden) as fh:
            assert text == fh.read()

    def test_pert_q8_space(self):
        # pert prints the zero class from the Morse group; the golden file
        # was written by the full Smith route, and CI diffs the console
        # script against it
        code, text = invoke("pert", fixture_path("q8space.cplx"))
        assert code == 0
        golden = os.path.join(os.path.dirname(__file__), "golden", "q8space_pert.out")
        with open(golden) as fh:
            assert text == fh.read()

    def test_group_homology_both(self):
        code, text = invoke("group-homology", fixture_path("z2.pres"),
                            "--n", "3", "--method", "both")
        assert code == 0
        assert text == "bar   = Z/2\nshift = Z/2\nAGREE\n"

    def test_shift_chain(self):
        code, text = invoke("shift-chain", fixture_path("z2.pres"), "--n", "3")
        assert code == 0
        assert text.endswith("EQUAL\n")
        assert text.count("Z/2") == 3

    def test_ponzi_f2(self):
        code, text = invoke("ponzi", "f2", "--radius", "4", "--bound", "1")
        assert code == 0
        assert "FEASIBLE" in text and "verified" in text

    def test_twisted_homology(self):
        code, text = invoke("homology", fixture_path("rp3.cplx"),
                            "--coeff", fixture_path("i.rep"))
        assert code == 0
        assert text == "H0 = Z/2\nH1 = 0\nH2 = Z/2\nH3 = 0\n"

    def test_twisted_cohomology(self):
        code, text = invoke("cohomology", fixture_path("rp3.cplx"),
                            "--coeff", fixture_path("i3.rep"))
        assert code == 0
        assert text == "H^0 = 0\nH^1 = Z/2\nH^2 = 0\nH^3 = Z/2\n"

    def test_cover_rp2(self):
        code, text = invoke("cover", fixture_path("rp2.cplx"))
        assert code == 0
        assert "pi1 order = 2" in text
        assert "dim 2: 20 cells" in text
        assert text.endswith("H0 = Z^1\nH1 = 0\nH2 = Z^1\n")

    def test_pd_check_t2(self):
        code, text = invoke("pd-check", fixture_path("t2.cplx"))
        assert code == 0
        assert text.endswith("PD CHECK: PASS\n")

    def test_essential_rp3(self):
        code, text = invoke("essential", fixture_path("rp3.cplx"))
        assert code == 0
        assert "ESSENTIAL" in text and "nonzero" in text

    def test_inessential_sphere(self):
        code, text = invoke("essential", fixture_path("s3.cplx"))
        assert code == 0
        assert "INESSENTIAL" in text

    def test_bs_class(self):
        code, text = invoke("bs-class", fixture_path("rp2.cplx"),
                            "--power", "1")
        assert code == 0
        assert "Z/2 [nonzero]" in text

    def test_pert(self):
        code, text = invoke("pert", fixture_path("rp3.cplx"), "--power", "3")
        assert code == 0
        assert "[zero]" in text

    def test_ball(self):
        code, text = invoke("ball", "z2", "--radius", "2")
        assert code == 0
        assert "vertices = 13" in text and "inner = 5" in text

    def test_min_bound(self):
        code, text = invoke("min-bound", "z1", "--radius", "8")
        assert code == 0
        assert "t_min = 8" in text

    def test_product_group_probe(self):
        code, text = invoke("ponzi", "z1*f2", "--radius", "2")
        assert code == 0
        assert "group = Z^1 x F_2" in text
        assert "FEASIBLE" in text and "verified" in text

    def test_folner(self):
        code, text = invoke("folner", "z2", "--radius", "6")
        assert code == 0
        assert text.splitlines()[-1] == "R=6 inner=61 crossing=44 ratio=61/44"

    def test_pi1(self):
        code, text = invoke("pi1", fixture_path("rp2.cplx"))
        assert code == 0
        assert "order = 2" in text


class TestDeterminism:
    def test_byte_identical_repeats(self):
        for argv in (["homology", fixture_path("rp3.cplx")],
                     ["gromov-report", "--rank", "5", "--radius", "3"],
                     ["min-bound", "z2", "--radius", "5"],
                     ["cover", fixture_path("rp2.cplx")]):
            first = invoke(*argv)
            second = invoke(*argv)
            assert first == second


class TestParser:
    """build_parser builds only the named command's subparser, with the
    same messages and help as the full parser."""

    NAMES = ("homology", "cohomology", "pi1", "cover", "group-homology", "shift-chain",
             "pd-check", "essential", "bs-class", "pert", "ball", "ponzi", "min-bound",
             "folner", "gromov-report")

    @staticmethod
    def subcommands(parser):
        return list(parser._subparsers._group_actions[0].choices)

    def test_one_subparser_per_named_command(self):
        assert self.subcommands(cli.build_parser()) == list(self.NAMES)
        for name in self.NAMES:
            assert self.subcommands(cli.build_parser(name)) == [name]
        for argv0 in (None, "--help", "nope"):
            assert self.subcommands(cli.build_parser(argv0)) == list(self.NAMES)

    @pytest.mark.parametrize("name", NAMES)
    def test_help_matches_the_full_parser(self, name, capsys):
        texts = []
        for parser in (cli.build_parser(), cli.build_parser(name)):
            with pytest.raises(SystemExit):
                parser.parse_args([name, "--help"])
            texts.append(capsys.readouterr().out)
        assert texts[0] == texts[1] and f"usage: eqhom {name} " in texts[0]

    @pytest.mark.parametrize("argv", [
        ["ball", "f2", "--radius", "1", "--max-cosets", "5"], ["ball", "f2"],
        ["ponzi", "f2", "--radius", "x"], ["pi1", "--method", "bar"], ["nope"], []])
    def test_error_lines_match_the_full_parser(self, argv):
        with pytest.raises(InputError) as full:
            cli.build_parser().parse_args(argv)
        assert invoke(*argv) == (1, f"error: {full.value}\n")

    def test_unrecognized_argument(self):
        assert invoke("ball", "f2", "--radius", "1", "--max-cosets", "5") == (
            1, "error: unrecognized arguments: --max-cosets 5\n")


class TestExitCodes:
    def test_missing_file(self):
        code, text = invoke("homology", "nope.cplx")
        assert code == 1 and text.startswith("error:")

    def test_unknown_flag(self):
        code, text = invoke("homology", fixture_path("t2.cplx"), "--bogus")
        assert code == 1 and text.startswith("error:")

    def test_nonorientable_input(self):
        code, text = invoke("pd-check", fixture_path("rp2.cplx"))
        assert code == 2 and "error:" in text

    def test_infinite_group(self):
        code, text = invoke("essential", fixture_path("t2.cplx"),
                            "--max-cosets", "500")
        assert code == 2 and "error:" in text

    def test_budget_exceeded(self):
        code, text = invoke("group-homology", fixture_path("s3.pres"),
                            "--n", "7")
        assert code == 3 and "error:" in text

    def test_error_is_single_line_prefixed(self):
        code, text = invoke("homology", "nope.cplx")
        lines = [l for l in text.splitlines() if l]
        assert len(lines) == 1 and lines[0].startswith("error: ")

    def test_bad_radius(self):
        code, text = invoke("ball", "z2", "--radius", "0")
        assert code == 1 and text.startswith("error:")
        code, text = invoke("gromov-report", "--rank", "5", "--radius", "1")
        assert code == 1 and text.startswith("error:")

    def test_bad_coeff_descriptor(self, tmp_path):
        bad = tmp_path / "bad.rep"
        for line in ("module: J^2", "module:", "module: trivial 1 2",
                     "module: regular extra", "module: I^2 junk",
                     "module: I^x", "module: I^0", "module: trivial -1"):
            bad.write_text(line + "\n")
            code, text = invoke("homology", fixture_path("rp3.cplx"),
                                "--coeff", str(bad))
            assert code == 1 and text.startswith("error:"), line
            assert text.count("\n") == 1, line


def _z2():
    return todd_coxeter(GroupPresentation(("a",), ("aa",)), 10)


@pytest.mark.parametrize("call, message", [
    (lambda: CayleyBall(FreeGroup(2), 0), "radius must be >= 1"),
    (lambda: ponzi_feasible(CayleyBall(FreeGroup(2), 2), 0), "bound must be >= 1"),
    (lambda: gromov_counterexample_report(0, 4), "rank must be >= 1"),
    (lambda: gromov_counterexample_report(2, 1), "radius must be >= 2"),
    (lambda: bar_homology(_z2(), -1), "degree must be >= 0"),
    (lambda: shift_homology(_z2(), 0), "degree must be >= 1"),
    (lambda: shift_chain_check(_z2(), 0), "degree must be >= 1"),
    (lambda: projective_vanishing_check(_z2(), 0, 1), "k must be >= 1"),
    (lambda: todd_coxeter(GroupPresentation(("a",), ()), 0), "max_cosets must be >= 1"),
    (lambda: cycle_complex(2), "a simplicial circle needs at least 3 vertices"),
    (lambda: torus_complex(0), "torus dimension must be >= 1"),
    (lambda: lens_space(1), "p must be >= 2"),
])
def test_argument_range_checks_are_input_errors(call, message):
    with pytest.raises(InputError, match=f"^{message}$"):
        call()


def test_a_failed_internal_check_is_no_exit_code(monkeypatch, tmp_path):
    """Only the errors families map to exit codes.  With a broken deck
    action the cocycle check of pert fails inside intlinalg: that
    ValueError is a fault of the program, not of the input, so it is not
    printed as an exit-1 input error."""
    path = tmp_path / "lens3.cplx"
    path.write_text("".join("f " + " ".join(map(str, f)) + "\n"
                            for f in lens_space(3).facets))
    assert invoke("pert", str(path), "--power", "1")[0] == 0
    monkeypatch.setattr(FiniteGroup, "inv", lambda self, g: g)
    with pytest.raises(ValueError, match="^vector is not a cycle$"):
        invoke("pert", str(path), "--power", "1")


# Input files written to a temporary directory by the test below.
BAD_INPUTS = {
    "repeated-gen.pres": "gens: a a\nrels: aa\n",
    "two-gens-lines.pres": "gens: a\ngens: b\nrels: aa\n",
    "two-triangles.cplx": "f 0 1 2\nf 3 4 5\n",
}


@pytest.mark.parametrize("argv, code, message", [
    (("ponzi", "z2", "--radius", "3", "--bound", "0"), 1, "bound must be >= 1"),
    (("shift-chain", fixture_path("s3.pres"), "--n", "0"), 1,
     "degree must be >= 1"),
    (("gromov-report", "--rank", "0", "--radius", "4"), 1, "rank must be >= 1"),
    (("homology", "nope.cplx"), 1,
     "cannot read nope.cplx: No such file or directory"),
    # pi_1(RP^3) is finite, so running out of cosets is a budget error ...
    (("essential", fixture_path("rp3.cplx"), "--max-cosets", "1"), 3,
     "coset budget 1 exceeded"),
    # ... while a free summand of H_1 proves pi_1(T^2) infinite.
    (("essential", fixture_path("t2.cplx"), "--max-cosets", "500"), 2,
     "pi_1 is infinite: H_1 = Z^2"),
    *[(("group-homology", fixture_path("z2.pres"), "--n", n, "--method", method), 1,
       "degree must be >= 1")
      for method in ("both", "shift") for n in ("0", "-1")],
    # The coarse commands enumerate no cosets, so they take no coset budget.
    (("ball", "f2", "--radius", "1", "--max-cosets", "5"), 1,
     "unrecognized arguments: --max-cosets 5"),
    # folner checks the radius itself: a radius below 1 builds no ball.
    *[((cmd, "z2", "--radius", r), 1, "radius must be >= 1")
      for cmd in ("ball", "ponzi", "min-bound", "folner") for r in ("0", "-3")],
    # Generator names must be unique, so a repeat and a second gens: line
    # are input errors, found before any coset is defined.
    (("group-homology", "repeated-gen.pres", "--n", "1"), 1, "repeated generator 'a'"),
    (("group-homology", "two-gens-lines.pres", "--n", "1"), 1,
     "line 2: second 'gens:' line"),
    # Generators are named a..z, so a group spec has at most 26 of them.
    *[(("ball", spec, "--radius", "1"), 1, "group spec needs more than 26 generators")
      for spec in ("z27", "z20*f10")],
    # Every bar-rank overflow is the same budget error: at degree n itself,
    # inside BarComplex at degree n + 1, and on the shift route.
    *[(("group-homology", fixture_path("s3.pres"), "--n", n, "--method", method), 3,
       "(|pi|-1)^7 = 78125 exceeds budget 20000")
      for n, method in (("7", "bar"), ("6", "bar"), ("7", "shift"))],
    # orient checks connectivity before pd-check and essential use pi_1.
    *[((cmd, "two-triangles.cplx"), 2, "complex is not connected")
      for cmd in ("pd-check", "essential")],
])
def test_error_line_is_the_only_output(argv, code, message, tmp_path):
    for name, text in BAD_INPUTS.items():
        (tmp_path / name).write_text(text)
    argv = [str(tmp_path / a) if a in BAD_INPUTS else a for a in argv]
    assert invoke(*argv) == (code, f"error: {message}\n")


def test_every_exception_class_lives_in_errors():
    """errors holds the whole taxonomy: no other module defines an
    exception class, so every failure is one of its six families."""
    import importlib
    import pkgutil
    defined = {}
    for info in pkgutil.iter_modules(eqhom.__path__, "eqhom."):
        module = importlib.import_module(info.name)
        for value in vars(module).values():
            if isinstance(value, type) and issubclass(value, BaseException) \
                    and value.__module__.startswith("eqhom"):
                defined[value.__qualname__] = value.__module__
    assert set(defined.values()) == {"eqhom.errors"}
    assert sorted(defined) == ["BudgetError", "CertificateError", "EqhomError",
                               "InputError", "ModelMismatch", "PreconditionError"]


def test_tracer_pinned_methods_exist():
    """bench/tracejob.py wraps each METHODS entry found as vars(cls)[meth];
    a renamed or deleted method would raise KeyError in every traced job."""
    import importlib
    import importlib.util
    path = os.path.join(ROOT, "bench", "tracejob.py")
    spec = importlib.util.spec_from_file_location("eqhom_tracejob", path)
    tracejob = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracejob)
    missing = []
    for layer, quals in tracejob.METHODS.items():
        module = importlib.import_module("eqhom." + layer)
        for qual in quals:
            cls_name, meth = qual.split(".")
            if meth not in vars(getattr(module, cls_name, object)):
                missing.append(f"{layer}.{qual}")
    assert tracejob.METHODS and missing == []


def readme_command_lines():
    """Every ``eqhom ...`` line of README's fenced blocks, as argv lists."""
    argvs, fenced = [], False
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        for line in fh:
            fenced ^= line.startswith("```")
            if fenced and line.startswith("eqhom "):
                argvs.append(shlex.split(line, comments=True)[1:])
    return argvs


def test_readme_shows_every_command():
    assert {argv[0] for argv in readme_command_lines()} == set(cli._COMMANDS)


@pytest.mark.parametrize("argv", readme_command_lines(), ids=" ".join)
def test_readme_command_line_runs(argv, monkeypatch):
    monkeypatch.chdir(ROOT)
    code, text = run(argv)
    assert code == 0, text


# Every command line run by the tests, the golden files, the CI script and
# the benchmark jobs; work/ holds the benchmark's generated inputs.
# readme_command_lines() adds the README's.
COMMAND_LINES = [shlex.split(line) for line in (
    # tests
    "ball q3 --radius 2",
    "homology fixtures/t2.cplx",
    "homology fixtures/circle.cplx",
    "homology fixtures/s2.cplx",
    "homology fixtures/s3.cplx",
    "homology fixtures/rp2.cplx",
    "homology fixtures/rp3.cplx",
    "homology fixtures/t3.cplx",
    "homology fixtures/q8space.cplx",
    "pd-check fixtures/q8space.cplx --coeff fixtures/i.rep",
    "ponzi 'z1*f2' --radius 2",
    "pi1 fixtures/rp2.cplx",
    "cover fixtures/rp2.cplx",
    "pd-check fixtures/t2.cplx",
    "essential fixtures/s3.cplx",
    "min-bound z1 --radius 8",
    "gromov-report --rank 5 --radius 3",
    "min-bound z2 --radius 5",
    "ball f2 --radius 1 --max-cosets 5",
    "ball f2",
    "ponzi f2 --radius x",
    "pi1 --method bar",
    "nope",
    "",
    "homology nope.cplx",
    "homology fixtures/t2.cplx --bogus",
    "pd-check fixtures/rp2.cplx",
    "essential fixtures/t2.cplx --max-cosets 500",
    "group-homology fixtures/s3.pres --n 7",
    "ball z2 --radius 0",
    "gromov-report --rank 5 --radius 1",
    "homology fixtures/rp3.cplx --coeff bad.rep",
    "pert lens3.cplx --power 1",
    "ponzi z2 --radius 3 --bound 0",
    "shift-chain fixtures/s3.pres --n 0",
    "gromov-report --rank 0 --radius 4",
    "essential fixtures/rp3.cplx --max-cosets 1",
    "group-homology fixtures/z2.pres --n 0 --method both",
    "group-homology fixtures/z2.pres --n -1 --method both",
    "group-homology fixtures/z2.pres --n 0 --method shift",
    "group-homology fixtures/z2.pres --n -1 --method shift",
    "ball z2 --radius -3",
    "ponzi z2 --radius 0",
    "min-bound z2 --radius -3",
    "folner z2 --radius 0",
    "folner z2 --radius -3",
    "group-homology repeated-gen.pres --n 1",
    "group-homology two-gens-lines.pres --n 1",
    "ball z27 --radius 1",
    "ball 'z20*f10' --radius 1",
    "group-homology fixtures/s3.pres --n 7 --method bar",
    "group-homology fixtures/s3.pres --n 7 --method shift",
    "pd-check two-triangles.cplx",
    "essential two-triangles.cplx",
    "group-homology fixtures/z2.pres --n 0",
    "ball f2 --radius 20",
    "ball 'z1*f2' --radius 4",
    "group-homology fixtures/z2.pres --n 1",
    "gromov-report --rank 5 --radius 4 --format kv --factor z2",
    "essential lens3.cplx",
    "bs-class --power 3 lens3.cplx",
    "pd-check susp_t2.cplx",
    # golden files
    "gromov-report --rank 5 --radius 4 --format kv",
    "gromov-report --rank 5 --radius 4 --factor z2 --format kv",
    "cover fixtures/q8space.cplx",
    "pert fixtures/q8space.cplx",
    # CI
    "--help",
    "ponzi --help",
    "ball f2 --radius 0",
    # benchmark jobs
    "cover work/lens3.cplx",
    "cohomology fixtures/rp3.cplx",
    "pd-check fixtures/rp3.cplx --coeff fixtures/regular.rep",
    "pd-check fixtures/rp3.cplx --coeff fixtures/i2.rep",
    "essential fixtures/rp3.cplx",
    "bs-class fixtures/rp3.cplx --power 3",
    "pert fixtures/rp3.cplx --power 3",
    "group-homology work/q8.pres --n 3 --method both",
    "group-homology fixtures/z2z2.pres --n 4",
    "shift-chain fixtures/s3.pres --n 3",
    "ponzi f2 --radius 8 --bound 1",
    "min-bound z2 --radius 25",
)]


def command_line_variants(argv):
    """argv and the variants the plain parse must parse as argparse does,
    or leave to it: an abbreviated option, --opt=value, a repeated option,
    an option before the positional, a negative value, "--", help, an
    unknown option, a missing option, a bad int and a bad choice."""
    out = [argv, argv + ["--"], argv[:1] + ["--"] + argv[1:], argv + ["-h"],
           argv[:1] + ["--help"], argv + ["--bogus", "1"],
           argv + ["--method", "nope"], argv + ["--format", "nope"]]
    if len(argv) > 1 and not argv[1].startswith("-"):
        out.append(argv[:1] + argv[2:] + argv[1:2])
    for i, word in enumerate(argv[:-1]):
        if word.startswith("--"):
            value = argv[i + 1]
            out += [argv[:i] + [word[:-1]] + argv[i + 1:],
                    argv[:i] + [f"{word}={value}"] + argv[i + 2:],
                    argv + [word, value],
                    argv[:i] + argv[i + 2:],
                    argv[:i + 1] + ["-1"] + argv[i + 2:],
                    argv[:i + 1] + ["x"] + argv[i + 2:]]
    return out


class TestPlainParse:
    """run parses canonical command lines without argparse and leaves
    every other line to build_parser."""

    ARGVS = COMMAND_LINES + [a for a in readme_command_lines() if a not in COMMAND_LINES]

    @staticmethod
    def argparse_namespace(argv):
        try:
            return vars(cli.build_parser(argv[0] if argv else None).parse_args(argv))
        except (InputError, SystemExit):
            return None

    def test_canonical_lines_are_parsed_plainly(self, capsys):
        checked = 0
        for argv in self.ARGVS:
            full = self.argparse_namespace(argv)
            # Lines with a negative value, such as --n -1, are left to argparse.
            if full is not None and all(w[:2] == "--" and w[2:3].isalpha()
                                        for w in argv if w.startswith("-")):
                assert vars(cli._parse_plain(argv)) == full, argv
                checked += 1
        assert checked > 60

    @pytest.mark.parametrize("argv", ARGVS, ids=" ".join)
    def test_variants_parse_as_argparse_or_defer(self, argv, monkeypatch, capsys):
        def echo(args, out):
            out.append(repr(sorted((k, v) for k, v in vars(args).items() if k != "fn")))

        monkeypatch.setattr(cli, "_COMMANDS", {
            name: (echo, *entry[1:]) for name, entry in cli._COMMANDS.items()})
        for variant in command_line_variants(argv):
            plain = cli._parse_plain(variant)
            assert plain is None or vars(plain) == self.argparse_namespace(variant), variant
            with monkeypatch.context() as m:
                try:
                    fast = ("returned", invoke(*variant))
                except SystemExit as exc:
                    fast = ("exit", exc.code, capsys.readouterr().out)
                m.setattr(cli, "_parse_plain", lambda argv: None)
                try:
                    slow = ("returned", invoke(*variant))
                except SystemExit as exc:
                    slow = ("exit", exc.code, capsys.readouterr().out)
            assert fast == slow, variant

    def test_output_matches_the_argparse_path(self, tmp_path, monkeypatch, capsys):
        os.symlink(os.path.join(ROOT, "fixtures"), tmp_path / "fixtures")
        (tmp_path / "work").mkdir()
        (tmp_path / "work" / "lens3.cplx").write_text("".join(
            "f " + " ".join(map(str, f)) + "\n" for f in lens_space(3).facets))
        (tmp_path / "work" / "q8.pres").write_text("gens: a b\nrels: aaaa aabb abab'\n")
        monkeypatch.chdir(tmp_path)
        for argv in self.ARGVS:
            if cli._parse_plain(argv) is None:
                continue
            fast = invoke(*argv)
            with monkeypatch.context() as m:
                m.setattr(cli, "_parse_plain", lambda argv: None)
                assert invoke(*argv) == fast, argv


def test_canonical_line_leaves_argparse_unloaded():
    """import eqhom.cli and a canonical command line import no argparse;
    a usage error builds the parser."""
    script = textwrap.dedent("""
        import sys
        from eqhom.cli import run
        print(run(["ball", "z2", "--radius", "2"])[0], "argparse" in sys.modules)
        print(run(["ball", "z2"])[0], "argparse" in sys.modules)
        """)
    src = os.path.dirname(os.path.dirname(os.path.abspath(eqhom.__file__)))
    done = subprocess.run([sys.executable, "-c", script], env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, check=True)
    assert done.stdout == "0 False\n1 True\n"


def test_import_loads_every_layer_and_nothing_slow():
    """A fresh ``import eqhom.cli`` binds every layer module, which
    bench/tracejob.py looks up right after it, and leaves dataclasses,
    fractions and decimal unloaded: they cost start-up time in every job."""
    script = textwrap.dedent("""
        import sys
        before = set(sys.modules)
        import eqhom.cli
        print(" ".join(sorted(set(sys.modules) - before)))
        """)
    src = os.path.dirname(os.path.dirname(os.path.abspath(eqhom.__file__)))
    added = set(subprocess.run([sys.executable, "-c", script],
                               env=dict(os.environ, PYTHONPATH=src),
                               capture_output=True, text=True, check=True).stdout.split())
    layers = ("cli", "intlinalg", "groups", "complexes", "duality", "group_homology", "coarse")
    assert {f"eqhom.{m}" for m in layers} <= added
    assert not added & {"dataclasses", "fractions", "decimal"}


def test_run_leaves_the_collector_alone():
    state = (gc.isenabled(), gc.get_freeze_count())
    assert invoke("homology", fixture_path("t2.cplx"))[0] == 0
    assert invoke("ball", "q3", "--radius", "2")[0] == 1
    assert (gc.isenabled(), gc.get_freeze_count()) == state


def test_main_freezes_once_after_the_output(monkeypatch, capsys):
    # Frozen objects are skipped by the collections that run at exit.
    written = []
    monkeypatch.setattr(sys, "argv", ["eqhom", "homology", fixture_path("t2.cplx")])
    monkeypatch.setattr(gc, "freeze", lambda: written.append(capsys.readouterr().out))
    assert cli.main() == 0
    assert written == ["H0 = Z^1\nH1 = Z^2\nH2 = Z^1\n"]
    assert capsys.readouterr().out == ""


def test_shift_degree_checked_before_bar_route(monkeypatch):
    import eqhom.cli

    def no_bar_work(model, n):
        raise AssertionError("the bar route ran")

    monkeypatch.setattr(eqhom.cli, "bar_homology", no_bar_work)
    assert invoke("group-homology", fixture_path("z2.pres"), "--n", "0") == (
        1, "error: degree must be >= 1\n")


def test_ball_budget_exits_3(monkeypatch):
    import eqhom.coarse
    monkeypatch.setattr(eqhom.coarse, "BUDGET", 1000)
    assert invoke("ball", "f2", "--radius", "20") == (
        3, "error: Cayley ball of radius 20 exceeds 1000 vertices\n")


@pytest.mark.parametrize("spec", ["z2", "f2", "z1*f2"])
def test_ball_shell_sizes_are_the_shells(spec):
    from eqhom.coarse import CayleyBall
    ball = CayleyBall(parse_group_spec(spec), 4)
    sizes = " ".join(str(ball.depth.count(d)) for d in range(5))
    code, text = invoke("ball", spec, "--radius", "4")
    assert code == 0 and f"\nshell sizes = {sizes}\n" in text


def test_failed_verdict_names_values(monkeypatch):
    import eqhom.cli
    from eqhom.intlinalg import AbelianGroupInvariants
    monkeypatch.setattr(eqhom.cli, "shift_homology",
                        lambda model, n: AbelianGroupInvariants(0, (4,)))
    assert invoke("group-homology", fixture_path("z2.pres"), "--n", "1") == (
        2, "error: bar and shift homology disagree: bar = Z/2, shift = Z/4\n")


class TestGromovReport:
    def test_kv_golden_files(self):
        import os
        golden_dir = os.path.join(os.path.dirname(__file__), "golden")
        for argv, name in (
                (["gromov-report", "--rank", "5", "--radius", "4",
                  "--format", "kv"], "gromov_rank5_r4.kv"),
                (["gromov-report", "--rank", "5", "--radius", "4",
                  "--factor", "z2", "--format", "kv"], "gromov_rank5_r4_z2.kv")):
            code, text = invoke(*argv)
            assert code == 0
            with open(os.path.join(golden_dir, name)) as fh:
                assert text == fh.read()

    def test_text_sections(self):
        code, text = invoke("gromov-report", "--rank", "5", "--radius", "4")
        assert code == 0
        for header in ("[H_n(Z^n)]", "[F2 ponzi]", "[tensor argument]"):
            assert header in text
        assert "MECHANISM CERTIFIED AT RADIUS 4" in text

    def test_kv_format(self):
        code, text = invoke("gromov-report", "--rank", "5", "--radius", "4",
                            "--format", "kv")
        assert code == 0
        assert "verdict = certified" in text
        assert all("=" in l for l in text.splitlines() if l)

    def test_amenable_factor_declined(self):
        code, text = invoke("gromov-report", "--rank", "5", "--radius", "4",
                            "--factor", "z2")
        assert code == 0
        assert "DECLINED" in text
        assert "t_min=2" in text

    def test_kv_format_is_pure_key_value(self):
        for extra in ((), ("--factor", "z2")):
            code, text = invoke("gromov-report", "--rank", "5", "--radius",
                                "4", "--format", "kv", *extra)
            assert code == 0
            assert all("=" in l for l in text.splitlines() if l)
