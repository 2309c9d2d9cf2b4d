"""Command-line interface.

Every command prints deterministic text (no timestamps, no unordered
collections) so outputs can be golden-tested byte for byte.  Exit codes:
0 success, 1 parse or usage error, 2 violated mathematical precondition,
3 budget exceeded.  On failure the single ``error: ...`` line is the only
output; a failed verdict names the failing values in it.
"""

import gc
import sys
from types import SimpleNamespace

from .errors import BudgetError, InputError, PreconditionError
from .groups import (FreeAbelianGroup, FreeGroup, ProductGroup,
                     augmentation_ideal_rep, parse_presentation, regular_rep,
                     tensor_power, todd_coxeter)
from .complexes import (LocalSystem, build_cover, fundamental_group,
                        load_complex, local_cohomology, local_homology,
                        render_homology)
from .duality import (bs_class_report, bs_power, essentiality_pairing,
                      orient, pd_check, pert_finite)
from .group_homology import bar_homology, shift_chain_check, shift_homology
from .coarse import (CayleyBall, gromov_counterexample_report,
                     isoperimetric_ratio, min_ponzi_bound, ponzi_feasible)


# Exit code per exception family, in the order the families are tried.
_EXIT_CODES = {InputError: 1, BudgetError: 3, PreconditionError: 2}


def _read(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc.strerror}") from exc


def _load_complex(path):
    return load_complex(_read(path))


def _load_presentation(path):
    return parse_presentation(_read(path))


def parse_group_spec(spec):
    """Group shorthands: f2, z, z2, z^n, and * products (e.g. z^5*f2)."""
    alphabet = "abcdefghijklmnopqrstuvwxyz"
    factors = []
    for token in spec.lower().split("*"):
        token = token.strip()
        if not token:
            raise InputError(f"bad group spec {spec!r}")
        kind, body = token[0], token[1:]
        if body.startswith("^"):
            body = body[1:]
        if body == "":
            rank = 1
        else:
            try:
                rank = int(body)
            except ValueError:
                raise InputError(f"bad group spec token {token!r}") from None
        if rank < 1:
            raise InputError(f"rank in {token!r} must be >= 1")
        if rank > len(alphabet):
            raise InputError("group spec needs more than 26 generators")
        names, alphabet = tuple(alphabet[:rank]), alphabet[rank:]
        if kind == "f":
            factors.append(FreeGroup(rank, names))
        elif kind == "z":
            factors.append(FreeAbelianGroup(rank, names))
        else:
            raise InputError(f"unknown group kind {token!r}")
    model = factors[0]
    for f in factors[1:]:
        model = ProductGroup(model, f)
    return model


def _resolve_coeff(cx, path, max_cosets):
    """Read a coefficient descriptor file (module: I^k | trivial k | regular);
    no path, None or empty, means the trivial module Z."""
    if not path:
        return LocalSystem(cx, 1)
    descriptor = None
    for lineno, raw in enumerate(_read(path).splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if not line.startswith("module:"):
            raise InputError(f"{path}:{lineno}: expected 'module: ...'")
        if descriptor is not None:
            raise InputError(f"{path}:{lineno}: duplicate module line")
        descriptor = line[len("module:"):].strip()
    if descriptor is None:
        raise InputError(f"{path}: no 'module:' line")
    kind, *rest = descriptor.split() or [""]
    if kind == "trivial" and len(rest) <= 1:
        try:
            rank = int(rest[0]) if rest else 1
        except ValueError:
            raise InputError(f"bad trivial rank in {descriptor!r}") from None
        if rank < 0:
            raise InputError(f"bad trivial rank in {descriptor!r}")
        return LocalSystem(cx, rank)
    if rest or kind not in ("regular", "I") and not kind.startswith("I^"):
        raise InputError(f"unknown coefficient module {descriptor!r}")
    try:
        power = int(kind[2:]) if kind.startswith("I^") else 1
    except ValueError:
        raise InputError(f"bad ideal power in {descriptor!r}") from None
    if power < 1:
        raise InputError(f"bad ideal power in {descriptor!r}")
    cover = build_cover(cx, max_cosets=max_cosets)
    if kind == "regular":
        return LocalSystem.from_rep(cover, regular_rep(cover.model))
    rep = tensor_power(augmentation_ideal_rep(cover.model), power)
    return LocalSystem.from_rep(cover, rep)


# ---------------------------------------------------------------------------
# subcommands

def _cmd_homology(args, out):
    cx = _load_complex(args.file)
    system = _resolve_coeff(cx, args.coeff, args.max_cosets)
    out.append(render_homology(local_homology(system)))


def _cmd_cohomology(args, out):
    cx = _load_complex(args.file)
    system = _resolve_coeff(cx, args.coeff, args.max_cosets)
    out.append(render_homology(local_cohomology(system), prefix="H^"))


def _cmd_pi1(args, out):
    cx = _load_complex(args.file)
    pres = fundamental_group(cx, basepoint=args.basepoint)
    out.append(pres.render().rstrip("\n"))
    try:
        model = todd_coxeter(pres, args.max_cosets)
        out.append(f"order = {model.order}")
    except BudgetError:
        out.append(f"order = unknown (coset budget {args.max_cosets} exceeded)")


def _cmd_cover(args, out):
    cx = _load_complex(args.file)
    cover = build_cover(cx, max_cosets=args.max_cosets)
    out.append(f"pi1 order = {cover.model.order}")
    for k, c in enumerate(cover.counts()):
        out.append(f"dim {k}: {c} cells")
    # Shapiro's lemma: H_*(cover; Z) = H_*(X; Z[pi]).
    out.append(render_homology(local_homology(
        LocalSystem.from_rep(cover, regular_rep(cover.model)))))


def _cmd_group_homology(args, out):
    # The shift route starts at H_1; reject its degree before the bar route runs.
    if args.method != "bar" and args.n < 1:
        raise InputError("degree must be >= 1")
    pres = _load_presentation(args.presentation)
    model = todd_coxeter(pres, args.max_cosets)
    results = {}
    if args.method in ("bar", "both"):
        results["bar"] = bar_homology(model, args.n)
        out.append(f"bar   = {results['bar']}")
    if args.method in ("shift", "both"):
        results["shift"] = shift_homology(model, args.n)
        out.append(f"shift = {results['shift']}")
    if args.method == "both":
        if results["bar"] != results["shift"]:
            raise PreconditionError(
                f"bar and shift homology disagree: bar = {results['bar']}, "
                f"shift = {results['shift']}")
        out.append("AGREE")


def _cmd_shift_chain(args, out):
    pres = _load_presentation(args.presentation)
    model = todd_coxeter(pres, args.max_cosets)
    report = shift_chain_check(model, args.n)
    if not report.all_equal:
        raise PreconditionError(
            "shift chain values differ: "
            + "; ".join(report.render().splitlines()[:-1]))
    out.append(report.render())


def _cmd_pd_check(args, out):
    cx = _load_complex(args.file)
    manifold = orient(cx)
    system = _resolve_coeff(cx, args.coeff, args.max_cosets)
    report = pd_check(manifold, system)
    if not report.ok:
        raise PreconditionError(
            "duality pairing failed: "
            + "; ".join(line for line in report.render().splitlines()
                        if line.endswith("[NOT ISO]")))
    out.append(report.render())


def _cmd_essential(args, out):
    cx = _load_complex(args.file)
    manifold = orient(cx)
    cover = build_cover(cx, max_cosets=args.max_cosets)
    out.append(f"pi1 order = {cover.model.order}")
    report = essentiality_pairing(manifold, cover)
    out.append(report.render())
    out.append("ESSENTIAL" if not report.is_zero else "INESSENTIAL")


def _cmd_bs_class(args, out):
    cx = _load_complex(args.file)
    cover = build_cover(cx, max_cosets=args.max_cosets)
    report = bs_class_report(cover, args.power)
    out.append(report.render())


def _cmd_pert(args, out):
    cx = _load_complex(args.file)
    cover = build_cover(cx, max_cosets=args.max_cosets)
    power = bs_power(cover, args.power)
    report = pert_finite(power, cover)
    out.append(f"pert(beta^{args.power}):")
    out.append(report.render())


def _cmd_ball(args, out):
    model = parse_group_spec(args.group)
    ball = CayleyBall(model, args.radius)
    out.append(f"group = {model.describe()}")
    out.append(f"radius = {args.radius}")
    out.append(f"vertices = {len(ball)}")
    out.append(f"edges = {len(ball.edges)}")
    out.append(f"inner = {ball.inner_count}")
    out.append(f"crossing = {len(ball.crossing_edges())}")
    sizes = [0] * (args.radius + 1)
    for d in ball.depth:
        sizes[d] += 1
    out.append(f"shell sizes = {' '.join(map(str, sizes))}")


def _cmd_ponzi(args, out):
    model = parse_group_spec(args.group)
    ball = CayleyBall(model, args.radius)
    out.append(f"group = {model.describe()}")
    out.append(f"radius = {args.radius}  bound = {args.bound}")
    out.append(f"ball = {len(ball)}  inner = {ball.inner_count}")
    result = ponzi_feasible(ball, args.bound)
    if result.feasible:  # ponzi_feasible verified it
        nonzero = sum(1 for v in result.flow.values() if v)
        out.append("FEASIBLE")
        out.append(f"certificate: {nonzero} edges carry flow, "
                   f"max |flow| <= {args.bound}, every inner vertex nets +1 "
                   "(verified)")
    else:
        out.append("INFEASIBLE")
        out.append(f"cut certificate: capacity {result.capacity} < "
                   f"demand {result.demand} ({len(result.cut_edges)} graph edges)")


def _cmd_min_bound(args, out):
    model = parse_group_spec(args.group)
    ball = CayleyBall(model, args.radius)
    res = min_ponzi_bound(ball)
    out.append(f"group = {model.describe()}")
    out.append(f"radius = {args.radius}")
    out.append(f"ball = {len(ball)}  inner = {ball.inner_count}")
    out.append(f"t_min = {res.t_min}")
    # min_ponzi_bound raises CertificateError unless the certificate verifies
    out.append("certificate at t_min verified = True")
    if res.cut_below is not None:
        out.append(f"cut at t_min - 1: capacity {res.cut_below.capacity} < "
                   f"demand {res.cut_below.demand}")


def _cmd_folner(args, out):
    model = parse_group_spec(args.group)
    if args.radius < 1:  # the loop below would build no ball to reject it
        raise InputError("radius must be >= 1")
    out.append(f"group = {model.describe()}")
    for r in range(1, args.radius + 1):
        ball = CayleyBall(model, r)
        inner, crossing, ratio = isoperimetric_ratio(ball)
        out.append(f"R={r} inner={inner} crossing={crossing} ratio={ratio}")


def _cmd_gromov_report(args, out):
    factor = parse_group_spec(args.factor) if args.factor else None
    report = gromov_counterexample_report(args.rank, args.radius, factor=factor)
    if args.format == "kv":
        out.append(report.render_kv())
    else:
        out.append(report.render())
        if not report.certified:
            out.append("note: certification declined; see the trace above")


_FILE = (("file",), {})
_GROUP = (("group",), {})
_RADIUS = (("--radius",), {"type": int, "required": True})
_DEGREE = (("--n",), {"type": int, "required": True})
_POWER = (("--power",), {"type": int, "default": 1})
_COSETS = (("--max-cosets",), {"type": int, "default": 20000,
                               "help": "coset enumeration budget"})

# name -> (function, help, arguments as (args, kwargs) pairs); the coarse
# commands enumerate no cosets, so they take no --max-cosets.
_COMMANDS = {
    "homology": (_cmd_homology, "homology of a complex file",
                 (_COSETS, _FILE, (("--coeff",), {"help": "coefficient descriptor file"}))),
    "cohomology": (_cmd_cohomology, "cohomology of a complex file",
                   (_COSETS, _FILE, (("--coeff",), {}))),
    "pi1": (_cmd_pi1, "edge-path presentation of pi_1",
            (_COSETS, _FILE, (("--basepoint",), {"type": int, "default": 0}))),
    "cover": (_cmd_cover, "universal cover cells and homology", (_COSETS, _FILE)),
    "group-homology": (_cmd_group_homology, "H_n of a presented finite group", (
        _COSETS, (("presentation",), {}), _DEGREE,
        (("--method",), {"choices": ("bar", "shift", "both"), "default": "both"}))),
    "shift-chain": (_cmd_shift_chain, "H_n = H_{n-1}(pi; I) = ... chain check",
                    (_COSETS, (("presentation",), {}), _DEGREE)),
    "pd-check": (_cmd_pd_check, "cap-with-[M] duality check",
                 (_COSETS, _FILE, (("--coeff",), {}))),
    "essential": (_cmd_essential, "degree-n pairing test", (_COSETS, _FILE)),
    "bs-class": (_cmd_bs_class, "obstruction class power", (_COSETS, _FILE, _POWER)),
    "pert": (_cmd_pert, "forget-equivariance image of beta^k", (_COSETS, _FILE, _POWER)),
    "ball": (_cmd_ball, "Cayley ball summary", (_GROUP, _RADIUS)),
    "ponzi": (_cmd_ponzi, "bounded-divergence flow probe",
              (_GROUP, _RADIUS, (("--bound",), {"type": int, "default": 1}))),
    "min-bound": (_cmd_min_bound, "least feasible flow bound", (_GROUP, _RADIUS)),
    "folner": (_cmd_folner, "isoperimetric ratios per radius", (_GROUP, _RADIUS)),
    "gromov-report": (_cmd_gromov_report, "three-section counterexample-mechanism report", (
        (("--rank",), {"type": int, "required": True}), _RADIUS,
        (("--factor",), {"help": "replace F_2 (e.g. z2) to probe the amenable direction"}),
        (("--format",), {"choices": ("text", "kv"), "default": "text"}))),
}


def build_parser(command=None):
    """The argparse parser, with only the named command's subparser when
    command names one, and with every subparser otherwise (for --help, a
    missing command or an unknown one).

    run uses it only for the command lines its plain parse defers: help,
    abbreviations, --opt=value, repeated options, dash-leading values,
    ``--`` and every usage error.  It is the one place that imports
    argparse, so a canonical command line pays neither for the import nor
    for building the parser.
    """
    import argparse

    class Parser(argparse.ArgumentParser):
        def error(self, message):
            raise InputError(message)

    parser = Parser(prog="eqhom", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    for name in [command] if command in _COMMANDS else _COMMANDS:
        fn, help_text, arguments = _COMMANDS[name]
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(fn=fn)
        for args, kwargs in arguments:
            p.add_argument(*args, **kwargs)
    return parser


def _parse_plain(argv):
    """The namespace build_parser would parse from a canonical command
    line, or None to leave the line to it.

    Canonical: a known command; options given by their exact names, each
    once and followed by a value that does not start with "-"; as many
    other words as the command has positionals; every required option
    present; every int and choice valid.
    """
    if not argv or argv[0] not in _COMMANDS:
        return None
    fn, _, arguments = _COMMANDS[argv[0]]
    values = {"command": argv[0], "fn": fn}
    options, positionals, words = {}, [], []
    for (name,), kwargs in arguments:
        if name.startswith("-"):
            dest = name[2:].replace("-", "_")
            options[name] = dest, kwargs
            values[dest] = kwargs.get("default")
        else:
            positionals.append(name)
    rest = iter(argv[1:])
    for word in rest:
        if not word.startswith("-"):
            words.append(word)
            continue
        dest, kwargs = options.pop(word, (None, None))
        value = next(rest, "-")  # a missing value defers like a dash-leading one
        if dest is None or value.startswith("-"):
            return None
        if "type" in kwargs:
            try:
                value = kwargs["type"](value)
            except ValueError:
                return None
        if "choices" in kwargs and value not in kwargs["choices"]:
            return None
        values[dest] = value
    if len(words) != len(positionals) or any(
            kwargs.get("required") for _, kwargs in options.values()):
        return None
    values.update(zip(positionals, words))
    return SimpleNamespace(**values)


def run(argv):
    """Execute a command line; returns (exit_code, output_text).

    A canonical command line (see _parse_plain) is parsed straight from
    _COMMANDS; any other goes to build_parser, so help text and usage
    errors are argparse's.
    """
    out = []
    try:
        args = _parse_plain(argv)
        if args is None:
            args = build_parser(argv[0] if argv else None).parse_args(argv)
        args.fn(args, out)
    except tuple(_EXIT_CODES) as exc:
        code = next(c for cls, c in _EXIT_CODES.items() if isinstance(exc, cls))
        return code, f"error: {exc}\n"
    return 0, "\n".join(out) + "\n"


def main():
    """Run the command line in sys.argv and write its output.

    The heap is then frozen: finalization runs full collections over
    every tracked object, and frozen ones are skipped, so exit does not
    sweep the heap the command built.
    """
    code, text = run(sys.argv[1:])
    sys.stdout.write(text)
    gc.freeze()
    return code


if __name__ == "__main__":
    sys.exit(main())
