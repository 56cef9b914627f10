"""Command line interface.

Subcommands: lift, verify, check, stable, realize1d, eval.  Results go to
stdout as deterministic JSON (reports carry no timestamps and identical
inputs with identical seeds produce byte-identical bytes); a one-line
human summary goes to stderr.

Exit codes:
  0  pass
  1  a check failed and a witness is in the report
  2  unreadable input, bad arguments, or a coefficient overflowed
  3  precondition violated (wrong frame, wrong shape, non-real realize1d input)
  4  an exact identity failed to hold
  5  a class membership check failed
  6  only inconclusive evidence (e.g. a stability hunt found no zero)
  7  evaluation hit a denominator zero

COMMANDS is the only place that knows what a command is: its help, the
frame it needs, its own arguments, the exit code of a failed sampled check
and its body.  The parser, main and _dispatch name no command.

Before any file is read or numpy loads, main refuses, in this order, an
argument the parser or SampleConfig/Tolerances refuse, a bad --at, and a
bad DARLINGTON_SEED.  It then sets OPENBLAS_NUM_THREADS, OMP_NUM_THREADS
and MKL_NUM_THREADS to 1 unless the user set them or numpy is already
loaded, and only then imports numpy: at module level this file imports
only the standard library and darlington.config, and each body what it uses.
"""

from __future__ import annotations

import argparse
import cmath
import os
import sys
from collections import namedtuple
from dataclasses import replace

from .config import DEFAULT_SEED, SampleConfig, Tolerances

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_FORMAT = 2
EXIT_PRECONDITION = 3
EXIT_IDENTITY = 4
EXIT_CLASS = 5
EXIT_INCONCLUSIVE = 6
EXIT_NEAR_POLE = 7


def _resolve_seed(arg_seed):
    """--seed wins, then DARLINGTON_SEED, then the default; 0 means OS entropy.
    A bad DARLINGTON_SEED is a ValueError."""
    seed, env = arg_seed, os.environ.get("DARLINGTON_SEED", "")
    if seed is None and env:
        try:
            seed = int(env)
        except ValueError:
            raise ValueError("DARLINGTON_SEED must be an integer, got %r" % env)
        if seed < 0:
            raise ValueError("DARLINGTON_SEED must be >= 0, got %d" % seed)
    seed = DEFAULT_SEED if seed is None else seed
    if seed == 0:
        import secrets  # loads hashlib and hmac, which nothing else needs

        return secrets.randbits(63)
    return int(seed)


def _point(at):
    """The coordinates of --at, each a finite complex number, or ValueError."""
    try:
        point = [complex(tok) for tok in at.split(",")]
    except ValueError:
        raise ValueError("--at expects comma-separated complex numbers like 1+2j,0.5-0.1j")
    if not all(cmath.isfinite(c) for c in point):
        raise ValueError("--at coordinates must be finite, got %s" % at)
    return point


def _say(msg):
    print(msg, file=sys.stderr)


def _margin(rep):
    return rep.to_dict()["worst_margin"]


def _evidence(rep):
    """A sampled report's verdict, margin, samples and witness, and the
    "boundary", "note" and "descent_iterations" of its details when it has
    them."""
    report = rep.to_dict()
    evidence = {k: report[k] for k in ("verdict", "worst_margin", "samples_used", "witness")}
    evidence.update((k, v) for k, v in report["details"].items()
                    if k in ("boundary", "note", "descent_iterations"))
    return evidence


def _report(args, inputs, cfg, tols, verdicts, witnesses=None):
    """The payload of a report and its exit code.  Each verdict is a
    CheckReport, a sampled check whose evidence joins the witnesses, or a
    string, the verdict of an exact identity.  A command that draws no
    sample reports seed 0, and only the tolerances it accepts."""
    sampled = {k: rep for k, rep in verdicts.items() if not isinstance(rep, str)}
    verdicts = {k: getattr(v, "verdict", v) for k, v in verdicts.items()}
    tested = [verdicts[k] for k in sampled]
    if cfg is not None:
        inputs.update(samples=cfg.count, box_radius=cfg.box_radius,
                      imag_floor=cfg.imag_floor, edge_points=cfg.include_edge_points)
    payload = {
        "command": args.command,
        "inputs": inputs,
        "seed": 0 if cfg is None else cfg.seed,
        "tolerances": {k: v for k, v in tols.to_dict().items() if hasattr(args, k)},
        "verdicts": verdicts,
        "witnesses": {**(witnesses or {}), **{k: _evidence(rep) for k, rep in sampled.items()}},
    }
    code = (COMMANDS[args.command].fail_code if "fail" in tested
            else EXIT_IDENTITY if "fail" in verdicts.values()
            else EXIT_INCONCLUSIVE if "inconclusive" in tested else EXIT_OK)
    return payload, code


# ----------------------------------------------------------------------
# subcommands
#
# A body takes (args, f, inputs, cfg, tols), where cfg is None for a command
# that draws no sample, adds what it reads from its own arguments to
# ``inputs`` and returns (payload, exit code, summary).


def _lift(args, f, inputs, cfg, tols):
    from .fileio import function_to_dict
    from .lift import lift

    lifted = lift(f).lifted
    return (function_to_dict(lifted, "nevanlinna"), EXIT_OK,
            "lift: %d -> %d variables, m=%d" % (f.d, lifted.d, lifted.m))


def _verify(args, f, inputs, cfg, tols):
    from .checks import check_cayley_inner, check_nevanlinna
    from .lift import lift, restrict_at_i
    from .rational import identity_equal

    result = lift(f)
    back = restrict_at_i(result.lifted)
    rep_in = check_nevanlinna(f, cfg, tols)
    rep_lift = check_cayley_inner(result.lifted, cfg, tols)
    payload, code = _report(args, inputs, cfg, tols, {
        "identity-at-i": "pass" if identity_equal(back, result.input) else "fail",
        "pieces-structured": "pass" if result.pieces.is_structured() else "fail",
        "input-nevanlinna": rep_in,
        "lift-cayley-inner": rep_lift,
    })
    return payload, code, "verify: " + ", ".join(
        "%s=%s" % kv for kv in sorted(payload["verdicts"].items()))


# --class: the function of darlington.checks that tests it
_MEMBERSHIP = {
    "nevanlinna": "check_nevanlinna",
    "cayley-inner": "check_cayley_inner",
    "positive-real": "check_positive_real",
}


def _check(args, f, inputs, cfg, tols):
    from . import checks

    rep = getattr(checks, _MEMBERSHIP[args.membership])(f, cfg, tols)
    inputs["class"] = args.membership
    return (*_report(args, inputs, cfg, tols, {args.membership: rep}),
            "check %s: %s (worst margin %s)" % (args.membership, rep.verdict, _margin(rep)))


def _stable(args, f, inputs, cfg, tols):
    from .checks import check_real_stable, check_stable
    from .fileio import FileFormatError

    if f.m != 1:
        raise FileFormatError("stable needs a scalar polynomial (m=1), got m=%d" % f.m)
    if f.den.total_degree() != 0:
        raise FileFormatError("stable needs a polynomial: den_terms must be a nonzero constant")
    rep = (check_real_stable if args.real else check_stable)(f.num, cfg, tols)
    inputs["real"] = bool(args.real)
    return (*_report(args, inputs, cfg, tols, {rep.check: rep}),
            "stable: %s (worst margin %s)" % (rep.verdict, _margin(rep)))


def _realize1d(args, f, inputs, cfg, tols):
    from .checks import check_positive_real
    from .fileio import function_to_dict
    from .realization import SplitFailed, realize_1d

    try:
        real = realize_1d(f)
    except SplitFailed as exc:
        # the exact verdict fails; the input's own check says whose fault it is
        rep = check_positive_real(f, cfg, tols)
        cause = "input" if rep.verdict == "fail" else "library"
        return (*_report(args, inputs, cfg, tols,
                         {"positive-real": rep, "reconstruction": "fail"},
                         {"reconstruction": {"split_failed": str(exc), "cause": cause}}),
                "realize1d: split failed (%s); input positive-real=%s" % (exc, rep.verdict))
    rep_block = check_positive_real(real.block(), cfg, tols)

    def fd(g):
        return None if g is None else function_to_dict(g, "positive-real")

    realization = {"variant": real.variant, "kappa": real.kappa, "r": real.r,
                   "a": fd(real.a), "b": fd(real.b), "c": fd(real.c), "d": fd(real.d),
                   "residual": fd(real.residual)}
    return (*_report(args, inputs, cfg, tols,
                     {"reconstruction": "pass", "block-positive-real": rep_block},
                     {"realization": realization}),
            "realize1d: variant=%s block-positive-real=%s" % (real.variant, rep_block.verdict))


def _eval(args, f, inputs, cfg, tols):
    import numpy as np

    from .fileio import FileFormatError, json_pairs

    if len(args.point) != f.d:
        raise FileFormatError("--at gave %d coordinates for a %d-variable function"
                              % (len(args.point), f.d))
    value = f.eval(np.array(args.point), tols.den_floor)
    if not np.all(np.isfinite(value)):
        raise FileFormatError("the value at %s is not finite" % args.at)
    inputs["point"] = json_pairs(args.point)
    return (*_report(args, inputs, cfg, tols, {"eval": "ok"}, {"value": json_pairs(value)}),
            "eval: ok")


def _arg(*flags, **kwargs):
    """One argument of a command, as add_argument takes it."""
    return flags, kwargs


# the arguments of a command that samples: the fields of SampleConfig
# (--samples is count) and Tolerances, whose rules main applies
_DEN_FLOOR = _arg("--den-floor", type=float, default=Tolerances.den_floor)
_SAMPLING = (
    _arg("--seed", type=int, default=None,
         help="RNG seed (0 = OS entropy; default: $DARLINGTON_SEED or %d)" % DEFAULT_SEED),
    _arg("--samples", type=int, default=SampleConfig.count),
    _arg("--box-radius", type=float, default=SampleConfig.box_radius),
    _arg("--imag-floor", type=float, default=SampleConfig.imag_floor,
         help="smallest sampled imaginary part; must be below --box-radius"),
    _arg("--no-edge-points", action="store_true"),
    _arg("--psd-slack", type=float, default=Tolerances.psd_slack),
    _arg("--reality-slack", type=float, default=Tolerances.reality_slack),
    _DEN_FLOOR,
)

# needs: (the frame the input must be in, what to say otherwise), or None;
# fail_code: the exit code of a failed sampled check, or None for a command
# that draws no sample
_Command = namedtuple("_Command", "help needs arguments fail_code body")
COMMANDS = {
    "lift": _Command("lift a nevanlinna-frame function to d+1 variables",
                     ("nevanlinna", "lift needs the nevanlinna frame"), (), None, _lift),
    "verify": _Command("lift, restrict back at i, and check both classes",
                       ("nevanlinna", "verify needs the nevanlinna frame"), _SAMPLING,
                       EXIT_CLASS, _verify),
    "check": _Command("sampled class membership check", None, _SAMPLING + (
        _arg("--class", dest="membership", required=True, choices=sorted(_MEMBERSHIP),
             help="which membership to test"),), EXIT_FAIL, _check),
    "stable": _Command("hunt for upper-half-plane zeros of a polynomial", None, _SAMPLING + (
        _arg("--real", action="store_true",
             help="also require real coefficients (real-stability)"),), EXIT_FAIL, _stable),
    "realize1d": _Command(
        "lossless 2x2 realization of a scalar one-variable positive-real function",
        ("positive-real", "the realization needs positive-real"), _SAMPLING, EXIT_CLASS,
        _realize1d),
    "eval": _Command("evaluate at a point", None, (_DEN_FLOOR, _arg(
        "--at", required=True, help="comma-separated coordinates, e.g. 1+2j,0.5-0.1j")),
        None, _eval),
}


def _errors():
    """What a command may raise: (type, summary prefix, exit code), first match wins; a
    ValueError that is neither of the first two is a coefficient that overflowed."""
    from .fileio import FileFormatError
    from .poly import DimensionMismatch
    from .rational import NearPole, ReconstructionMismatch

    return ((FileFormatError, "error", EXIT_FORMAT),
            (DimensionMismatch, "precondition", EXIT_PRECONDITION),
            (ValueError, "error", EXIT_FORMAT),
            (ReconstructionMismatch, "identity failure", EXIT_IDENTITY),
            (NearPole, "near pole", EXIT_NEAR_POLE))


def _dispatch(args, cfg, tols):
    from .fileio import dumps_deterministic, load_function, write_text

    needs = COMMANDS[args.command].needs
    f, frame = load_function(args.function)
    if needs is not None and frame != needs[0]:
        _say("%s: input frame is %r; %s" % (args.command, frame, needs[1]))
        return EXIT_PRECONDITION
    inputs = {"function": args.function, "d": f.d, "m": f.m, "frame": frame}
    payload, code, summary = COMMANDS[args.command].body(args, f, inputs, cfg, tols)
    write_text(args.output or "-", dumps_deterministic(payload))
    _say(summary)
    return code


# ----------------------------------------------------------------------
# parser


class _Parser(argparse.ArgumentParser):
    """Refuses an argument in one stderr line, "<prog>: error: <message>",
    and exit code 2: no usage block.  The subcommands' parsers are of this
    class too.  Options must be spelled in full: a prefix would read an
    option a command lacks, such as ``--real`` on ``check``, as one it has."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def error(self, message):
        self.exit(EXIT_FORMAT, "%s: error: %s\n" % (self.prog, message))


def build_parser():
    parser = _Parser(
        prog="darlington",
        description="Lift rational matrix Herglotz functions to one more variable, "
                    "verify class membership numerically, and realize one-variable "
                    "positive-real functions as lossless 2x2 blocks.",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        sub = subs.add_parser(name, help=command.help)
        sub.set_defaults(parser=sub)  # main refuses values through it
        sub.add_argument("function", help="function JSON path, or - for stdin")
        sub.add_argument("-o", "--output", default=None,
                         help="write the JSON result here instead of stdout")
        for flags, kwargs in command.arguments:
            sub.add_argument(*flags, **kwargs)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    # refused before any file is read, and before numpy loads; the seed
    # stands in for the resolved one
    try:
        cfg = None if not hasattr(args, "samples") else SampleConfig(
            seed=DEFAULT_SEED if args.seed is None else args.seed, count=args.samples,
            box_radius=args.box_radius, imag_floor=args.imag_floor,
            include_edge_points=not args.no_edge_points)
        tols = Tolerances(**{k: v for k, v in vars(args).items()
                             if k in Tolerances.__dataclass_fields__})
    except ValueError as exc:
        args.parser.error(str(exc))
    try:
        if hasattr(args, "at"):
            args.point = _point(args.at)
        if cfg is not None:
            cfg = replace(cfg, seed=_resolve_seed(args.seed))
    except ValueError as exc:
        _say("error: %s" % exc)
        return EXIT_FORMAT
    if "numpy" not in sys.modules:  # a loaded numpy keeps the thread count it started with
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            os.environ.setdefault(var, "1")
    import numpy as np

    errors = _errors()
    try:
        # an overflow ends in a dropped sample or in an error naming it, so
        # numpy's warnings about it would only clutter stderr
        with np.errstate(over="ignore", invalid="ignore"):
            return _dispatch(args, cfg, tols)
    except tuple(error for error, _, _ in errors) as exc:
        prefix, code = next((p, c) for error, p, c in errors if isinstance(exc, error))
        _say("%s: %s" % (prefix, exc))
        return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
