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

Imports: at module level only the standard library and darlington.config,
which loads no numpy; each command imports what it uses.  main refuses bad
arguments, then sets OPENBLAS_NUM_THREADS, OMP_NUM_THREADS and
MKL_NUM_THREADS to 1 unless the user set them or numpy is already loaded,
and only then imports numpy.
"""

from __future__ import annotations

import argparse
import cmath
import os
import secrets
import sys
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
    """--seed wins, then DARLINGTON_SEED, then the default; 0 means OS entropy."""
    from .fileio import FileFormatError

    seed = arg_seed
    if seed is None:
        env = os.environ.get("DARLINGTON_SEED", "")
        if env:
            try:
                seed = int(env)
            except ValueError:
                raise FileFormatError("DARLINGTON_SEED must be an integer, got %r" % env)
            if seed < 0:
                raise FileFormatError("DARLINGTON_SEED must be >= 0, got %d" % seed)
        else:
            seed = DEFAULT_SEED
    if seed == 0:
        return secrets.randbits(63)
    return int(seed)


def _say(msg):
    print(msg, file=sys.stderr)


def _margin(rep):
    return rep.to_dict()["worst_margin"]


def _evidence(rep):
    report = rep.to_dict()
    return {k: report[k] for k in ("verdict", "worst_margin", "samples_used", "witness")}


# ----------------------------------------------------------------------
# subcommands
#
# A body adds what it reads from its own arguments to ``inputs``.  A sampling
# body returns (verdicts, witnesses, summary) and _dispatch builds the report;
# the others return (payload, summary).


def _lift(args, f, inputs):
    from .fileio import function_to_dict
    from .lift import lift

    lifted = lift(f).lifted
    return (function_to_dict(lifted, "nevanlinna"),
            "lift: %d -> %d variables, m=%d" % (f.d, lifted.d, lifted.m))


def _verify(args, f, inputs, cfg, tols):
    from .checks import check_cayley_inner, check_nevanlinna
    from .lift import lift, restrict_at_i
    from .rational import identity_equal

    result = lift(f)
    back = restrict_at_i(result.lifted)
    rep_in = check_nevanlinna(f, cfg, tols)
    rep_lift = check_cayley_inner(result.lifted, cfg, tols)
    verdicts = {
        "identity-at-i": "pass" if identity_equal(back, result.input) else "fail",
        "pieces-structured": "pass" if result.pieces.is_structured() else "fail",
        "input-nevanlinna": rep_in.verdict,
        "lift-cayley-inner": rep_lift.verdict,
    }
    witnesses = {
        "input-nevanlinna": _evidence(rep_in),
        "lift-cayley-inner": _evidence(rep_lift),
    }
    return verdicts, witnesses, "verify: " + ", ".join(
        "%s=%s" % kv for kv in sorted(verdicts.items()))


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
    return ({args.membership: rep.verdict}, {args.membership: _evidence(rep)},
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
    return ({rep.check: rep.verdict}, {rep.check: _evidence(rep)},
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
        verdicts = {"positive-real": rep.verdict, "reconstruction": "fail"}
        witnesses = {"positive-real": _evidence(rep),
                     "reconstruction": {"split_failed": str(exc), "cause": cause}}
        return verdicts, witnesses, "realize1d: split failed (%s); input positive-real=%s" % (
            exc, rep.verdict)
    rep_block = check_positive_real(real.block(), cfg, tols)

    def fd(g):
        return None if g is None else function_to_dict(g, "positive-real")

    verdicts = {"reconstruction": "pass", "block-positive-real": rep_block.verdict}
    witnesses = {
        "realization": {
            "variant": real.variant,
            "kappa": real.kappa,
            "r": real.r,
            "a": fd(real.a),
            "b": fd(real.b),
            "c": fd(real.c),
            "d": fd(real.d),
            "residual": fd(real.residual),
        },
        "block-positive-real": _evidence(rep_block),
    }
    return verdicts, witnesses, "realize1d: variant=%s block-positive-real=%s" % (
        real.variant, rep_block.verdict)


def _point(at):
    """The coordinates of --at, each a finite complex number, or ValueError."""
    try:
        point = [complex(tok) for tok in at.split(",")]
    except ValueError:
        raise ValueError("--at expects comma-separated complex numbers like 1+2j,0.5-0.1j")
    if not all(cmath.isfinite(c) for c in point):
        raise ValueError("--at coordinates must be finite, got %s" % at)
    return point


def _eval(args, f, inputs):
    import numpy as np

    from .fileio import FileFormatError, json_pairs

    if len(args.point) != f.d:
        raise FileFormatError("--at gave %d coordinates for a %d-variable function"
                              % (len(args.point), f.d))
    value = f.eval(np.array(args.point), args.den_floor)
    if not np.all(np.isfinite(value)):
        raise FileFormatError("the value at %s is not finite" % args.at)
    inputs["point"] = json_pairs(args.point)
    payload = {
        "command": "eval",
        "inputs": inputs,
        "seed": 0,
        "tolerances": {"den_floor": args.den_floor},
        "verdicts": {"eval": "ok"},
        "witnesses": {"value": json_pairs(value)},
    }
    return payload, "eval: ok"


# name: (help, exit code of a failed sampled check, or None for a command that
# does not sample, (frame the input must be in, what to say otherwise) or
# None, body)
COMMANDS = {
    "lift": ("lift a nevanlinna-frame function to d+1 variables", None,
             ("nevanlinna", "lift needs the nevanlinna frame"), _lift),
    "verify": ("lift, restrict back at i, and check both classes", EXIT_CLASS,
               ("nevanlinna", "verify needs the nevanlinna frame"), _verify),
    "check": ("sampled class membership check", EXIT_FAIL, None, _check),
    "stable": ("hunt for upper-half-plane zeros of a polynomial", EXIT_FAIL, None, _stable),
    "realize1d": ("lossless 2x2 realization of a scalar one-variable positive-real function",
                  EXIT_CLASS, ("positive-real", "the realization needs positive-real"),
                  _realize1d),
    "eval": ("evaluate at a point", None, None, _eval),
}

# verdicts of exact identities; every other verdict is a sampled check's
EXACT = ("identity-at-i", "pieces-structured", "reconstruction")


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


def _exit_code(verdicts, fail_code):
    sampled = [v for k, v in verdicts.items() if k not in EXACT]
    if "fail" in sampled:
        return fail_code
    if "fail" in verdicts.values():
        return EXIT_IDENTITY
    if "inconclusive" in sampled:
        return EXIT_INCONCLUSIVE
    return EXIT_OK


def _dispatch(args, cfg, tols):
    from .fileio import dumps_deterministic, load_function, write_text

    _, fail_code, needs, body = COMMANDS[args.command]
    f, frame = load_function(args.function)
    if needs is not None and frame != needs[0]:
        _say("%s: input frame is %r; %s" % (args.command, frame, needs[1]))
        return EXIT_PRECONDITION
    inputs = {"function": args.function, "d": f.d, "m": f.m, "frame": frame}
    if fail_code is None:
        payload, summary = body(args, f, inputs)
        code = EXIT_OK
    else:
        inputs.update(samples=cfg.count, box_radius=cfg.box_radius,
                      imag_floor=cfg.imag_floor, edge_points=cfg.include_edge_points)
        verdicts, witnesses, summary = body(args, f, inputs, cfg, tols)
        payload = {
            "command": args.command,
            "inputs": inputs,
            "seed": cfg.seed,
            "tolerances": tols.to_dict(),
            "verdicts": verdicts,
            "witnesses": witnesses,
        }
        code = _exit_code(verdicts, fail_code)
    write_text(args.output or "-", dumps_deterministic(payload))
    _say(summary)
    return code


# ----------------------------------------------------------------------
# parser


class _Parser(argparse.ArgumentParser):
    """Refuses an argument in one stderr line, "<prog>: error: <message>",
    and exit code 2: no usage block.  The subcommands' parsers are of this
    class too."""

    def error(self, message):
        self.exit(EXIT_FORMAT, "%s: error: %s\n" % (self.prog, message))


def _add_common(sub, sampling):
    """The arguments of every command; with ``sampling``, also the fields of
    SampleConfig (``--samples`` is count) and Tolerances, whose rules main
    applies."""
    sub.add_argument("function", help="function JSON path, or - for stdin")
    sub.add_argument("-o", "--output", default=None,
                     help="write the JSON result here instead of stdout")
    if sampling:
        sub.add_argument("--seed", type=int, default=None,
                         help="RNG seed (0 = OS entropy; default: $DARLINGTON_SEED or %d)"
                              % DEFAULT_SEED)
        sub.add_argument("--samples", type=int, default=SampleConfig.count)
        sub.add_argument("--box-radius", type=float, default=SampleConfig.box_radius)
        sub.add_argument("--imag-floor", type=float, default=SampleConfig.imag_floor,
                         help="smallest sampled imaginary part; must be below --box-radius")
        sub.add_argument("--no-edge-points", action="store_true")
        sub.add_argument("--psd-slack", type=float, default=Tolerances.psd_slack)
        sub.add_argument("--reality-slack", type=float, default=Tolerances.reality_slack)


def build_parser():
    parser = _Parser(
        prog="darlington",
        description="Lift rational matrix Herglotz functions to one more variable, "
                    "verify class membership numerically, and realize one-variable "
                    "positive-real functions as lossless 2x2 blocks.",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, fail_code, _, _) in COMMANDS.items():
        sub = subs.add_parser(name, help=help_text)
        sub.set_defaults(parser=sub)  # main refuses values through it
        _add_common(sub, sampling=fail_code is not None)
        if name != "lift":  # the only command that evaluates nothing
            sub.add_argument("--den-floor", type=float, default=Tolerances.den_floor)
    subs.choices["check"].add_argument("--class", dest="membership", required=True,
                                       choices=sorted(_MEMBERSHIP),
                                       help="which membership to test")
    subs.choices["stable"].add_argument("--real", action="store_true",
                                        help="also require real coefficients (real-stability)")
    subs.choices["eval"].add_argument("--at", required=True,
                                      help="comma-separated coordinates, e.g. 1+2j,0.5-0.1j")
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
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
    if args.command == "eval":
        try:
            args.point = _point(args.at)
        except ValueError as exc:
            _say("error: %s" % exc)
            return EXIT_FORMAT
    if "numpy" not in sys.modules:  # a loaded numpy keeps the thread count it started with
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            os.environ.setdefault(var, "1")
    import numpy as np

    errors = _errors()
    try:
        if cfg is not None:  # a bad DARLINGTON_SEED too is refused before any file is read
            cfg = replace(cfg, seed=_resolve_seed(args.seed))
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
