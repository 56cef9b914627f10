"""Command line interface.

Subcommands: lift, verify, check, stable, realize1d, eval.  Results go to
stdout as deterministic JSON (reports carry no timestamps and identical
inputs with identical seeds produce byte-identical bytes); a one-line
human summary goes to stderr.

Exit codes:
  0  pass
  1  a check failed and a witness is in the report
  2  unreadable input or bad arguments
  3  precondition violated (wrong frame, wrong shape)
  4  an exact identity failed to hold
  5  a class membership check failed
  6  only inconclusive evidence (e.g. a stability hunt found no zero)
  7  evaluation hit a denominator zero
"""

from __future__ import annotations

import argparse
import cmath
import math
import os
import sys

import numpy as np

from .checks import (
    DEFAULT_SEED,
    SampleConfig,
    SingularCayley,
    Tolerances,
    check_cayley_inner,
    check_nevanlinna,
    check_positive_real,
    check_real_stable,
    check_stable,
)
from .fileio import (
    FileFormatError,
    dumps_deterministic,
    function_to_dict,
    load_function,
)
from .lift import lift, restrict_at_i
from .poly import DimensionMismatch
from .rational import NearPole, identity_equal
from .realization import (
    NotOneVariable,
    NotScalar,
    ReconstructionMismatch,
    SplitFailed,
    realize_1d,
)

__all__ = ["main"]

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
        return int(np.random.SeedSequence().entropy % (2**63))
    return int(seed)


def _emit(args, payload):
    text = dumps_deterministic(payload)
    if args.output and args.output != "-":
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _say(msg):
    print(msg, file=sys.stderr)


def _margin(rep):
    return rep.to_dict()["worst_margin"]


def _evidence(rep):
    return {
        "verdict": rep.verdict,
        "worst_margin": _margin(rep),
        "samples_used": rep.samples_used,
        "witness": rep.witness,
    }


# ----------------------------------------------------------------------
# subcommands
#
# A body adds what it reads from its own arguments to ``inputs``.  A sampling
# body returns (verdicts, witnesses, summary) and _dispatch builds the report;
# the others return (payload, summary).


def _lift(args, f, inputs):
    lifted = lift(f).lifted
    return (function_to_dict(lifted, "nevanlinna"),
            "lift: %d -> %d variables, m=%d" % (f.d, lifted.d, lifted.m))


def _verify(args, f, inputs, cfg, tols):
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


_MEMBERSHIP = {
    "nevanlinna": check_nevanlinna,
    "cayley-inner": check_cayley_inner,
    "positive-real": check_positive_real,
}


def _check(args, f, inputs, cfg, tols):
    rep = _MEMBERSHIP[args.membership](f, cfg, tols)
    inputs["class"] = args.membership
    return ({args.membership: rep.verdict}, {args.membership: _evidence(rep)},
            "check %s: %s (worst margin %s)" % (args.membership, rep.verdict, _margin(rep)))


def _stable(args, f, inputs, cfg, tols):
    if f.m != 1:
        raise FileFormatError("stable needs a scalar polynomial (m=1), got m=%d" % f.m)
    if f.den.total_degree() != 0:
        raise FileFormatError("stable needs a polynomial: den_terms must be a nonzero constant")
    rep = (check_real_stable if args.real else check_stable)(f.num, cfg, tols)
    inputs["real"] = bool(args.real)
    return ({rep.check: rep.verdict}, {rep.check: _evidence(rep)},
            "stable: %s (worst margin %s)" % (rep.verdict, _margin(rep)))


def _realize1d(args, f, inputs, cfg, tols):
    real = realize_1d(f)
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


def _eval(args, f, inputs):
    try:
        point = [complex(tok) for tok in args.at.split(",")]
    except ValueError:
        raise FileFormatError("--at expects comma-separated complex numbers like 1+2j,0.5-0.1j")
    if len(point) != f.d:
        raise FileFormatError("--at gave %d coordinates for a %d-variable function"
                              % (len(point), f.d))
    if not all(cmath.isfinite(c) for c in point):
        raise FileFormatError("--at coordinates must be finite, got %s" % args.at)
    with np.errstate(over="ignore", invalid="ignore"):
        value = f.eval(np.array(point), args.den_floor)
    if not np.all(np.isfinite(value)):
        raise FileFormatError("the value at %s is not finite" % args.at)
    inputs["point"] = [[float(c.real), float(c.imag)] for c in point]
    payload = {
        "command": "eval",
        "inputs": inputs,
        "seed": 0,
        "tolerances": {"den_floor": args.den_floor},
        "verdicts": {"eval": "ok"},
        "witnesses": {"value": [[[float(v.real), float(v.imag)] for v in row] for row in value]},
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


def _exit_code(verdicts, fail_code):
    sampled = [v for k, v in verdicts.items() if k not in EXACT]
    if "fail" in sampled:
        return fail_code
    if "fail" in verdicts.values():
        return EXIT_IDENTITY
    if "inconclusive" in sampled:
        return EXIT_INCONCLUSIVE
    return EXIT_OK


def _dispatch(args):
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
        seed = _resolve_seed(args.seed)
        edge = not args.no_edge_points
        cfg = SampleConfig(seed=seed, count=args.samples, box_radius=args.box_radius,
                           imag_floor=args.imag_floor, include_edge_points=edge)
        tols = Tolerances(psd_slack=args.psd_slack, reality_slack=args.reality_slack,
                          den_floor=args.den_floor)
        inputs.update(samples=args.samples, box_radius=args.box_radius,
                      imag_floor=args.imag_floor, edge_points=edge)
        verdicts, witnesses, summary = body(args, f, inputs, cfg, tols)
        payload = {
            "command": args.command,
            "inputs": inputs,
            "seed": seed,
            "tolerances": tols.to_dict(),
            "verdicts": verdicts,
            "witnesses": witnesses,
        }
        code = _exit_code(verdicts, fail_code)
    _emit(args, payload)
    _say(summary)
    return code


# ----------------------------------------------------------------------
# parser


def _int_at_least(lower):
    def parse(text):
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError("expected an integer, got %r" % text)
        if value < lower:
            raise argparse.ArgumentTypeError("expected an integer >= %d, got %d" % (lower, value))
        return value
    return parse


def _finite_float(positive):
    def parse(text):
        try:
            value = float(text)
        except ValueError:
            raise argparse.ArgumentTypeError("expected a number, got %r" % text)
        if not math.isfinite(value) or value < 0 or (positive and value == 0):
            raise argparse.ArgumentTypeError(
                "expected a finite number %s 0, got %r" % (">" if positive else ">=", text))
        return value
    return parse


def _add_common(sub, sampling):
    sub.add_argument("function", help="function JSON path, or - for stdin")
    sub.add_argument("-o", "--output", default=None,
                     help="write the JSON result here instead of stdout")
    positive, nonnegative = _finite_float(True), _finite_float(False)
    if sampling:
        sub.add_argument("--seed", type=_int_at_least(0), default=None,
                         help="RNG seed (0 = OS entropy; default: $DARLINGTON_SEED or %d)"
                              % DEFAULT_SEED)
        sub.add_argument("--samples", type=_int_at_least(1), default=200)
        sub.add_argument("--box-radius", type=positive, default=10.0)
        sub.add_argument("--imag-floor", type=positive, default=1e-3,
                         help="smallest sampled imaginary part; must be below --box-radius")
        sub.add_argument("--no-edge-points", action="store_true")
        sub.add_argument("--psd-slack", type=nonnegative, default=1e-8)
        sub.add_argument("--reality-slack", type=nonnegative, default=1e-8)
    sub.add_argument("--den-floor", type=nonnegative, default=1e-12)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="darlington",
        description="Lift rational matrix Herglotz functions to one more variable, "
                    "verify class membership numerically, and realize one-variable "
                    "positive-real functions as lossless 2x2 blocks.",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, fail_code, _, _) in COMMANDS.items():
        _add_common(subs.add_parser(name, help=help_text), sampling=fail_code is not None)
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
    if hasattr(args, "box_radius"):
        if args.imag_floor >= args.box_radius:
            parser.error("--imag-floor (%r) must be below --box-radius (%r)"
                         % (args.imag_floor, args.box_radius))
        if not math.isfinite(2 * args.box_radius):
            # points are drawn uniformly from [-box_radius, box_radius]
            parser.error("--box-radius (%r) is too large" % args.box_radius)
    try:
        return _dispatch(args)
    except FileFormatError as exc:
        _say("error: %s" % exc)
        return EXIT_FORMAT
    except (NotScalar, NotOneVariable, DimensionMismatch) as exc:
        _say("precondition: %s" % exc)
        return EXIT_PRECONDITION
    except ReconstructionMismatch as exc:
        _say("identity failure: %s" % exc)
        return EXIT_IDENTITY
    except (SplitFailed, SingularCayley) as exc:
        _say("class failure: %s" % exc)
        return EXIT_CLASS
    except NearPole as exc:
        _say("near pole: %s" % exc)
        return EXIT_NEAR_POLE


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
