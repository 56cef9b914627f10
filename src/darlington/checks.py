"""Sampling-based class membership and stability verification.

Every check here is a seeded numerical falsifier: it hunts for a
counterexample and reports the worst margin it saw.  A negative margin
always means a violation was found.  "pass" therefore means "no violation
within slack on the sampled set", and the stability checks, which cannot
prove absence of zeros, report "inconclusive" instead of "pass" when they
fail to find one.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from . import linalg
from .lift import _pencil
from .poly import MatrixPoly
from .rational import DEFAULT_SEED, DEN_FLOOR_RTOL, RationalMatrixFunction

ROOT_ABS_RTOL = 1e-10
# a hunted polynomial settles, and stops descending, once a row is below
# RETIRE_RTOL * max|coeff|: a hundred times below the fail threshold, so its
# witness keeps that much room under MatrixPoly.evaluate, which rounds
# differently from the descent
RETIRE_RTOL = 1e-12
COEFF_REAL_RTOL = 1e-12
CAYLEY_COND_LIMIT = 1e12

# the sampled checks evaluate wherever the sample lands: values that
# overflow there are dropped or lose the comparison they enter, so numpy's
# warnings about them would only clutter stderr
_quiet = np.errstate(over="ignore", invalid="ignore", divide="ignore")


class SingularCayley(ArithmeticError):
    """The matrix Cayley transform hit a (numerically) singular pivot."""


def _is_int_at_least(x, lower):
    """Whether x is an integer (a numpy one too, but not a bool) >= lower."""
    return isinstance(x, numbers.Integral) and not isinstance(x, bool) and x >= lower


@dataclass(frozen=True)
class SampleConfig:
    """How test points are drawn.

    count interior points fill the box |Re z_k| <= box_radius with
    imaginary parts log-uniform in [imag_floor, box_radius]; with
    include_edge_points three stress batches of 10 are appended (points at
    the imaginary floor, points on the box walls, points almost on the
    real axis).  Needs integers seed >= 0 and count >= 1, box_radius > 0
    with 2 * box_radius finite, and 0 < imag_floor < box_radius.
    """

    seed: int = DEFAULT_SEED
    count: int = 200
    box_radius: float = 10.0
    imag_floor: float = 1e-3
    include_edge_points: bool = True

    def __post_init__(self):
        for name, lower in (("seed", 0), ("count", 1)):
            if not _is_int_at_least(getattr(self, name), lower):
                raise ValueError("SampleConfig needs an integer %s >= %d, got %r"
                                 % (name, lower, getattr(self, name)))
        r = self.box_radius
        if not (r > 0 and math.isfinite(2 * r)):
            raise ValueError("SampleConfig needs box_radius > 0 with 2 * box_radius finite, "
                             "got %r" % (r,))
        if not 0 < self.imag_floor < r:
            raise ValueError("SampleConfig needs 0 < imag_floor < box_radius (%r), got %r"
                             % (r, self.imag_floor))


@dataclass(frozen=True)
class Tolerances:
    """Slacks and the relative pole floor; each must be finite and >= 0."""

    psd_slack: float = 1e-8
    reality_slack: float = 1e-8
    den_floor: float = DEN_FLOOR_RTOL

    def __post_init__(self):
        for name, value in self.to_dict().items():
            if not (isinstance(value, numbers.Real) and math.isfinite(value) and value >= 0):
                raise ValueError("Tolerances needs a finite %s >= 0, got %r" % (name, value))

    def to_dict(self):
        return {"psd_slack": self.psd_slack, "reality_slack": self.reality_slack,
                "den_floor": self.den_floor}


def _setup(config, tolerances):
    """Defaults for omitted arguments, and the generator seeded from the config."""
    cfg = config or SampleConfig()
    return cfg, tolerances or Tolerances(), np.random.default_rng(cfg.seed)


def _json_float(x):
    x = float(x)
    return x if math.isfinite(x) else None


def _json_point(z):
    return [[float(v.real), float(v.imag)] for v in np.asarray(z).reshape(-1)]


@dataclass(frozen=True)
class CheckReport:
    check: str
    verdict: str  # "pass" | "fail" | "inconclusive"
    samples_used: int
    worst_margin: float
    witness: Optional[dict]
    seed: int
    details: dict = field(default_factory=dict)

    def to_dict(self):
        return {
            "check": self.check,
            "verdict": self.verdict,
            "samples_used": int(self.samples_used),
            "worst_margin": _json_float(self.worst_margin),
            "witness": self.witness,
            "seed": int(self.seed),
            "details": self.details,
        }


# ----------------------------------------------------------------------
# point generation


def _log_uniform(rng, lo, hi, shape):
    return np.exp(rng.uniform(np.log(lo), np.log(hi), shape))


def upper_points(cfg, rng, d):
    """Sample the open upper poly-half-plane."""
    r, fl = cfg.box_radius, cfg.imag_floor
    re = rng.uniform(-r, r, (cfg.count, d))
    im = _log_uniform(rng, fl, r, (cfg.count, d))
    blocks = [re + 1j * im]
    if cfg.include_edge_points:
        blocks.append(rng.uniform(-r, r, (10, d)) + 1j * fl)
        signs = rng.integers(0, 2, (10, d)) * 2 - 1
        blocks.append(signs * r + 1j * _log_uniform(rng, fl, r, (10, d)))
        blocks.append(rng.uniform(-r, r, (10, d)) + 1j * (fl * 1e-3))
    return np.vstack(blocks)


def right_points(cfg, rng, d):
    """Sample the open right poly-half-plane: the upper one turned by -i."""
    return -1j * upper_points(cfg, rng, d)


def real_points(cfg, rng, d):
    r = cfg.box_radius
    blocks = [rng.uniform(-r, r, (cfg.count, d)) + 0j]
    if cfg.include_edge_points:
        signs = rng.integers(0, 2, (10, d)) * 2 - 1
        blocks.append(signs * r + 0j)
    return np.vstack(blocks)


# ----------------------------------------------------------------------
# class membership


def _herm_parts(vals):
    adj = np.conj(np.swapaxes(vals, 1, 2))
    return (vals + adj) / 2.0, (vals - adj) / 2j


POLE_NOTE = "every sample hit the pole floor"
OVERFLOW_NOTE = "every sample hit the pole floor or gave a non-finite margin"


def _kept(pts, vals, ok, margin):
    """The sample rows a verdict rests on, or the note saying why there are none.

    ``margin`` maps the values at the points that clear the pole floor
    (``ok``) to a tuple of per-row arrays, the margin first.  Rows with a
    non-finite margin (a value overflowed) are dropped too: comparisons with
    NaN are false, so they could never fail.  Returns the kept points and
    arrays, or POLE_NOTE / OVERFLOW_NOTE.
    """
    if not ok.any():
        return POLE_NOTE
    cols = margin(vals[ok])
    fin = np.isfinite(cols[0])
    if not fin.any():
        return OVERFLOW_NOTE
    return (pts[ok][fin],) + tuple(c[fin] for c in cols)


def _psd_report(name, part, f, pts, cfg, tols):
    def margin(vals):
        re_h, im_h = _herm_parts(vals)
        return (linalg.hermitian_min_eig_many(im_h if part == "imag" else re_h) + tols.psd_slack,)

    kept = _kept(pts, *f.eval_many(pts, tols.den_floor), margin)
    details = {"points_drawn": int(len(pts)), "tolerances": tols.to_dict()}
    if isinstance(kept, str):
        return CheckReport(name, "inconclusive", 0, float("nan"), None, cfg.seed,
                           dict(details, note=kept))
    kept, margins = kept
    worst = float(margins.min())
    witness = None
    if worst < 0.0:
        k = int(np.argmin(margins))
        witness = {
            "point": _json_point(kept[k]),
            "min_eig": _json_float(margins[k] - tols.psd_slack),
            "part": part,
        }
    return CheckReport(name, "fail" if worst < 0 else "pass", len(margins), worst, witness,
                       cfg.seed, details)


@_quiet
def check_nevanlinna(f, config=None, tolerances=None):
    """Nonnegative imaginary part on the upper poly-half-plane (sampled)."""
    cfg, tols, rng = _setup(config, tolerances)
    pts = upper_points(cfg, rng, f.d)
    return _psd_report("nevanlinna", "imag", f, pts, cfg, tols)


@_quiet
def check_positive_real(f, config=None, tolerances=None):
    """Nonnegative real part on the right poly-half-plane (sampled)."""
    cfg, tols, rng = _setup(config, tolerances)
    pts = right_points(cfg, rng, f.d)
    return _psd_report("positive-real", "real", f, pts, cfg, tols)


@_quiet
def check_cayley_inner(f, config=None, tolerances=None):
    """Upper-half-plane positivity plus vanishing imaginary part on real points."""
    cfg, tols, rng = _setup(config, tolerances)
    interior = _psd_report("nevanlinna", "imag", f, upper_points(cfg, rng, f.d), cfg, tols)

    def margin(vals):
        # the svd raises on NaN: rows with a non-finite value get a NaN margin
        good = np.isfinite(vals).all(axis=(1, 2))
        vals = np.where(good[:, None, None], vals, 0.0)
        norms = np.linalg.svd(vals, compute_uv=False)[:, 0]
        im_norms = np.abs(np.linalg.eigvalsh(_herm_parts(vals)[1])).max(axis=1)
        return np.where(good, tols.reality_slack * (1.0 + norms) - im_norms, np.nan), im_norms

    pts = real_points(cfg, rng, f.d)
    kept = _kept(pts, *f.eval_many(pts, tols.den_floor), margin)
    details = {
        "interior": interior.to_dict(),
        "boundary_points_drawn": int(len(pts)),
        "tolerances": tols.to_dict(),
    }
    inside = interior.worst_margin if interior.verdict != "inconclusive" else np.inf
    if not isinstance(kept, str):
        real_pts, real_margins, im_norms = kept
        boundary, used = float(real_margins.min()), len(real_margins)
    elif inside < np.inf:
        boundary, used = np.inf, 0
    else:
        note = kept if kept == OVERFLOW_NOTE else interior.details["note"]
        return CheckReport("cayley-inner", "inconclusive", 0, float("nan"), None,
                           cfg.seed, dict(details, note=note))
    worst = float(min(inside, boundary))
    witness = None
    if worst < 0.0:
        if boundary <= inside:
            k = int(np.argmin(real_margins))
            witness = {
                "point": _json_point(real_pts[k]),
                "imag_part_norm": _json_float(im_norms[k]),
                "part": "boundary-reality",
            }
        else:
            witness = dict(interior.witness or {}, part="interior-psd")
    return CheckReport("cayley-inner", "fail" if worst < 0 else "pass",
                       interior.samples_used + used, worst, witness, cfg.seed, details)


# ----------------------------------------------------------------------
# stability falsifier


def _scalar_poly(p):
    if not isinstance(p, MatrixPoly) or p.m != 1:
        raise ValueError("stability checks take a scalar polynomial")
    return p


def _values(basis, weights, Z):
    """The (n, j) table ``sum_t weights[r, j, t] * z_r ** e_t`` over the
    rows z_r of Z and the terms e_t of ``basis``'s plan, in one ``monomials``
    pass; ``coeffs[:, None]`` as the weights gives the values."""
    return np.einsum("njt,tn->nj", weights, basis.monomials(Z))


def _descend_to_zero(basis, coeffs, owner, Z, floor, level):
    """Damped Gauss-Newton on |p|^2, batched over rows of (polynomial, start).

    Row r descends on the polynomial ``coeffs[owner[r]]`` (see ``_values``);
    its iterates stay in the open upper poly-half-plane, with imaginary
    parts clipped at ``floor[owner[r]] > 0``.  Each point is valued in one
    ``_values`` pass for p and its Euler terms ``z_k dp/dz_k``, from the
    weights ``c_t * (1, e_t1, ..., e_td)``, so the candidate that a row
    accepts also gives its gradient, and its |p| is carried to the next
    iteration: no z_k of the upper poly-half-plane is 0.  Each iteration
    values at most two batches: the full step of every row, then the steps
    t = 1/2 ... 1/128 together for the rows whose full step moved them
    without lowering |p|; a row takes the first of these that lowers |p|.
    A row stops for good at its first line search that does not lower |p|,
    because its next one would repeat it; retired rows carry a zero step.
    A polynomial settles once any of its rows has |p| below ``level[r]``
    (one level for all rows of a polynomial), tested on the starts and after
    each iteration: every row of it retires then.  All stop after 50
    iterations.  Each row keeps the last iteration in which it was active;
    after the loop these reduce to one count per polynomial.  Returns the
    final rows, their values, and per polynomial the number of iterations in
    which any of its rows was active.
    """
    W = coeffs[:, None] * np.array([(1,) + e for e, _ in basis.ordered_terms()]).T
    w, fl = W[owner], floor[owner, None]
    t = 0.5 ** np.arange(8)[:, None, None]    # step sizes 1, 1/2, ..., 1/128
    Z = Z.copy()
    vals = _values(basis, w, Z)
    av = np.abs(vals[:, 0])
    active = np.ones(len(Z), dtype=bool)
    settled = np.zeros(len(coeffs), dtype=bool)
    alive = np.zeros(len(Z), dtype=np.int64)
    for it in range(1, 51):
        # only rows accepted since the last test can have newly dropped below
        below = active & (av < level)
        if below.any():
            settled[owner[below]] = True
            active &= ~settled[owner]
        if not active.any():
            break
        alive[active] = it
        G = vals[:, 1:] / Z
        gn2 = (np.abs(G) ** 2).sum(axis=1)
        safe = active & (gn2 > 1e-300)
        # retired rows and rows whose gradient vanishes take a zero step;
        # they divide by 1, so the whole-array step raises no warning
        step = -(vals[:, :1] * np.conj(G)) / np.where(safe, gn2, 1.0)[:, None]
        np.copyto(step, 0.0, where=~safe[:, None])
        cand = Z + t[0] * step
        np.maximum(cand.imag, fl, out=cand.imag)
        cv = _values(basis, w, cand)
        acv = np.abs(cv[:, 0])
        better = active & (acv < av)
        np.copyto(Z, cand, where=better[:, None])
        np.copyto(vals, cv, where=better[:, None])
        np.copyto(av, acv, where=better)
        # a full step that lands on the row's own point lands there at every
        # halving too (rounding is monotone), so only the others are tried
        h = np.flatnonzero(active ^ better)
        active = better
        if len(h):
            h = h[(cand[h] != Z[h]).any(axis=1)]
        if not len(h):
            continue
        cand = Z[h] + t[1:] * step[h]
        np.maximum(cand.imag, fl[h], out=cand.imag)
        cv = _values(basis, w[np.tile(h, 7)], cand.reshape(-1, Z.shape[1])).reshape(7, len(h), -1)
        acv = np.abs(cv[:, :, 0])
        better = acv < av[h]
        first, took = better.argmax(axis=0), better.any(axis=0)
        h, first, k = h[took], first[took], np.flatnonzero(took)
        Z[h], vals[h], av[h], active[h] = cand[first, k], cv[first, k], acv[first, k], True
    iterations = np.zeros(len(coeffs), dtype=np.int64)
    np.maximum.at(iterations, owner, alive)
    return Z, vals[:, 0], iterations


def _hunt(d, keys, table, jobs, tols):
    """Reports for the polynomials in d variables whose coefficients at
    ``keys`` are the rows of the (G, T) ``table``: row i's report is named
    ``check`` for ``jobs[i] = (check, cfg, real)``.

    A ``real`` row with non-real coefficients gets _non_real_report; a zero
    row fails; a row in 0 variables is a constant, and inconclusive.  Every
    other row draws its own upper points from cfg's seed and descends from
    the 20 where it is smallest; all of them descend together in one
    ``_descend_to_zero`` call, on a basis of every key.  A key that a row
    lacks weighs 0 in it, so the report of a row does not depend on the
    other rows of the table.
    """
    tolerances = tols.to_dict()

    def details(**extra):
        return dict(tolerances=dict(tolerances), threshold_rtol=ROOT_ABS_RTOL, **extra)

    reports = [None] * len(jobs)
    for i, ((check, cfg, real), row) in enumerate(zip(jobs, table)):
        if real and _imag_coeff_excess(row):
            p = MatrixPoly._from_stack(d, 1, keys, row.reshape(-1, 1, 1).copy())
            reports[i] = _non_real_report(check, p, cfg)
        elif not row.any():
            witness = {"point": _json_point(np.full(d, 1j)), "abs_value": 0.0,
                       "note": "zero polynomial"}
            reports[i] = CheckReport(check, "fail", 1, -1.0, witness, cfg.seed, details())
        elif d == 0:
            reports[i] = CheckReport(check, "inconclusive", 1, float(abs(row[0])),
                                     None, cfg.seed, details(note="constant polynomial"))
    hunted = [i for i, rep in enumerate(reports) if rep is None]
    if not hunted:
        return reports

    basis = MatrixPoly._from_stack(d, 1, keys, np.ones((len(keys), 1, 1), dtype=np.complex128))
    # coeffs[g, j]: the g-th hunted row's coefficient at the j-th term of basis's plan
    coeffs = table[np.ix_(hunted, basis._grlex_order())]
    cfgs = [jobs[i][1] for i in hunted]
    pts = [upper_points(cfg, np.random.default_rng(cfg.seed), d) for cfg in cfgs]
    sizes = [len(x) for x in pts]
    vals = np.abs(_values(basis, np.repeat(coeffs, sizes, axis=0)[:, None], np.vstack(pts))[:, 0])
    starts = [x[np.argsort(v)[:20]] for x, v in zip(pts, np.split(vals, np.cumsum(sizes)[:-1]))]
    owner = np.repeat(np.arange(len(hunted)), [len(x) for x in starts])
    floor = np.array([cfg.imag_floor * 0.5 for cfg in cfgs])
    scale = np.abs(coeffs).max(axis=1)
    Z, best, iterations = _descend_to_zero(basis, coeffs, owner, np.vstack(starts), floor,
                                           RETIRE_RTOL * scale[owner])

    for g, i in enumerate(hunted):
        check, cfg, _ = jobs[i]
        rows = np.flatnonzero(owner == g)
        k = rows[int(np.argmin(np.abs(best[rows])))]
        best_val = abs(best[k])
        margin = float(best_val - ROOT_ABS_RTOL * scale[g])
        info = details(refined_abs_value=_json_float(best_val),
                       descent_iterations=int(iterations[g]))
        if margin < 0.0:
            witness = {"point": _json_point(Z[k]), "abs_value": _json_float(best_val)}
            reports[i] = CheckReport(check, "fail", sizes[g], margin, witness, cfg.seed, info)
        else:
            reports[i] = CheckReport(
                check, "inconclusive", sizes[g], margin, None, cfg.seed,
                dict(info, note="no zero found; sampling cannot prove stability"))
    return reports


@_quiet
def check_stable(p, config=None, tolerances=None):
    """Hunt for a zero of p in the open upper poly-half-plane.

    verdict "fail" means a zero was found (witness included); since sampling
    cannot certify absence of zeros, the alternative is "inconclusive",
    never "pass".
    """
    p = _scalar_poly(p)
    return _hunt(p.d, list(p.terms), p._coeffs[None, :, 0, 0],
                 [("stable", config or SampleConfig(), False)], tolerances or Tolerances())[0]


def _imag_coeff_excess(coeffs):
    """The largest imaginary part in the complex array ``coeffs`` (a
    polynomial's stack or a row of the hunt's table), when it exceeds
    COEFF_REAL_RTOL times the largest magnitude there; 0.0 otherwise."""
    worst = float(np.abs(coeffs.imag).max(initial=0.0))
    return worst if worst > COEFF_REAL_RTOL * max(np.abs(coeffs).max(initial=0.0), 1e-300) else 0.0


def _non_real_report(check, p, cfg):
    """The report named ``check`` for a p with non-real coefficients: a fail,
    or inconclusive when every value at the real points overflows.  The
    real points are drawn from a generator seeded with ``cfg.seed``."""
    # witness: a real point where the imaginary part is re-evaluably large
    pts = real_points(cfg, np.random.default_rng(cfg.seed), p.d)
    kept = _kept(pts, p.evaluate_many(pts), np.ones(len(pts), dtype=bool),
                 lambda vals: (-np.abs(vals[:, 0, 0].imag),))
    details = {"imag_coeff_max": _json_float(_imag_coeff_excess(p._coeffs))}
    if isinstance(kept, str):
        return CheckReport(check, "inconclusive", 0, float("nan"), None, cfg.seed,
                           dict(details, note=kept))
    kept, margins = kept
    k = int(np.argmin(margins))
    witness = {
        "point": _json_point(kept[k]),
        "imag_value": _json_float(-margins[k]),
        "part": "non-real-coefficients",
    }
    return CheckReport(check, "fail", len(margins), float(margins[k]), witness,
                       cfg.seed, details)


@_quiet
def check_real_stable(p, config=None, tolerances=None):
    """Real coefficients plus no zero in the open upper poly-half-plane."""
    p = _scalar_poly(p)
    return _hunt(p.d, list(p.terms), p._coeffs[None, :, 0, 0],
                 [("real-stable", config or SampleConfig(), True)], tolerances or Tolerances())[0]


# ----------------------------------------------------------------------
# equivalence probes for pairs (p, q)


def _scalar_pair(p, q, real):
    """p and q as scalar polynomials in the same variables; with ``real``,
    both must have real coefficients."""
    p, q = _scalar_poly(p), _scalar_poly(q)
    if p.d != q.d:
        raise ValueError("p and q must share the variable count")
    for r, name in ((p, "p"), (q, "q")):
        if real and _imag_coeff_excess(r._coeffs):
            raise ValueError("%s must have real coefficients" % name)
    return p, q


@_quiet
def pencil_probe(p, q, config=None, tolerances=None):
    """Real-stability falsifier for p + z_new * q in one extra variable."""
    p, q = _scalar_pair(p, q, real=True)
    pencil = _pencil(q, p)
    return _hunt(pencil.d, list(pencil.terms), pencil._coeffs[None, :, 0, 0],
                 [("pencil-real-stable", config or SampleConfig(), True)],
                 tolerances or Tolerances())[0]


@dataclass(frozen=True)
class PencilProbe:
    """Three falsification routes for the same stability question.

    combined: zeros of p + i q in d variables; pencil: real-stability of
    p + z_new q in d+1 variables; members: real-stability of the rotations
    cos(t) p + sin(t) q.  consistent is True when the three routes agree
    on whether a counterexample exists (the member route can legitimately
    disagree for pairs whose orientation makes only one reading true, so
    disagreement is reported, not raised).
    """

    combined: CheckReport
    pencil: CheckReport
    members_falsified: int
    members_checked: int
    member_witness: Optional[dict]
    seed: int

    @property
    def combined_falsified(self):
        return self.combined.verdict == "fail"

    @property
    def pencil_falsified(self):
        return self.pencil.verdict == "fail"

    @property
    def any_member_falsified(self):
        return self.members_falsified > 0

    @property
    def consistent(self):
        return self.combined_falsified == self.pencil_falsified == self.any_member_falsified

    def to_dict(self):
        return {
            "combined": self.combined.to_dict(),
            "pencil": self.pencil.to_dict(),
            "members_falsified": int(self.members_falsified),
            "members_checked": int(self.members_checked),
            "member_witness": self.member_witness,
            "consistent": bool(self.consistent),
            "seed": int(self.seed),
        }


@_quiet
def lemma11_probe(p, q, config=None, tolerances=None, members=50):
    """Probe the equivalence between combined-zero freeness, pencil
    real-stability and member real-stability for a real pair (p, q).

    The combined polynomial and the members are hunted in one batched
    descent, each with its own seed and point set, as rows of one table
    aligned on p's keys, then q's new ones.  A member whose coefficients are
    all at most 1e-14 times the pair's largest is skipped.
    """
    if not _is_int_at_least(members, 0):
        raise ValueError("members must be an integer >= 0, got %r" % (members,))
    p, q = _scalar_pair(p, q, real=True)
    cfg, tols, rng = _setup(config, tolerances)
    pencil = pencil_probe(p, q, cfg, tols)

    member_cfg_count = max(40, cfg.count // 4)
    scale = max(p.max_coeff_magnitude(), q.max_coeff_magnitude(), 1e-300)
    drawn = rng.uniform(0.0, np.pi, members)
    keys, stack = MatrixPoly._aligned([p, q])
    P, Q = stack[:, :, 0, 0]
    table = np.vstack((P + Q * 1j, np.cos(drawn)[:, None] * P + np.sin(drawn)[:, None] * Q))
    kept = np.flatnonzero(np.abs(table[1:]).max(axis=1, initial=0.0) > 1e-14 * scale)
    thetas = drawn[kept]
    jobs = [("combined-stable", cfg, False)]
    jobs += [("real-stable", replace(cfg, seed=int(rng.integers(2**31 - 1)),
                                     count=member_cfg_count), True) for _ in kept]

    combined, *reports = _hunt(p.d, keys, table[np.r_[0, kept + 1]], jobs, tols)
    fails = [(theta, rep) for theta, rep in zip(thetas, reports) if rep.verdict == "fail"]
    member_witness = dict(fails[0][1].witness or {}, theta=float(fails[0][0])) if fails else None
    return PencilProbe(combined, pencil, len(fails), len(thetas), member_witness, cfg.seed)


@_quiet
def lemma12_probe(p, q, config=None, tolerances=None):
    """Sign-definiteness of Im(p/q) on the upper poly-half-plane.

    A real-stable pencil p + z_new q forces the ratio to move the upper
    half-plane one way only; a strongly mixed sign pattern falsifies that.
    Points where Im(p/q) is not finite are dropped, as in the class checks.
    """
    p, q = _scalar_pair(p, q, real=False)
    if q.is_zero():
        raise ValueError("q must be nonzero to form the ratio p/q")
    cfg, tols, rng = _setup(config, tolerances)
    pts = upper_points(cfg, rng, p.d)
    kept = _kept(pts, *RationalMatrixFunction(p, q).eval_many(pts, tols.den_floor),
                 lambda vals: (vals[:, 0, 0].imag,))
    details = {"points_drawn": int(len(pts)), "reality_slack": tols.reality_slack}
    if isinstance(kept, str):
        return CheckReport("ratio-sign-definite", "inconclusive", 0, float("nan"),
                           None, cfg.seed, dict(details, note=kept))
    kept, im = kept
    lo, hi = float(im.min()), float(im.max())
    mixed = min(-lo, hi)
    margin = tols.reality_slack - mixed
    witness = None
    if margin < 0.0:
        witness = {
            "point_min": _json_point(kept[int(np.argmin(im))]),
            "point_max": _json_point(kept[int(np.argmax(im))]),
            "imag_min": _json_float(lo),
            "imag_max": _json_float(hi),
        }
    details.update(imag_min=_json_float(lo), imag_max=_json_float(hi))
    return CheckReport("ratio-sign-definite", "fail" if margin < 0 else "pass",
                       len(im), float(margin), witness, cfg.seed, details)


# ----------------------------------------------------------------------
# double Cayley transform


def disk_to_upper(w):
    """Coordinatewise disk-to-upper-half-plane map z = i (1 + w) / (1 - w)."""
    w = np.asarray(w, dtype=np.complex128)
    if np.any(np.abs(1.0 - w) < 1e-12):
        raise SingularCayley("disk point touches 1, the boundary fixed point")
    return 1j * (1.0 + w) / (1.0 - w)


def upper_to_disk(z):
    """Coordinatewise inverse w = (z - i) / (z + i)."""
    z = np.asarray(z, dtype=np.complex128)
    if np.any(np.abs(z + 1j) < 1e-12):
        raise SingularCayley("point touches -i, the pole of the disk map")
    return (z - 1j) / (z + 1j)


def double_cayley_eval(f, w, den_floor_rtol=DEN_FLOOR_RTOL):
    """Value of the disk-side contraction (F - iI)(F + iI)^{-1} at a disk point w.

    Upper-half-plane positivity of f makes the result contractive; raises
    SingularCayley when the pivot F + iI is numerically singular.
    """
    w = np.asarray(w, dtype=np.complex128).reshape(-1)
    z = disk_to_upper(w)
    F = f.eval(z, den_floor_rtol)
    eye = np.eye(f.m)
    pivot = F + 1j * eye
    s = np.linalg.svd(pivot, compute_uv=False)
    if s[-1] <= 0.0 or s[0] / s[-1] > CAYLEY_COND_LIMIT:
        raise SingularCayley("F + iI has condition number beyond %g" % CAYLEY_COND_LIMIT)
    return (F - 1j * eye) @ np.linalg.inv(pivot)
