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
from dataclasses import dataclass, field, replace
from functools import lru_cache
from typing import Optional

import numpy as np

from . import linalg
from .config import DEN_FLOOR_RTOL, SampleConfig, Tolerances, _is_int_at_least
from .fileio import json_pairs
from .lift import _pencil
from .poly import MatrixPoly, _quiet
from .rational import RationalMatrixFunction, _imag_coeff_excess

ROOT_ABS_RTOL = 1e-10
# a hunted polynomial settles, and stops descending, once a row is below
# RETIRE_RTOL * max|coeff|: a hundred times below the fail threshold, so its
# witness keeps that much room under MatrixPoly.evaluate, which rounds
# differently from the descent
RETIRE_RTOL = 1e-12
# a descending row retires once its last FORECAST_WINDOW steps forecast that
# it stays above FORECAST_MARGIN times the fail threshold (_on_course)
FORECAST_WINDOW = 3
FORECAST_MARGIN = 1e3
CAYLEY_COND_LIMIT = 1e12
# point sets kept by _points; at the default count, one set in d variables
# holds 230 * d complex numbers, 3.7 kB per variable
POINT_CACHE_SIZE = 128


class SingularCayley(ArithmeticError):
    """The matrix Cayley transform hit a (numerically) singular pivot."""


def _setup(config, tolerances):
    """Defaults for omitted arguments."""
    return config or SampleConfig(), tolerances or Tolerances()


def _json_float(x):
    x = float(x)
    return x if math.isfinite(x) else None


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


def real_points(cfg, rng, d):
    r = cfg.box_radius
    blocks = [rng.uniform(-r, r, (cfg.count, d)) + 0j]
    if cfg.include_edge_points:
        signs = rng.integers(0, 2, (10, d)) * 2 - 1
        blocks.append(signs * r + 0j)
    return np.vstack(blocks)


def _points(cfg, d, halves):
    """What a generator seeded with ``cfg.seed`` draws in d variables for the
    last of ``halves`` after the others: upper_points for "upper", real_points
    for "real".  Read-only and memoized; the key holds each field's type too,
    as equal configs with 0.5 and np.float32(0.5) draw different points."""
    return _drawn(cfg, tuple(map(type, vars(cfg).values())), d, halves)


@lru_cache(maxsize=POINT_CACHE_SIZE)
def _drawn(cfg, types, d, halves):
    rng = np.random.default_rng(cfg.seed)
    for half in halves:
        pts = (upper_points if half == "upper" else real_points)(cfg, rng, d)
    pts.flags.writeable = False
    return pts


# ----------------------------------------------------------------------
# class membership


def _herm_part(vals, part):
    """The Hermitian real part of each matrix in ``vals`` when ``part`` is
    "real", its Hermitian imaginary part when it is "imag"."""
    # halving first keeps every finite entry finite: (vals + adj) / 2 would
    # overflow above about 9e307
    h = vals / 2.0
    adj = np.conj(np.swapaxes(h, 1, 2))
    return h + adj if part == "real" else (h - adj) / 1j


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


def _sampled_report(name, kept, seed, details, witness, clean="pass"):
    """The report named ``name`` on ``_kept``'s result: inconclusive with
    its note, else "fail" when the worst margin is negative and ``clean``
    otherwise.  A "fail" carries the row of the worst margin as its witness:
    the point, and ``witness(margin, *cols)`` of the other columns."""
    if isinstance(kept, str):
        return CheckReport(name, "inconclusive", 0, float("nan"), None, seed,
                           dict(details, note=kept))
    pts, margins, *cols = kept
    worst = float(margins.min())
    verdict = "fail" if worst < 0 else clean
    found = None
    if verdict == "fail":
        k = int(np.argmin(margins))
        found = dict(witness(margins[k], *(c[k] for c in cols)), point=json_pairs(pts[k]))
    return CheckReport(name, verdict, len(margins), worst, found, seed, details)


def _psd_report(name, part, f, pts, cfg, tols):
    def margin(vals):
        # only the minimum, its first row and the finite rows are read, which
        # is what the screen keeps exact
        return (linalg.screened_min_eigs(_herm_part(vals, part)) + tols.psd_slack,)

    kept = _kept(pts, *f.eval_many(pts, tols.den_floor), margin)
    return _sampled_report(name, kept, cfg.seed,
                           {"points_drawn": int(len(pts)), "tolerances": tols.to_dict()},
                           lambda m: {"min_eig": _json_float(m - tols.psd_slack), "part": part})


@_quiet
def check_nevanlinna(f, config=None, tolerances=None):
    """Nonnegative imaginary part on the upper poly-half-plane (sampled)."""
    cfg, tols = _setup(config, tolerances)
    return _psd_report("nevanlinna", "imag", f, _points(cfg, f.d, ("upper",)), cfg, tols)


@_quiet
def check_positive_real(f, config=None, tolerances=None):
    """Nonnegative real part on the right poly-half-plane (sampled)."""
    cfg, tols = _setup(config, tolerances)
    # the right poly-half-plane is the upper one turned by -i
    pts = -1j * _points(cfg, f.d, ("upper",))
    return _psd_report("positive-real", "real", f, pts, cfg, tols)


EXACT_BOUNDARY = "exact: hermitian numerator, real denominator"


def _boundary_kept(f, pts, tols):
    """``_kept``'s rows on the real points ``pts``: the margin
    ``reality_slack * (1 + ||F||_2) - ||Im F||_2``, then ``||Im F||_2``."""
    def margin(vals):
        # ||F||_2 is the root of the largest eigenvalue of F^H F.  F is first
        # divided by a power of two near its largest entry, which is exact,
        # so F^H F cannot overflow where F does not.  einsum, not matmul:
        # reports must not depend on the BLAS thread count.
        scale = np.ldexp(0.5, np.frexp(np.abs(vals).max(axis=(1, 2)))[1])
        g = vals / scale[:, None, None]
        norms = scale * np.sqrt(linalg.hermitian_extreme_eigs(
            np.einsum("nki,nkj->nij", g.conj(), g))[1])
        lo, hi = linalg.hermitian_extreme_eigs(_herm_part(vals, "imag"))
        im_norms = np.maximum(np.abs(lo), np.abs(hi))
        return tols.reality_slack * (1.0 + norms) - im_norms, im_norms

    return _kept(pts, *f.eval_many(pts, tols.den_floor), margin)


@_quiet
def check_cayley_inner(f, config=None, tolerances=None):
    """Upper-half-plane positivity plus vanishing imaginary part on real points.

    The interior is sampled.  The boundary is exact when the numerator has
    Hermitian and the denominator real coefficients, as a lift's do: F is
    then Hermitian at every real point where it is finite, so no real point
    is drawn.  Otherwise the boundary is sampled too.
    """
    cfg, tols = _setup(config, tolerances)
    interior = _psd_report("nevanlinna", "imag", f, _points(cfg, f.d, ("upper",)), cfg, tols)
    inside = replace(interior, check="cayley-inner", witness=interior.witness and dict(
        interior.witness, part="interior-psd"))
    if f.num.has_hermitian_coeffs() and f.den.has_real_coeffs():
        details = {"interior": interior.to_dict(), "boundary": EXACT_BOUNDARY,
                   "boundary_points_drawn": 0, "tolerances": tols.to_dict()}
        if "note" in interior.details:  # the interior is inconclusive
            details["note"] = interior.details["note"]
        return replace(inside, details=details)
    pts = _points(cfg, f.d, ("upper", "real"))
    kept = _boundary_kept(f, pts, tols)
    details = {
        "interior": interior.to_dict(),
        "boundary_points_drawn": int(len(pts)),
        "tolerances": tols.to_dict(),
    }
    boundary = _sampled_report("cayley-inner", kept, cfg.seed, details, lambda m, im: {
        "imag_part_norm": _json_float(im), "part": "boundary-reality"})
    # the half with the smaller margin decides, the boundary on a tie; an
    # inconclusive half has none
    within, edge = (np.inf if rep.verdict == "inconclusive" else rep.worst_margin
                    for rep in (interior, boundary))
    worse = boundary if edge <= within else inside
    if worse.verdict == "inconclusive":  # both halves are; an overflow note wins
        details = dict(details, note=interior.details["note"] if kept == POLE_NOTE else kept)
    return replace(worse, details=details,
                   samples_used=interior.samples_used + boundary.samples_used)


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


def _on_course(av, ratios, it, reach):
    """Whether each row, at |p| = ``av`` after its step in iteration ``it``,
    is forecast to reach ``reach`` by iteration 50.  Each of the n = 50 - it
    steps left is forecast to shrink |p| by r, the smallest of the row's last
    FORECAST_WINDOW ratios |p_new|/|p_old| (``ratios[:, i % FORECAST_WINDOW]``
    is the one of iteration i), and the k-th of them by a further g**k, with
    ``g = min(1, newest ratio / the one before)``: |p| ends near
    ``av * r**n * g**(n (n + 1) / 2)``.  Near an m-fold zero the ratios settle
    near (m - 1)/m and g near 1; a start that leaves a plateau for a zero's
    basin speeds up, and g keeps it going.  A ratio not yet taken counts as 0.
    """
    n = 50 - it
    new, old = ratios[:, it % FORECAST_WINDOW], ratios[:, (it - 1) % FORECAST_WINDOW]
    gain = np.minimum(1.0, new / np.where(old > 0, old, 1.0))
    return av * ratios.min(axis=1) ** n * gain ** (n * (n + 1) // 2) <= reach


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
    each iteration: every row of it retires then.  A row that accepts a
    step also retires on its new point when ``_on_course`` says that its
    recent rate cannot bring it within ``FORECAST_MARGIN`` times the fail
    threshold ``ROOT_ABS_RTOL * max|coeff|`` by the cap.  All stop after 50
    iterations.  Each row keeps the last iteration in which it was active;
    after the loop these reduce to one count per polynomial.  Returns the
    final rows, their values, and per polynomial the number of iterations in
    which any of its rows was active.
    """
    W = coeffs[:, None] * np.array([(1,) + e for e, _ in basis.ordered_terms()]).T
    w, fl = W[owner], floor[owner, None]
    reach = FORECAST_MARGIN * ROOT_ABS_RTOL * np.abs(coeffs).max(axis=1)[owner]
    t = 0.5 ** np.arange(8)[:, None, None]    # step sizes 1, 1/2, ..., 1/128
    Z = Z.copy()
    vals = _values(basis, w, Z)
    av = np.abs(vals[:, 0])
    active = np.ones(len(Z), dtype=bool)
    settled = np.zeros(len(coeffs), dtype=bool)
    alive = np.zeros(len(Z), dtype=np.int64)
    # ratios[r, i % FORECAST_WINDOW]: row r's ratio in iteration i; every
    # row still active has accepted a step in every iteration so far
    ratios = np.zeros((len(Z), FORECAST_WINDOW))
    for it in range(1, 51):
        # only rows accepted since the last test can have newly dropped below
        below = active & (av < level)
        if below.any():
            settled[owner[below]] = True
            active &= ~settled[owner]
        if not active.any():
            break
        alive[active] = it
        before = av.copy()
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
        if len(h):
            cand = Z[h] + t[1:] * step[h]
            np.maximum(cand.imag, fl[h], out=cand.imag)
            cv = _values(basis, w[np.tile(h, 7)],
                         cand.reshape(-1, Z.shape[1])).reshape(7, len(h), -1)
            acv = np.abs(cv[:, :, 0])
            better = acv < av[h]
            first, took = better.argmax(axis=0), better.any(axis=0)
            h, first, k = h[took], first[took], np.flatnonzero(took)
            Z[h], vals[h], av[h], active[h] = cand[first, k], cv[first, k], acv[first, k], True
        # the accepted rows, each with a finite |p| below the one before;
        # none is off course before it has FORECAST_WINDOW ratios
        a = np.flatnonzero(active)
        ratios[a, it % FORECAST_WINDOW] = av[a] / before[a]
        if it >= FORECAST_WINDOW:
            active[a] = _on_course(av[a], ratios[a], it, reach[a])
    iterations = np.zeros(len(coeffs), dtype=np.int64)
    np.maximum.at(iterations, owner, alive)
    return Z, vals[:, 0], iterations


def _lifted_roots(c, floor):
    """The roots of ``sum_k c[k] z^(n-k)``, each lifted onto the imaginary
    floor the descent clips to, ``Re r + i max(Im r, floor)``: an (r, 1)
    array.  Leading zeros are dropped first, and so is each leading
    coefficient that a later one exceeds by a factor beyond the largest
    double, as np.roots's companion matrix would overflow: the roots it
    stands for lie where z^n overflows too, so p could not be valued there.
    With every coefficient but the last dropped, there is no root.
    """
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        ratios = c / c[:, None]     # [j, k]: c_k / c_j
    first = ((c != 0) & np.isfinite(np.triu(ratios, 1)).all(axis=1)).argmax()
    r = np.roots(c[first:])
    return (r.real + 1j * np.maximum(r.imag, floor))[:, None]


def _hunt(d, keys, table, jobs, tols):
    """Reports for the polynomials in d variables whose coefficients at
    ``keys`` are the rows of the (G, T) ``table``: row i's report is named
    ``check`` for ``jobs[i] = (check, cfg, real)``.

    A ``real`` row with non-real coefficients gets _non_real_report; a zero
    row fails; a row in 0 variables is a constant, and inconclusive.  In one
    variable every other row's candidates are its own roots, lifted onto
    its floor (``_lifted_roots``), and the one of smallest |p| decides: no
    point is drawn and nothing descends.  A row with no root is a constant
    c as far as floating point goes, and |p| = |c| = max|coeff|.  In d >= 2
    variables every other row draws its own upper points from cfg's seed
    and descends from the 20 where it is smallest; all of them descend
    together in one ``_descend_to_zero`` call, on a basis of every key.  A
    start stops once its polynomial settles below RETIRE_RTOL, its line
    search fails, or its own rate cannot bring it near the fail threshold by
    the cap (``_on_course``); ``descent_iterations`` counts the iterations
    in which any start of the row still descended.  A key that a row lacks
    weighs 0 in it, so the report of a row does not depend on the other rows
    of the table.
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
            witness = {"point": json_pairs(np.full(d, 1j)), "abs_value": 0.0,
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
    floor = np.array([cfg.imag_floor * 0.5 for cfg in cfgs])
    if d == 1:
        exps = np.array(keys)[:, 0]
        dense = np.zeros((len(hunted), exps.max() + 1), dtype=np.complex128)
        dense[:, exps.max() - exps] = table[hunted]    # highest power first
        pts = [_lifted_roots(c, fl) for c, fl in zip(dense, floor)]
    else:
        pts = [_points(cfg, d, ("upper",)) for cfg in cfgs]
    sizes = [len(x) for x in pts]
    Z = np.vstack(pts)
    vals = np.abs(_values(basis, np.repeat(coeffs, sizes, axis=0)[:, None], Z)[:, 0])
    scale = np.abs(coeffs).max(axis=1)
    if d == 1:
        # the candidates decide as they are; one whose value overflowed never does
        owner = np.repeat(np.arange(len(hunted)), sizes)
        best, iterations = np.fmin(vals, np.inf), np.zeros(len(hunted), int)
    else:
        starts = [x[np.argsort(v)[:20]] for x, v in zip(pts, np.split(vals, np.cumsum(sizes)[:-1]))]
        owner = np.repeat(np.arange(len(hunted)), [len(x) for x in starts])
        Z, best, iterations = _descend_to_zero(basis, coeffs, owner, np.vstack(starts), floor,
                                               RETIRE_RTOL * scale[owner])

    for g, i in enumerate(hunted):
        check, cfg, _ = jobs[i]
        rows = np.flatnonzero(owner == g)
        k = rows[int(np.argmin(np.abs(best[rows])))] if len(rows) else None
        best_val = scale[g] if k is None else abs(best[k])
        margin = float(best_val - ROOT_ABS_RTOL * scale[g])
        info = details(refined_abs_value=_json_float(best_val),
                       descent_iterations=int(iterations[g]))
        if margin < 0.0:
            witness = {"point": json_pairs(Z[k]), "abs_value": _json_float(best_val)}
            reports[i] = CheckReport(check, "fail", sizes[g], margin, witness, cfg.seed, info)
        else:
            reports[i] = CheckReport(
                check, "inconclusive", sizes[g], margin, None, cfg.seed,
                dict(info, note="no zero found; sampling cannot prove stability"))
    return reports


def _hunt_one(check, p, config, tolerances, real):
    """_hunt's report named ``check`` for the one scalar polynomial p."""
    p = _scalar_poly(p)
    return _hunt(p.d, list(p.terms), p._coeffs[None, :, 0, 0],
                 [(check, config or SampleConfig(), real)], tolerances or Tolerances())[0]


@_quiet
def check_stable(p, config=None, tolerances=None):
    """Hunt for a zero of p in the open upper poly-half-plane.

    verdict "fail" means a zero was found (witness included); since sampling
    cannot certify absence of zeros, the alternative is "inconclusive",
    never "pass".
    """
    return _hunt_one("stable", p, config, tolerances, False)


def _non_real_report(check, p, cfg):
    """The report named ``check`` for a p with non-real coefficients: a fail,
    or inconclusive when every value at the real points overflows."""
    # witness: a real point where the imaginary part is re-evaluably large
    pts = _points(cfg, p.d, ("real",))
    kept = _kept(pts, p.evaluate_many(pts), np.ones(len(pts), dtype=bool),
                 lambda vals: (-np.abs(vals[:, 0, 0].imag),))
    return _sampled_report(check, kept, cfg.seed,
                           {"imag_coeff_max": _json_float(_imag_coeff_excess(p._coeffs))},
                           lambda m: {"imag_value": _json_float(-m),
                                      "part": "non-real-coefficients"},
                           clean="fail")


@_quiet
def check_real_stable(p, config=None, tolerances=None):
    """Real coefficients plus no zero in the open upper poly-half-plane."""
    return _hunt_one("real-stable", p, config, tolerances, True)


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
    return _hunt_one("pencil-real-stable", _pencil(q, p), config, tolerances, True)


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

    The combined polynomial and the members are hunted in one ``_hunt``
    batch, each with its own seed and point set, as rows of one table
    aligned on p's keys, then q's new ones.  A member whose coefficients are
    all at most 1e-14 times the pair's largest is skipped.
    """
    if not _is_int_at_least(members, 0):
        raise ValueError("members must be an integer >= 0, got %r" % (members,))
    p, q = _scalar_pair(p, q, real=True)
    cfg, tols = _setup(config, tolerances)
    rng = np.random.default_rng(cfg.seed)
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
    cfg, tols = _setup(config, tolerances)
    pts = _points(cfg, p.d, ("upper",))
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
            "point_min": json_pairs(kept[int(np.argmin(im))]),
            "point_max": json_pairs(kept[int(np.argmax(im))]),
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
    if not np.linalg.cond(pivot) <= CAYLEY_COND_LIMIT:  # inf when singular
        raise SingularCayley("F + iI has condition number beyond %g" % CAYLEY_COND_LIMIT)
    return (F - 1j * eye) @ np.linalg.inv(pivot)
