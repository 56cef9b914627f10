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
from typing import Optional

import numpy as np

from . import linalg
from .poly import MatrixPoly
from .rational import RationalMatrixFunction

__all__ = [
    "DEFAULT_SEED",
    "SampleConfig",
    "Tolerances",
    "CheckReport",
    "PencilProbe",
    "SingularCayley",
    "check_nevanlinna",
    "check_cayley_inner",
    "check_positive_real",
    "check_stable",
    "check_real_stable",
    "pencil_probe",
    "lemma11_probe",
    "lemma12_probe",
    "double_cayley_eval",
    "disk_to_upper",
    "upper_to_disk",
]

DEFAULT_SEED = 0xDA71
ROOT_ABS_RTOL = 1e-10
COEFF_REAL_RTOL = 1e-12
CAYLEY_COND_LIMIT = 1e12

# the sampled checks evaluate wherever the sample lands: values that
# overflow there are dropped or lose the comparison they enter, so numpy's
# warnings about them would only clutter stderr
_quiet = np.errstate(over="ignore", invalid="ignore", divide="ignore")


class SingularCayley(ArithmeticError):
    """The matrix Cayley transform hit a (numerically) singular pivot."""


@dataclass(frozen=True)
class SampleConfig:
    """How test points are drawn.

    count interior points fill the box |Re z_k| <= box_radius with
    imaginary parts log-uniform in [imag_floor, box_radius]; with
    include_edge_points three stress batches of 10 are appended (points at
    the imaginary floor, points on the box walls, points almost on the
    real axis).
    """

    seed: int = DEFAULT_SEED
    count: int = 200
    box_radius: float = 10.0
    imag_floor: float = 1e-3
    include_edge_points: bool = True


@dataclass(frozen=True)
class Tolerances:
    psd_slack: float = 1e-8
    reality_slack: float = 1e-8
    den_floor: float = 1e-12

    def to_dict(self):
        return {
            "psd_slack": self.psd_slack,
            "reality_slack": self.reality_slack,
            "den_floor": self.den_floor,
        }


def _setup(config, tolerances):
    """Defaults for omitted arguments, and the generator seeded from the config."""
    cfg = config or SampleConfig()
    return cfg, tolerances or Tolerances(), np.random.default_rng(cfg.seed)


def _json_float(x):
    x = float(x)
    return x if math.isfinite(x) else None


def _json_point(z):
    return [[float(v.real), float(v.imag)] for v in np.asarray(z).reshape(-1)]


@dataclass
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
    """Sample the open right poly-half-plane."""
    r, fl = cfg.box_radius, cfg.imag_floor
    x = _log_uniform(rng, fl, r, (cfg.count, d))
    y = rng.uniform(-r, r, (cfg.count, d))
    blocks = [x + 1j * y]
    if cfg.include_edge_points:
        blocks.append(fl + 1j * rng.uniform(-r, r, (10, d)))
        signs = rng.integers(0, 2, (10, d)) * 2 - 1
        blocks.append(_log_uniform(rng, fl, r, (10, d)) + 1j * signs * r)
        blocks.append(fl * 1e-3 + 1j * rng.uniform(-r, r, (10, d)))
    return np.vstack(blocks)


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


def _psd_margins(f, pts, part, tols):
    """Margins at the points that clear the pole floor; None if there are none.

    A point whose margin is not finite (the value overflowed) is dropped
    too: comparisons with NaN are false, so it could never fail.
    """
    vals, ok = f.eval_many(pts, tols.den_floor)
    if not ok.any():
        return None, None
    re_h, im_h = _herm_parts(vals[ok])
    sel = im_h if part == "imag" else re_h
    margins = linalg.hermitian_min_eig_many(sel) + tols.psd_slack
    fin = np.isfinite(margins)
    return margins[fin], pts[ok][fin]


def _psd_report(name, part, f, pts, cfg, tols):
    margins, kept = _psd_margins(f, pts, part, tols)
    details = {"points_drawn": int(len(pts)), "tolerances": tols.to_dict()}
    if margins is None or not len(margins):
        note = POLE_NOTE if margins is None else OVERFLOW_NOTE
        return CheckReport(name, "inconclusive", 0, float("nan"), None, cfg.seed,
                           dict(details, note=note))
    used = len(margins)
    worst = float(margins.min())
    witness = None
    if worst < 0.0:
        k = int(np.argmin(margins))
        witness = {
            "point": _json_point(kept[k]),
            "min_eig": _json_float(margins[k] - tols.psd_slack),
            "part": part,
        }
    return CheckReport(name, "fail" if worst < 0 else "pass", used, worst, witness,
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

    pts = real_points(cfg, rng, f.d)
    vals, ok = f.eval_many(pts, tols.den_floor)
    details = {
        "interior": interior.to_dict(),
        "boundary_points_drawn": int(len(pts)),
        "tolerances": tols.to_dict(),
    }
    # non-finite margins are dropped as in _psd_margins; non-finite values
    # go first, because the svd raises on NaN
    keep = ok & np.isfinite(vals).all(axis=(1, 2))
    real_margins = np.empty(0)
    if keep.any():
        kept, real_pts = vals[keep], pts[keep]
        _, im_h = _herm_parts(kept)
        norms = np.linalg.svd(kept, compute_uv=False)[:, 0]
        im_norms = np.abs(np.linalg.eigvalsh(im_h)).max(axis=1)
        real_margins = tols.reality_slack * (1.0 + norms) - im_norms
        fin = np.isfinite(real_margins)
        real_margins, im_norms, real_pts = real_margins[fin], im_norms[fin], real_pts[fin]
    used = len(real_margins)
    if used == 0 and interior.verdict == "inconclusive":
        note = interior.details["note"] if not ok.any() else OVERFLOW_NOTE
        return CheckReport("cayley-inner", "inconclusive", 0, float("nan"), None,
                           cfg.seed, dict(details, note=note))
    worst_real = float(real_margins.min()) if used else float("inf")

    candidates = []
    if interior.verdict != "inconclusive":
        candidates.append(interior.worst_margin)
    if used:
        candidates.append(worst_real)
    worst = float(min(candidates))
    witness = None
    if worst < 0.0:
        if used and worst_real <= (interior.worst_margin if interior.verdict != "inconclusive" else np.inf):
            k = int(np.argmin(real_margins))
            witness = {
                "point": _json_point(real_pts[k]),
                "imag_part_norm": _json_float(im_norms[k]),
                "part": "boundary-reality",
            }
        else:
            witness = dict(interior.witness or {}, part="interior-psd")
    samples = interior.samples_used + used
    return CheckReport("cayley-inner", "fail" if worst < 0 else "pass", samples,
                       worst, witness, cfg.seed, details)


# ----------------------------------------------------------------------
# stability falsifier


def _scalar_poly(p):
    if not isinstance(p, MatrixPoly) or p.m != 1:
        raise ValueError("stability checks take a scalar polynomial")
    return p


def _values(basis, coeffs, Z, partials=False):
    """Values at the rows of Z of one polynomial per row, given as its row
    of ``coeffs`` over the terms of ``basis``'s plan; with ``partials``, the
    (n, d) gradients too.
    """
    if not partials:
        return np.einsum("nt,tn->n", coeffs, basis.monomials(Z))
    mono, grad = basis.monomials(Z, partials=True)
    return np.einsum("nt,tn->n", coeffs, mono), np.einsum("nt,ktn->nk", coeffs, grad)


def _descend_to_zero(basis, coeffs, owner, Z, floor):
    """Damped Gauss-Newton on |p|^2, batched over rows of (polynomial, start).

    Row r descends on the polynomial ``coeffs[owner[r]]`` (see ``_values``);
    its iterates stay in the open upper poly-half-plane, with imaginary
    parts clipped at ``floor[owner[r]]``.  Each step tries 8 halvings, and a
    row stops trying once it improved.  A polynomial's rows stop together
    after the first of at most 50 iterations in which none of them improved.
    Returns the final rows and their values.
    """
    Z = Z.copy()
    vals = _values(basis, coeffs[owner], Z)
    live = np.ones(len(coeffs), dtype=bool)
    for _ in range(50):
        rows = np.flatnonzero(live[owner])
        if not len(rows):
            break
        own, z, v = owner[rows], Z[rows], vals[rows]
        c = coeffs[own]
        _, G = _values(basis, c, z, partials=True)
        gn2 = (np.abs(G) ** 2).sum(axis=1)
        safe = gn2 > 1e-300
        step = np.zeros_like(G)
        step[safe] = -(v[safe, None] * np.conj(G[safe])) / gn2[safe, None]
        t, av, fl = np.ones(len(rows)), np.abs(v), floor[own, None]
        improved = np.zeros(len(live), dtype=bool)
        for _ in range(8):
            cand = z + t[:, None] * step
            np.maximum(cand.imag, fl, out=cand.imag)
            cv = _values(basis, c, cand)
            better = np.abs(cv) < av
            if better.any():
                done = rows[better]
                Z[done], vals[done] = cand[better], cv[better]
                improved[own[better]] = True
                keep = ~better
                if not keep.any():
                    break
                rows, own, z, c, step, t, av, fl = (
                    a[keep] for a in (rows, own, z, c, step, t, av, fl))
            t = t * 0.5
        live &= improved
    return Z, vals


def _hunt(jobs, tols):
    """check_stable's reports for (polynomial, config) jobs in one variable count.

    Each polynomial draws its own upper points from its config's seed and
    descends from the 20 where it is smallest; the rows of all polynomials
    descend together in one ``_descend_to_zero`` call.
    """
    def details(**extra):
        return dict(tolerances=tols.to_dict(), threshold_rtol=ROOT_ABS_RTOL, **extra)

    reports = [None] * len(jobs)
    for i, (p, cfg) in enumerate(jobs):
        if p.is_zero():
            pt = np.full(p.d, 1j) if p.d else np.zeros(0)
            witness = {"point": _json_point(pt), "abs_value": 0.0, "note": "zero polynomial"}
            reports[i] = CheckReport("stable", "fail", 1, -1.0, witness, cfg.seed, details())
        elif p.d == 0:
            reports[i] = CheckReport("stable", "inconclusive", 1, float(abs(p.evaluate([])[0, 0])),
                                     None, cfg.seed, details(note="constant polynomial"))
    hunted = [i for i, rep in enumerate(reports) if rep is None]
    if not hunted:
        return reports

    polys, cfgs = zip(*(jobs[i] for i in hunted))
    d = polys[0].d
    basis = MatrixPoly(d, 1, {e: 1.0 for p in polys for e in p.terms})
    coeffs = np.array([[p.terms[e][0, 0] if e in p.terms else 0.0 for e, _ in basis.ordered_terms()]
                       for p in polys], dtype=np.complex128)
    pts = [upper_points(cfg, np.random.default_rng(cfg.seed), d) for cfg in cfgs]
    sizes = [len(x) for x in pts]
    vals = np.abs(_values(basis, np.repeat(coeffs, sizes, axis=0), np.vstack(pts)))
    starts = [x[np.argsort(v)[:20]] for x, v in zip(pts, np.split(vals, np.cumsum(sizes)[:-1]))]
    owner = np.repeat(np.arange(len(polys)), [len(x) for x in starts])
    floor = np.array([cfg.imag_floor * 0.5 for cfg in cfgs])
    Z, best = _descend_to_zero(basis, coeffs, owner, np.vstack(starts), floor)

    for g, (i, p, cfg) in enumerate(zip(hunted, polys, cfgs)):
        rows = np.flatnonzero(owner == g)
        k = rows[int(np.argmin(np.abs(best[rows])))]
        best_val = abs(best[k])
        margin = float(best_val - ROOT_ABS_RTOL * p.max_coeff_magnitude())
        if margin < 0.0:
            witness = {"point": _json_point(Z[k]), "abs_value": _json_float(best_val)}
            reports[i] = CheckReport("stable", "fail", sizes[g], margin, witness, cfg.seed,
                                     details(refined_abs_value=_json_float(best_val)))
        else:
            reports[i] = CheckReport(
                "stable", "inconclusive", sizes[g], margin, None, cfg.seed,
                details(refined_abs_value=_json_float(best_val),
                        note="no zero found; sampling cannot prove stability"))
    return reports


@_quiet
def check_stable(p, config=None, tolerances=None):
    """Hunt for a zero of p in the open upper poly-half-plane.

    verdict "fail" means a zero was found (witness included); since sampling
    cannot certify absence of zeros, the alternative is "inconclusive",
    never "pass".
    """
    p = _scalar_poly(p)
    cfg, tols, _ = _setup(config, tolerances)
    return _hunt([(p, cfg)], tols)[0]


def _non_real_report(p, cfg, rng):
    """check_real_stable's failing report when p has non-real coefficients, else None."""
    scale = p.max_coeff_magnitude()
    imag_excess = max(
        (float(np.abs(a.imag).max()) for a in p.terms.values()), default=0.0
    )
    if imag_excess <= COEFF_REAL_RTOL * max(scale, 1e-300):
        return None
    # witness: a real point where the imaginary part is re-evaluably large
    pts = real_points(cfg, rng, p.d)
    imvals = np.abs(p.evaluate_many(pts)[:, 0, 0].imag)
    k = int(np.argmax(imvals))
    witness = {
        "point": _json_point(pts[k]),
        "imag_value": _json_float(imvals[k]),
        "part": "non-real-coefficients",
    }
    return CheckReport("real-stable", "fail", len(pts), float(-imvals[k]), witness,
                       cfg.seed, {"imag_coeff_max": _json_float(imag_excess)})


@_quiet
def check_real_stable(p, config=None, tolerances=None):
    """Real coefficients plus no zero in the open upper poly-half-plane."""
    p = _scalar_poly(p)
    cfg, tols, rng = _setup(config, tolerances)
    rep = _non_real_report(p, cfg, rng) or check_stable(p, cfg, tols)
    rep.check = "real-stable"
    return rep


# ----------------------------------------------------------------------
# equivalence probes for pairs (p, q)


def _real_scalar_pair(p, q):
    p, q = _scalar_poly(p), _scalar_poly(q)
    if p.d != q.d:
        raise ValueError("p and q must share the variable count")
    for r, name in ((p, "p"), (q, "q")):
        scale = max(r.max_coeff_magnitude(), 1e-300)
        worst = max((float(np.abs(a.imag).max()) for a in r.terms.values()), default=0.0)
        if worst > COEFF_REAL_RTOL * scale:
            raise ValueError("%s must have real coefficients" % name)
    return p, q


def pencil_probe(p, q, config=None, tolerances=None):
    """Real-stability falsifier for p + z_new * q in one extra variable."""
    p, q = _real_scalar_pair(p, q)
    d = p.d
    pencil = p.append_variable() + MatrixPoly.variable(d + 1, d) * q.append_variable()
    rep = check_real_stable(pencil, config, tolerances)
    rep.check = "pencil-real-stable"
    return rep


@dataclass
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

    The combined polynomial and every member with real coefficients are
    hunted in one batched descent, each with its own seed and point set.
    """
    p, q = _real_scalar_pair(p, q)
    cfg, tols, rng = _setup(config, tolerances)
    pencil = pencil_probe(p, q, cfg, tols)

    thetas = rng.uniform(0.0, np.pi, members)
    member_cfg_count = max(40, cfg.count // 4)
    scale = max(p.max_coeff_magnitude(), q.max_coeff_magnitude(), 1e-300)
    jobs = [(p + q.scaled(1j), cfg)]
    checked = []  # (theta, its non-real report, or None if it joins the hunt)
    for theta in thetas:
        member = p.scaled(float(np.cos(theta))) + q.scaled(float(np.sin(theta)))
        if member.max_coeff_magnitude() <= 1e-14 * scale:
            continue
        sub_cfg = replace(cfg, seed=int(rng.integers(2**31 - 1)), count=member_cfg_count)
        rep = _non_real_report(member, sub_cfg, np.random.default_rng(sub_cfg.seed))
        if rep is None:
            jobs.append((member, sub_cfg))
        checked.append((theta, rep))

    hunted = iter(_hunt(jobs, tols))
    combined = next(hunted)
    combined.check = "combined-stable"
    falsified = 0
    member_witness = None
    for theta, rep in checked:
        rep = rep or next(hunted)
        if rep.verdict == "fail":
            falsified += 1
            if member_witness is None:
                member_witness = dict(rep.witness or {}, theta=float(theta))
    return PencilProbe(combined, pencil, falsified, len(checked), member_witness, cfg.seed)


@_quiet
def lemma12_probe(p, q, config=None, tolerances=None):
    """Sign-definiteness of Im(p/q) on the upper poly-half-plane.

    A real-stable pencil p + z_new q forces the ratio to move the upper
    half-plane one way only; a strongly mixed sign pattern falsifies that.
    Points where Im(p/q) is not finite are dropped, as in the class checks.
    """
    p, q = _scalar_poly(p), _scalar_poly(q)
    if p.d != q.d:
        raise ValueError("p and q must share the variable count")
    if q.is_zero():
        raise ValueError("q must be nonzero to form the ratio p/q")
    cfg, tols, rng = _setup(config, tolerances)
    pts = upper_points(cfg, rng, p.d)
    f = RationalMatrixFunction(p, q)
    vals, ok = f.eval_many(pts, tols.den_floor)
    details = {"points_drawn": int(len(pts)), "reality_slack": tols.reality_slack}
    im = vals[ok][:, 0, 0].imag
    fin = np.isfinite(im)
    im, kept = im[fin], pts[ok][fin]
    if not len(im):
        note = POLE_NOTE if not ok.any() else OVERFLOW_NOTE
        return CheckReport("ratio-sign-definite", "inconclusive", 0, float("nan"),
                           None, cfg.seed, dict(details, note=note))
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


def double_cayley_eval(f, w, den_floor_rtol=1e-12):
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
