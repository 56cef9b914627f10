"""The sampling configuration and tolerances, without numpy, so that the
command line can refuse a bad argument before numpy loads."""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass

DEFAULT_SEED = 0xDA71
DEN_FLOOR_RTOL = 1e-12


def _is_int_at_least(x, lower):
    """Whether x is an integer (a numpy one too, but not a bool) >= lower."""
    return isinstance(x, numbers.Integral) and not isinstance(x, bool) and x >= lower


def _is_real(x):
    """Whether x is a real number (a numpy one too, but not a bool)."""
    return isinstance(x, numbers.Real) and not isinstance(x, bool)


@dataclass(frozen=True)
class SampleConfig:
    """How test points are drawn.

    count interior points fill the box |Re z_k| <= box_radius with
    imaginary parts log-uniform in [imag_floor, box_radius]; with
    include_edge_points three stress batches of 10 are appended (points at
    the imaginary floor, points on the box walls, points almost on the
    real axis).  Needs integers seed >= 0 and count >= 1, real numbers
    box_radius > 0 with 2 * box_radius finite and 0 < imag_floor <
    box_radius, and a bool (a numpy one too) include_edge_points.
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
        if not (_is_real(r) and r > 0 and math.isfinite(2 * r)):
            raise ValueError("SampleConfig needs box_radius > 0 with 2 * box_radius finite, "
                             "got %r" % (r,))
        if not (_is_real(self.imag_floor) and 0 < self.imag_floor < r):
            raise ValueError("SampleConfig needs 0 < imag_floor < box_radius (%r), got %r"
                             % (r, self.imag_floor))
        np = sys.modules.get("numpy")  # a numpy bool exists only once numpy is loaded
        if not isinstance(self.include_edge_points, (bool, np.bool_) if np else bool):
            raise ValueError("SampleConfig needs a bool include_edge_points, got %r"
                             % (self.include_edge_points,))


@dataclass(frozen=True)
class Tolerances:
    """Slacks and the relative pole floor; each must be finite and >= 0."""

    psd_slack: float = 1e-8
    reality_slack: float = 1e-8
    den_floor: float = DEN_FLOOR_RTOL

    def __post_init__(self):
        for name, value in self.to_dict().items():
            if not (_is_real(value) and math.isfinite(value) and value >= 0):
                raise ValueError("Tolerances needs a finite %s >= 0, got %r" % (name, value))

    def to_dict(self):
        return {"psd_slack": self.psd_slack, "reality_slack": self.reality_slack,
                "den_floor": self.den_floor}
