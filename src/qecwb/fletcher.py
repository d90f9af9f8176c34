"""Closed-form and numeric optimization of the channel-adapted recovery.

For the four-qubit code under amplitude damping, the fidelity of the
two-parameter recovery splits into a parameter-free part plus a term linear
in the real parts of (a, b):

    F(a, b, gamma) = F0(gamma) + [2 Re(a) (1-g) + 2 Re(b) (1-g)**3] / (4 sqrt(2)),

so the maximum over |a|**2 + |b|**2 = 1 lies at real positive parameters and
has an explicit closed form.  A golden-section search over the angle
parametrizing the real quadrant provides an independent cross-check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class FletcherParams:
    """Real/imaginary decomposition of the recovery parameters (a, b).

    ``radius`` is the Euclidean norm of the four real coordinates; a valid
    trace-preserving recovery has radius 1.
    """

    a_re: float
    a_im: float
    b_re: float
    b_im: float

    def __post_init__(self):
        if self.radius > 1.0 + 1e-12:
            raise ValueError("radius must not exceed 1")

    @property
    def radius(self) -> float:
        return math.sqrt(self.a_re**2 + self.a_im**2 + self.b_re**2 + self.b_im**2)

    @classmethod
    def from_complex(cls, a: complex, b: complex) -> "FletcherParams":
        a, b = complex(a), complex(b)
        return cls(a.real, a.imag, b.real, b.imag)


@dataclass(frozen=True)
class Optimum:
    a_bar: float
    b_bar: float
    f_star: float


def base_fidelity(gamma: float) -> float:
    """The parameter-independent part F0 of the adapted-recovery fidelity."""
    c = 1.0 - gamma
    return 0.25 * (
        (1.0 + c**4) / 2.0
        + c**2
        + 2.0 * gamma * c * (2.0 - gamma) ** 2
        + 2.0 * gamma**2 * c**2
        + gamma**4 / 2.0
    )


def fletcher_fidelity_closed(params: FletcherParams, gamma: float) -> float:
    """Closed-form adapted-recovery fidelity F0 + linear term in Re(a), Re(b).

    Only the real parts enter; the imaginary parts of (a, b) drop out of the
    fidelity entirely.  For radius-1 parameters this equals the full
    matrix-trace evaluation of the ten-operator recovery.
    """
    if params.radius > 1.0 + 1e-12:
        raise ValueError("parameter norm exceeds the unit sphere")
    c = 1.0 - gamma
    linear = (2.0 * params.a_re * c + 2.0 * params.b_re * c**3) / (4.0 * math.sqrt(2.0))
    return base_fidelity(gamma) + linear


def closed_form_optimum(gamma: float) -> Optimum:
    """Analytic maximizer over the unit sphere: real positive (a, b)."""
    if not 0.0 <= gamma < 1.0:
        raise ValueError("damping rate must lie in [0, 1)")
    c2 = (1.0 - gamma) ** 2
    scale = math.sqrt(1.0 + c2 * c2)
    a_bar = 1.0 / scale
    b_bar = c2 / scale
    f_star = fletcher_fidelity_closed(FletcherParams(a_bar, 0.0, b_bar, 0.0), gamma)
    return Optimum(a_bar, b_bar, f_star)


def numeric_optimum(gamma: float, resolution: int = 200) -> Optimum:
    """Golden-section maximization over the angle in the real quadrant.

    Parametrizes (Re a, Re b) = (cos t, sin t) on [0, pi/2] with imaginary
    parts zero; the interval contracts by the golden ratio ``resolution``
    times (or until it reaches 1e-12 width).  Near the maximum the objective
    is flat to within rounding, which limits pure interval contraction to
    ~sqrt(eps) in the angle, so a final three-point parabolic step on a wide
    stencil pins the vertex down to ~1e-12.
    """
    if resolution < 100:
        raise ValueError("resolution must be at least 100")

    def score(theta: float) -> float:
        p = FletcherParams(math.cos(theta), 0.0, math.sin(theta), 0.0)
        return fletcher_fidelity_closed(p, gamma)

    lo, hi = 0.0, math.pi / 2.0
    c = hi - GOLDEN * (hi - lo)
    d = lo + GOLDEN * (hi - lo)
    fc, fd = score(c), score(d)
    for _ in range(resolution):
        if hi - lo < 1e-12:
            break
        if fc < fd:
            lo, c, fc = c, d, fd
            d = lo + GOLDEN * (hi - lo)
            fd = score(d)
        else:
            hi, d, fd = d, c, fc
            c = hi - GOLDEN * (hi - lo)
            fc = score(c)
    theta = 0.5 * (lo + hi)
    step = 1e-4
    center = min(max(theta, step), math.pi / 2.0 - step)
    left, middle, right = score(center - step), score(center), score(center + step)
    curvature = left - 2.0 * middle + right
    if curvature < 0.0:
        theta = center + 0.5 * step * (left - right) / curvature
    return Optimum(math.cos(theta), math.sin(theta), score(theta))


def radius_sweep(gamma: float, radii: Sequence[float]) -> list[tuple[float, float]]:
    """Best fidelity when the real parts are confined to radius r <= 1.

    The optimizer direction is unchanged, (r, r(1-gamma)**2) up to norm, and
    the linear gain scales with r, so the optimum increases strictly with
    the allowed radius; the remaining weight sits in the (inert) imaginary
    parts, keeping the recovery trace preserving.
    """
    c2 = (1.0 - gamma) ** 2
    scale = math.sqrt(1.0 + c2 * c2)
    out = []
    for r in radii:
        if not 0.0 < r <= 1.0:
            raise ValueError("radii must lie in (0, 1]")
        a_r = r / scale
        b_r = r * c2 / scale
        pad = math.sqrt(max(1.0 - r * r, 0.0))
        params = FletcherParams(a_r, pad, b_r, 0.0)
        out.append((float(r), fletcher_fidelity_closed(params, gamma)))
    return out
