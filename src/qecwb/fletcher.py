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
from typing import NamedTuple, Sequence

from .linalg import real_rate

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
GOLDEN_STEPS = 200  # golden-section contractions numeric_optimum makes at most
GOLDEN_WIDTH = 1e-12  # interval width at which numeric_optimum stops contracting
RADIUS_SLACK = 1e-12  # FletcherParams accepts a radius up to 1 + this
_LINEAR_SCALE = 4.0 * math.sqrt(2.0)


class _FletcherFields(NamedTuple):
    a_re: float
    a_im: float
    b_re: float
    b_im: float


class FletcherParams(_FletcherFields):
    """Real/imaginary decomposition of the recovery parameters (a, b).

    ``radius`` is the Euclidean norm of the four real coordinates; a valid
    trace-preserving recovery has radius 1.
    """

    __slots__ = ()

    def __new__(cls, a_re: float, a_im: float, b_re: float, b_im: float):
        self = super().__new__(cls, a_re, a_im, b_re, b_im)
        if not self.radius <= 1.0 + RADIUS_SLACK:
            raise ValueError("radius must not exceed 1")
        return self

    @classmethod
    def _make(cls, iterable) -> "FletcherParams":  # so _replace checks the radius too
        return cls(*iterable)

    @property
    def radius(self) -> float:
        return math.sqrt(self.a_re**2 + self.a_im**2 + self.b_re**2 + self.b_im**2)

    @classmethod
    def from_complex(cls, a: complex, b: complex) -> "FletcherParams":
        a, b = complex(a), complex(b)
        return cls(a.real, a.imag, b.real, b.imag)


class Optimum(NamedTuple):
    a_bar: float
    b_bar: float
    f_star: float


def base_fidelity(gamma: float) -> float:
    """The parameter-independent part F0 of the adapted-recovery fidelity."""
    gamma = _check_damping(gamma)
    c = 1.0 - gamma
    return 0.25 * (
        (1.0 + c**4) / 2.0
        + c**2
        + 2.0 * gamma * c * (2.0 - gamma) ** 2
        + 2.0 * gamma**2 * c**2
        + gamma**4 / 2.0
    )


def _check_damping(gamma: float) -> float:
    """``gamma`` as a Python float (``real_rate``); ``ValueError`` unless it lies in [0, 1)."""
    gamma = real_rate(gamma)
    if not 0.0 <= gamma < 1.0:
        raise ValueError("damping rate must lie in [0, 1)")
    return gamma


def _linear_term(a_re: float, b_re: float, c: float, c3: float) -> float:
    """[2 Re(a) c + 2 Re(b) c**3] / (4 sqrt(2)), given c = 1 - gamma and c3 = c**3."""
    return (2.0 * a_re * c + 2.0 * b_re * c3) / _LINEAR_SCALE


def fletcher_fidelity_closed(params: FletcherParams, gamma: float) -> float:
    """Closed-form adapted-recovery fidelity F0 + linear term in Re(a), Re(b).

    Only the real parts enter; the imaginary parts of (a, b) drop out of the
    fidelity entirely.  For radius-1 parameters this equals the full
    matrix-trace evaluation of the ten-operator recovery; ``FletcherParams``
    has checked the radius on construction.
    """
    c = 1.0 - _check_damping(gamma)
    return base_fidelity(gamma) + _linear_term(params.a_re, params.b_re, c, c**3)


def closed_form_optimum(gamma: float) -> Optimum:
    """Analytic maximizer over the unit sphere: real positive (a, b)."""
    gamma = _check_damping(gamma)
    c = 1.0 - gamma
    c2 = c**2
    scale = math.sqrt(1.0 + c2 * c2)
    a_bar = 1.0 / scale
    b_bar = c2 / scale
    # fletcher_fidelity_closed of the unit vector just built, without re-checking its radius
    return Optimum(a_bar, b_bar, base_fidelity(gamma) + _linear_term(a_bar, b_bar, c, c**3))


def numeric_optimum(gamma: float) -> Optimum:
    """Golden-section maximization over the angle in the real quadrant.

    Parametrizes (Re a, Re b) = (cos t, sin t) on [0, pi/2] with imaginary
    parts zero; the interval contracts by the golden ratio ``GOLDEN_STEPS``
    times (or until it reaches ``GOLDEN_WIDTH``).  Near the maximum the objective
    is flat to within rounding, which limits pure interval contraction to
    ~sqrt(eps) in the angle, so a final three-point parabolic step on a wide
    stencil pins the vertex down to ~1e-12.
    """
    gamma = _check_damping(gamma)
    f0, damped, damped3 = base_fidelity(gamma), 2.0 * (1.0 - gamma), 2.0 * (1.0 - gamma) ** 3
    cos, sin = math.cos, math.sin

    def score(theta: float) -> float:
        # _linear_term(cos, sin, 1 - gamma, (1 - gamma)**3) inlined, its exact 2.0 folded in
        return f0 + (cos(theta) * damped + sin(theta) * damped3) / _LINEAR_SCALE

    lo, hi = 0.0, math.pi / 2.0
    c = hi - GOLDEN * (hi - lo)
    d = lo + GOLDEN * (hi - lo)
    fc, fd = score(c), score(d)
    for _ in range(GOLDEN_STEPS):
        if hi - lo < GOLDEN_WIDTH:
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
    the allowed radius.  The imaginary parts, which do not enter the
    fidelity, can fill the rest of the unit sphere; they are left at zero.
    """
    gamma = _check_damping(gamma)
    c2 = (1.0 - gamma) ** 2
    scale = math.sqrt(1.0 + c2 * c2)
    out = []
    for r in map(real_rate, radii):
        if not 0.0 < r <= 1.0:
            raise ValueError("radii must lie in (0, 1]")
        params = FletcherParams(r / scale, 0.0, r * c2 / scale, 0.0)
        out.append((r, fletcher_fidelity_closed(params, gamma)))
    return out
