"""Quadrature, root finding, special functions, and sampling primitives.

The closed-form outage expressions reduce every remaining integral to a
fixed-order Gauss-Chebyshev (first kind) sum, so the rule used by the
analysis and the one validated in tests are the same object.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.special


@dataclass(frozen=True)
class QuadratureRule:
    """Gauss-Chebyshev rule of the first kind, mapped to a generic interval.

    Nodes are cos((2m-1)pi/(2M)) on (-1, 1); the weights already absorb the
    sqrt(1 - nu^2) factor that converts the Chebyshev weight into a plain
    integral, so integrate_gc needs no extra terms.  build() makes one rule
    per order, its nodes and weights tuples of Python floats, and hands the
    same object to every later caller.
    """

    order: int
    nodes: tuple    # reference nodes on (-1, 1), descending
    weights: tuple  # pi/(2M) * sqrt(1 - nu_m^2)

    @classmethod
    def build(cls, order: int) -> "QuadratureRule":
        if isinstance(order, bool) or not (isinstance(order, (int, np.integer)) and order >= 1):
            raise ValueError("quadrature order must be an integer >= 1")
        order = int(order)
        rule = _RULES.get(order)
        if rule is None:
            m = np.arange(1, order + 1)
            nodes = np.cos((2.0 * m - 1.0) * np.pi / (2.0 * order))
            weights = np.pi / (2.0 * order) * np.sqrt(1.0 - nodes ** 2)
            rule = _RULES[order] = cls(order=order, nodes=tuple(nodes.tolist()),
                                       weights=tuple(weights.tolist()))
        return rule


_RULES: dict[int, QuadratureRule] = {}


def integrate_gc(rule: QuadratureRule, a: float, b: float,
                 f: Callable[[float], float]) -> float:
    """Approximate the integral of f over [a, b] with the given rule.

    A degenerate interval integrates to exactly 0; a reversed one is an
    error rather than a silent sign flip.  rule is normally the one cached
    rule of its order from QuadratureRule.build.  Its nodes and weights are
    Python floats, which give the IEEE results of np.float64 scalars at
    about half the cost: f is called with floats, and a float-valued f
    gives a float.
    """
    if not (math.isfinite(a) and math.isfinite(b)):
        raise ValueError("integration bounds must be finite")
    if a > b:
        raise ValueError("integration bounds must satisfy a <= b")
    if a == b:
        return 0.0
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    total = 0.0
    for nu, w in zip(rule.nodes, rule.weights):
        total += w * f(half * nu + mid)
    return (b - a) * total


def _brentq(f: Callable[[float], float], lo: float, hi: float, f_lo: float,
            f_hi: float, xtol: float, rtol: float, maxiter: int) -> float:
    """Root of f between lo and hi by Brent's method (Brent, 1973).

    A line-by-line port of the C loop behind scipy.optimize.brentq: with
    f_lo = f(lo) and f_hi = f(hi) it returns the same root, bit for bit,
    without evaluating f at either end again.  A zero divisor in the step
    formula bisects, as the IEEE inf or NaN it yields in C fails the step
    test there.  ValueError for a NaN value of f or ends of one sign;
    RuntimeError when maxiter iterations do not converge.
    """
    xpre, xcur, fpre, fcur = lo, hi, f_lo, f_hi
    if math.isnan(fpre) or math.isnan(fcur):
        raise ValueError("f is NaN at a bracket end; solver cannot continue")
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if (fpre < 0.0) == (fcur < 0.0):
        raise ValueError("f(lo) and f(hi) must have different signs")
    xblk = fblk = spre = scur = 0.0
    for _ in range(maxiter):
        if fpre != 0.0 and fcur != 0.0 and (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur

        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur

        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:
                if xpre == xblk:
                    # interpolate
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:
                    # extrapolate
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = -fcur * (fblk * dblk - fpre * dpre) \
                        / (dblk * dpre * (fblk - fpre))
            except ZeroDivisionError:
                stry = math.nan
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                # good short step
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis

        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = f(xcur)
        if math.isnan(fcur):
            raise ValueError(f"f is NaN at x={xcur!r}; solver cannot continue")
    raise RuntimeError(f"failed to converge after {maxiter} iterations, "
                       f"value is {xcur!r}")


def bessel_k1(x: float) -> float:
    """Modified Bessel function of the second kind, order one.

    Valid for x > 0.  Beyond x of roughly 700 the value underflows to 0,
    which is the correct value of the deep left tail of cdf_t3, its caller.
    """
    if not x > 0.0:
        raise ValueError("bessel_k1 requires x > 0")
    return float(scipy.special.k1(x))


def sample_exponential(rng: np.random.Generator, mean: float, size,
                       out: np.ndarray | None = None) -> np.ndarray:
    """Draw an array of exponential variates by inversion from rng.random().

    Inversion keeps the draw count per trial fixed at one uniform, which is
    what makes sharded Monte Carlo runs bit-reproducible.  log1p keeps
    accuracy for small uniforms, and u in [0, 1) keeps the result finite.
    size is the integer count of draws; out, a float64 array of that
    length, receives them if given.
    """
    if not mean > 0.0:
        raise ValueError("mean must be strictly positive")
    if not isinstance(size, (int, np.integer)):
        raise ValueError(f"size must be an integer count of draws, got {size!r}")
    u = rng.random(size, out=out)
    # Same bits as -mean * np.log1p(-u), without two sample-sized temporaries.
    np.negative(u, out=u)
    np.log1p(u, out=u)
    u *= -mean
    return u
