"""Quadrature, root finding, special functions, and sampling primitives.

The closed-form outage expressions reduce every remaining integral to a
fixed-order Gauss-Chebyshev (first kind) sum, so the rule used by the
analysis and the one validated in tests are the same object.  The one
scalar K1, bessel_k1, is scipy.special.cython_special.k1, which runs the
cephes routine of the scipy.special.k1 ufunc without its dispatch.  The
root finder is the improved form's t3 quantile solver: it evaluates the t3
CDF z*K1(z) in its own loop, so that a step makes no Python call but K1's.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.special import cython_special


@dataclass(frozen=True)
class QuadratureRule:
    """Gauss-Chebyshev rule of the first kind, mapped to a generic interval.

    Nodes are cos((2m-1)pi/(2M)) on (-1, 1); the weights already absorb the
    sqrt(1 - nu^2) factor that converts the Chebyshev weight into a plain
    integral, so integrate_gc needs no extra terms.  build() makes one rule
    per order, its nodes and weights tuples of Python floats, and hands the
    same object to every later caller.  The order is SystemParams.quad_order,
    which SystemParams has checked to be an integer >= 1.
    """

    order: int
    nodes: tuple    # reference nodes on (-1, 1), descending
    weights: tuple  # pi/(2M) * sqrt(1 - nu_m^2)

    @classmethod
    def build(cls, order: int) -> "QuadratureRule":
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

    a and b are finite with a <= b, as in the one caller's [0, v_max]; a
    degenerate interval integrates to exactly 0.  rule is normally the one
    cached rule of its order from QuadratureRule.build.  Its nodes and
    weights are Python floats, which give the IEEE results of np.float64
    scalars at about half the cost: f is called with floats, and a
    float-valued f gives a float.
    """
    if a == b:
        return 0.0
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    total = 0.0
    for nu, w in zip(rule.nodes, rule.weights):
        total += w * f(half * nu + mid)
    return (b - a) * total


def _brentq(lam_ab: float, k1: Callable[[float], float], target: float,
            lo: float, hi: float, f_lo: float, f_hi: float) -> float:
    """The t between lo and hi at which the t3 CDF z*k1(z), with
    z = sqrt(4/(lam_ab*t)), equals target, by Brent's method (Brent, 1973).

    The solver of outage._quantile_t3, whose t3 formula, outage._cdf_t3, it
    evaluates in its loop with the same operations, so that a step costs no
    Python call but k1's.  A port of the C loop behind scipy.optimize.brentq
    at xtol=1e-30, rtol=1e-15 and maxiter=200: with f_lo and f_hi the CDF at
    lo and hi it returns scipy's root of that CDF minus target, bit for bit,
    without evaluating it at either end again.  It does the C loop's IEEE
    operations in the same order, forming each |.| once.  The bracket holds
    f_lo - target <= 0 < f_hi - target with the CDF finite on it, so scipy's
    NaN and sign checks, which it cannot fail, are left out.  A zero divisor
    in the step formula bisects, as the IEEE inf or NaN it yields in C fails
    the step test there.  At these tolerances every step moves x, so only
    the formula's last divisor, den, can be 0.  RuntimeError after 200
    iterations.
    """
    sqrt = math.sqrt
    xpre, xcur, fpre, fcur = lo, hi, f_lo - target, f_hi - target
    if fpre == 0.0:
        return xpre
    xblk = fblk = spre = scur = 0.0
    # |fpre|, |fblk|, |spre| and |scur| travel with their values.
    a_pre = abs(fpre)
    a_blk = a_spre = a_scur = 0.0
    for _ in range(200):
        a_cur = abs(fcur)
        # C also requires fpre != 0 and fcur != 0 here.  fpre never is 0, and
        # where fcur is, the loop returns xcur below whatever this sets.
        if (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk, a_blk = xpre, fpre, a_pre
            spre = scur = xcur - xpre
            a_spre = a_scur = abs(spre)
        if a_blk < a_cur:
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
            a_pre, a_cur, a_blk = a_cur, a_blk, a_cur

        delta = (1e-30 + 1e-15 * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        a_sbis = abs(sbis)
        if fcur == 0.0 or a_sbis < delta:
            return xcur

        if a_spre > delta and a_cur < a_pre:
            if xpre == xblk:
                # interpolate
                num = -fcur * (xcur - xpre)
                den = fcur - fpre
            else:
                # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                num = -fcur * (fblk * dblk - fpre * dpre)
                den = dblk * dpre * (fblk - fpre)
            lim = 3 * a_sbis - delta    # C's MIN(|spre|, lim) below
            if den and 2 * (a_try := abs(stry := num / den)) \
                    < (a_spre if a_spre < lim else lim):
                # good short step
                spre, scur = scur, stry
                a_spre, a_scur = a_scur, a_try
            else:
                spre = scur = sbis
                a_spre = a_scur = a_sbis
        else:
            spre = scur = sbis
            a_spre = a_scur = a_sbis

        xpre, fpre, a_pre = xcur, fcur, a_cur
        if a_scur > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        z = sqrt(4.0 / (lam_ab * xcur))
        fcur = z * k1(z) - target
    raise RuntimeError(f"failed to converge after 200 iterations, value is {xcur!r}")


# The one scalar K1: float(scipy.special.k1(x)) bit for bit, at about half
# the ufunc's scalar cost; cdf_t3 and the solver read it from here when called.
bessel_k1 = cython_special.k1


def sample_exponential(rng: np.random.Generator, mean: float,
                       out: np.ndarray) -> np.ndarray:
    """Fill the float64 array out with len(out) exponential variates of the
    given mean, drawn by inversion from rng.random(), and return it.

    Inversion keeps the draw count per trial fixed at one uniform, which is
    what makes sharded Monte Carlo runs bit-reproducible.  log1p keeps
    accuracy for small uniforms, and u in [0, 1) keeps the result finite.
    mean is a fading mean, which SystemParams has checked to be > 0.
    """
    u = rng.random(out=out)
    # Same bits as -mean * np.log1p(-u), without two sample-sized temporaries.
    np.negative(u, out=u)
    np.log1p(u, out=u)
    u *= -mean
    return u
