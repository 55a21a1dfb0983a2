"""Quadrature, special functions, and sampling primitives.

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
    integral, so integrate_gc needs no extra terms.
    """

    order: int
    nodes: np.ndarray    # reference nodes on (-1, 1), descending
    weights: np.ndarray  # pi/(2M) * sqrt(1 - nu_m^2)

    @classmethod
    def build(cls, order: int) -> "QuadratureRule":
        if not (isinstance(order, (int, np.integer)) and order >= 1):
            raise ValueError("quadrature order must be an integer >= 1")
        m = np.arange(1, order + 1)
        nodes = np.cos((2.0 * m - 1.0) * np.pi / (2.0 * order))
        weights = np.pi / (2.0 * order) * np.sqrt(1.0 - nodes ** 2)
        return cls(order=int(order), nodes=nodes, weights=weights)


def integrate_gc(rule: QuadratureRule, a: float, b: float,
                 f: Callable[[float], float]) -> float:
    """Approximate the integral of f over [a, b] with the given rule.

    A degenerate interval integrates to exactly 0; a reversed one is an
    error rather than a silent sign flip.
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
    out, a float64 array of shape size, receives the draws if given.
    """
    if not mean > 0.0:
        raise ValueError("mean must be strictly positive")
    u = rng.random(size, out=out)
    # Same bits as -mean * np.log1p(-u), without two sample-sized temporaries.
    np.negative(u, out=u)
    np.log1p(u, out=u)
    u *= -mean
    return u
