"""Adaptive Gauss-Kronrod quadrature for the population integrals.

The integrands arising from the illness-death model are smooth apart from a
known kink where a life line crosses the incidence onset age, so a 15-point
Kronrod rule with global interval subdivision (and caller-supplied
breakpoints at the kinks) converges quickly.  Integrands must accept a 1-D
numpy array; every rule application is a single vectorized call.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["QuadratureConfig", "QuadratureError", "DEFAULT_QUADRATURE", "EDGE_NODE_OFFSET", "adaptive_quad"]


class QuadratureError(RuntimeError):
    """Requested tolerance could not be met within the subdivision budget."""


@dataclass(frozen=True)
class QuadratureConfig:
    """Tolerances and subdivision budget for :func:`adaptive_quad`."""

    rel_tol: float = 1e-8
    abs_tol: float = 1e-12
    max_subdivisions: int = 200

    def __post_init__(self):
        if not (self.rel_tol > 0.0 and self.abs_tol > 0.0):
            raise ValueError("quadrature tolerances must be positive")
        if self.max_subdivisions < 1:
            raise ValueError("max_subdivisions must be at least 1")


DEFAULT_QUADRATURE = QuadratureConfig()

# 15-point Kronrod extension of the 7-point Gauss rule (QUADPACK qk15 constants).
_XGK = np.array([
    0.991455371120813, 0.949107912342759, 0.864864423359769, 0.741531185599394,
    0.586087235467691, 0.405845151377397, 0.207784955007898, 0.0,
])
_WGK = np.array([
    0.022935322010529, 0.063092092629979, 0.104790010322250, 0.140653259715525,
    0.169004726639267, 0.190350578064785, 0.204432940075298, 0.209482141084728,
])
_WG = np.array([
    0.129484966168870, 0.279705391489277, 0.381830050505119, 0.417959183673469,
])

# Distance of the rule's outermost node from its interval edge, as a fraction of the interval.
EDGE_NODE_OFFSET = 0.5 * (1.0 - _XGK[0])

# All 15 node offsets in ascending order with matching weight vectors.
_NODES = np.concatenate((-_XGK[:-1], _XGK[::-1]))
_W_KRONROD = np.concatenate((_WGK[:-1], _WGK[::-1]))
_W_GAUSS = np.zeros(15)
_W_GAUSS[[1, 3, 5, 7, 9, 11, 13]] = [_WG[0], _WG[1], _WG[2], _WG[3], _WG[2], _WG[1], _WG[0]]


def _gk15_batch(f, lo, hi):
    """Apply the 15-point rule to a batch of intervals given as 1-D arrays."""
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    pts = mid[:, None] + half[:, None] * _NODES
    vals = np.asarray(f(pts.ravel()), dtype=float).reshape(pts.shape)
    kronrod = half * (vals @ _W_KRONROD)
    gauss = half * (vals @ _W_GAUSS)
    resabs = half * (np.abs(vals) @ _W_KRONROD)
    if not np.all(np.isfinite(kronrod)):
        raise QuadratureError("integrand returned non-finite values")
    return kronrod, np.abs(kronrod - gauss), resabs


def adaptive_quad(f, lo, hi, config=DEFAULT_QUADRATURE, breakpoints=()):
    """Integrate ``f`` over ``[lo, hi]`` to the configured tolerance.

    ``breakpoints`` are interior abscissae where the subdivision is forced to
    place an interval edge (integrand kinks).  Deterministic: identical inputs
    and tolerances give bit-identical results.
    """
    lo = float(lo)
    hi = float(hi)
    if hi < lo:
        raise ValueError("upper integration limit is below the lower limit")
    if hi == lo:
        return 0.0
    inner = sorted({float(b) for b in breakpoints if lo < b < hi})
    edges = np.array([lo, *inner, hi])
    a = edges[:-1]
    b = edges[1:]
    kron, err, resabs = _gk15_batch(f, a, b)
    splits = 0
    while True:
        total = float(kron.sum())
        total_err = float(err.sum())
        tol = max(config.abs_tol, config.rel_tol * abs(total))
        # Second branch: error estimate saturated at round-off level.
        if total_err <= tol or total_err <= 1e-14 * float(resabs.sum()):
            return total
        if splits >= config.max_subdivisions:
            raise QuadratureError(
                f"tolerance not met after {splits} subdivisions "
                f"(error {total_err:.3e}, tolerance {tol:.3e})"
            )
        share = tol / (2.0 * len(a))
        mask = err > share
        if not mask.any():
            mask = err >= err.max()
        budget = config.max_subdivisions - splits
        if int(mask.sum()) > budget:
            order = np.argsort(err, kind="stable")[::-1][:budget]
            mask = np.zeros(len(a), dtype=bool)
            mask[order] = True
        splits += int(mask.sum())
        mid = 0.5 * (a[mask] + b[mask])
        new_lo = np.concatenate((a[mask], mid))
        new_hi = np.concatenate((mid, b[mask]))
        nk, ne, nr = _gk15_batch(f, new_lo, new_hi)
        a = np.concatenate((a[~mask], new_lo))
        b = np.concatenate((b[~mask], new_hi))
        kron = np.concatenate((kron[~mask], nk))
        err = np.concatenate((err[~mask], ne))
        resabs = np.concatenate((resabs[~mask], nr))
