"""Adaptive Gauss-Kronrod quadrature for the population integrals, one or many at a time.

The integrands arising from the illness-death model are smooth apart from
known kinks where a life line crosses an incidence kink, so a 15-point
Kronrod rule with global interval subdivision (and caller-supplied
breakpoints at the kinks) converges quickly.  The rule constants are
QUADPACK's qk15 (Piessens et al., 1983).

:func:`adaptive_quad_many` runs the algorithm on a batch of integrals at
once.  The live intervals of all unfinished integrals sit in flat arrays,
each tagged with the index of the integral that owns it.  A sweep applies
the rule to the new intervals of every integral through shared integrand
calls ``f(x, k)``, where ``k`` holds the owner of each node, so integrals
that share an integrand (an age profile of odds, say) pay the per-call cost
once per sweep rather than once per integral.  No call receives more than
``MAX_INTERVALS`` intervals (15 nodes each), which bounds the working
memory of a sweep.  Per-integral sums come from ``np.bincount`` over the
owners, and every decision stays per integral: its tolerance, round-off
stop, error share and subdivision budget are those of a lone call, and so
are its bits.
:func:`adaptive_quad` is the one-integral call, with an integrand ``f(x)``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "QuadratureConfig",
    "QuadratureError",
    "DEFAULT_QUADRATURE",
    "EDGE_NODE_OFFSET",
    "MAX_INTERVALS",
    "adaptive_quad",
    "adaptive_quad_many",
]


class QuadratureError(RuntimeError):
    """Requested tolerance could not be met within the subdivision budget."""


@dataclass(frozen=True)
class QuadratureConfig:
    """Tolerances and subdivision budget for :func:`adaptive_quad`, per integral."""

    rel_tol: float = 1e-8
    abs_tol: float = 1e-12
    max_subdivisions: int = 200

    def __post_init__(self):
        if not (self.rel_tol > 0.0 and self.abs_tol > 0.0):
            raise ValueError("quadrature tolerances must be positive")
        if self.max_subdivisions < 1:
            raise ValueError("max_subdivisions must be at least 1")


DEFAULT_QUADRATURE = QuadratureConfig()

# Most intervals one integrand call receives.  A whole profile's first sweep
# in one call would hold hundreds of intervals' worth of temporaries in the
# tabulated incidence; 64 keeps them small while amortizing the call cost.
MAX_INTERVALS = 64

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


def _gk15_batch(f, lo, hi, owner):
    """Apply the 15-point rule to intervals given as 1-D arrays, owned by the integrals ``owner``.

    Row-wise sums keep an interval's bits independent of the other intervals in the call.
    """
    if len(lo) > MAX_INTERVALS:
        parts = [
            _gk15_batch(f, lo[s : s + MAX_INTERVALS], hi[s : s + MAX_INTERVALS], owner[s : s + MAX_INTERVALS])
            for s in range(0, len(lo), MAX_INTERVALS)
        ]
        return tuple(np.concatenate(columns) for columns in zip(*parts))
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    pts = mid[:, None] + half[:, None] * _NODES
    vals = np.asarray(f(pts.ravel(), owner.repeat(len(_NODES))), dtype=float).reshape(pts.shape)
    kronrod = half * (vals * _W_KRONROD).sum(axis=1)
    gauss = half * (vals * _W_GAUSS).sum(axis=1)
    resabs = half * (np.abs(vals) * _W_KRONROD).sum(axis=1)
    if not np.isfinite(kronrod).all():
        raise QuadratureError("integrand returned non-finite values")
    return kronrod, np.abs(kronrod - gauss), resabs


def adaptive_quad_many(f, lo, hi, config=DEFAULT_QUADRATURE, breakpoints=None):
    """Integrate over ``[lo[k], hi[k]]`` for every k, each to the configured tolerance.

    ``f(x, k)`` returns the integrand of integral ``k[j]`` at ``x[j]`` for
    1-D arrays ``x`` and ``k``.  ``breakpoints``, if given, holds one
    sequence per integral of interior abscissae where the subdivision is
    forced to place an interval edge (integrand kinks).  Returns the array of
    integrals; a zero-length interval integrates to 0.

    Raises ValueError for limits that are not finite, an upper limit below
    its lower limit, or a ``breakpoints`` list whose length is not that of
    the limits; raises QuadratureError as soon as one integral misses its
    tolerance within the subdivision budget (the lowest such k is named).
    Deterministic: identical inputs give bit-identical results, and every
    integral of a batch gets the bits of its lone :func:`adaptive_quad` call
    when ``f`` at a node does not depend on the other nodes of the call.
    """
    lo = np.asarray(lo, dtype=float).ravel()
    hi = np.asarray(hi, dtype=float).ravel()
    n = len(lo)
    if len(hi) != n:
        raise ValueError("lower and upper limits must have the same length")
    if breakpoints is not None and len(breakpoints) != n:
        raise ValueError("breakpoints must hold one sequence per integral")
    if not (np.isfinite(lo).all() and np.isfinite(hi).all()):
        raise ValueError("integration limits must be finite")
    if (hi < lo).any():
        raise ValueError("upper integration limit is below the lower limit")
    out = np.zeros(n)
    edges_lo, edges_hi, owners = [], [], []
    for k, (first, last) in enumerate(zip(lo.tolist(), hi.tolist())):
        if first < last:
            inner = () if breakpoints is None else breakpoints[k]
            edges = [first, *sorted({float(x) for x in inner if first < x < last}), last]
            edges_lo += edges[:-1]
            edges_hi += edges[1:]
            owners += [k] * (len(edges) - 1)
    if not owners:
        return out
    # A sweep keeps the unsplit intervals in order, then appends lower and upper halves:
    # each integral's intervals stay in a lone call's order, and so do its bincount sums.
    a, b, owner = np.array(edges_lo), np.array(edges_hi), np.array(owners)
    pieces = np.bincount(owner, minlength=n)
    kron, err, resabs = _gk15_batch(f, a, b, owner)
    while True:
        count = np.bincount(owner, minlength=n)
        total = np.bincount(owner, kron, n)
        total_err = np.bincount(owner, err, n)
        tol = np.maximum(config.abs_tol, config.rel_tol * np.abs(total))
        # Second test: error estimate saturated at round-off level.
        done = (total_err <= tol) | (total_err <= 1e-14 * np.bincount(owner, resabs, n))
        np.copyto(out, total, where=done & (count > 0))
        if done.all():
            return out
        splits = count - pieces
        stuck = np.flatnonzero(~done & (splits >= config.max_subdivisions))
        if len(stuck):
            k = stuck[0]
            raise QuadratureError(
                f"tolerance not met after {splits[k]} subdivisions "
                f"(error {total_err[k]:.3e}, tolerance {tol[k]:.3e})"
            )
        live = ~done[owner]
        split = live & (err > tol[owner] / (2.0 * count[owner]))
        budget = config.max_subdivisions - splits
        # An integral with more candidates than budget splits its largest errors,
        # ties to the later interval.
        for k in np.flatnonzero(np.bincount(owner[split], minlength=n) > budget):
            own = np.flatnonzero(owner == k)
            split[own] = False
            split[own[np.argsort(err[own], kind="stable")[::-1][: budget[k]]]] = True
        keep = live & ~split
        mid = 0.5 * (a[split] + b[split])
        new = (np.concatenate((a[split], mid)), np.concatenate((mid, b[split])), np.tile(owner[split], 2))
        new += _gk15_batch(f, *new)
        a, b, owner, kron, err, resabs = (
            np.concatenate((old[keep], fresh)) for old, fresh in zip((a, b, owner, kron, err, resabs), new)
        )


def adaptive_quad(f, lo, hi, config=DEFAULT_QUADRATURE, breakpoints=()):
    """Integrate ``f`` over ``[lo, hi]`` to the configured tolerance.

    ``f`` takes a 1-D array of abscissae.  ``breakpoints`` are interior
    abscissae where the subdivision is forced to place an interval edge
    (integrand kinks).  Deterministic: identical inputs and tolerances give
    bit-identical results.
    """
    return float(adaptive_quad_many(lambda x, k: f(x), [lo], [hi], config, [breakpoints])[0])
