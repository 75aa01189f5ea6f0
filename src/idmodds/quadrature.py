"""Adaptive Gauss-Kronrod quadrature for the population integrals, one or many at a time.

The integrands arising from the illness-death model are smooth apart from
known kinks where a life line crosses an incidence kink, so a 15-point
Kronrod rule with global interval subdivision (and caller-supplied
breakpoints at the kinks) converges quickly.  The rule constants are
QUADPACK's qk15 (Piessens et al., 1983).

:func:`adaptive_quad_many` runs the algorithm on a batch of integrals at
once: every sweep applies the rule to the live intervals of all unfinished
integrals through one integrand call ``f(x, k)``, where ``k`` holds the
integral index of each node, so integrals that share an integrand (an age
profile of odds, say) pay the per-call cost once per sweep rather than once
per integral.  No call receives more than ``MAX_INTERVALS`` intervals
(15 nodes each), which bounds the working memory of a sweep.  Every
decision stays per integral: its tolerance, round-off stop, error share
and subdivision budget are those of a lone call.
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
    """Apply the 15-point rule to intervals given as 1-D arrays, owned by the integrals ``owner``."""
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
    kronrod = half * (vals @ _W_KRONROD)
    gauss = half * (vals @ _W_GAUSS)
    resabs = half * (np.abs(vals) @ _W_KRONROD)
    if not np.isfinite(kronrod).all():
        raise QuadratureError("integrand returned non-finite values")
    return kronrod, np.abs(kronrod - gauss), resabs


def adaptive_quad_many(f, lo, hi, config=DEFAULT_QUADRATURE, breakpoints=None):
    """Integrate over ``[lo[k], hi[k]]`` for every k, each to the configured tolerance.

    ``f(x, k)`` returns the integrand of integral ``k[j]`` at ``x[j]`` for
    1-D arrays ``x`` and ``k``.  ``breakpoints``, if given, holds one
    sequence per integral of interior abscissae where the subdivision is
    forced to place an interval edge (integrand kinks).  Returns the array of
    integrals; a zero-length interval integrates to 0.  Raises ValueError
    when an upper limit lies below its lower limit, and QuadratureError as
    soon as one integral misses its tolerance within the subdivision budget.  Deterministic: identical inputs give bit-identical
    results, and a batch of one gives the bits of :func:`adaptive_quad`.
    """
    lo = np.asarray(lo, dtype=float).ravel().tolist()
    hi = np.asarray(hi, dtype=float).ravel().tolist()
    if len(lo) != len(hi):
        raise ValueError("lower and upper limits must have the same length")
    out = np.zeros(len(lo))
    # live integrals in ascending order and their interval counts; the intervals of
    # each are contiguous in the flat arrays, in the order a lone call keeps them
    ids, counts, edges_lo, edges_hi, owners = [], [], [], [], []
    for k, (first, last) in enumerate(zip(lo, hi)):
        if last < first:
            raise ValueError("upper integration limit is below the lower limit")
        if first == last:
            continue
        inner = () if breakpoints is None else breakpoints[k]
        edges = [first, *sorted({float(x) for x in inner if first < x < last}), last]
        ids.append(k)
        counts.append(len(edges) - 1)
        edges_lo += edges[:-1]
        edges_hi += edges[1:]
        owners += [k] * (len(edges) - 1)
    if not ids:
        return out
    a, b, owner = np.array(edges_lo), np.array(edges_hi), np.array(owners)
    kron, err, resabs = _gk15_batch(f, a, b, owner)
    splits = [0] * len(lo)
    while True:
        mask = np.zeros(len(a), dtype=bool)
        keep = np.zeros(len(a), dtype=bool)
        next_ids, next_counts = [], []
        end = 0
        for k, count in zip(ids, counts):
            start, end = end, end + count
            seg_err = err[start:end]
            total = float(kron[start:end].sum())
            total_err = float(seg_err.sum())
            tol = max(config.abs_tol, config.rel_tol * abs(total))
            # Second branch: error estimate saturated at round-off level.
            if total_err <= tol or total_err <= 1e-14 * float(resabs[start:end].sum()):
                out[k] = total
                continue
            if splits[k] >= config.max_subdivisions:
                raise QuadratureError(
                    f"tolerance not met after {splits[k]} subdivisions "
                    f"(error {total_err:.3e}, tolerance {tol:.3e})"
                )
            share = tol / (2.0 * count)
            split = seg_err > share
            budget = config.max_subdivisions - splits[k]
            n_split = np.count_nonzero(split)
            if n_split > budget:
                order = np.argsort(seg_err, kind="stable")[::-1][:budget]
                split = np.zeros(count, dtype=bool)
                split[order] = True
                n_split = budget
            splits[k] += n_split
            mask[start:end] = split
            keep[start:end] = ~split
            next_ids.append(k)
            next_counts.append(count + n_split)
        if not next_ids:
            break
        split_lo, split_hi, split_owner = a[mask], b[mask], owner[mask]
        mid = 0.5 * (split_lo + split_hi)
        new_lo = np.concatenate((split_lo, mid))
        new_hi = np.concatenate((mid, split_hi))
        new_owner = np.concatenate((split_owner, split_owner))
        nk, ne, nr = _gk15_batch(f, new_lo, new_hi, new_owner)
        a = np.concatenate((a[keep], new_lo))
        b = np.concatenate((b[keep], new_hi))
        owner = np.concatenate((owner[keep], new_owner))
        kron = np.concatenate((kron[keep], nk))
        err = np.concatenate((err[keep], ne))
        resabs = np.concatenate((resabs[keep], nr))
        if len(next_ids) > 1:
            # regroup by integral: kept intervals, then lower halves, then upper halves
            order = np.argsort(owner, kind="stable")
            a, b, owner, kron, err, resabs = (x[order] for x in (a, b, owner, kron, err, resabs))
        ids, counts = next_ids, next_counts
    return out


def adaptive_quad(f, lo, hi, config=DEFAULT_QUADRATURE, breakpoints=()):
    """Integrate ``f`` over ``[lo, hi]`` to the configured tolerance.

    ``f`` takes a 1-D array of abscissae.  ``breakpoints`` are interior
    abscissae where the subdivision is forced to place an interval edge
    (integrand kinks).  Deterministic: identical inputs and tolerances give
    bit-identical results.
    """
    return float(adaptive_quad_many(lambda x, k: f(x), [lo], [hi], config, [breakpoints])[0])
