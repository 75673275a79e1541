"""Convertibility of bipartite pure states under local operations.

A state with spectrum `a` can be converted, deterministically and by local
operations plus classical communication, into a state with spectrum `b`
exactly when `a` is majorized by `b`: every prefix sum of `a` is bounded by
the matching prefix sum of `b`.  Comparing both directions yields a four-way
verdict, and the indices at which either direction fails are reported in
full; they double as diagnostics for which prefix inequality separates the
pair.

There is one majorization kernel, :func:`compare_many`, which decides
stacked rows of prefix sums at once; :func:`compare` and
:func:`majorized_by` are its one-row calls, the catalyst scan feeds it
blocks of catalysed prefix sums, and the Monte Carlo sweep whole blocks of
sampled pairs.  The near-tie diagnostic, :func:`near_ties`, is a separate
function, called only where a verdict reports it: by :func:`compare` and
by the sweep's tallies.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .spectra import (
    DEFAULT_TOLERANCES,
    SchmidtSpectrum,
    Tolerances,
    comparison_horizon,
    prefix_sums,
)


class Relation(enum.Enum):
    FORWARD = "forward-convertible"
    BACKWARD = "backward-convertible"
    EQUIVALENT = "equivalent"
    INCOMPARABLE = "incomparable"


@dataclass(frozen=True)
class ComparisonVerdict:
    """Outcome of a two-sided majorization check.

    `forward_violations` lists every k (1-based) at which the forward prefix
    inequality prefix_k(a) <= prefix_k(b) fails beyond slack;
    `backward_violations` is the mirror list.  `near_tie` flags that some
    decisive margin was within `tau_cmp`, i.e. floating point picked the
    side.
    """

    relation: Relation
    forward_violations: tuple[int, ...]
    backward_violations: tuple[int, ...]
    near_tie: bool

    def to_json(self) -> dict:
        return {
            "relation": self.relation.value,
            "forward_violations": list(self.forward_violations),
            "backward_violations": list(self.backward_violations),
            "near_tie": self.near_tie,
        }


def compare_many(
    pa: np.ndarray, pb: np.ndarray, slack
) -> tuple[np.ndarray, np.ndarray]:
    """Two-sided majorization check of stacked prefix-sum rows: the kernel.

    `pa` and `pb` are `(S, L)` arrays whose row s holds prefix_k of the two
    spectra of pair s for k = 1..L (a single `(L,)` row works too), and
    `slack` is the pairs' allowance, a scalar or an `(S, 1)` column.
    Returns `(forward, backward)`: `forward[s, k-1]` marks that prefix_k(a)
    <= prefix_k(b) fails beyond slack, and `backward` is the mirror.
    """
    diff = pa - pb
    return diff > slack, diff < -slack


def near_ties(
    pa: np.ndarray, pb: np.ndarray, total_a, total_b, tol: Tolerances
) -> np.ndarray:
    """Rows of :func:`compare_many` input whose verdict floating point picked.

    `total_a` and `total_b` are the pairs' total masses, as scalars or `(S,
    1)` columns.  Row s is flagged when some margin is within `tau_cmp` at
    an index where not both spectra have already exhausted their mass (a
    tie there is forced by normalization, not decided by floating point).
    """
    tau = tol.tau_cmp
    undecided = (pa < total_a - tau) | (pb < total_b - tau)
    return np.logical_or.reduce((np.abs(pa - pb) <= tau) & undecided, axis=-1)


def _prefix_pair(a, b, tol):
    """Prefix sums of both spectra up to their common comparison horizon,
    and the slack: `tau_cmp`, widened by the residual mass of both spectra
    past the horizon when a tail is present."""
    k = comparison_horizon(a, b, tol)
    slack = tol.tau_cmp
    if a.tail is not None or b.tail is not None:
        slack += a.residual_after(k) + b.residual_after(k)
    return prefix_sums(a, k), prefix_sums(b, k), slack


def majorized_by(
    a: SchmidtSpectrum,
    b: SchmidtSpectrum,
    tol: Tolerances = DEFAULT_TOLERANCES,
) -> bool:
    """True when `a` is majorized by `b`: the state of `a` converts to `b`'s.

    Shorter spectra are padded with zeros; tailed spectra are compared up to
    the horizon where both residuals are below `tau_cmp` (inequalities past
    that point hold automatically within the widened slack).
    """
    forward, _ = compare_many(*_prefix_pair(a, b, tol))
    return not np.count_nonzero(forward)


def compare(
    a: SchmidtSpectrum,
    b: SchmidtSpectrum,
    tol: Tolerances = DEFAULT_TOLERANCES,
) -> ComparisonVerdict:
    """Classify the pair as forward/backward convertible, equivalent, or
    incomparable, with the complete list of violated prefix indices."""
    pa, pb, slack = _prefix_pair(a, b, tol)
    forward, backward = compare_many(pa, pb, slack)
    forward = np.flatnonzero(forward) + 1
    backward = np.flatnonzero(backward) + 1
    near = bool(near_ties(pa, pb, a.total_mass(), b.total_mass(), tol))
    if len(forward) == 0 and len(backward) == 0:
        relation = Relation.EQUIVALENT
    elif len(forward) == 0:
        relation = Relation.FORWARD
    elif len(backward) == 0:
        relation = Relation.BACKWARD
    else:
        relation = Relation.INCOMPARABLE
    return ComparisonVerdict(
        relation,
        tuple(int(k) for k in forward),
        tuple(int(k) for k in backward),
        near,
    )
