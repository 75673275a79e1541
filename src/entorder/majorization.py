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
:func:`majorized_by` are its one-row calls, as is each copy count of the
multi-copy search, the catalyst scan feeds it blocks of catalysed prefix
sums, and the Monte Carlo sweep whole blocks of sampled pairs.  Relations
and conversion directions are read from the masks' :func:`verdict_code`
through `RELATIONS` and `DIRECTIONS`; the callers that read nothing else
(:func:`majorized_by`, the single copy of
:func:`~entorder.catalysis.strong_verdict`, the multi-copy search, the
CLI's `catalyze`, the audit's `incomparable` column) take the code alone
from `_pair_code`.  The near-tie diagnostic, :func:`near_ties`, is
separate, called by the sweep's tallies and by :func:`compare`.
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


# A pair's verdict code is 2 * (forward fails) + (backward fails).  Indexed by
# it: the relation, in the order the sweep tallies them, and the direction a
# conversion goes (equal spectra convert forward, incomparable ones neither way).
RELATIONS = (
    Relation.EQUIVALENT, Relation.FORWARD, Relation.BACKWARD, Relation.INCOMPARABLE
)
DIRECTIONS = (Relation.FORWARD, Relation.FORWARD, Relation.BACKWARD, None)


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
    """Two-sided majorization check of prefix sums: the kernel.

    `pa` and `pb` hold prefix sums of the two spectra of each pair, as any
    two arrays of one shape (the sweep's `(S, L)` rows, one `(L,)` row, the
    catalyst scan's `(width, rows)` slices), and `slack` is the pairs'
    allowance, a scalar or an array that broadcasts against them.  Returns
    elementwise masks `(forward, backward)`: `forward` marks where prefix_k(a)
    <= prefix_k(b) fails beyond slack, and `backward` is the mirror.
    """
    diff = pa - pb
    return diff > slack, diff < -slack


def verdict_code(forward_fails, backward_fails):
    """Verdict code of a pair from whether each direction fails; elementwise
    on arrays, such as the row-wise `any` of :func:`compare_many`'s masks."""
    return 2 * forward_fails + backward_fails


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
    past the horizon when a tail is present.  For two finite spectra the
    horizon is the longer length and the slack is `tau_cmp`.

    Two finite spectra of one non-zero length L, the shape of the single
    copy, of equal-length powers and of `catalyze` products, take a
    shortcut: each side's full cumsum and `tau_cmp`.  Those are the general
    path's arrays, since the horizon is L, no tail widens the slack, and
    :func:`~entorder.spectra.prefix_sums` returns the first L entries of
    that same cumsum; the shortcut only skips the horizon, the tail test
    and the slicing."""
    if a.tail is None and b.tail is None and len(a.values) == len(b.values) > 0:
        return a.values.cumsum(), b.values.cumsum(), tol.tau_cmp
    k = comparison_horizon(a, b, tol)
    slack = tol.tau_cmp
    if a.tail is not None or b.tail is not None:
        slack += a.residual_after(k) + b.residual_after(k)
    return prefix_sums(a, k), prefix_sums(b, k), slack


def _pair_code(a, b, tol) -> int:
    """Verdict code of a pair from the kernel's masks alone, for callers that
    read only a relation or a direction: no violation lists, no near ties."""
    forward, backward = compare_many(*_prefix_pair(a, b, tol))
    # a plain int: numpy scalar arithmetic here costs about 1 us more a call
    fails = bool(np.count_nonzero(forward)), bool(np.count_nonzero(backward))
    return verdict_code(*fails)


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
    return _pair_code(a, b, tol) < 2  # codes 2 and 3: forward fails


def compare(
    a: SchmidtSpectrum,
    b: SchmidtSpectrum,
    tol: Tolerances = DEFAULT_TOLERANCES,
) -> ComparisonVerdict:
    """Classify the pair as forward/backward convertible, equivalent, or
    incomparable, with the complete list of violated prefix indices.

    Two finite spectra are compared over the longer length with slack
    `tau_cmp`, with no tail horizon to compute; each violation list comes
    from one `nonzero` of the kernel's mask, and the near-tie flag from
    :func:`near_ties`.
    """
    pa, pb, slack = _prefix_pair(a, b, tol)
    forward, backward = compare_many(pa, pb, slack)
    forward = tuple((forward.nonzero()[0] + 1).tolist())
    backward = tuple((backward.nonzero()[0] + 1).tolist())
    near = bool(near_ties(pa, pb, a.total_mass(), b.total_mass(), tol))
    relation = RELATIONS[verdict_code(bool(forward), bool(backward))]
    return ComparisonVerdict(relation, forward, backward, near)
