"""Density constructions: completions and truncation pairs.

Two explicit constructions drive the genericity story in infinite dimension:

* :func:`complete_extension` turns a finite spectrum into a nearby spectrum
  with *all* entries positive, by scaling the head down slightly and filling
  the freed mass with a geometric tail.  As the approximation index m grows,
  the result converges to the original.
* :func:`truncation_pair` replaces a complete pair with nearby finite pairs
  in which the member with the larger top entry keeps one more positive
  entry than the other.  For every sufficiently large m such a pair passes
  :func:`~entorder.catalysis.condition_c`, hence is strongly incomparable,
  while converging to the original pair.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .catalysis import _c_rule, condition_c
from .errors import (
    InfiniteSchmidtNumber,
    InvalidInput,
    NotComplete,
    NotFoundWithin,
    SizeCapExceeded,
    TopEntriesTied,
    _count,
)
from .majorization import RELATIONS, Relation, compare_many, verdict_code
from .spectra import (
    _BLOCK_ENTRIES,
    DEFAULT_SIZE_CAP,
    DEFAULT_TOLERANCES,
    GeometricTail,
    SchmidtSpectrum,
    Tolerances,
    _integer,
    _merge_tail_boundary,
)


class PermanenceWarning(UserWarning):
    """The sufficient test held at some index but failed at a later audited one."""


def complete_extension(
    base: SchmidtSpectrum,
    m: int,
    *,
    tol: Tolerances = DEFAULT_TOLERANCES,
) -> SchmidtSpectrum:
    """All-positive spectrum approximating `base`, at approximation index m.

    The p positive entries of `base` are scaled by m/(m+1) and a geometric
    tail with first term 1/(2(m+1)) and ratio 1/2 carries the remaining
    1/(m+1) of mass, in closed form.  Total mass is 1 exactly (up to the
    rounding of the head sum), every entry is strictly positive, and the
    distance to `base` decreases to 0 as m grows.
    """
    if base.tail is not None:
        raise InfiniteSchmidtNumber("base must have a finite Schmidt number")
    m = _integer("m", m, 1, "approximation index must be at least 1")
    head = base.values[base.values > tol.tau_zero]
    if head.size == 0:
        raise InvalidInput("base has no positive entries")
    m = float(min(m, 1 << 1023))  # clipped before it meets a float: 2**1024 overflows
    first = 1.0 / (2.0 * (m + 1.0))  # 0.0 from about m = 2**1023 on
    if first == 0.0:
        raise InvalidInput("approximation index too large: its tail starts at 0.0")
    # Small m can make the tail start above the scaled head's minimum; the
    # boundary merge keeps the stored head sorted against the tail.
    scaled = head * (m / (m + 1.0))
    values, tail = _merge_tail_boundary(scaled, GeometricTail(first, 0.5))
    return SchmidtSpectrum(values, tail)


@dataclass(frozen=True)
class TruncationPair:
    """Finite pair approximating a complete pair at truncation index m.

    `a_m` approximates the first input and `b_m` the second; the input with
    the larger top entry keeps m entries, the other m-1 (so `swapped` is
    True when the second input got the m entries).
    """

    a_m: SchmidtSpectrum
    b_m: SchmidtSpectrum
    m: int
    swapped: bool


def _positive_prefix(spec: SchmidtSpectrum, count: int, tol: Tolerances) -> bool:
    """Whether the first `count` >= 1 entries all exceed tau_zero, decided
    before any is materialized (`count` may be far beyond memory).  Entries
    never increase, head then tail, so the last one kept decides."""
    extra = count - len(spec.values)
    if extra <= 0:
        return bool(spec.values[count - 1] > tol.tau_zero)
    if spec.tail is None:
        return False  # zero padding past a finite spectrum
    return bool(spec.tail.entries(1, extra - 1)[0] > tol.tau_zero)


def _truncate(spec: SchmidtSpectrum, count: int) -> SchmidtSpectrum:
    kept = spec.entry_prefix(count)
    return SchmidtSpectrum(kept / kept.sum())


def _kept_counts(
    a: SchmidtSpectrum, b: SchmidtSpectrum, m, tol: Tolerances
) -> tuple[int, int, int]:
    """Index m as an int, and the entry counts `a` and `b` keep at it: the
    input with the larger top entry keeps m, the other m-1.

    The one owner of the construction's refusals, in this order: m below 2
    (InvalidInput), top entries within `tau_cmp` (TopEntriesTied), too few
    positive entries, `a` checked before `b` (NotComplete), and m past
    `DEFAULT_SIZE_CAP` (SizeCapExceeded).  All are decided before any entry
    is materialized.
    """
    m = _integer("m", m, 2, "truncation index must be at least 2")
    gap = float(a.values[0] - b.values[0])
    if abs(gap) <= tol.tau_cmp:
        raise TopEntriesTied(
            f"top entries differ by {gap!r}, within tau_cmp; "
            "the construction cannot orient the pair"
        )
    counts = (m, m - 1) if gap > 0 else (m - 1, m)
    for spec, count in zip((a, b), counts):
        if not _positive_prefix(spec, count, tol):
            raise NotComplete(
                f"spectrum has fewer than {_count(count)} positive entries; "
                "the construction needs a complete input"
            )
    if m > DEFAULT_SIZE_CAP:
        raise SizeCapExceeded(m, DEFAULT_SIZE_CAP)
    return m, *counts


def truncation_pair(
    a: SchmidtSpectrum,
    b: SchmidtSpectrum,
    m: int,
    *,
    tol: Tolerances = DEFAULT_TOLERANCES,
) -> TruncationPair:
    """Renormalized truncations with a forced Schmidt-number gap of one.

    Requires top entries unequal beyond `tau_cmp` (TopEntriesTied otherwise)
    and enough positive entries to keep (NotComplete otherwise, `a` checked
    before `b`).  Both are decided, and m is refused past `DEFAULT_SIZE_CAP`
    (SizeCapExceeded), before either truncation is materialized.
    """
    m, count_a, count_b = _kept_counts(a, b, m, tol)
    return TruncationPair(
        _truncate(a, count_a), _truncate(b, count_b), m, count_a < count_b
    )


def minimal_c_index(
    a: SchmidtSpectrum,
    b: SchmidtSpectrum,
    m_max: int,
    *,
    tol: Tolerances = DEFAULT_TOLERANCES,
) -> int:
    """Smallest m in 2..m_max whose truncation pair passes condition_c.

    Eventual satisfaction is guaranteed for complete pairs with unequal top
    entries, but nothing promises it is monotone once reached; the window
    m..m+5 is re-checked and any failure emits a PermanenceWarning rather
    than being silently trusted.
    """
    m_max = _integer("m_max", m_max, 2)
    found = None
    for m in range(2, m_max + 1):
        pair = truncation_pair(a, b, m, tol=tol)
        if condition_c(pair.a_m, pair.b_m, tol):
            found = m
            break
    if found is None:
        raise NotFoundWithin(m_max)
    for m in range(found + 1, min(found + 5, m_max) + 1):
        try:
            pair = truncation_pair(a, b, m, tol=tol)
        except NotComplete:
            break  # finite input ran out of entries; nothing left to audit
        if not condition_c(pair.a_m, pair.b_m, tol):
            warnings.warn(
                f"condition_c held at m={found} but failed at audited m={m}",
                PermanenceWarning,
                stacklevel=2,
            )
    return found


@dataclass(frozen=True)
class ConvergenceRow:
    m: int
    dist_a: float
    dist_b: float
    condition_c: bool
    incomparable: bool


def _overlaps(rows: np.ndarray, entries: np.ndarray) -> np.ndarray:
    """Sums along the last axis of sqrt(rows * entries), with one temporary
    the size of `rows`."""
    roots = rows * entries
    return np.add.reduce(np.sqrt(roots, out=roots), axis=-1)


def _report_rows(
    prefixes: np.ndarray,
    ms: list[int],
    kept: list[tuple[int, int]],
    horizons: tuple[int, int],
    tol: Tolerances,
) -> list[ConvergenceRow]:
    """Rows of `convergence_report` at the ascending indices `ms`, where
    `a` and `b` keep the counts `kept` lists and have the comparison
    `horizons`; `prefixes` holds their leading entries as two rows, past
    both horizons and every count kept.  (The ufunc reductions are called
    directly: `.sum()` and `.any()` wrap them in Python.)"""
    # the truncations, zero-padded rows of a (2, len(ms), width) array
    trunc = np.zeros((2, len(ms), prefixes.shape[1]))
    past = []  # rows keeping more entries than their input's horizon
    for r, counts in enumerate(kept):
        for side, count in enumerate(counts):
            head = prefixes[side, :count]
            trunc[side, r, :count] = head / np.add.reduce(head)
            if count > horizons[side]:
                past.append((side, r, count))
    # overlaps with the inputs over each pair's comparison horizon, which
    # is the input's own unless the row is past it; one side at a time
    overlap = np.array([
        _overlaps(trunc[side, :, :horizon], prefixes[side, :horizon])
        for side, horizon in enumerate(horizons)
    ])
    for side, r, count in past:
        overlap[side, r] = _overlaps(trunc[side, r, :count], prefixes[side, :count])
    dists = np.sqrt(np.maximum(0.0, 2.0 - 2.0 * overlap))
    gaps = (trunc[0, :, 0] - trunc[1, :, 0]).tolist()
    numbers = np.add.reduce(trunc > tol.tau_zero, axis=-1)  # Schmidt numbers
    # the rows' prefix sums, in place: the truncations are not read again
    sums = np.add.accumulate(trunc, axis=-1, out=trunc)
    tau = tol.tau_cmp
    forward, backward = compare_many(sums[0], sums[1], tau)
    return [
        ConvergenceRow(
            m, dist_a, dist_b, _c_rule(gap, na, nb, tau),
            RELATIONS[verdict_code(fwd, bwd)] is Relation.INCOMPARABLE,
        )
        for m, dist_a, dist_b, gap, na, nb, fwd, bwd in zip(
            ms,
            *dists.tolist(),
            gaps,
            *numbers.tolist(),
            np.logical_or.reduce(forward, axis=-1).tolist(),
            np.logical_or.reduce(backward, axis=-1).tolist(),
        )
    ]


def convergence_report(
    a: SchmidtSpectrum,
    b: SchmidtSpectrum,
    m_list,
    *,
    tol: Tolerances = DEFAULT_TOLERANCES,
) -> list[ConvergenceRow]:
    """Audit the truncation sequence on a grid of indices.

    Each row reports the distances of the truncations to their inputs,
    whether the truncated pair passes condition_c, and whether it is
    incomparable.  Rows are ordered by m regardless of input order.

    All indices are checked first, with the refusals of `truncation_pair`
    in the order a loop over the sorted indices meets them; each input's
    horizon, which `spectrum_distance` measures for the first row, is taken
    right after that row's checks.  The rows are then computed together,
    in blocks of at most `_BLOCK_ENTRIES` entries (at least one row); the
    square roots are taken one side at a time and the prefix sums in place,
    so one row as wide as the size cap holds no more memory at once than
    the per-index composition.  Each row equals, bit for bit, what
    `truncation_pair`, `spectrum_distance`, `condition_c` and `compare` give
    at its index:

    * a truncation row is the input's kept entries divided by their 1-D
      sum, then zeros, so its entries are those of the truncated spectrum,
      zero-padded as `entry_prefix` pads it;
    * a distance sums the square roots of the row times the input over the
      pair's comparison horizon, max(kept, input horizon): rows within the
      input's horizon share that length and sum along their last axis,
      which numpy does row by row in the 1-D pairwise order, and a row past
      it sums its own length alone, since padding a row would regroup
      numpy's pairwise sum;
    * condition_c counts entries above `tau_zero` (padding counts none);
    * the verdict code compares the rows' cumulative sums, which are the
      truncations' prefix sums padded with their totals; past index m both
      sums are at their totals, as at index m, so the padding adds no
      failure beyond `tau_cmp`.
    """
    ms = sorted({_integer("m", m) for m in m_list})
    if not ms:
        return []
    kept = [_kept_counts(a, b, ms[0], tol)[1:]]
    horizons = (a.horizon(tol.tau_cmp), b.horizon(tol.tau_cmp))
    kept += [_kept_counts(a, b, m, tol)[1:] for m in ms[1:]]
    width = max(ms[-1], *horizons)
    prefixes = np.array((a.entry_prefix(width), b.entry_prefix(width)))
    step = max(1, _BLOCK_ENTRIES // width)  # rows per block
    report = []
    for start in range(0, len(ms), step):
        block = slice(start, start + step)
        reach = max(ms[block][-1], *horizons)
        report += _report_rows(
            prefixes[:, :reach], ms[block], kept[block], horizons, tol
        )
    return report
