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

from .catalysis import condition_c
from .errors import (
    InfiniteSchmidtNumber,
    InvalidInput,
    NotComplete,
    NotFoundWithin,
    SizeCapExceeded,
    TopEntriesTied,
)
from .majorization import RELATIONS, Relation, _pair_code
from .spectra import (
    DEFAULT_SIZE_CAP,
    DEFAULT_TOLERANCES,
    GeometricTail,
    SchmidtSpectrum,
    Tolerances,
    _integer,
    _merge_tail_boundary,
    spectrum_distance,
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
                f"spectrum has fewer than {count} positive entries; "
                "the construction needs a complete input"
            )
    if m > DEFAULT_SIZE_CAP:
        raise SizeCapExceeded(m, DEFAULT_SIZE_CAP)
    return TruncationPair(_truncate(a, counts[0]), _truncate(b, counts[1]), m, gap < 0)


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
    """
    rows = []
    for m in sorted({_integer("m", m) for m in m_list}):
        pair = truncation_pair(a, b, m, tol=tol)
        rows.append(
            ConvergenceRow(
                m=m,
                dist_a=spectrum_distance(pair.a_m, a, tol),
                dist_b=spectrum_distance(pair.b_m, b, tol),
                condition_c=condition_c(pair.a_m, pair.b_m, tol),
                incomparable=RELATIONS[_pair_code(pair.a_m, pair.b_m, tol)]
                is Relation.INCOMPARABLE,
            )
        )
    return rows
