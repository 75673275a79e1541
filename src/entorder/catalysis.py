"""Multi-copy and catalyst-assisted convertibility.

Two spectra that are incomparable one copy at a time may still become
convertible when several copies are transformed collectively, or when an
ancillary entangled state (a catalyst) is attached and returned intact.  A
pair is *strongly* incomparable when no finite copy count and no
finite-Schmidt-number catalyst opens either direction.

This module provides

* sorted product-spectrum kernels (full materialization under a size cap,
  plus an exact top-k merge when only the largest entries are needed),
* :func:`condition_c`, a sound sufficient test for strong incomparability:
  the same spectrum has both the strictly larger top entry and the strictly
  larger Schmidt number.  A larger top entry rules that state out as the
  source of a conversion (the first prefix inequality fails) and a larger
  Schmidt number rules it out as the target (Schmidt numbers cannot grow);
  both quantities multiply under tensor products, so the blockage survives
  any copy count and any finite catalyst;
* bounded witness searches over copy counts and catalyst grids, and
  :func:`strong_verdict`, which combines the sound paths and otherwise
  reports an honest ``inconclusive``.

The catalyst scan is batched.  Each ``(dim, steps)`` grid of
:func:`sorted_simplex_grid` is built once per process as a read-only
``(G, dim)`` array, and a block of grid rows is decided together: products
``a (x) c`` and ``b (x) c`` for every row, row-wise prefix sums, and both
prefix inequalities.  The products are formed exactly as
:func:`tensor_product_spectrum` forms them, so each row's verdict is the one
:func:`~entorder.majorization.compare` gives on that pair of product
spectra.  Blocks hold a bounded number of product entries, which bounds
peak memory and stops the scan at the block holding the first hit.  A grid
is counted before it is built, and one over its entry cap is refused.

The top-k merge is batched as well: each further copy multiplies the
running k-prefix by every entry of the factor, keeps of each such row only
the part that can still reach the top k, and selects the k largest with one
partition.  It forms the same floats the full power forms.
"""

from __future__ import annotations

import enum
import functools
import itertools
from dataclasses import dataclass

import numpy as np

from .errors import (
    InfiniteSchmidtNumber,
    InternalInconsistency,
    InvalidInput,
    SizeCapExceeded,
)
from .majorization import Relation, majorized_by
from .spectra import (
    DEFAULT_TOLERANCES,
    SchmidtSpectrum,
    Tolerances,
    schmidt_number,
)

DEFAULT_SIZE_CAP = 10**7

# Product entries, over both spectra of a pair, per block of the catalyst
# grid scan.  Bounds the scan's peak memory and the work done past a hit.
_BLOCK_ENTRIES = 1 << 15


def _require_finite(spec: SchmidtSpectrum, what: str) -> None:
    if spec.tail is not None:
        raise InfiniteSchmidtNumber(f"{what} requires a finite spectrum")


def tensor_product_spectrum(
    a: SchmidtSpectrum,
    c: SchmidtSpectrum,
    *,
    size_cap: int = DEFAULT_SIZE_CAP,
) -> SchmidtSpectrum:
    """Spectrum of a joint system: sorted pairwise products, renormalized."""
    _require_finite(c, "tensor product")
    _check_product_factor(a, len(c), size_cap)
    products = np.sort(np.multiply.outer(a.values, c.values).ravel())[::-1]
    return SchmidtSpectrum(products / products.sum())


def tensor_power_spectrum(
    a: SchmidtSpectrum,
    m: int,
    *,
    size_cap: int = DEFAULT_SIZE_CAP,
) -> SchmidtSpectrum:
    """Spectrum of m copies: all m-fold entry products, sorted non-increasing.

    Products are kept as computed (no renormalization), so the total mass
    drifts from 1 by at most about m rounding units.
    """
    _require_finite(a, "tensor power")
    if m < 1:
        raise InvalidInput("copy count must be at least 1")
    _check_power_size(len(a), m, size_cap)
    cur = a.values
    for _ in range(m - 1):
        cur = np.multiply.outer(cur, a.values).ravel()
    return SchmidtSpectrum(np.sort(cur)[::-1])


def _power_size(length: int, m: int, bound: int) -> int:
    """Entry count of an m-fold power, length**m, for m up to max(64, the
    bit length of `bound`).

    Past that exponent length**m exceeds `bound` (or length is 1), so the
    exponent is clipped there: the result still exceeds `bound`, and a huge
    m never builds a huge integer.
    """
    return length ** min(m, max(64, bound.bit_length()))


def _check_power_size(length: int, m: int, size_cap: int) -> None:
    """Raise unless an m-fold power of a `length`-entry spectrum fits."""
    size = _power_size(length, m, size_cap)
    if size > size_cap:
        raise SizeCapExceeded(
            size, size_cap, f"operation needs {length}**{m} entries; cap is {size_cap}"
        )


def _top_products(x: np.ndarray, y: np.ndarray, k: int) -> np.ndarray:
    """Largest k products x[i] * y[j] of two non-increasing vectors, sorted.

    An entry at (i, j) is at most every entry of the rectangle i' <= i,
    j' <= j, so when (i + 1) * (j + 1) > k at least k other entries are as
    large and the top-k multiset can be formed without it.  Row j therefore
    needs only x[: k // (j + 1)], about k * ln(len(y)) products in all, and
    never the full len(x) * len(y) grid.  The top-k multiset of values is
    unique and each product is the float x[i] * y[j], so ties cannot change
    the result.
    """
    rows = [x[: k // (j + 1)] * y[j] for j in range(min(len(y), k))]
    products = np.concatenate(rows)
    cut = max(0, len(products) - k)
    return np.sort(np.partition(products, cut)[cut:])[::-1]


def top_k_tensor_power(a: SchmidtSpectrum, m: int, k: int) -> np.ndarray:
    """Largest k entries of the m-copy spectrum without building all of it.

    Each further copy merges the running top-k prefix with ``a`` by
    :func:`_top_products`.  An entry outside the top k of a partial product
    is dominated by at least k entries after every further factor, so
    merging k-prefixes is exact.  Entries are the products the full power
    forms, as computed, so this equals the first k entries of
    :func:`tensor_power_spectrum` wherever that fits.  The min(k,
    len(a)**m) output entries are checked against `DEFAULT_SIZE_CAP` before
    any array is built.
    """
    _require_finite(a, "tensor power prefix")
    if m < 1:
        raise InvalidInput("copy count must be at least 1")
    if k < 1:
        raise InvalidInput("prefix length must be at least 1")
    size = min(k, _power_size(len(a), m, k))
    if size > DEFAULT_SIZE_CAP:
        raise SizeCapExceeded(size, DEFAULT_SIZE_CAP)
    cur = a.values[: min(k, len(a))]
    for _ in range(m - 1):
        cur = _top_products(cur, a.values, k)
    return cur


def condition_c(
    a: SchmidtSpectrum,
    b: SchmidtSpectrum,
    tol: Tolerances = DEFAULT_TOLERANCES,
) -> bool:
    """Sound sufficient test for strong incomparability of finite spectra.

    Holds when one spectrum dominates in both the top entry and the Schmidt
    number, strictly: a1 > b1 with #a > #b, or a1 < b1 with #a < #b.  The
    top-entry inequality must clear `tau_cmp`; ties (within `tau_cmp`) fail
    the test rather than guess.
    """
    holds, _ = _condition_c_state(a, b, tol)
    return holds


def _condition_c_state(a, b, tol):
    """(holds, near_tie): near_tie marks a top-entry tie within tau_cmp that
    alone blocked an otherwise-satisfied disjunct."""
    _require_finite(a, "condition_c")
    _require_finite(b, "condition_c")
    na = schmidt_number(a, tol)
    nb = schmidt_number(b, tol)
    gap = float(a.values[0] - b.values[0])
    if gap > tol.tau_cmp:
        return na > nb, False
    if gap < -tol.tau_cmp:
        return na < nb, False
    return False, na != nb


@dataclass(frozen=True)
class MultiCopyWitness:
    """Conversion found at `copies` collective copies, in `direction`."""

    direction: Relation
    copies: int

    def to_json(self) -> dict:
        return {
            "kind": "multi-copy",
            "direction": self.direction.value,
            "copies": self.copies,
        }


@dataclass(frozen=True)
class CatalystWitness:
    """Conversion enabled by attaching `catalyst`, in `direction`."""

    direction: Relation
    catalyst: SchmidtSpectrum

    def to_json(self) -> dict:
        from .spectra import spectrum_to_json

        return {
            "kind": "catalyst",
            "direction": self.direction.value,
            "catalyst": spectrum_to_json(self.catalyst),
        }


def multicopy_convertible(
    a: SchmidtSpectrum,
    b: SchmidtSpectrum,
    m_max: int,
    tol: Tolerances = DEFAULT_TOLERANCES,
    *,
    size_cap: int = DEFAULT_SIZE_CAP,
) -> MultiCopyWitness | None:
    """Search m = 1..m_max copies for a conversion in either direction.

    Returns the smallest qualifying m (forward checked before backward), or
    None if the bounded search finds nothing.  Convertibility at some m says
    nothing about m+1, so each copy count is tested independently.
    """
    _require_finite(a, "multi-copy search")
    _require_finite(b, "multi-copy search")
    if m_max < 1:
        raise InvalidInput("m_max must be at least 1")
    _check_power_size(max(len(a), len(b)), m_max, size_cap)
    for m in range(1, m_max + 1):
        pa = tensor_power_spectrum(a, m, size_cap=size_cap)
        pb = tensor_power_spectrum(b, m, size_cap=size_cap)
        if majorized_by(pa, pb, tol):
            return MultiCopyWitness(Relation.FORWARD, m)
        if majorized_by(pb, pa, tol):
            return MultiCopyWitness(Relation.BACKWARD, m)
    return None


def _check_product_factor(spec: SchmidtSpectrum, dim: int, size_cap: int) -> None:
    """Raise as a product of `spec` with a finite `dim`-entry factor would."""
    _require_finite(spec, "tensor product")
    size = len(spec) * dim
    if size > size_cap:
        raise SizeCapExceeded(size, size_cap)


def _catalysed_prefix_sums(
    values: np.ndarray, catalysts: np.ndarray, width: int
) -> np.ndarray:
    """Row r: prefix sums 1..width of the product of `values` and catalysts[r].

    Products are formed, sorted and renormalized exactly as
    :func:`tensor_product_spectrum` does it, so every entry has the same
    bits; past the product's length the sums stay at the row total, as
    :func:`~entorder.spectra.prefix_sums` pads a finite spectrum.
    """
    rows = len(catalysts)
    products = values[:, None] * catalysts[:, None, :]
    products = np.sort(products.reshape(rows, -1), axis=1)[:, ::-1]
    spectra = products / products.sum(axis=1, keepdims=True)
    size = spectra.shape[1]
    sums = np.empty((rows, width))
    np.cumsum(spectra, axis=1, out=sums[:, :size])
    sums[:, size:] = sums[:, size - 1 : size]
    return sums


def _first_hit(
    a: SchmidtSpectrum, b: SchmidtSpectrum, catalysts: np.ndarray, tol: Tolerances
) -> tuple[int, Relation] | None:
    """First row of `catalysts` that opens a direction, with that direction.

    Forward means a (x) c is majorized by b (x) c: no prefix difference
    exceeds tau_cmp, so equal product spectra count as forward.  Backward is
    the mirror test and decides only rows that are not forward.
    """
    width = max(len(a), len(b)) * catalysts.shape[1]
    diff = _catalysed_prefix_sums(a.values, catalysts, width)
    diff -= _catalysed_prefix_sums(b.values, catalysts, width)
    forward = ~(diff > tol.tau_cmp).any(axis=1)
    backward = ~(diff < -tol.tau_cmp).any(axis=1)
    hits = np.flatnonzero(forward | backward)
    if len(hits) == 0:
        return None
    row = int(hits[0])
    return row, Relation.FORWARD if forward[row] else Relation.BACKWARD


def catalyst_convertible(
    a: SchmidtSpectrum,
    b: SchmidtSpectrum,
    c: SchmidtSpectrum,
    tol: Tolerances = DEFAULT_TOLERANCES,
    *,
    size_cap: int = DEFAULT_SIZE_CAP,
) -> Relation | None:
    """Direction opened by catalyst `c`, or None.

    Forward means a (x) c is majorized by b (x) c; equal product spectra
    count as forward (the conversion exists trivially).  This is the scan
    kernel of :func:`catalyst_search` run on the single row `c`, so both
    decide a catalyst the same way.  Tailed inputs raise
    InfiniteSchmidtNumber and oversized products SizeCapExceeded, `a`
    checked before `b`, before any product is formed.
    """
    _require_finite(c, "tensor product")
    for spec in (a, b):
        _check_product_factor(spec, len(c), size_cap)
    hit = _first_hit(a, b, c.values[None, :], tol)
    return None if hit is None else hit[1]


def sorted_simplex_grid(dim: int, steps: int):
    """Yield sorted probability vectors (c1 >= ... >= c_dim) on a 1/steps grid.

    Enumeration is ascending lexicographic (flattest vectors first), so the
    first hit of a scan is a deterministic, canonical witness.  For dim > 2
    vectors with a trailing zero are skipped: they already appeared at the
    lower dimension.
    """
    if dim < 1:
        raise InvalidInput("dimension must be at least 1")
    if steps < 2:
        raise InvalidInput("grid needs at least 2 steps")

    def parts(remaining, slots, cap):
        if slots == 1:
            if remaining <= cap:
                yield (remaining,)
            return
        lo = -(-remaining // slots)  # ceil: keep the sequence non-increasing
        for head in range(lo, min(cap, remaining) + 1):
            for rest in parts(remaining - head, slots - 1, head):
                yield (head,) + rest

    for combo in parts(steps, dim, steps):
        if dim > 2 and combo[-1] == 0:
            continue
        yield np.asarray(combo, dtype=float) / steps


def _grid_cap(size_cap: int) -> int:
    """Entries one catalyst grid may hold under a product cap `size_cap`.

    A small `size_cap` bounds product spectra without shrinking the grids
    the default allows; a larger one lets larger grids through.
    """
    return max(size_cap, DEFAULT_SIZE_CAP)


@functools.lru_cache(maxsize=256)
def _grid_entries(dim: int, steps: int, cap: int) -> int:
    """Entries (rows * dim) of :func:`_catalyst_grid`, counted unbuilt.

    A row is a partition of `steps` into `dim` non-increasing parts, where a
    zero last part is allowed only at dim 2.  Above dim 2 every part is
    positive, so the rows are the partitions of steps - dim into parts of at
    most dim, counted by total: ways(t, p) = ways(t, p - 1) + ways(t - p, p).
    The count never falls as the total grows, so it stops once it passes
    `cap`: the result is exact for a grid that fits and cap + 1 otherwise.
    """
    if dim == 2:
        rows = steps // 2 + 1
    elif steps < dim:
        rows = 0
    else:
        ways = [[1] * (dim + 1)]  # ways[t][p]: partitions of t into parts <= p
        for t in range(1, steps - dim + 1):
            row = [0] * (dim + 1)
            for p in range(1, dim + 1):
                row[p] = row[p - 1] + (ways[t - p][p] if p <= t else 0)
            ways.append(row)
            if row[dim] * dim > cap:
                break
        rows = ways[-1][dim]
    return min(rows * dim, cap + 1)


@functools.lru_cache(maxsize=32)
def _catalyst_grid(dim: int, steps: int) -> np.ndarray:
    """:func:`sorted_simplex_grid` as a read-only (G, dim) array, same order."""
    entries = itertools.chain.from_iterable(sorted_simplex_grid(dim, steps))
    grid = np.fromiter(entries, dtype=float).reshape(-1, dim)
    grid.flags.writeable = False
    return grid


def catalyst_search(
    a: SchmidtSpectrum,
    b: SchmidtSpectrum,
    dim_max: int,
    grid_steps: int,
    tol: Tolerances = DEFAULT_TOLERANCES,
    *,
    size_cap: int = DEFAULT_SIZE_CAP,
) -> CatalystWitness | None:
    """Scan grid catalysts of dimension 2..dim_max for an opened direction.

    Returns the first working catalyst in the canonical grid order (see
    :func:`sorted_simplex_grid`), with the direction
    :func:`catalyst_convertible` gives for it.  Each dimension's grid is
    built once per process and cached; it is scanned in blocks of rows,
    each decided by one batched kernel, and the scan stops at the block
    holding the first hit.  Before a dimension's grid is built, products of
    that size are checked against `size_cap` (`a` before `b`), and then the
    grid's entries, counted by :func:`_grid_entries`, against
    max(size_cap, DEFAULT_SIZE_CAP); so smaller dimensions that fit are
    scanned first.

    Absence is NOT a proof of impossibility: the grid is finite and coarse,
    so None only means the bounded search failed.
    """
    _require_finite(a, "catalyst search")
    _require_finite(b, "catalyst search")
    if dim_max < 2:
        raise InvalidInput("dim_max must be at least 2")
    if grid_steps < 2:
        raise InvalidInput("grid needs at least 2 steps")
    grid_cap = _grid_cap(size_cap)
    for dim in range(2, dim_max + 1):
        entries = _grid_entries(dim, grid_steps, grid_cap)
        if entries == 0:
            continue  # every vector has a trailing zero, seen at a lower dim
        for spec in (a, b):
            _check_product_factor(spec, dim, size_cap)
        if entries > grid_cap:
            raise SizeCapExceeded(
                entries,
                grid_cap,
                f"the catalyst grid of dimension {dim} at {grid_steps} steps "
                f"needs more than {grid_cap} entries",
            )
        grid = _catalyst_grid(dim, grid_steps)
        rows = max(1, _BLOCK_ENTRIES // ((len(a) + len(b)) * dim))
        for start in range(0, len(grid), rows):
            hit = _first_hit(a, b, grid[start : start + rows], tol)
            if hit is not None:
                row, direction = hit
                catalyst = SchmidtSpectrum(grid[start + row].copy())
                return CatalystWitness(direction, catalyst)
    return None


class StrongOutcome(enum.Enum):
    STRONG_BY_C = "strong-by-c"
    CONVERTIBLE = "convertible-witness"
    INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class StrongVerdict:
    """Tri-state strong-incomparability verdict with its evidence.

    `checked_bounds` records (m_max, catalyst_dim_max, grid_steps) so an
    `inconclusive` outcome carries the extent of the failed search.
    """

    outcome: StrongOutcome
    witness: MultiCopyWitness | CatalystWitness | None
    checked_bounds: tuple[int, int, int]

    def to_json(self) -> dict:
        return {
            "outcome": self.outcome.value,
            "witness": None if self.witness is None else self.witness.to_json(),
            "checked_bounds": {
                "m_max": self.checked_bounds[0],
                "catalyst_dim_max": self.checked_bounds[1],
                "grid_steps": self.checked_bounds[2],
            },
        }


def strong_verdict(
    a: SchmidtSpectrum,
    b: SchmidtSpectrum,
    *,
    m_max: int = 3,
    catalyst_dim_max: int = 3,
    grid_steps: int = 100,
    tol: Tolerances = DEFAULT_TOLERANCES,
    size_cap: int = DEFAULT_SIZE_CAP,
) -> StrongVerdict:
    """Combine the sound paths into one verdict.

    condition_c proves strong incomparability; a witness search proves
    convertibility.  Witnesses are searched cheapest conversion first:
    single copy, then a grid catalyst, then collective multi-copy
    operations.  The two paths can never both succeed (top entries and
    Schmidt numbers both multiply under tensor products, so a conversion
    forces the non-strict reversal of one of the orderings that condition_c
    requires strictly); if they ever do, an InternalInconsistency is raised
    because one of the implementations is wrong.  When condition_c holds,
    the witness searches still run as a self-audit, but only as far as the
    caps allow: copy counts and catalyst dimensions whose products would
    exceed `size_cap`, or whose grid would exceed max(size_cap,
    DEFAULT_SIZE_CAP) entries, are skipped, so a resource cap never
    overturns a proven verdict, and `checked_bounds` records the bounds
    actually audited.
    """
    for name, value, least in (
        ("m_max", m_max, 1),
        ("catalyst_dim_max", catalyst_dim_max, 2),
        ("grid_steps", grid_steps, 2),
    ):
        if value < least:
            raise InvalidInput(f"{name} must be at least {least}")
    holds = condition_c(a, b, tol)
    if holds:
        width = max(len(a), len(b))
        while m_max > 0 and _power_size(width, m_max, size_cap) > size_cap:
            # width**e exceeds size_cap for every e from its bit length on
            m_max = min(m_max - 1, size_cap.bit_length())
        grid_cap = _grid_cap(size_cap)
        dims = 1
        while dims < catalyst_dim_max and (
            width * (dims + 1) <= size_cap
            and _grid_entries(dims + 1, grid_steps, grid_cap) <= grid_cap
        ):
            dims += 1
        catalyst_dim_max = dims
    bounds = (m_max, catalyst_dim_max, grid_steps)
    witness: MultiCopyWitness | CatalystWitness | None = None
    if m_max > 0:
        witness = multicopy_convertible(a, b, 1, tol, size_cap=size_cap)
    if witness is None and catalyst_dim_max > 1:
        witness = catalyst_search(
            a, b, catalyst_dim_max, grid_steps, tol, size_cap=size_cap
        )
    if witness is None and m_max > 1:
        witness = multicopy_convertible(a, b, m_max, tol, size_cap=size_cap)
    if holds and witness is not None:
        raise InternalInconsistency(
            f"sound sufficient test and witness search both fired: {witness}"
        )
    if holds:
        return StrongVerdict(StrongOutcome.STRONG_BY_C, None, bounds)
    if witness is not None:
        return StrongVerdict(StrongOutcome.CONVERTIBLE, witness, bounds)
    return StrongVerdict(StrongOutcome.INCONCLUSIVE, None, bounds)
