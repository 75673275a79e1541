"""Multi-copy and catalyst-assisted convertibility.

Two spectra that are incomparable one copy at a time may still become
convertible when several copies are transformed collectively, or when an
ancillary entangled state (a catalyst) is attached and returned intact.  A
pair is *strongly* incomparable when no finite copy count and no
finite-Schmidt-number catalyst opens either direction.

This module provides

* :func:`_top_products`, the one product kernel.  Tensor products, tensor
  powers, top-k power prefixes, the multi-copy search and the catalyst
  scan all form their products with it, a power one copy at a time (power
  m is the product of the sorted power m - 1 with the factor), so every
  path forms the same floats and agrees bit for bit with every other.  A
  top-k pass gathers only the products that can reach the top k, as
  ascending runs, by a :func:`_gather_plan` that a power's copy loop builds
  once, and merges the runs with one stable sort,
* :func:`condition_c`, a sound sufficient test for strong incomparability:
  the same spectrum has both the strictly larger top entry and the strictly
  larger Schmidt number.  A larger top entry rules that state out as the
  source of a conversion (the first prefix inequality fails) and a larger
  Schmidt number rules it out as the target (Schmidt numbers cannot grow);
  both quantities multiply under tensor products, so the blockage survives
  any copy count and any finite catalyst;
* bounded witness searches over copy counts and catalyst grids, and
  :func:`strong_verdict`, which combines the sound paths and otherwise
  reports an honest ``inconclusive``,
* :func:`_ends_block`, the end screen that spares :func:`strong_verdict`
  searches that cannot succeed: along a conversion of equal-length
  spectra the top entry cannot fall and the smallest cannot rise, so when
  one spectrum has both the larger top and the larger smallest entry, by a
  margin that no product's rounding or slack can close, no search within
  the bounds opens a direction and the verdict is ``inconclusive``
  without one.

The catalyst scan is batched.  Each ``(dim, steps)`` grid of
:func:`_build_catalyst_grid` is built as a read-only ``(G, dim)`` array
and kept in a size-bounded cache.  The rows of dimensions 2, 3, ... form
one sequence, cut into blocks that may span dimensions, and a block is
decided together: products ``a (x) c`` and ``b (x) c`` for every row,
one prefix-sum buffer, and both prefix inequalities, decided by
:func:`~entorder.majorization.compare_many` like every other majorization
verdict.  So each row's verdict is the one
:func:`~entorder.majorization.compare` gives on that pair of
:func:`tensor_product_spectrum` spectra.  Blocks hold a bounded number of
product entries, which bounds peak memory and stops the scan, and the
building of grids, at the block holding the first hit.  A grid is built
in numpy one part per column, and one over its entry cap is refused
before the first level over the cap is allocated.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import InfiniteSchmidtNumber, SizeCapExceeded
from .majorization import (
    DIRECTIONS, Relation, _prefix_pair, compare_many, verdict_code
)
from .spectra import (
    _BLOCK_ENTRIES,
    DEFAULT_SIZE_CAP,
    DEFAULT_TOLERANCES,
    SchmidtSpectrum,
    Tolerances,
    _integer,
    schmidt_number,
    spectrum_to_json,
)

def _require_finite(spec: SchmidtSpectrum, what: str) -> None:
    if spec.tail is not None:
        raise InfiniteSchmidtNumber(f"{what} requires a finite spectrum")


def _top_products(
    x: np.ndarray, y: np.ndarray, k: int, plan: tuple | None = None
) -> np.ndarray:
    """Largest k products x[..., i] * y[j], sorted non-increasing along the
    last axis: the one place entorder multiplies spectrum entries.

    `y` and every row of `x` are non-increasing.  When k covers all
    x.shape[-1] * len(y) products (a product, the catalyst scan, a full
    power), one broadcast multiply forms them all.  Otherwise an entry at
    (i, j) is at most every entry of the rectangle i' <= i, j' <= j, so
    when (i + 1) * (j + 1) > k at least k other entries are as large and
    the top k can be formed without it: column j needs only the top
    min(n, k // (j + 1)) entries of x, about k * ln(len(y)) candidates in
    all.  One gather by `plan`, the :func:`_gather_plan` of (n, y, k), takes
    each column's candidates smallest first from x[..., ::-1] (for a sorted
    prefix that is contiguous ascending memory), and one in-place multiply
    by their factors turns them into at most len(y) ascending runs.  A
    stable sort (numpy's timsort, which merges runs it finds) orders them,
    and the top k is the reversed tail of that array, a view of it.

    The bytes cannot depend on the path: each entry is the float x[..., i]
    * y[j] (IEEE multiplication commutes), the staircase keeps every
    product that can reach the top k, and a multiset of floats has exactly
    one sorted order, so ties are indistinguishable wherever they came from.

    Products renormalize and powers do not: :func:`tensor_product_spectrum`
    and the catalyst scan divide each row by its total, while powers keep
    the products as computed, their mass off 1 by about m rounding units.
    """
    if k >= x.shape[-1] * len(y):
        # a 2-D block of catalysts runs the inner loop over the longer spectrum
        products = x[..., None] * y if x.ndim > 1 else y[:, None] * x
        return np.sort(products.reshape(*x.shape[:-1], -1), axis=-1)[..., ::-1]
    index, factors = _gather_plan(x.shape[-1], y, k) if plan is None else plan
    products = x[..., ::-1].take(index, axis=-1)
    products *= factors
    products.sort(axis=-1, kind="stable")
    return products[..., : -k - 1 : -1]


def _gather_plan(n: int, y: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Gather indices into an ascending n-entry x, and their factors, for
    the top k products of :func:`_top_products`: for each j, the indices of
    the top min(n, k // (j + 1)) entries, smallest first, each paired with
    y[j]."""
    counts = [min(n, k // j) for j in range(1, len(y) + 1)]
    rows = np.arange(n)
    return np.concatenate([rows[n - count :] for count in counts]), y.repeat(counts)


def tensor_product_spectrum(
    a: SchmidtSpectrum,
    c: SchmidtSpectrum,
    *,
    size_cap: int = DEFAULT_SIZE_CAP,
) -> SchmidtSpectrum:
    """Spectrum of a joint system: sorted pairwise products, renormalized."""
    _require_finite(c, "tensor product")
    _require_finite(a, "tensor product")
    size_cap = _integer("size_cap", size_cap, 1)
    _check_product_factor(a, len(c), size_cap)
    products = _top_products(a.values, c.values, len(a) * len(c))
    return SchmidtSpectrum(products / products.sum())


def tensor_power_spectrum(
    a: SchmidtSpectrum,
    m: int,
    *,
    size_cap: int = DEFAULT_SIZE_CAP,
) -> SchmidtSpectrum:
    """Spectrum of m copies: all m-fold entry products, sorted non-increasing."""
    _require_finite(a, "tensor power")
    m = _integer("m", m, 1, "copy count must be at least 1")
    size_cap = _integer("size_cap", size_cap, 1)
    _check_power_size(len(a), m, size_cap)
    return SchmidtSpectrum(_power_prefix(a, m, size_cap, size_cap))


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


def _power_prefix(a: SchmidtSpectrum, m: int, k: int, cap: int) -> np.ndarray:
    """Largest k entries of the m-copy spectrum of `a`, as a new array.

    The copy loop of powers and top-k prefixes (:func:`_multicopy_search`
    keeps its own, over full powers, deciding each copy count as it goes):
    each further copy is one :func:`_top_products` call on the running
    k-prefix, which is exact, since an entry outside the top k of a partial
    product stays dominated by at least k entries after every further
    factor.  The loop makes m - 1 passes whatever the size of
    its output, so m * len(a) is refused past `cap` first; for len(a) >= 2
    that is at most len(a)**m, so every output size error is raised before
    it.  A power of [1.0] is [1.0] bit for bit and takes no pass at all.

    Once the prefix holds k entries every further pass has the same shape,
    so its :func:`_gather_plan` is built then, once, and serves every later
    pass; the pass that first fills the prefix builds its own.  Nothing
    outlives the call, and a prefix that is a view of a pass's larger
    candidate array is copied out, so the result holds k entries.
    """
    work = m * len(a)
    if work > cap:
        raise SizeCapExceeded(
            work,
            cap,
            f"operation needs {work} products ({m} copies of a {len(a)}-entry "
            f"spectrum); cap is {cap}",
        )
    cur = a.values[:k].copy()
    if len(a) == 1 and a.values[0] == 1.0:
        return cur
    plan = None
    for _ in range(m - 1):
        if plan is None and len(cur) == k:
            plan = _gather_plan(k, a.values, k)
        cur = _top_products(cur, a.values, k, plan)
    return cur.copy() if cur.base is not None and cur.base.size > k else cur


def top_k_tensor_power(a: SchmidtSpectrum, m: int, k: int) -> np.ndarray:
    """Largest k entries of the m-copy spectrum without building all of it.

    The copy loop of :func:`tensor_power_spectrum`, keeping k entries per
    copy, so this equals the first k entries of the full power wherever
    that fits.  The min(k, len(a)**m) output entries, and then the m *
    len(a) work of the loop, are checked against `DEFAULT_SIZE_CAP` before
    any array is built.
    """
    _require_finite(a, "tensor power prefix")
    m = _integer("m", m, 1, "copy count must be at least 1")
    k = _integer("k", k, 1, "prefix length must be at least 1")
    size = min(k, _power_size(len(a), m, k))
    if size > DEFAULT_SIZE_CAP:
        raise SizeCapExceeded(size, DEFAULT_SIZE_CAP)
    return _power_prefix(a, m, k, DEFAULT_SIZE_CAP)


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
    _require_finite(a, "condition_c")
    _require_finite(b, "condition_c")
    na = schmidt_number(a, tol)
    nb = schmidt_number(b, tol)
    gap = float(a.values[0] - b.values[0])
    if gap > tol.tau_cmp:
        return na > nb
    if gap < -tol.tau_cmp:
        return na < nb
    return False


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
    nothing about m+1, so each copy count is tested independently.  Power
    m is one kernel call on power m - 1, as in :func:`tensor_power_spectrum`,
    and both directions at m come from one
    :func:`~entorder.majorization.compare_many` call: its backward mask is
    bit for bit the forward mask of the swapped pair, since IEEE subtraction
    is antisymmetric.
    """
    _require_finite(a, "multi-copy search")
    _require_finite(b, "multi-copy search")
    m_max = _integer("m_max", m_max, 1)
    size_cap = _integer("size_cap", size_cap, 1)
    return _multicopy_search(a, b, 1, m_max, tol, size_cap)


def _multicopy_search(a, b, first, m_max, tol, size_cap):
    """:func:`multicopy_convertible` on checked arguments, deciding only m =
    first..m_max (the powers below `first` are still built, each from the last)."""
    _check_power_size(max(len(a), len(b)), m_max, size_cap)
    pa, pb = a, b
    for m in range(1, m_max + 1):
        if m > 1:
            pa = SchmidtSpectrum(_top_products(pa.values, a.values, size_cap))
            pb = SchmidtSpectrum(_top_products(pb.values, b.values, size_cap))
        if m < first:
            continue
        forward, backward = compare_many(*_prefix_pair(pa, pb, tol))
        direction = DIRECTIONS[verdict_code(bool(forward.any()), bool(backward.any()))]
        if direction is not None:
            return MultiCopyWitness(direction, m)
    return None


def _check_product_factor(spec: SchmidtSpectrum, dim: int, size_cap: int) -> None:
    """Raise as a product of `spec` with a finite `dim`-entry factor would."""
    _require_finite(spec, "tensor product")
    size = len(spec) * dim
    if size > size_cap:
        raise SizeCapExceeded(size, size_cap)


def _first_hit(
    a: SchmidtSpectrum, b: SchmidtSpectrum, pieces: list[np.ndarray], tol: Tolerances
) -> tuple[np.ndarray, Relation] | None:
    """First catalyst of a block that opens a direction, with that direction.

    The block is the rows of `pieces`, one `(rows, dim)` catalyst array per
    dimension, widest last.  Each piece's products come from one
    :func:`_top_products` call per spectrum, divided by their own row sums
    as in :func:`tensor_product_spectrum`, so every entry has the same bits;
    zeros past them in each spectrum's `(width, rows)` buffer keep a row's
    prefix sums at its total.  One cumsum and one `compare_many` call (slack
    `tau_cmp`) decide the block, a row's verdict code its direction.
    """
    width = max(len(a), len(b)) * pieces[-1].shape[1]
    sums = np.zeros((2, width, sum(len(piece) for piece in pieces)))
    for out, values in zip(sums, (a.values, b.values)):
        start = 0
        for piece in pieces:
            products = _top_products(piece, values, piece.shape[1] * len(values))
            rows = out[: products.shape[1], start : start + len(piece)]
            np.divide(products.T, products.sum(axis=1), out=rows)
            start += len(piece)
    forward, backward = compare_many(*np.cumsum(sums, axis=1, out=sums), tol.tau_cmp)
    codes = verdict_code(forward.any(axis=0), backward.any(axis=0))
    hits = np.flatnonzero(codes < 3)  # code 3 opens neither direction
    if not len(hits):
        return None
    row = hits[0]
    for piece in pieces:
        if row < len(piece):
            return piece[row], DIRECTIONS[codes[hits[0]]]
        row -= len(piece)


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
    _require_finite(a, "tensor product")
    size_cap = _integer("size_cap", size_cap, 1)
    for spec in (a, b):
        _check_product_factor(spec, len(c), size_cap)
    hit = _first_hit(a, b, [c.values[None, :]], tol)
    return None if hit is None else hit[1]


# Grid entries the catalyst grid cache keeps besides its largest grid (8 MB
# of floats).  The largest is exempt so that a grid over this bound is not
# dropped, and rebuilt, whenever a smaller one is built after it.
_GRID_CACHE_ENTRIES = 1 << 20
# (dim, steps) -> grid, least recently used first.
_grid_cache: dict[tuple[int, int], np.ndarray] = {}


def _grid_over_cap(dim: int, steps: int, cap: int) -> SizeCapExceeded:
    return SizeCapExceeded(
        cap + 1,
        cap,
        f"the catalyst grid of dimension {dim} at {steps} steps "
        f"needs more than {cap} entries",
    )


def _catalyst_grid(dim: int, steps: int, cap: int) -> np.ndarray:
    """The grid of :func:`_build_catalyst_grid`, built once and refused over `cap`.

    Grids are cached by (dim, steps) alone, so one build serves every cap:
    a cached grid over a caller's cap is refused from its size, as its
    build would be, without rebuilding or recounting it.  After a build,
    the least recently used grids are dropped while the grids besides the
    largest hold more than `_GRID_CACHE_ENTRIES` entries.
    """
    key = (dim, steps)
    grid = _grid_cache.pop(key, None)
    if grid is None:
        grid = _build_catalyst_grid(dim, steps, cap)
        _grid_cache[key] = grid
        while len(_grid_cache) > 1:
            sizes = [held.size for held in _grid_cache.values()]
            if sum(sizes) - max(sizes) <= _GRID_CACHE_ENTRIES:
                break
            del _grid_cache[next(iter(_grid_cache))]
        return grid
    _grid_cache[key] = grid
    if grid.size > cap:
        raise _grid_over_cap(dim, steps, cap)
    return grid


_catalyst_grid.cache_clear = _grid_cache.clear


def _build_catalyst_grid(dim: int, steps: int, cap: int) -> np.ndarray:
    """Sorted probability vectors c1 >= ... >= c_dim on a 1/steps grid, as
    the rows of a read-only (G, dim) array in the canonical scan order.

    A row is a partition of `steps` into `dim` non-increasing parts, divided
    by `steps`.  Rows ascend lexicographically (flattest first), so the
    first hit of a scan is a deterministic, canonical witness.  Above dim 2
    every part is positive: a vector with a trailing zero already appeared
    at the lower dimension.  The columns are built one part at a time: each
    partial row is repeated once per admissible next part, in ascending
    order, so the rows keep that order.  A next part is admissible when it
    is at most the previous part, at least ceil(left / slots) of the mass
    `left` still to place in `slots` parts, and leaves the later parts their
    least value; the last part is the mass left.  Every partial row can
    therefore be completed and the row count never falls from one part to
    the next, so a grid of more than `cap` entries is refused before its
    first level over the cap is built.
    """
    least = 1 if dim > 2 else 0
    parts = np.empty((1, 0), dtype=np.int64)
    left = head = np.array([steps])
    for slots in range(dim, 1, -1):
        lo = -(-left // slots)
        counts = np.minimum(head, left - (slots - 1) * least) - lo + 1
        np.maximum(counts, 0, out=counts)  # no row at all when steps < dim > 2
        rows = int(counts.sum())
        if rows * dim > cap:
            raise _grid_over_cap(dim, steps, cap)
        parent = np.repeat(np.arange(len(counts)), counts)
        head = np.arange(rows) - np.repeat(np.cumsum(counts) - counts - lo, counts)
        parts = np.column_stack([parts[parent], head])
        left = left[parent] - head
    grid = np.empty((len(left), dim))
    np.divide(parts, steps, out=grid[:, :-1])
    np.divide(left, steps, out=grid[:, -1])
    grid.flags.writeable = False
    return grid


def _grid_rows(dim: int, steps: int, limit: int) -> int:
    """Row count of the :func:`_build_catalyst_grid` grid of (dim, steps),
    clipped at `limit`, without building the grid.

    A dimension-2 row is a partition of `steps` into at most 2 parts, and a
    dimension-d row, d > 2, one into exactly d positive parts, that is (one
    taken from each part) a partition of steps - d into at most d parts.
    `counts[s]` counts the partitions of s into parts of at most `part`;
    adding the part size `part` is the recurrence counts[s] += counts[s -
    part], one cumulative sum along each residue class mod `part`.  Each
    sum is clipped at `limit`, which keeps min(count, limit) exact, and
    overflows no int64 while `limit` times the length of `counts` is below
    2**63 (Python integers count past that).
    """
    free = steps - dim if dim > 2 else steps
    if free < 0:
        return 0
    dtype = np.int64 if limit * (free + 1) < 2**63 else object
    counts = np.zeros(free + 1, dtype)
    counts[0] = 1
    for part in range(1, dim + 1):
        padded = np.zeros(-(-(free + 1) // part) * part, dtype)
        padded[: free + 1] = counts
        sums = padded.reshape(-1, part).cumsum(axis=0).ravel()
        counts = np.minimum(sums[: free + 1], limit)
    return int(counts[free])


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
    :func:`_build_catalyst_grid`), with the direction
    :func:`catalyst_convertible` gives for it.  The grid rows of
    :func:`_scan_blocks`, dimension by dimension, are scanned in blocks
    that may span dimensions, each decided by one batched kernel, and the
    scan stops at the block holding the first hit, so no grid past that
    block is built.  A refused dimension is raised only after the smaller
    ones have been scanned.

    Absence is NOT a proof of impossibility: the grid is finite and coarse,
    so None only means the bounded search failed.
    """
    _require_finite(a, "catalyst search")
    _require_finite(b, "catalyst search")
    dim_max = _integer("dim_max", dim_max, 2)
    grid_steps = _integer("grid_steps", grid_steps, 2, "grid needs at least 2 steps")
    size_cap = _integer("size_cap", size_cap, 1)
    for block in _scan_blocks(a, b, dim_max, grid_steps, size_cap):
        hit = _first_hit(a, b, block, tol)
        if hit is not None:
            return CatalystWitness(hit[1], SchmidtSpectrum(hit[0].copy()))
    return None


def _scan_dims(dim_max: int, steps: int) -> range:
    """Dimensions of the catalyst scan: past `steps` a grid has no rows, so
    no dimension there is checked or built."""
    return range(2, min(dim_max, steps) + 1)


def _admit_dim(a, b, dim: int, steps: int, size_cap: int, grid):
    """Admit dimension `dim` of the catalyst scan: the products of `a`, then
    `b`, with a dim-entry catalyst are checked against `size_cap`, and then
    `grid(dim, steps, cap)` is returned, the grid cap being max(size_cap,
    DEFAULT_SIZE_CAP), so a small `size_cap` bounds products without
    shrinking the default grids."""
    for spec in (a, b):
        _check_product_factor(spec, dim, size_cap)
    return grid(dim, steps, max(size_cap, DEFAULT_SIZE_CAP))


def _scan_blocks(a, b, dim_max: int, steps: int, size_cap: int):
    """The catalyst grid rows of the :func:`_scan_dims` in blocks, each a
    list of grid slices, one per dimension, and at most `_BLOCK_ENTRIES`
    product entries of the pair counted at its widest dimension (or one
    row).  A full block is yielded before the next dimension is admitted by
    :func:`_admit_dim`, its grid fetched by :func:`_catalyst_grid`.  A
    refusal is raised after the pending block is yielded."""
    block, held = [], 0
    for dim in _scan_dims(dim_max, steps):
        rows = max(1, _BLOCK_ENTRIES // ((len(a) + len(b)) * dim))
        if held >= rows:
            yield block
            block, held = [], 0
        try:
            grid = _admit_dim(a, b, dim, steps, size_cap, _catalyst_grid)
        except SizeCapExceeded:
            if block:
                yield block
            raise
        while len(grid):
            block.append(grid[: rows - held])
            held, grid = held + len(block[-1]), grid[rows - held :]
            if held >= rows:
                yield block
                block, held = [], 0
    if block:
        yield block


def _check_scan(a, b, dim_max: int, steps: int, size_cap: int) -> None:
    """Raise the refusal, if any, that draining :func:`_scan_blocks` raises:
    the same dimensions admitted in the same order, each grid decided by
    :func:`_check_grid` with none built or fetched."""
    for dim in _scan_dims(dim_max, steps):
        _admit_dim(a, b, dim, steps, size_cap, _check_grid)


def _check_grid(dim: int, steps: int, cap: int) -> None:
    """Raise as :func:`_catalyst_grid` does when the grid of (dim, steps)
    holds more than `cap` entries, without building it.

    At dimension 2 the grid is the builder's single level, steps // 2 + 1
    rows.  Above it rows are counted only where two bounds leave the answer
    open.  The upper one: a row is a multiset of parts, so there are at
    most as many rows as ordered ways, math.comb(free + dim - 1, dim - 1),
    to share out the mass `free` the parts hold above their least value.
    The lower ones: each row accounts for at most dim! of those ways, and a
    grid has at least the rows of the builder's first level, free + 1 -
    ceil(free / dim).  So a grid the builder refuses at its first level is
    refused here at once, and :func:`_grid_rows` counts only grids whose
    first level fits, in arrays of free + 1 entries, at most twice that
    level's rows: about the memory the builder spends there.
    """
    if dim == 2:
        least = most = steps // 2 + 1
    else:
        free = steps - dim
        if free < 0:
            return
        most = math.comb(free + dim - 1, dim - 1)
        least = max(free + 1 - -(-free // dim), -(-most // math.factorial(dim)))
    if least * dim > cap or (
        most * dim > cap and _grid_rows(dim, steps, cap) * dim > cap
    ):
        raise _grid_over_cap(dim, steps, cap)


_EPS = float(np.finfo(float).eps)


def _ends_block(a, b, m_max: int, dim_max: int, steps: int, tol: Tolerances) -> bool:
    """True when the end entries of an equal-length finite pair block both
    directions in every search of :func:`strong_verdict` within the bounds.

    Along a conversion x -> y (x majorized by y) of two n-entry spectra the
    top entry cannot fall (x1 <= y1, the first prefix inequality) and the
    smallest cannot rise (x_n >= y_n, the (n - 1)-th), and both ends
    multiply under tensor products: the Renyi entropies of order +inf and
    -inf.  So when a1 - b1 and a_n - b_n have the same strict sign, one end
    blocks each direction at every copy count and with every catalyst.  The
    test asks for that with a margin: in the common sign, each of the gaps
    (a1 - b1) / min(dim_max, steps) and (a_n - b_n) / steps, and for m = 1
    .. m_max the gaps of the m-fold left-fold products a1 * ... * a1 and
    a_n * ... * a_n, exceeds tau_cmp + delta, where

        delta = 4 * (N + 2) * eps + 4 * m_max * E,

    N = max(n * min(dim_max, steps), n**m_max) is the longest product the
    searches form and E = |sum(a) - 1| + |sum(b) - 1| + 2 * n * eps bounds
    both masses' distances from 1 (each count is clipped at 2**53, past
    which delta exceeds every gap).

    Proof that no search then accepts a direction.  Say a1 > b1 and a_n >
    b_n (otherwise swap the roles) and let u = eps / 2.  The top gap is at
    most 1 + E and exceeds 4 * m_max * E, so E < 1 / (4 * m_max - 1) and
    every mass to a power m <= m_max is below e**(1/3) < 1.4.  Rounding is
    monotone, so the largest and smallest entries of a computed product are
    the products of the largest and of the smallest factors.

    * Copies.  Power m's top entries are this test's folds, so the search
      compares at index 1 the very difference tested here.  Its prefix at
      index n**m - 1 is the total less the smallest entry, within a
      relative N * u by a sequential cumsum, and the totals are the masses
      to the power m within a relative m * u, so b's prefix there exceeds
      a's by at least (a_n**m - b_n**m) - 1.4 m E - 2.8 (N + m) u.
    * Catalysts.  A grid row c of dimension d <= min(dim_max, steps) has
      c1 >= sum(c) / d, and its smallest positive part c_r, a multiple of
      1 / steps, is at least (1 - u) / steps.  A catalysed entry c_j x_k is
      divided by its row's float sum, so it is c_j x_k / (sum(c) sum(x))
      within (d n + 2) u, and each row sums to 1 within (d n + 1) u.  At
      index 1 the difference is at least (a1 - b1) / d - E - 2 (N + 2) u.
      At index r n - 1, past which only the smallest entry c_r x_n and
      zeros remain, b's prefix exceeds a's by at least (a_n - b_n) / steps -
      E - 6 (N + 2) u, cumsum and both row totals counted.

    Each bound, less the few rounding units of this test's own arithmetic,
    exceeds tau_cmp, so the forward test fails at index 1 and the backward
    test at the bottom index, in every search.
    """
    n = len(a)
    if n != len(b):
        return False
    a1, b1 = float(a.values[0]), float(b.values[0])
    an, bn = float(a.values[-1]), float(b.values[-1])
    sign = 1.0 if a1 > b1 else -1.0
    if sign * (an - bn) <= 0:
        return False
    mass = abs(float(a.values.sum()) - 1) + abs(float(b.values.sum()) - 1) + 2 * n * _EPS
    dim = min(dim_max, steps)
    longest = min(max(n * dim, _power_size(n, m_max, 1 << 53)), 1 << 53)
    least = tol.tau_cmp + 4 * (longest + 2) * _EPS + 4 * min(m_max, 1 << 53) * mass
    if min(sign * (a1 - b1) / dim, sign * (an - bn) / steps) <= least:
        return False
    xa, xb, ya, yb = a1, b1, an, bn  # the m-fold products, m = 1, 2, ...
    for _ in range(m_max):
        if min(sign * (xa - xb), sign * (ya - yb)) <= least:
            return False
        xa, xb, ya, yb = xa * a1, xb * b1, ya * an, yb * bn
    return True


class StrongOutcome(enum.Enum):
    STRONG_BY_C = "strong-by-c"
    CONVERTIBLE = "convertible-witness"
    INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class StrongVerdict:
    """Tri-state strong-incomparability verdict with its evidence.

    `checked_bounds` records (m_max, catalyst_dim_max, grid_steps), the
    bounds the verdict covers: for `strong-by-c` the requested ones, all of
    which the proof covers, and otherwise those of the witness search, so
    an `inconclusive` outcome carries the extent of the failed search.  An
    `inconclusive` pair decided by the end screen carries the same bounds:
    the screen shows that every search within them fails, without running
    it.
    """

    outcome: StrongOutcome
    witness: MultiCopyWitness | CatalystWitness | None
    checked_bounds: tuple[int, int, int]

    def to_json(self) -> dict:
        return {
            "outcome": self.outcome.value,
            "witness": None if self.witness is None else self.witness.to_json(),
            "checked_bounds": dict(
                zip(("m_max", "catalyst_dim_max", "grid_steps"), self.checked_bounds)
            ),
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
    convertibility.  In exact arithmetic the two never both succeed: top
    entries and Schmidt numbers both multiply under tensor products, so a
    conversion forces the non-strict reversal of one of the orderings that
    condition_c requires strictly.  So a pair that passes condition_c is
    returned as proven with no search, and `checked_bounds` is the
    requested bounds, all of which the proof covers.  Otherwise witnesses
    are searched cheapest conversion first: single copy, then a grid
    catalyst, then collective multi-copy operations.

    Between the single copy and the catalyst scan, :func:`_ends_block`
    screens equal-length pairs whose top and bottom entries block both
    directions in every search within the bounds.  Such a pair is
    `inconclusive` with no product formed and no grid built: the scan's
    refusals are decided by :func:`_check_scan` and the largest power is
    still sized, so each refusal the searches would raise is raised as they
    would raise it.
    """
    m_max = _integer("m_max", m_max, 1)
    catalyst_dim_max = _integer("catalyst_dim_max", catalyst_dim_max, 2)
    grid_steps = _integer("grid_steps", grid_steps, 2)
    holds = condition_c(a, b, tol)
    size_cap = _integer("size_cap", size_cap, 1)
    bounds = (m_max, catalyst_dim_max, grid_steps)
    if holds:
        return StrongVerdict(StrongOutcome.STRONG_BY_C, None, bounds)
    witness = _multicopy_search(a, b, 1, 1, tol, size_cap)
    if witness is None and _ends_block(a, b, m_max, catalyst_dim_max, grid_steps, tol):
        _check_scan(a, b, catalyst_dim_max, grid_steps, size_cap)
        if m_max > 1:
            _check_power_size(max(len(a), len(b)), m_max, size_cap)
        return StrongVerdict(StrongOutcome.INCONCLUSIVE, None, bounds)
    if witness is None:
        witness = catalyst_search(
            a, b, catalyst_dim_max, grid_steps, tol, size_cap=size_cap
        )
    if witness is None and m_max > 1:
        # m = 1 was decided above
        witness = _multicopy_search(a, b, 2, m_max, tol, size_cap)
    if witness is not None:
        return StrongVerdict(StrongOutcome.CONVERTIBLE, witness, bounds)
    return StrongVerdict(StrongOutcome.INCONCLUSIVE, None, bounds)
