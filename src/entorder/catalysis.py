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
* :func:`_monotones_block`, the screen that spares :func:`strong_verdict`
  searches that cannot succeed: the top and smallest entries of
  equal-length spectra (the ends) and their Renyi power sums sum(x**alpha)
  of :func:`_power_sums` (alpha in (0, 1) or above 1) multiply under
  tensor products and are monotone under majorization, so when an end or
  an order blocks each direction by a margin that no product's rounding or
  slack can close, no search within the bounds opens a direction and the
  verdict is ``inconclusive`` without one, whatever the caps.

The catalyst scan is batched.  Each ``(dim, steps)`` grid of
:func:`_build_catalyst_grid` is built as a read-only ``(G, dim)`` array
and kept in a size-bounded cache.  The dimensions 2, 3, ... are scanned
one at a time, each grid cut into blocks of rows, and a block is decided
together: products ``a (x) c`` and ``b (x) c`` for every row, one
prefix-sum buffer, and both prefix inequalities, decided by
:func:`~entorder.majorization.compare_many` like every other majorization
verdict.  So each row's verdict is the one
:func:`~entorder.majorization.compare` gives on that pair of
:func:`tensor_product_spectrum` spectra.  Blocks hold a bounded number of
product entries, which bounds peak memory and stops the scan at the block
holding the first hit, before any grid of a larger dimension is built.  A
grid is built in numpy one part per column, and one over its entry cap is
refused before the first level over the cap is allocated.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import InfiniteSchmidtNumber, SizeCapExceeded, _count
from .majorization import DIRECTIONS, Relation, _pair_code, compare_many, verdict_code
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
    That holds in bits because ingestion reads every zero as +0.0: -0.0
    ties 0.0 in a sort but not in bits, so among tied zeros two paths
    could keep different ones.

    Products renormalize and powers do not: :func:`tensor_product_spectrum`
    and the catalyst scan divide each row by its total, while powers keep
    the products as computed, their mass off 1 by about m rounding units.
    """
    if k >= x.shape[-1] * len(y):
        # a 2-D block of catalysts runs the inner loop over the longer spectrum
        products = x[..., None] * y if x.ndim > 1 else y[:, None] * x
        products = products.reshape(*x.shape[:-1], -1)
        products.sort(axis=-1)  # in place: the products are a fresh array
        return products[..., ::-1]
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
            size,
            size_cap,
            f"operation needs {length}**{_count(m)} entries; "
            f"cap is {_count(size_cap)}",
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
            f"operation needs {_count(work)} products ({_count(m)} copies of a "
            f"{len(a)}-entry spectrum); cap is {_count(cap)}",
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
    gap = float(a.values[0] - b.values[0])
    return _c_rule(gap, schmidt_number(a, tol), schmidt_number(b, tol), tol.tau_cmp)


def _c_rule(gap: float, na: int, nb: int, tau: float) -> bool:
    """condition_c's rule on a pair's top gap a1 - b1 and Schmidt numbers:
    the gap, beyond `tau`, and the numbers order the pair the same way."""
    return (gap > tau and na > nb) or (gap < -tau and na < nb)


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
    first..m_max (the powers below `first` are still built, each from the last).

    :func:`multicopy_convertible` serves it from m = 1 and
    :func:`strong_verdict` from m = 2 only: it decides the single copy
    itself, with one `_pair_code` call."""
    _check_power_size(max(len(a), len(b)), m_max, size_cap)
    pa, pb = a, b
    for m in range(1, m_max + 1):
        if m > 1:
            pa = SchmidtSpectrum(_top_products(pa.values, a.values, size_cap))
            pb = SchmidtSpectrum(_top_products(pb.values, b.values, size_cap))
        if m < first:
            continue
        direction = DIRECTIONS[_pair_code(pa, pb, tol)]
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
    a: SchmidtSpectrum, b: SchmidtSpectrum, catalysts: np.ndarray, tol: Tolerances
) -> tuple[np.ndarray, Relation] | None:
    """First row of a `(rows, dim)` catalyst block that opens a direction,
    with that direction.

    The products of each spectrum come from one :func:`_top_products` call,
    divided by their own row sums as in :func:`tensor_product_spectrum`, so
    every entry has the same bits; zeros past the shorter spectrum's
    products in the `(width, 2, rows)` buffer keep its prefix sums at its
    total.  The prefix sums are running sums down the buffer, one in-place
    add per index over both spectra's contiguous rows: the sequential order
    of a cumsum, so the same bits at a fraction of its per-row calls.  One
    `compare_many` call (slack `tau_cmp`) decides the block, a row's verdict
    code its direction.
    """
    width = max(len(a), len(b)) * catalysts.shape[1]
    sums = np.zeros((width, 2, len(catalysts)))
    for side, values in enumerate((a.values, b.values)):
        products = _top_products(catalysts, values, catalysts.shape[1] * len(values))
        np.divide(products.T, products.sum(axis=1), out=sums[: products.shape[1], side])
    for k in range(1, width):
        np.add(sums[k - 1], sums[k], out=sums[k])
    forward, backward = compare_many(sums[:, 0], sums[:, 1], tol.tau_cmp)
    codes = verdict_code(forward.any(axis=0), backward.any(axis=0))
    hits = np.flatnonzero(codes < 3)  # code 3 opens neither direction
    if not len(hits):
        return None
    return catalysts[hits[0]], DIRECTIONS[codes[hits[0]]]


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
    hit = _first_hit(a, b, c.values[None, :], tol)
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
    :func:`catalyst_convertible` gives for it.  The dimensions 2..min(dim_max,
    grid_steps) are scanned one at a time (past `grid_steps` a grid has no
    rows, so no dimension there is checked or built).  For each, the
    products of `a`, then `b`, with a dim-entry catalyst are checked against
    `size_cap`, and then the grid is fetched by :func:`_catalyst_grid` under
    the grid cap max(size_cap, DEFAULT_SIZE_CAP), so a small `size_cap`
    bounds products without shrinking the default grids.  The grid is cut
    into blocks of at most `_BLOCK_ENTRIES` product entries of the pair (or
    one row), each decided by one :func:`_first_hit` call, and the scan
    stops at the block holding the first hit, so no grid of a larger
    dimension is built and a refused dimension is raised only after the
    smaller ones have been scanned.

    Absence is NOT a proof of impossibility: the grid is finite and coarse,
    so None only means the bounded search failed.
    """
    _require_finite(a, "catalyst search")
    _require_finite(b, "catalyst search")
    dim_max = _integer("dim_max", dim_max, 2)
    grid_steps = _integer("grid_steps", grid_steps, 2, "grid needs at least 2 steps")
    size_cap = _integer("size_cap", size_cap, 1)
    for dim in range(2, min(dim_max, grid_steps) + 1):
        for spec in (a, b):
            _check_product_factor(spec, dim, size_cap)
        grid = _catalyst_grid(dim, grid_steps, max(size_cap, DEFAULT_SIZE_CAP))
        rows = max(1, _BLOCK_ENTRIES // ((len(a) + len(b)) * dim))
        for start in range(0, len(grid), rows):
            hit = _first_hit(a, b, grid[start : start + rows], tol)
            if hit is not None:
                return CatalystWitness(hit[1], SchmidtSpectrum(hit[0].copy()))
    return None


_EPS = float(np.finfo(float).eps)
# Orders of the Renyi power sums the second screen of strong_verdict tests:
# six Schur-concave orders in (0, 1) and six Schur-convex ones above 1,
# spread so that with the two ends they block what a dense grid blocks.
_ALPHAS = np.array([0.03, 0.1, 0.25, 0.45, 0.7, 0.9, 1.1, 1.4, 1.8, 2.8, 4.4, 8.0])


def _power_sums(rows: np.ndarray, alphas: np.ndarray) -> np.ndarray:
    """sum(x**alpha) of each row x of `rows` at each order alpha of
    `alphas`, with shape rows.shape[:-1] + (len(alphas),): the Renyi power
    sums, which multiply under tensor products and are monotone under
    majorization."""
    return (rows[..., None, :] ** alphas[:, None]).sum(axis=-1)


def _screen_least(a, b, m_max: int, dim: int, tol: Tolerances) -> float:
    """The least gap, tau_cmp + delta, that :func:`_monotones_block` asks of
    an equal-length n-entry pair, for copy counts up to m_max and catalysts
    of dimension up to `dim`:

        delta = 4 * (N + 2) * eps + 4 * m_max * E,

    where N = max(n * dim, n**m_max) is the longest product the searches
    form and E = |sum(a) - 1| + |sum(b) - 1| + 2 * n * eps bounds both
    masses' distances from 1 (each count is clipped at 2**53, past which
    delta exceeds every gap).  With u = eps / 2, delta >= 8 (N + 2) u + 4
    m_max E: the rounding the screen's proof counts.
    """
    n = len(a)
    mass = abs(a.total_mass() - 1) + abs(b.total_mass() - 1) + 2 * n * _EPS
    longest = min(max(n * dim, _power_size(n, m_max, 1 << 53)), 1 << 53)
    return tol.tau_cmp + 4 * (longest + 2) * _EPS + 4 * min(m_max, 1 << 53) * mass


def _fold_gap(x: float, y: float, m_max: int, least: float, scale=1, relative=0.0):
    """1 when x exceeds y, and -1 when y exceeds x, by more than `least`
    once the gap is divided by `scale`, and for m = 1..m_max x**m - y**m,
    the left folds x * ... * x less y * ... * y, by more than least +
    relative * (x**m + y**m); 0 otherwise.

    The integer `scale` is clipped at 2**53 before it meets a float, which
    decides nothing differently: least >= 2**-49 + 4 * m_max * E and the gap
    is at most 1 + E, so a gap divided by 2**53 or more never clears it."""
    sign = 1.0 if x > y else -1.0
    if sign * (x - y) / min(scale, 1 << 53) <= least:
        return 0
    fx, fy = x, y
    for _ in range(m_max):
        if sign * (fx - fy) <= least + relative * (fx + fy):
            return 0
        fx, fy = fx * x, fy * y
    return int(sign)


def _monotones_block(
    a, b, m_max: int, dim_max: int, steps: int, tol: Tolerances, alphas
) -> bool:
    """True when, for an equal-length finite pair, each direction is
    blocked in every search of :func:`strong_verdict` within the bounds, the
    single copy included, by an end or by one order alpha of `alphas` (a
    float array, or empty for the ends alone).

    Along a conversion x -> y (x majorized by y) of two n-entry spectra the
    top entry cannot fall (x1 <= y1, the first prefix inequality) and the
    smallest cannot rise (x_n >= y_n, the (n - 1)-th), and both ends
    multiply under tensor products: the Renyi entropies of order +inf and
    -inf.  The power sums P(x) = sum(x**alpha) multiply under tensor
    products too, and x majorized by y gives P(x) <= P(y) for alpha > 1
    (Schur-convex) and P(x) >= P(y) for 0 < alpha < 1 (Schur-concave).  So
    in exact arithmetic a1 > b1, a_n < b_n, an alpha > 1 with P(a) > P(b),
    or an alpha < 1 with P(a) < P(b) rules out a (x) c majorized by b (x) c,
    the forward direction, for every catalyst c and copy count, and the
    reverse inequality rules out the backward one.  The test asks for that
    with a margin.  Let least = tau_cmp + delta of :func:`_screen_least`, A
    and B the sums of :func:`_power_sums` for a and b, D = min(dim_max,
    steps), x_n = min(a_n, b_n) and x_low = min(x_n / steps, x_n**m_max).

    An end blocks forward when a1 - b1 or b_n - a_n, and backward when b1 -
    a1 or a_n - b_n, clears :func:`_fold_gap`: the top gap divided by D and
    the bottom gap divided by steps, and for m = 1 .. m_max the gaps of the
    m-fold left-fold products a1 * ... * a1 and a_n * ... * a_n, exceed
    least.  An order blocks forward when, for every m = 1..m_max (m = 1
    stands for the catalysts), the gap A**m - B**m, taken with the sign of
    alpha - 1, exceeds

        least * (2 max(1, alpha) (A**m + B**m) + s),
        s = alpha * (1.01 D)**(alpha - 1)       for alpha > 1,
        s = alpha * (0.99 x_low)**(alpha - 1)   for alpha < 1,

    and backward when the opposite gap does.  The screen holds when both
    directions are blocked.  With no orders the ends must block both, so a
    pair for which just one of a1 > b1 and a_n > b_n holds returns at once,
    before any margin is formed.  With orders it first asks for the
    blocks without margins (A - B in the sign of alpha - 1, a1 - b1 and b_n
    - a_n, and the opposites): a direction none of them blocks is open, and
    the pairs the screen leaves to the searches, whose witnesses obey every
    order, return there before any margin is formed.  The orders are tried
    only where the ends leave a direction open and least <= 2**-20 (tau_cmp
    is 1e-12 by default).

    Proof that no search accepts a direction an end blocks.  Say a1 > b1
    blocks forward and a_n > b_n backward (b_n > a_n, which blocks forward,
    and b1 > a1, which blocks backward, swap the roles) and let u = eps / 2.
    A gap that clears the test is at most 1 + E and exceeds 4 * m_max * E,
    so E < 1 / (4 * m_max - 1) and every mass to a power m <= m_max is below
    e**(1/3) < 1.4.  Rounding is monotone, so the largest and smallest
    entries of a computed product are the products of the largest and of
    the smallest factors.

    * Copies.  Power m's top entries are this test's folds, so the search
      compares at index 1 the very difference tested here.  Its prefix at
      index n**m - 1 is the total less the smallest entry, within a
      relative N * u by a sequential cumsum, and the totals are the masses
      to the power m within a relative m * u, so b's prefix there exceeds
      a's by at least (a_n**m - b_n**m) - 1.4 m E - 2.8 (N + m) u.
    * Catalysts.  A grid row c of dimension d <= D has c1 >= sum(c) / d,
      and its smallest positive part c_r, a multiple of 1 / steps, is at
      least (1 - u) / steps.  A catalysed entry c_j x_k is divided by its
      row's float sum, so it is c_j x_k / (sum(c) sum(x)) within (d n + 2)
      u, and each row sums to 1 within (d n + 1) u.  At index 1 the
      difference is at least (a1 - b1) / d - E - 2 (N + 2) u.  At index r n
      - 1, past which only the smallest entry c_r x_n and zeros remain, b's
      prefix exceeds a's by at least (a_n - b_n) / steps - E - 6 (N + 2) u,
      cumsum and both row totals counted.

    Each bound, less the few rounding units of this test's own arithmetic,
    exceeds tau_cmp, so the forward test fails at index 1 and the backward
    test at the bottom index, in every search.  The copy count m = 1 is the
    single-copy compare, so the ends alone may screen before it.

    Proof that no search accepts a direction an order blocks.  As least <=
    2**-20, (N + 2) u and m_max E are below 2**-22, so every mass to a
    power m <= m_max is 1 within 2**-21 and no entry of a searched spectrum
    exceeds 1.01.  Take a search that compares sorted computed spectra x
    (from a) and y (from b) of N' <= N entries, with exact prefix sums X_k
    and Y_k, and say alpha blocks forward (backward is the mirror).

    * Acceptance.  A computed prefix sum is a sequential cumsum within
      1.03 N u of X_k, and the float difference of two is within 2.1 u of
      theirs, so an accepted direction has X_k - Y_k <= tau_cmp + delta / 2
      at every k.  The totals differ by at most delta / 2: a catalysed row
      sums to 1 within 1.01 (N + 1) u, a power to its factor's mass to the
      m-th within 1.01 m u, and those masses differ by 1.01 m E at most.
    * Abel summation.  For alpha > 1, t**alpha is convex and increasing, so
      the chord slopes w_i of t**alpha between x_i and y_i are
      non-negative, non-increasing in i and at most alpha 1.01**(alpha -
      1), and P(x) - P(y) = sum(w_i (x_i - y_i)), which is the sum over k <
      N' of (w_k - w_k+1)(X_k - Y_k) plus w_N' (X_N' - Y_N'), is at most
      w_1 least.  For alpha < 1 the slopes of -t**alpha, over the L indices
      where x and y are positive (the zeros, from a catalyst's zero parts,
      sit at the same places in both), are non-positive and non-increasing,
      and the same sum gives P(y) - P(x) <= |w_L| least <= alpha
      x_min**(alpha - 1) least, x_min the least positive entry: at least
      0.99 x_n / steps with a catalyst, whose least positive part is the
      float of k / steps for some k >= 1, and 0.99 x_n**m in copy m.
    * Products.  A catalysed entry is c_j x_k / (sum(c) sum(x)) within a
      relative 1.02 (N + 2) u, and an entry of a power its factors' product
      within 1.01 m u.  This screen's sums are within a relative (n + 4)
      eps of exact (tested against a 50-digit oracle), their m-th powers
      within m (n + 6) eps, and sum(a)**alpha is 1 within 1.01 alpha E.  So
      a catalyst search has P(x) = C A (1 + eta), with C = P(c) /
      sum(c)**alpha, and copy m has P(x) = A**m (1 + eta), where |eta| <=
      max(1, alpha) delta, as m (n + 6) <= 3.4 (N + 2).  C >= D**(1 -
      alpha) for alpha > 1, since a grid row has at most D parts, and C >=
      1 for alpha < 1.  A power that underflows moves a sum by less than a
      unit of it.

    So an accepted forward search needs C (A (1 - eta) - B (1 + eta)) <=
    alpha 1.01**(alpha - 1) least for alpha > 1, that is A - B <= least
    (max(1, alpha) (A + B) + s) as C >= D**(1 - alpha), and likewise in
    copy m, and, for alpha < 1, B**m - A**m within the same bound at every
    m: the margin, twice the relative part, forbids it.  Where x_low is
    below 2**-1000 (products there may round to subnormals) or s would pass
    e**700 (it is cut there to stay finite), s least exceeds 3 N, more than
    any gap, so no order blocks anything where a bound above fails.
    Negative orders are left to the ends, which they tend to.
    """
    if len(a) != len(b):
        return False
    a1, b1 = float(a.values[0]), float(b.values[0])
    an, bn = float(a.values[-1]), float(b.values[-1])
    if len(alphas):
        sums = _power_sums(np.array((a.values, b.values)), alphas)
        # > 0 where an order blocks forward: a's sums less b's in the sign of alpha - 1
        lead = np.sign(alphas - 1) * (sums[0] - sums[1])
        # a direction that no end and no order blocks even without a margin is open
        if not (a1 > b1 or an < bn or (lead > 0).any()) or not (
            a1 < b1 or an > bn or (lead < 0).any()
        ):
            return False
    elif (a1 > b1) != (an > bn):  # the ends alone block one direction at most
        return False
    dim = min(dim_max, steps)
    least = _screen_least(a, b, m_max, dim, tol)
    top = _fold_gap(a1, b1, m_max, least, dim)  # 1 blocks forward
    bottom = _fold_gap(an, bn, m_max, least, steps)  # 1 blocks backward
    if top != 0 and top == bottom:
        return True
    if not len(alphas) or least > 2**-20:  # so n**m_max <= N < 2**30
        return False
    xn = min(an, bn)
    low = -1e6  # log(0.99 x_low), or below the log of every float when x_n is 0
    if xn > 0:
        low = math.log(0.99 * xn) + min(-math.log(steps), (m_max - 1) * math.log(xn))
    high = math.log(1.01 * dim)
    # plain loops, not a closure, whose cells would slow the ends-only calls too
    for sign in {1, -1} - {top, -bottom}:  # a direction no end blocks, 1 forward
        for alpha, x, y, blocks in zip(alphas.tolist(), *sums.tolist(), lead.tolist()):
            if sign * blocks <= 0:
                continue
            log_slope = (alpha - 1) * (high if alpha > 1 else low)
            s = alpha * math.exp(min(log_slope, 700.0))
            if _fold_gap(x, y, m_max, least * s, relative=least * 2 * max(alpha, 1.0)):
                break
        else:
            return False
    return True


class StrongOutcome(enum.Enum):
    STRONG_BY_C = "strong-by-c"
    CONVERTIBLE = "convertible-witness"
    INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class StrongVerdict:
    """Tri-state strong-incomparability verdict with its evidence.

    `checked_bounds` records (m_max, catalyst_dim_max, grid_steps), the
    requested bounds, which the verdict covers: a `strong-by-c` proof
    covers all of them, and an `inconclusive` outcome carries the extent of
    the failed search.  A pair decided by the monotone screen carries them
    whatever the caps: the screen shows that every search within them
    fails, without running it, so no cap can turn it into a refusal.
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
    returned as proven with no search.

    The stages run in this order, cheapest first: condition_c, the
    monotone screen :func:`_monotones_block` on the ends alone, the single
    copy, the same screen with the orders of `_ALPHAS`, the catalyst scan,
    and copies 2..m_max.  The single copy is one kernel call, `_pair_code`
    on the pair itself; a spectrum longer than `size_cap` is refused there,
    as the copy search refuses m = 1.  The first screen takes equal-length
    pairs whose ends block both directions in every search within the
    bounds, the single copy included; the second, the pairs the single copy
    leaves incomparable whose ends and Renyi power sums do.  A screened pair is
    `inconclusive` over the requested bounds, as a condition-c pair is
    proven over them, whatever the caps: no product is formed past the
    single copy, no grid is built and nothing is sized past it, since caps
    bound allocations and these paths allocate nothing, so no cap can turn
    the verdict into a refusal.  The screen is a certificate of strong
    incomparability within the bounds, meant to become a proven
    `strong-by-monotones` outcome once consumers accept one.
    """
    m_max = _integer("m_max", m_max, 1)
    catalyst_dim_max = _integer("catalyst_dim_max", catalyst_dim_max, 2)
    grid_steps = _integer("grid_steps", grid_steps, 2)
    holds = condition_c(a, b, tol)
    size_cap = _integer("size_cap", size_cap, 1)
    bounds = (m_max, catalyst_dim_max, grid_steps)
    if holds:
        return StrongVerdict(StrongOutcome.STRONG_BY_C, None, bounds)
    if _monotones_block(a, b, m_max, catalyst_dim_max, grid_steps, tol, ()):
        return StrongVerdict(StrongOutcome.INCONCLUSIVE, None, bounds)
    longest = max(len(a), len(b))
    if longest > size_cap:  # always raises: the copy search's refusal of m = 1
        _check_power_size(longest, 1, size_cap)
    direction = DIRECTIONS[_pair_code(a, b, tol)]
    if direction is not None:
        return StrongVerdict(
            StrongOutcome.CONVERTIBLE, MultiCopyWitness(direction, 1), bounds
        )
    if _monotones_block(a, b, m_max, catalyst_dim_max, grid_steps, tol, _ALPHAS):
        return StrongVerdict(StrongOutcome.INCONCLUSIVE, None, bounds)
    witness = catalyst_search(
        a, b, catalyst_dim_max, grid_steps, tol, size_cap=size_cap
    )
    if witness is None and m_max > 1:
        # m = 1 was decided above
        witness = _multicopy_search(a, b, 2, m_max, tol, size_cap)
    if witness is not None:
        return StrongVerdict(StrongOutcome.CONVERTIBLE, witness, bounds)
    return StrongVerdict(StrongOutcome.INCONCLUSIVE, None, bounds)
