import dataclasses
import heapq
import itertools
import time
import tracemalloc
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entorder import (
    DEFAULT_TOLERANCES,
    CatalystWitness,
    InfiniteSchmidtNumber,
    InvalidInput,
    MultiCopyWitness,
    Relation,
    SchmidtSpectrum,
    SizeCapExceeded,
    StrongOutcome,
    catalysis,
    catalyst_convertible,
    catalyst_search,
    compare,
    complete_extension,
    condition_c,
    majorized_by,
    make_spectrum,
    multicopy_convertible,
    prefix_sums,
    schmidt_number,
    strong_verdict,
    tensor_power_spectrum,
    tensor_product_spectrum,
    top_k_tensor_power,
    truncation_pair,
)
from oracles import (
    brute_majorized,
    brute_relation,
    count_simplex_grid,
    decimal_power_sums,
    enumerate_power,
    enumerate_product,
    enumerate_simplex_grid,
    random_condition_c_pair,
    random_sorted_probs,
)


def spec(*values):
    return make_spectrum(list(values))


JP_A = (0.4, 0.4, 0.1, 0.1)
JP_B = (0.5, 0.25, 0.25)

# Randomly found 4-dim pair (seeded search), frozen: incomparable one copy
# at a time, forward-convertible with two collective copies.
TWO_COPY_A = (
    0.34496799342011342,
    0.32050013695177559,
    0.19305555610992023,
    0.14147631351819076,
)
TWO_COPY_B = (
    0.44453598181443021,
    0.22062739893430541,
    0.20716460313794391,
    0.12767201611332063,
)

# Incomparable, not a condition-c pair (top entries and Schmidt numbers are
# ordered the same way), and no witness within the default strong_verdict
# bounds, nor at catalyst dimension 4 on a 500-step grid or dimension 3 on a
# 711-step one.  Its end gaps have opposite signs, so the end screen of
# strong_verdict leaves it to the searches.
NO_WITNESS_A = (0.5, 0.25, 0.2, 0.05)
NO_WITNESS_B = (0.4, 0.4, 0.1, 0.1)
# Also incomparable, not a condition-c pair and without a witness within
# those bounds, but a1 > b1 and a4 > b4 by wide margins: strong_verdict's end
# screen decides it with no search.
SCREENED_A = (0.5, 0.2, 0.2, 0.1)
SCREENED_B = (0.48, 0.46, 0.03, 0.03)
# Incomparable, not a condition-c pair, and its smallest entries tie, so the
# end screen leaves it; b1 > a1 blocks the backward direction and the Renyi
# power sums block the forward one, so the alpha screen decides it after the
# single copy.
ALPHA_SCREENED_A = (0.5, 0.4, 0.05, 0.05)
ALPHA_SCREENED_B = (0.55, 0.3, 0.1, 0.05)


# --- tensor products --------------------------------------------------------


def test_tensor_product_example():
    prod = tensor_product_spectrum(spec(0.4, 0.4, 0.1, 0.1), spec(0.6, 0.4))
    assert prod.values == pytest.approx(
        [0.24, 0.24, 0.16, 0.16, 0.06, 0.06, 0.04, 0.04], abs=1e-15
    )
    assert prod.values == pytest.approx(
        enumerate_product([0.4, 0.4, 0.1, 0.1], [0.6, 0.4]), abs=1e-15
    )


def test_trivial_catalyst_is_identity():
    s = spec(0.5, 0.3, 0.2)
    assert tensor_product_spectrum(s, spec(1.0)).values == pytest.approx(
        s.values, abs=1e-15
    )


def test_bell_squared():
    prod = tensor_product_spectrum(spec(0.5, 0.5), spec(0.5, 0.5))
    assert prod.values == pytest.approx([0.25] * 4, abs=1e-15)


def test_tensor_power_examples():
    assert tensor_power_spectrum(spec(0.5, 0.5), 2).values == pytest.approx(
        [0.25] * 4, abs=1e-15
    )
    assert tensor_power_spectrum(spec(0.7, 0.3), 2).values == pytest.approx(
        [0.49, 0.21, 0.21, 0.09], abs=1e-15
    )
    for m in (1, 3, 7):
        assert tensor_power_spectrum(spec(1.0), m).values == pytest.approx([1.0])


def test_tensor_power_matches_enumeration_exactly():
    rng = np.random.default_rng(31)
    for _ in range(25):
        n = int(rng.integers(2, 4))
        s = make_spectrum(random_sorted_probs(rng, n))
        for m in (1, 2, 3):
            got = tensor_power_spectrum(s, m).values
            assert np.array_equal(got, enumerate_power(s.values, m))


def test_size_cap(no_merge):
    with pytest.raises(SizeCapExceeded) as info:
        tensor_power_spectrum(spec(0.5, 0.5), 30, size_cap=10**6)
    assert info.value.required == 2**30
    with pytest.raises(SizeCapExceeded):
        tensor_product_spectrum(spec(0.5, 0.5), spec(0.5, 0.5), size_cap=3)


@pytest.mark.parametrize("m", [20000, 10**10])
def test_size_cap_with_huge_copy_counts(m, no_merge):
    # the size is taken at an exponent clipped to 64, so it stays a small
    # integer and the error message formats
    with pytest.raises(SizeCapExceeded, match=rf"needs 2\*\*{m} entries") as info:
        tensor_power_spectrum(spec(0.5, 0.5), m)
    assert (info.value.required, info.value.cap) == (2**64, 10**7)
    with pytest.raises(SizeCapExceeded, match=rf"needs 3\*\*{m} entries") as info:
        multicopy_convertible(spec(0.5, 0.5), spec(0.6, 0.3, 0.1), m)
    assert (info.value.required, info.value.cap) == (3**64, 10**7)


def test_multiplicativity_of_top_entry_and_schmidt_number():
    rng = np.random.default_rng(32)
    for _ in range(100):
        a = make_spectrum(random_sorted_probs(rng, int(rng.integers(2, 6)), alpha=2.0))
        c = make_spectrum(random_sorted_probs(rng, int(rng.integers(2, 5)), alpha=2.0))
        prod = tensor_product_spectrum(a, c)
        assert prod.values[0] == pytest.approx(a.values[0] * c.values[0], rel=1e-12)
        assert schmidt_number(prod) == schmidt_number(a) * schmidt_number(c)


def test_tensor_ops_reject_tails():
    tailed = complete_extension(spec(1.0), 1)
    with pytest.raises(InfiniteSchmidtNumber):
        tensor_power_spectrum(tailed, 2)
    with pytest.raises(InfiniteSchmidtNumber):
        tensor_product_spectrum(tailed, spec(0.5, 0.5))


# --- top-k merge -------------------------------------------------------------


def test_top_k_matches_full_sort_prefix():
    rng = np.random.default_rng(33)
    cases = []
    for _ in range(20):
        n = int(rng.integers(2, 5))
        m = int(rng.integers(1, 5))
        k = int(rng.integers(1, 30))
        cases.append((make_spectrum(random_sorted_probs(rng, n)), m, k))
    # an ingested -0.0 is +0.0, so the staircase and the full sort agree on its sign
    cases.append((make_spectrum([0.5, 0.5, -0.0]), 3, 20))
    for s, m, k in cases:
        full = tensor_power_spectrum(s, m).values
        got = top_k_tensor_power(s, m, k)
        assert got.tobytes() == full[:k].tobytes()


def test_top_k_beyond_materialization_cap():
    # 3**40 entries could never be materialized; the lazy merge still gives
    # the exact leading entries (powers of the top value dominate)
    s = spec(0.5, 0.3, 0.2)
    top = top_k_tensor_power(s, 40, 3)
    assert top[0] == pytest.approx(0.5**40, rel=1e-12)
    assert top[1] == pytest.approx(0.5**39 * 0.3, rel=1e-12)
    assert (np.diff(top) <= 0).all()


def heap_top_products(x, y, k):
    """Reference merge: a heap frontier, where popping (i, j) exposes
    (i + 1, j) and (i, j + 1), one product at a time."""
    k = min(k, len(x) * len(y))
    out = np.empty(k)
    heap = [(-(x[0] * y[0]), 0, 0)]
    seen = {(0, 0)}
    for pos in range(k):
        negp, i, j = heapq.heappop(heap)
        out[pos] = -negp
        if i + 1 < len(x) and (i + 1, j) not in seen:
            seen.add((i + 1, j))
            heapq.heappush(heap, (-(x[i + 1] * y[j]), i + 1, j))
        if j + 1 < len(y) and (i, j + 1) not in seen:
            seen.add((i, j + 1))
            heapq.heappush(heap, (-(x[i] * y[j + 1]), i, j + 1))
    return out


def heap_top_k_tensor_power(a, m, k):
    cur = a.values[: min(k, len(a))]
    for _ in range(m - 1):
        cur = heap_top_products(cur, a.values, k)
    return cur


def assert_top_k_matches_heap(a, m, k):
    got = top_k_tensor_power(a, m, k)
    assert got.tobytes() == heap_top_k_tensor_power(a, m, k).tobytes()
    return got


def test_top_k_merge_matches_heap_reference_bitwise():
    rng = np.random.default_rng(41)
    for _ in range(300):
        n = int(rng.integers(1, 8))
        m = int(rng.integers(1, 41))
        k = int(np.exp(rng.uniform(0, np.log(5000))))  # log-uniform in 1..5000
        alpha = float(rng.choice([0.5, 1.0, 3.0]))
        assert_top_k_matches_heap(
            make_spectrum(random_sorted_probs(rng, n, alpha=alpha)), m, k
        )


def test_top_k_merge_matches_heap_on_the_long_chain():
    got = assert_top_k_matches_heap(spec(0.6, 0.3, 0.1), 20, 10**4)
    assert len(got) == 10**4


@pytest.mark.parametrize(
    "values",
    [(0.25,) * 4, (0.5, 0.25, 0.25), (0.5, 0.25, 0.125, 0.125), (0.2,) * 5],
)
@pytest.mark.parametrize("m, k", [(2, 5), (6, 100), (12, 3000)])
def test_top_k_merge_matches_heap_on_ties(values, m, k):
    # dyadic and flat spectra make long runs of exactly equal products
    got = assert_top_k_matches_heap(spec(*values), m, k)
    assert len(np.unique(got)) < len(got)


def test_top_k_merge_edge_cases():
    s = spec(0.5, 0.3, 0.2)
    # k beyond the whole power: every entry, as the full power gives it
    full = assert_top_k_matches_heap(s, 3, 100)
    assert full.tobytes() == tensor_power_spectrum(s, 3).values.tobytes()
    assert assert_top_k_matches_heap(s, 7, 1).tolist() == [0.5**7]
    one = assert_top_k_matches_heap(spec(1.0), 5, 3)
    assert one.tolist() == [1.0]


def test_product_kernel_matches_heap_and_full_sort_bitwise():
    rng = np.random.default_rng(43)
    for _ in range(200):
        x = random_sorted_probs(rng, int(rng.integers(1, 9)))
        y = random_sorted_probs(rng, int(rng.integers(1, 9)))
        full = np.sort(np.multiply.outer(x, y).ravel())[::-1]
        size = len(full)
        for k in {1, max(1, size - 1), size, size + 1, int(rng.integers(1, 80))}:
            got = catalysis._top_products(x, y, k)
            assert got.tobytes() == full[:k].tobytes()
            assert got.tobytes() == heap_top_products(x, y, k).tobytes()


@pytest.mark.parametrize("k", [1, 5, 11, 12, 13, 100])
def test_product_kernel_on_stacked_rows(k):
    # rows of catalysts, as the scan stacks them; 4 * 3 = 12 products a row,
    # with the gather plan built by the kernel and passed in as a power's is
    rng = np.random.default_rng(44)
    x = np.stack([random_sorted_probs(rng, 4) for _ in range(7)])
    y = random_sorted_probs(rng, 3)
    for plan in (None, catalysis._gather_plan(4, y, k)):
        got = catalysis._top_products(x, y, k, plan)
        assert got.shape == (7, min(k, 12))
        for row, expected in zip(got, x):
            assert row.tobytes() == heap_top_products(expected, y, k).tobytes()
            full = np.sort(np.multiply.outer(expected, y).ravel())[::-1]
            assert row.tobytes() == full[:k].tobytes()


@st.composite
def tied_power_queries(draw):
    """A dyadic or flat spectrum of 2..6 entries, m <= 12 and k <= 400; for
    about half the queries k lies strictly between two powers n**j < k <
    n**(j + 1) with j < m, so pass j fills the prefix in a partial pass."""
    n = draw(st.integers(2, 6))
    if draw(st.booleans()):
        values = [1.0 / n] * n
    else:
        total = 2 ** draw(st.integers(3, 10))
        cuts = draw(st.lists(st.integers(1, total - 1), min_size=n - 1,
                             max_size=n - 1, unique=True))
        values = np.diff([0, *sorted(cuts), total]) / total
    m = draw(st.integers(1, 12))
    fills = [j for j in range(1, m) if n**j + 1 < min(401, n ** (j + 1))]
    if fills and draw(st.booleans()):
        j = draw(st.sampled_from(fills))
        k = draw(st.integers(n**j + 1, min(400, n ** (j + 1) - 1)))
        assert any(n**i < k < n ** (i + 1) for i in range(1, m))
    else:
        k = draw(st.integers(1, 400))
    return make_spectrum(values), m, k


@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(tied_power_queries())
def test_top_k_matches_heap_on_tied_spectra(query):
    assert_top_k_matches_heap(*query)


# Live at the peak of top_k_tensor_power(6 entries, m=8, k=10**5): about
# four arrays of the k * (1 + 1/2 + ... + 1/6) = 245,000 candidates of a
# pass (1.96 MB each), 7.4 MB in all.  The column-list kernel it replaced
# peaked at 7.48 MB; a full 6 * k outer product in a pass would add 4.8 MB.
TOP_K_PEAK_BYTES = 8_000_000


def test_top_k_memory_stays_bounded_and_is_released():
    a = spec(0.3, 0.25, 0.2, 0.1, 0.1, 0.05)
    top_k_tensor_power(a, 3, 100)  # first-call allocations of numpy itself
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        got = top_k_tensor_power(a, 8, 10**5)
        held, peak = tracemalloc.get_traced_memory()
        del got
        after = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert peak - base < TOP_K_PEAK_BYTES
    # the result holds its k entries, no candidate array behind them, and
    # nothing else outlives the call
    assert held - base < 8 * 10**5 + 2**16
    assert after - base < 2**16


@pytest.fixture
def kernel_calls(monkeypatch):
    """Record the factor `y` of every product kernel call."""
    calls = []
    kernel = catalysis._top_products

    def counting(x, y, k, plan=None):
        calls.append(y.tobytes())
        return kernel(x, y, k, plan)

    monkeypatch.setattr(catalysis, "_top_products", counting)
    return calls


def test_every_product_path_runs_the_one_kernel(kernel_calls):
    a, b, c = spec(*JP_A), spec(*JP_B), spec(0.6, 0.4)
    paths = {
        "product": lambda: tensor_product_spectrum(a, c),
        "power": lambda: tensor_power_spectrum(a, 3),
        "top-k": lambda: top_k_tensor_power(a, 3, 5),
        "multi-copy": lambda: multicopy_convertible(a, b, 2),
        "catalyst scan": lambda: catalyst_search(a, b, 2, 10),
    }
    for name, path in paths.items():
        before = len(kernel_calls)
        path()
        assert len(kernel_calls) > before, name


@pytest.mark.parametrize("m_max", [1, 2, 3, 4])
def test_multicopy_builds_each_power_from_the_last(kernel_calls, m_max):
    rng = np.random.default_rng(45)
    for _ in range(5):
        a, b = (make_spectrum(v) for v in random_condition_c_pair(rng))
        kernel_calls.clear()
        assert multicopy_convertible(a, b, m_max) is None
        # one kernel call per further copy of each spectrum, none rebuilt
        assert kernel_calls.count(a.values.tobytes()) == m_max - 1
        assert kernel_calls.count(b.values.tobytes()) == m_max - 1
        assert len(kernel_calls) == 2 * (m_max - 1)


def test_powers_share_no_memory_with_their_factor():
    for values in [(0.5, 0.3, 0.2), (1.0,)]:
        a = spec(*values)
        for m in (1, 2):
            power = tensor_power_spectrum(a, m).values
            assert not np.shares_memory(power, a.values)
            assert not np.shares_memory(top_k_tensor_power(a, m, 2), a.values)
        top = top_k_tensor_power(a, 1, 5)
        top[0] = 7.0  # writing to a result leaves the caller's spectrum as it was
        assert a.values[0] == values[0]


class MergeReached(Exception):
    pass


@pytest.fixture
def no_merge(monkeypatch):
    """Stop the product kernel, so a call that passes the cap check
    allocates nothing and a missed check cannot allocate."""

    def stop(*args):
        raise MergeReached

    monkeypatch.setattr(catalysis, "_top_products", stop)


def test_top_k_size_cap(no_merge):
    s = spec(0.5, 0.3, 0.2)
    with pytest.raises(SizeCapExceeded) as info:
        top_k_tensor_power(s, 40, 10**10)
    assert (info.value.required, info.value.cap) == (10**10, 10**7)
    # the output size is min(k, len(a)**m): 2**24 entries for 24 copies
    with pytest.raises(SizeCapExceeded) as info:
        top_k_tensor_power(spec(0.5, 0.5), 24, 10**10)
    assert (info.value.required, info.value.cap) == (2**24, 10**7)
    # an enormous copy count is decided without computing len(a)**m
    with pytest.raises(SizeCapExceeded) as info:
        top_k_tensor_power(s, 10**12, 10**7 + 1)
    assert info.value.required == 10**7 + 1
    # errors keep their order: tails, copy count, prefix length, then the cap
    with pytest.raises(InvalidInput, match="copy count"):
        top_k_tensor_power(s, 0, 10**10)
    with pytest.raises(InvalidInput, match="prefix length"):
        top_k_tensor_power(s, 2, 0)
    with pytest.raises(InfiniteSchmidtNumber):
        top_k_tensor_power(complete_extension(s, 1), 2, 10**10)


@pytest.mark.parametrize(
    "values, m, k", [((0.5, 0.5), 23, 10**10), ((0.5, 0.3, 0.2), 20, 10**7)]
)
def test_top_k_within_the_size_cap_reaches_the_merge(no_merge, values, m, k):
    # 2**23 entries, and exactly 10**7, both fit the cap
    with pytest.raises(MergeReached):
        top_k_tensor_power(spec(*values), m, k)


def test_top_k_size_cap_raises_before_allocating(no_merge):
    tracemalloc.start()
    try:
        with pytest.raises(SizeCapExceeded):
            top_k_tensor_power(spec(0.5, 0.3, 0.2), 30, 10**7 + 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10**5  # ten million floats would be 80 MB


def test_copy_loops_are_bounded_by_copies_times_entries(no_merge):
    # the output fits, but the loop would run m - 1 passes: refused before
    # the first merge
    with pytest.raises(SizeCapExceeded) as info:
        top_k_tensor_power(spec(0.5, 0.3, 0.2), 10**12, 10)
    assert (info.value.required, info.value.cap) == (3 * 10**12, 10**7)
    with pytest.raises(SizeCapExceeded) as info:
        top_k_tensor_power(spec(1.0), 10**7 + 1, 1)
    assert info.value.required == 10**7 + 1
    assert top_k_tensor_power(spec(1.0), 10**7, 1).tolist() == [1.0]
    with pytest.raises(MergeReached):
        top_k_tensor_power(spec(0.5, 0.5), 5 * 10**6, 1)
    # a one-entry power always fits, so only the copy bound stops it (the
    # small cap first, so a missing bound fails here instead of hanging)
    with pytest.raises(SizeCapExceeded) as info:
        tensor_power_spectrum(spec(1.0), 21, size_cap=20)
    assert (info.value.required, info.value.cap) == (21, 20)
    assert tensor_power_spectrum(spec(1.0), 20, size_cap=20).values.tolist() == [1.0]
    with pytest.raises(SizeCapExceeded, match=r"10000000000 copies of a 1-entry"):
        tensor_power_spectrum(spec(1.0), 10**10)


def test_one_entry_powers_make_no_copy_passes():
    # every power of [1.0] is [1.0] bit for bit, so the largest copy count
    # the bound admits is answered at once instead of after 10**7 passes
    one = spec(1.0)
    start = time.process_time()
    power = tensor_power_spectrum(one, 10**7)
    top = top_k_tensor_power(one, 10**7, 5)
    assert time.process_time() - start < 0.1
    assert power.values.tobytes() == one.values.tobytes()
    assert top.tobytes() == one.values.tobytes()


# --- condition_c ------------------------------------------------------------


def test_condition_c_holds_for_opposed_orderings():
    assert condition_c(spec(0.6, 0.2, 0.1, 0.1), spec(0.5, 0.5))


def test_condition_c_fails_on_tied_tops():
    assert not condition_c(spec(0.5, 0.5), spec(0.5, 0.25, 0.25))


def test_condition_c_fails_when_dominances_split():
    # larger top entry on one side, larger Schmidt number on the other:
    # that pattern proves nothing and must be rejected
    assert not condition_c(spec(0.6, 0.2, 0.1, 0.1), spec(0.5, 0.3, 0.1, 0.05, 0.05))
    assert not condition_c(spec(0.5, 0.3, 0.1, 0.05, 0.05), spec(0.6, 0.2, 0.1, 0.1))


def test_condition_c_on_truncation_pairs_at_large_m():
    a = make_spectrum(random_sorted_probs(np.random.default_rng(34), 40, alpha=1.5))
    b = make_spectrum(random_sorted_probs(np.random.default_rng(35), 40, alpha=1.5))
    assert abs(a.values[0] - b.values[0]) > 1e-3
    pair = truncation_pair(a, b, 30)
    assert condition_c(pair.a_m, pair.b_m)


def test_condition_c_rejects_tails():
    with pytest.raises(InfiniteSchmidtNumber):
        condition_c(complete_extension(spec(1.0), 1), spec(0.5, 0.5))


# --- multi-copy search ------------------------------------------------------


def test_single_copy_witness():
    witness = multicopy_convertible(spec(0.5, 0.5), spec(0.7, 0.3), 3)
    assert witness == MultiCopyWitness(Relation.FORWARD, 1)


def test_condition_c_pair_has_no_multicopy_witness():
    rng = np.random.default_rng(36)
    for _ in range(30):
        a, b = random_condition_c_pair(rng)
        assert multicopy_convertible(make_spectrum(a), make_spectrum(b), 3) is None


def test_two_copy_witness_frozen_pair():
    a, b = spec(*TWO_COPY_A), spec(*TWO_COPY_B)
    # both facts re-checked through the independent oracle
    assert brute_relation(list(TWO_COPY_A), list(TWO_COPY_B)) == "incomparable"
    assert brute_majorized(
        list(enumerate_power(TWO_COPY_A, 2)), list(enumerate_power(TWO_COPY_B, 2))
    )
    assert multicopy_convertible(a, b, 3) == MultiCopyWitness(Relation.FORWARD, 2)


def test_multicopy_respects_size_cap(no_merge):
    with pytest.raises(SizeCapExceeded):
        multicopy_convertible(spec(0.5, 0.5), spec(0.7, 0.3), 30, size_cap=10**6)


def reference_multicopy(a, b, m_max, tol=DEFAULT_TOLERANCES):
    """The search as it was before both directions shared one kernel call:
    `majorized_by` once each way per copy count."""
    pa, pb = a, b
    for m in range(1, m_max + 1):
        if m > 1:
            pa = SchmidtSpectrum(catalysis._top_products(pa.values, a.values, 10**7))
            pb = SchmidtSpectrum(catalysis._top_products(pb.values, b.values, 10**7))
        if majorized_by(pa, pb, tol):
            return MultiCopyWitness(Relation.FORWARD, m)
        if majorized_by(pb, pa, tol):
            return MultiCopyWitness(Relation.BACKWARD, m)
    return None


def test_multicopy_matches_the_two_sided_reference():
    rng = np.random.default_rng(47)
    pairs = [(spec(*TWO_COPY_A), spec(*TWO_COPY_B)), (spec(*JP_A), spec(*JP_B))]
    for _ in range(400):
        kind = int(rng.integers(0, 3))
        if kind == 0:
            a, b = random_condition_c_pair(rng)
        else:
            n = int(rng.integers(2, 6))
            a, b = random_sorted_probs(rng, n), random_sorted_probs(rng, n)
            if kind == 2:  # dyadic entries: exact prefix ties
                a = np.sort(rng.multinomial(16, np.full(n, 1.0 / n)))[::-1] / 16.0
        pairs.append((make_spectrum(a), make_spectrum(b)))
    outcomes = set()
    for a, b in pairs:
        for pair in ((a, b), (b, a), (a, a)):
            got = multicopy_convertible(*pair, 3)
            assert got == reference_multicopy(*pair, 3)
            outcomes.add(None if got is None else (got.direction, got.copies))
    # every kind of outcome occurs: none, both directions, one and more copies
    assert None in outcomes and (Relation.BACKWARD, 1) in outcomes
    assert any(o is not None and o[1] > 1 for o in outcomes)


@pytest.mark.parametrize("m_max", [1, 2, 3])
def test_strong_verdict_decides_each_copy_count_once(monkeypatch, m_max):
    decided = []
    pair_code = catalysis._pair_code

    def counting(pa, pb, tol):
        decided.append((len(pa), len(pb)))
        return pair_code(pa, pb, tol)

    monkeypatch.setattr(catalysis, "_pair_code", counting)
    a, b = spec(*NO_WITNESS_A), spec(*NO_WITNESS_B)
    verdict = strong_verdict(a, b, m_max=m_max, catalyst_dim_max=2, grid_steps=5)
    assert verdict.outcome is StrongOutcome.INCONCLUSIVE
    assert verdict.checked_bounds == (m_max, 2, 5)
    # the single-copy check before the catalyst scan is not repeated after it
    assert decided == [(4**m, 4**m) for m in range(1, m_max + 1)]


# --- catalyst checks ---------------------------------------------------------


def test_worked_catalyst_pair():
    a, b, c = spec(*JP_A), spec(*JP_B), spec(0.6, 0.4)
    assert catalyst_convertible(a, b, c) is Relation.FORWARD
    # the published prefix sums of the two product spectra
    pa = np.cumsum(tensor_product_spectrum(a, c).values)
    pb = np.cumsum(tensor_product_spectrum(b, c).values)
    assert pa == pytest.approx([0.24, 0.48, 0.64, 0.80, 0.86, 0.92, 0.96, 1.0], abs=1e-12)
    assert pb[:6] == pytest.approx([0.30, 0.50, 0.65, 0.80, 0.90, 1.0], abs=1e-12)


def test_trivial_catalyst_leaves_pair_incomparable():
    assert catalyst_convertible(spec(*JP_A), spec(*JP_B), spec(1.0)) is None
    verdict = compare(spec(*JP_A), spec(*JP_B))
    assert verdict.relation is Relation.INCOMPARABLE
    assert verdict.forward_violations == (2,)  # 0.8 > 0.75
    assert verdict.backward_violations == (1, 3)  # 0.5 > 0.4, 1.0 > 0.9


def test_catalyst_reflexivity():
    s = spec(0.5, 0.3, 0.2)
    assert catalyst_convertible(s, s, spec(0.6, 0.4)) is Relation.FORWARD


def test_reductio_consistency_top_products():
    # whenever the catalysed forward conversion exists, the k=1 inequality
    # of the product spectra must hold as well
    rng = np.random.default_rng(37)
    for _ in range(200):
        n = int(rng.integers(2, 5))
        a = make_spectrum(random_sorted_probs(rng, n))
        b = make_spectrum(random_sorted_probs(rng, n))
        c = make_spectrum(random_sorted_probs(rng, int(rng.integers(2, 4))))
        if majorized_by(
            tensor_product_spectrum(a, c), tensor_product_spectrum(b, c)
        ):
            assert (
                a.values[0] * c.values[0] <= b.values[0] * c.values[0] + 1e-12
            )


# --- grid and search ---------------------------------------------------------


def test_catalyst_grid_structure():
    cap = catalysis.DEFAULT_SIZE_CAP
    grid = catalysis._catalyst_grid(2, 4, cap)
    assert [tuple(g) for g in grid] == [(0.5, 0.5), (0.75, 0.25), (1.0, 0.0)]
    for vec in catalysis._catalyst_grid(3, 7, cap):
        assert vec.sum() == pytest.approx(1.0)
        assert (np.diff(vec) <= 0).all()
        assert vec[-1] > 0  # trailing zeros already covered at dim 2


def test_catalyst_search_finds_worked_pair():
    witness = catalyst_search(spec(*JP_A), spec(*JP_B), 2, 100)
    assert isinstance(witness, CatalystWitness)
    assert witness.direction is Relation.FORWARD
    # re-verify the returned catalyst end to end, via the oracle
    products_a = enumerate_product(JP_A, witness.catalyst.values)
    products_b = enumerate_product(JP_B, witness.catalyst.values)
    assert brute_majorized(list(products_a), list(products_b))


def test_catalyst_search_absent_for_condition_c_pairs():
    rng = np.random.default_rng(38)
    for _ in range(10):
        a, b = random_condition_c_pair(rng)
        assert catalyst_search(make_spectrum(a), make_spectrum(b), 3, 20) is None


def test_catalyst_search_equal_pair_hits_first_candidate():
    s = spec(0.5, 0.3, 0.2)
    witness = catalyst_search(s, s, 2, 10)
    assert witness.direction is Relation.FORWARD
    assert witness.catalyst.values == pytest.approx([0.5, 0.5])


def scalar_catalyst_search(a, b, dim_max, grid_steps):
    """Reference scan: one product pair and one compare per grid catalyst.

    Returns (direction, catalyst values, position in the scan) or None.
    """
    position = 0
    for dim in range(2, dim_max + 1):
        for vec in enumerate_simplex_grid(dim, grid_steps):
            c = SchmidtSpectrum(vec)
            relation = compare(
                tensor_product_spectrum(a, c), tensor_product_spectrum(b, c)
            ).relation
            if relation in (Relation.FORWARD, Relation.EQUIVALENT):
                return Relation.FORWARD, vec, position
            if relation is Relation.BACKWARD:
                return Relation.BACKWARD, vec, position
            position += 1
    return None


# (5, 5) scans grids of a few rows at every dimension up to grid_steps
SCAN_SETTINGS = ((3, 50), (2, 100), (4, 12), (5, 5))


@pytest.fixture(scope="module")
def scalar_scan_cases():
    rng = np.random.default_rng(39)
    cases = []
    while len(cases) < 510 * len(SCAN_SETTINGS):
        na, nb = (int(n) for n in rng.integers(2, 8, size=2))
        if na == nb:
            continue
        alpha = float(rng.choice([0.5, 1.0, 3.0]))
        a = make_spectrum(random_sorted_probs(rng, na, alpha=alpha))
        b = make_spectrum(random_sorted_probs(rng, nb, alpha=alpha))
        for dim_max, grid_steps in SCAN_SETTINGS:
            expected = scalar_catalyst_search(a, b, dim_max, grid_steps)
            cases.append((a, b, dim_max, grid_steps, expected))
    return cases


@pytest.mark.parametrize("block_entries", [None, 1, 150, 400])
def test_batched_scan_matches_scalar_reference(
    scalar_scan_cases, block_entries, monkeypatch
):
    # block_entries=1 scans one grid row per block, so every hit after a
    # dimension's first row lies past the first block of that dimension; 150
    # and 400 cut a dimension's grid into several blocks, which the default
    # budget never does at these bounds
    if block_entries is not None:
        monkeypatch.setattr(catalysis, "_BLOCK_ENTRIES", block_entries)
    dims = []
    first_hit = catalysis._first_hit

    def recording(a, b, catalysts, tol):
        dims.append(catalysts.shape[1])
        return first_hit(a, b, catalysts, tol)

    monkeypatch.setattr(catalysis, "_first_hit", recording)
    outcomes = set()
    split = False
    for a, b, dim_max, grid_steps, expected in scalar_scan_cases:
        dims.clear()
        witness = catalyst_search(a, b, dim_max, grid_steps)
        # one dimension at a time, smallest first
        assert dims == sorted(dims)
        split |= len(dims) > len(set(dims))
        if expected is None:
            assert witness is None
            outcomes.add(None)
            continue
        direction, vec, position = expected
        assert witness.direction is direction
        assert witness.catalyst.values.tobytes() == vec.tobytes()
        assert catalyst_convertible(a, b, witness.catalyst) is direction
        outcomes.add(direction)
        outcomes.add("past first row" if position > 0 else "first row")
    assert outcomes == {
        None, Relation.FORWARD, Relation.BACKWARD, "first row", "past first row"
    }
    assert split == (block_entries is not None)


def test_every_block_keeps_every_catalysed_spectrum_bitwise(monkeypatch):
    # each column of the prefix sums that decide a block of dimension 2, 3
    # or 4 is those of the product spectrum with that column's catalyst, bit
    # for bit; spectra of 3+ entries make rows of 8+ products, whose sums
    # numpy regroups
    seen = []
    kernel = catalysis.compare_many

    def recording(pa, pb, slack):
        seen.append((pa.copy(), pb.copy()))
        return kernel(pa, pb, slack)

    monkeypatch.setattr(catalysis, "compare_many", recording)
    rng = np.random.default_rng(46)
    grids = [catalysis._catalyst_grid(dim, 9, catalysis.DEFAULT_SIZE_CAP)
             for dim in (2, 3, 4)]
    blocks = [grids[0][3:], grids[1], grids[2][:4]]
    for na, nb in itertools.product(range(1, 8), (1, 3, 6)):
        a = make_spectrum(random_sorted_probs(rng, na))
        b = make_spectrum(random_sorted_probs(rng, nb))
        for block in blocks:
            seen.clear()
            catalysis._first_hit(a, b, block, DEFAULT_TOLERANCES)
            [(pa, pb)] = seen
            width = max(na, nb) * block.shape[1]
            assert pa.shape == pb.shape == (width, len(block))
            for spectrum, sums in ((a, pa), (b, pb)):
                for column, row in zip(sums.T, block):
                    product = tensor_product_spectrum(spectrum, SchmidtSpectrum(row))
                    assert column.tobytes() == prefix_sums(product, width).tobytes()


@settings(derandomize=True, max_examples=60, deadline=None, database=None)
@given(
    st.lists(st.integers(2, 6), min_size=2, max_size=2, unique=True),
    st.integers(2, 4),
    st.integers(1, 12),
    st.integers(0, 2**32 - 1),
)
def test_first_hit_running_sums_match_cumsum_bitwise(lengths, dim, rows, seed):
    # the kernel's running sums down its (width, 2, rows) buffer against one
    # cumsum down a (2, width, rows) buffer of the same zero-padded catalysed
    # spectra, on blocks of dimensions 2..4 and pairs of unequal lengths
    seen = []
    kernel = catalysis.compare_many

    def recording(pa, pb, slack):
        seen.append((pa.copy(), pb.copy()))
        return kernel(pa, pb, slack)

    rng = np.random.default_rng(seed)
    a, b = (make_spectrum(random_sorted_probs(rng, n)) for n in lengths)
    catalysts = catalysis._catalyst_grid(dim, 12, catalysis.DEFAULT_SIZE_CAP)[:rows]
    width = max(lengths) * dim
    padded = np.zeros((2, width, len(catalysts)))
    for out, spectrum in zip(padded, (a, b)):
        for column, c in enumerate(catalysts):
            product = tensor_product_spectrum(spectrum, SchmidtSpectrum(c)).values
            out[: len(product), column] = product
    expected = np.cumsum(padded, axis=1)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(catalysis, "compare_many", recording)
        catalysis._first_hit(a, b, catalysts, DEFAULT_TOLERANCES)
    [(pa, pb)] = seen
    assert pa.tobytes() == expected[0].tobytes()
    assert pb.tobytes() == expected[1].tobytes()


@pytest.fixture
def kernel_blocks(monkeypatch):
    """The `(rows, dim)` shape of each catalyst block the scan kernel is
    called on."""
    blocks = []
    first_hit = catalysis._first_hit

    def recording(a, b, catalysts, tol):
        blocks.append(catalysts.shape)
        return first_hit(a, b, catalysts, tol)

    monkeypatch.setattr(catalysis, "_first_hit", recording)
    return blocks


def test_catalyst_search_stops_at_first_hit_block(kernel_blocks, monkeypatch):
    # the worked pair's first catalyst is several rows into the dim-2 grid;
    # with two rows per block the scan must still return it, and stop there
    a, b = spec(*JP_A), spec(*JP_B)
    expected = scalar_catalyst_search(a, b, 3, 100)
    assert expected[2] >= 2
    monkeypatch.setattr(catalysis, "_BLOCK_ENTRIES", 2 * (len(a) + len(b)) * 2)
    witness = catalyst_search(a, b, 3, 100)
    assert witness.catalyst.values.tobytes() == expected[1].tobytes()
    assert kernel_blocks == [(2, 2)] * (expected[2] // 2 + 1)

    # at 10 steps and four rows a block at dimension 2, three at dimension
    # 3, the 6 + 8 grid rows fall into blocks [0, 4), [4, 6) of dimension 2
    # and [6, 9), [9, 12), [12, 14) of dimension 3; a first hit at row 7
    # ends the scan after the first dimension-3 block
    rng = np.random.default_rng(84)
    for _ in range(21):
        a, b = (make_spectrum(random_sorted_probs(rng, n)) for n in (3, 5))
    expected = scalar_catalyst_search(a, b, 3, 10)
    assert expected[2] == 7
    monkeypatch.setattr(catalysis, "_BLOCK_ENTRIES", 9 * (len(a) + len(b)))
    kernel_blocks.clear()
    witness = catalyst_search(a, b, 3, 10)
    assert witness.catalyst.values.tobytes() == expected[1].tobytes()
    assert kernel_blocks == [(4, 2), (2, 2), (3, 3)]


def test_a_dimension_2_hit_decides_only_dimension_2_rows(kernel_blocks, built_grids):
    # the default budget holds both grids of the worked pair in one block,
    # but a block holds one dimension: the dim-2 hit ends the scan before
    # the dimension-3 grid is fetched or any of its rows decided
    a, b = spec(*JP_A), spec(*JP_B)
    direction, vec, position = scalar_catalyst_search(a, b, 3, 100)
    witness = catalyst_search(a, b, 3, 100)
    assert kernel_blocks == [(51, 2)]
    assert built_grids == [2]
    assert position < 51 and len(witness.catalyst) == 2
    assert witness.direction is direction
    assert witness.catalyst.values.tobytes() == vec.tobytes()


def test_catalyst_search_decides_every_block_by_the_kernel(
    kernel_blocks, monkeypatch
):
    calls = []
    kernel = catalysis.compare_many

    def counting(pa, pb, slack):
        calls.append(pa.shape[1])
        return kernel(pa, pb, slack)

    monkeypatch.setattr(catalysis, "compare_many", counting)
    # the default budget holds each grid of a condition-c pair in one
    # block, decided by one call per dimension
    assert catalyst_search(spec(0.6, 0.2, 0.1, 0.1), spec(0.5, 0.5), 4, 12) is None
    assert kernel_blocks == [(7, 2), (12, 3), (15, 4)] and calls == [7, 12, 15]
    calls.clear()
    kernel_blocks.clear()
    a, b = spec(*JP_A), spec(*JP_B)
    monkeypatch.setattr(catalysis, "_BLOCK_ENTRIES", 2 * (len(a) + len(b)) * 2)
    witness = catalyst_search(a, b, 3, 100)
    assert calls == [rows for rows, _ in kernel_blocks]
    assert len(calls) > 1

    # a kernel that reports no violation makes the first grid row a hit
    def no_violations(pa, pb, slack):
        calls.append(pa.shape[1])
        return np.zeros(pa.shape, bool), np.zeros(pa.shape, bool)

    monkeypatch.setattr(catalysis, "compare_many", no_violations)
    calls.clear()
    kernel_blocks.clear()
    hit = catalyst_search(a, b, 3, 100)
    assert hit.direction is Relation.FORWARD
    assert hit.catalyst.values.tolist() == [0.5, 0.5]
    assert witness.catalyst.values.tolist() != [0.5, 0.5]
    assert calls == [2] and kernel_blocks == [(2, 2)]


def test_catalyst_grid_is_cached_and_read_only():
    cap = catalysis.DEFAULT_SIZE_CAP
    grid = catalysis._catalyst_grid(3, 7, cap)
    assert catalysis._catalyst_grid(3, 7, cap) is grid
    assert not grid.flags.writeable
    assert [row.tobytes() for row in grid] == [
        vec.tobytes() for vec in enumerate_simplex_grid(3, 7)
    ]
    assert catalysis._catalyst_grid(4, 3, cap).shape == (0, 4)


def test_catalyst_grid_matches_the_recursive_generator():
    settings = [(dim, steps) for dim in range(1, 8) for steps in range(2, 61)]
    for dim, steps in settings + [(4, 300)]:
        grid = catalysis._catalyst_grid(dim, steps, catalysis.DEFAULT_SIZE_CAP)
        expected = list(enumerate_simplex_grid(dim, steps))
        assert grid.shape == (len(expected), dim)
        assert grid.tobytes() == b"".join(vec.tobytes() for vec in expected)
        if dim > 2:
            assert len(grid) == count_simplex_grid(dim, steps)


def test_catalyst_size_cap_checked_before_products(kernel_blocks):
    long, short = spec(0.6, 0.2, 0.1, 0.1), spec(0.5, 0.5)  # condition-c pair

    # dimension 2 fits and finds nothing; dimension 3 needs 4*3 entries, and
    # is refused only after the whole dim-2 grid has been scanned
    with pytest.raises(SizeCapExceeded) as info:
        catalyst_search(long, short, 3, 20, size_cap=8)
    assert (info.value.required, info.value.cap) == (12, 8)
    assert kernel_blocks == [(11, 2)]

    # `a` is checked before `b`
    kernel_blocks.clear()
    for a, b, required in ((long, short, 8), (short, long, 4)):
        with pytest.raises(SizeCapExceeded) as info:
            catalyst_search(a, b, 3, 20, size_cap=3)
        assert (info.value.required, info.value.cap) == (required, 3)
    c = spec(0.6, 0.4)
    for a, b, required in ((long, short, 8), (short, long, 4)):
        with pytest.raises(SizeCapExceeded) as info:
            catalyst_convertible(a, b, c, size_cap=3)
        assert (info.value.required, info.value.cap) == (required, 3)
    with pytest.raises(SizeCapExceeded) as info:
        catalyst_convertible(short, long, c, size_cap=4)
    assert (info.value.required, info.value.cap) == (8, 4)
    assert kernel_blocks == []

    # a hit at a dimension that fits ends the scan before the cap matters
    witness = catalyst_search(spec(*JP_A), spec(*JP_B), 3, 100, size_cap=8)
    assert witness.direction is Relation.FORWARD
    assert len(witness.catalyst) == 2


def test_a_refused_dimension_past_grid_steps_is_passed_but_bounds_the_audit():
    # above dimension 2, a grid with fewer steps than entries has no rows:
    # the scan passes such a dimension whether or not the caps refuse it,
    # and a proven verdict, which scans nothing, covers the requested bounds
    long, short = spec(0.6, 0.2, 0.1, 0.1), spec(0.5, 0.5)  # dim 3 needs 12
    assert catalyst_search(long, short, 4, 2, size_cap=8) is None
    verdict = strong_verdict(
        long, short, m_max=1, catalyst_dim_max=4, grid_steps=2, size_cap=8
    )
    assert verdict.outcome is StrongOutcome.STRONG_BY_C
    assert verdict.checked_bounds == (1, 4, 2)
    with pytest.raises(SizeCapExceeded) as info:
        catalyst_search(long, short, 4, 3, size_cap=8)
    assert (info.value.required, info.value.cap) == (12, 8)


def test_no_grid_past_grid_steps_is_built_whatever_the_catalyst_dimension():
    # past grid_steps a dimension has no rows, so the scan neither builds
    # its grid nor checks its products against the cap
    a, b = spec(*NO_WITNESS_A), spec(*NO_WITNESS_B)
    catalysis._grid_cache.clear()
    verdict = strong_verdict(a, b, catalyst_dim_max=40, grid_steps=2)
    assert verdict.outcome is StrongOutcome.INCONCLUSIVE
    assert verdict.checked_bounds == (3, 40, 2)
    assert list(catalysis._grid_cache) == [(2, 2)]
    start = time.process_time()
    verdict = strong_verdict(a, b, catalyst_dim_max=10**5, grid_steps=2)
    no_hit = catalyst_search(spec(0.5, 0.25, 0.25), spec(0.4, 0.4, 0.2), 10**5, 2)
    assert time.process_time() - start < 0.5
    assert verdict.outcome is StrongOutcome.INCONCLUSIVE
    assert verdict.checked_bounds == (3, 10**5, 2)
    assert no_hit is None
    # 4 * 1001 product entries would be over this cap, but no dimension
    # past grid_steps is visited
    verdict = strong_verdict(a, b, catalyst_dim_max=10**5, grid_steps=2, size_cap=4000)
    assert verdict.outcome is StrongOutcome.INCONCLUSIVE
    assert verdict.checked_bounds == (3, 10**5, 2)
    assert list(catalysis._grid_cache) == [(2, 2)]


def test_catalyst_grid_counts_and_refuses_over_the_cap():
    cap = catalysis.DEFAULT_SIZE_CAP
    rows = [len(catalysis._catalyst_grid(4, steps, cap)) for steps in (100, 200, 400)]
    assert rows == [7153, 56389, 447778]
    # a grid over the cap is refused with cap + 1 before its large levels
    # exist: the full grids would take 14 MB and about 200 TB
    for dim, steps, grid_cap in ((4, 400, 10**6), (3, 10**7, cap)):
        tracemalloc.start()
        try:
            with pytest.raises(SizeCapExceeded) as info:
                catalysis._catalyst_grid(dim, steps, grid_cap)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (info.value.required, info.value.cap) == (grid_cap + 1, grid_cap)
        assert peak < 2 * 10**6


def test_catalyst_grid_builds_fast_and_small():
    catalysis._grid_cache.clear()
    tracemalloc.start()
    try:
        start = time.process_time()
        grid = catalysis._catalyst_grid(4, 300, catalysis.DEFAULT_SIZE_CAP)
        elapsed = time.process_time() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert grid.shape == (189375, 4)
    assert elapsed < 0.1
    assert peak <= 3.5 * grid.nbytes


def test_catalyst_grid_cache_does_not_keep_every_grid():
    # four dimension-4 grids of about 6 MB each, built one after another
    catalysis._grid_cache.clear()
    cap = catalysis.DEFAULT_SIZE_CAP
    tracemalloc.start()
    try:
        sizes = [catalysis._catalyst_grid(4, s, cap).nbytes for s in range(300, 304)]
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
        catalysis._grid_cache.clear()
    assert held <= 8 * catalysis._GRID_CACHE_ENTRIES + max(sizes) < sum(sizes)


def test_strong_verdict_audit_and_scan_build_each_grid_once(monkeypatch):
    # the dimension-4 grid alone holds more than the cache's bound; a proven
    # verdict builds no grid, and a scan builds each grid once
    catalysis._grid_cache.clear()
    builds = []
    build = catalysis._build_catalyst_grid

    def counting(*args):
        builds.append(args[:2])
        return build(*args)

    monkeypatch.setattr(catalysis, "_build_catalyst_grid", counting)
    long, short = spec(0.6, 0.2, 0.1, 0.1), spec(0.5, 0.5)  # condition-c pair
    verdict = strong_verdict(long, short, catalyst_dim_max=4, grid_steps=500)
    assert verdict.outcome is StrongOutcome.STRONG_BY_C
    assert verdict.checked_bounds == (3, 4, 500)
    assert builds == []
    verdict = strong_verdict(
        spec(*NO_WITNESS_A), spec(*NO_WITNESS_B), catalyst_dim_max=4, grid_steps=500
    )
    assert verdict.outcome is StrongOutcome.INCONCLUSIVE
    assert verdict.checked_bounds == (3, 4, 500)
    assert builds == [(2, 500), (3, 500), (4, 500)]
    assert 4 * count_simplex_grid(4, 500) > catalysis._GRID_CACHE_ENTRIES
    catalysis._grid_cache.clear()


def test_catalyst_grid_serves_every_cap_from_one_build(monkeypatch):
    catalysis._grid_cache.clear()
    builds = []
    build = catalysis._build_catalyst_grid

    def counting(*args):
        builds.append(args)
        return build(*args)

    monkeypatch.setattr(catalysis, "_build_catalyst_grid", counting)
    grid = catalysis._catalyst_grid(4, 100, 10**8)
    assert grid.size == 4 * 7153
    assert catalysis._catalyst_grid(4, 100, grid.size) is grid
    # a cached grid over a smaller cap is refused as its build would be
    with pytest.raises(SizeCapExceeded) as info:
        catalysis._catalyst_grid(4, 100, grid.size - 1)
    assert (info.value.required, info.value.cap) == (grid.size, grid.size - 1)
    assert builds == [(4, 100, 10**8)]
    with pytest.raises(SizeCapExceeded) as refused:
        build(4, 100, grid.size - 1)
    assert str(refused.value) == str(info.value)
    assert (refused.value.required, refused.value.cap) == (grid.size, grid.size - 1)
    assert catalysis._catalyst_grid(4, 100, 10**8) is grid
    assert builds == [(4, 100, 10**8)]


# Fewest steps whose dimension-4 grid holds more entries than the default cap.
GRID_STEPS_OVER_CAP = 711


@pytest.fixture
def built_grids(monkeypatch):
    """Dimensions of the catalyst grids built, in order."""
    built = []
    grid = catalysis._catalyst_grid

    def recording(dim, steps, cap):
        result = grid(dim, steps, cap)
        built.append(dim)
        return result

    monkeypatch.setattr(catalysis, "_catalyst_grid", recording)
    return built


def test_grid_cap_is_checked_before_the_grid_is_built(built_grids):
    cap = catalysis.DEFAULT_SIZE_CAP
    assert 4 * count_simplex_grid(4, GRID_STEPS_OVER_CAP - 1) <= cap
    assert 4 * count_simplex_grid(4, GRID_STEPS_OVER_CAP) > cap
    long, short = spec(0.6, 0.2, 0.1, 0.1), spec(0.5, 0.5)  # condition-c pair

    # dimensions 2 and 3 are scanned; dimension 4 is refused unbuilt
    with pytest.raises(SizeCapExceeded, match="catalyst grid of dimension 4") as info:
        catalyst_search(long, short, 4, GRID_STEPS_OVER_CAP)
    assert (info.value.required, info.value.cap) == (cap + 1, cap)
    assert built_grids == [2, 3]

    # the product checks (`a` before `b`) still come first
    built_grids.clear()
    with pytest.raises(SizeCapExceeded) as info:
        catalyst_search(long, short, 4, GRID_STEPS_OVER_CAP, size_cap=15)
    assert (info.value.required, info.value.cap) == (16, 15)
    assert built_grids == [2, 3]

    # a grid that is huge from its first dimension is refused at once
    built_grids.clear()
    with pytest.raises(SizeCapExceeded, match="dimension 2 at 10000000 steps"):
        catalyst_search(long, short, 3, 10**7)
    assert built_grids == []


def test_a_hit_in_a_full_dimension_2_block_builds_no_larger_grid(
    kernel_blocks, built_grids, monkeypatch
):
    # the 51 rows of the dimension-2 grid fill the first block, which holds
    # the worked pair's first catalyst: no grid of dimension 3 to 5 is built
    a, b = spec(*JP_A), spec(*JP_B)
    monkeypatch.setattr(catalysis, "_BLOCK_ENTRIES", 51 * (len(a) + len(b)) * 2)
    witness = catalyst_search(a, b, 5, 100)
    assert len(witness.catalyst) == 2
    assert kernel_blocks == [(51, 2)]
    assert built_grids == [2]


def test_a_grid_refusal_comes_after_the_block_before_it_finds_no_hit(monkeypatch):
    # at a grid cap of 40 entries the grids of dimensions 2 and 3 at 12
    # steps (14 and 36 entries) fit, one block each; that of dimension 4
    # (60) is refused, and raised only once both blocks are decided
    events = []
    grid, first_hit = catalysis._catalyst_grid, catalysis._first_hit

    def fetching(dim, steps, cap):
        events.append(("grid", dim))
        return grid(dim, steps, cap)

    def deciding(a, b, catalysts, tol):
        hit = first_hit(a, b, catalysts, tol)
        events.append(("block", catalysts.shape, hit))
        return hit

    monkeypatch.setattr(catalysis, "DEFAULT_SIZE_CAP", 40)
    monkeypatch.setattr(catalysis, "_catalyst_grid", fetching)
    monkeypatch.setattr(catalysis, "_first_hit", deciding)
    long, short = spec(0.6, 0.2, 0.1, 0.1), spec(0.5, 0.5)  # condition-c pair
    with pytest.raises(SizeCapExceeded, match="catalyst grid of dimension 4") as info:
        catalyst_search(long, short, 5, 12, size_cap=40)
    assert (info.value.required, info.value.cap) == (41, 40)
    assert events == [
        ("grid", 2), ("block", (7, 2), None),
        ("grid", 3), ("block", (12, 3), None),
        ("grid", 4),
    ]


def test_a_raised_size_cap_raises_the_grid_cap(monkeypatch):
    built = []

    def empty_grid(dim, steps, cap):
        # record the request, but build nothing: dimension 4 is 10**7 entries
        built.append((dim, cap))
        return np.empty((0, dim))

    monkeypatch.setattr(catalysis, "_catalyst_grid", empty_grid)
    long, short = spec(0.6, 0.2, 0.1, 0.1), spec(0.5, 0.5)
    assert catalyst_search(long, short, 4, GRID_STEPS_OVER_CAP, size_cap=10**8) is None
    assert built == [(2, 10**8), (3, 10**8), (4, 10**8)]
    # the real builder refuses a grid over the raised cap
    monkeypatch.undo()
    with pytest.raises(SizeCapExceeded, match="more than 100000000 entries") as info:
        catalyst_search(long, short, 4, 2000, size_cap=10**8)
    assert (info.value.required, info.value.cap) == (10**8 + 1, 10**8)


def test_catalyst_convertible_rejects_tails():
    tailed = complete_extension(spec(0.5, 0.5), 1)
    finite = spec(0.6, 0.4)
    for args in ((tailed, finite, finite), (finite, tailed, finite),
                 (finite, finite, tailed)):
        with pytest.raises(InfiniteSchmidtNumber):
            catalyst_convertible(*args)
    # finiteness is decided before the size cap, as for tensor products
    with pytest.raises(InfiniteSchmidtNumber):
        catalyst_convertible(tailed, finite, finite, size_cap=1)


# --- strong verdict ----------------------------------------------------------


def test_strong_verdict_sound_path():
    verdict = strong_verdict(spec(0.6, 0.2, 0.1, 0.1), spec(0.5, 0.5))
    assert verdict.outcome is StrongOutcome.STRONG_BY_C
    assert verdict.witness is None
    assert verdict.checked_bounds == (3, 3, 100)


def test_strong_verdict_single_copy_witness(monkeypatch):
    # an equal-length pair whose ends differ in opposite ways passes the end
    # screen, and the single copy finds its witness before any catalyst or
    # further copy is formed
    def refuse(*args):
        raise AssertionError("a single-copy pair searched past one copy")

    monkeypatch.setattr(catalysis, "_first_hit", refuse)
    monkeypatch.setattr(catalysis, "_top_products", refuse)
    a, b = spec(0.5, 0.5), spec(0.7, 0.3)
    for pair, direction in (((a, b), Relation.FORWARD), ((b, a), Relation.BACKWARD)):
        verdict = strong_verdict(*pair)
        assert verdict.outcome is StrongOutcome.CONVERTIBLE
        assert verdict.witness == MultiCopyWitness(direction, 1)


def test_strong_verdict_catalyst_witness():
    verdict = strong_verdict(spec(*JP_A), spec(*JP_B), catalyst_dim_max=2)
    assert verdict.outcome is StrongOutcome.CONVERTIBLE
    assert isinstance(verdict.witness, CatalystWitness)
    assert catalyst_convertible(
        spec(*JP_A), spec(*JP_B), verdict.witness.catalyst
    ) is Relation.FORWARD


def test_strong_verdict_inconclusive_is_honest():
    # incomparable, fails the sufficient test (top entries and Schmidt
    # numbers are ordered the same way), and no witness within tiny bounds:
    # the verdict must say so instead of claiming impossibility
    verdict = strong_verdict(
        spec(*NO_WITNESS_A),
        spec(*NO_WITNESS_B),
        m_max=1,
        catalyst_dim_max=2,
        grid_steps=3,
    )
    assert verdict.outcome is StrongOutcome.INCONCLUSIVE
    assert verdict.witness is None


@pytest.mark.parametrize(
    "bounds",
    [{"m_max": 0}, {"catalyst_dim_max": 1}, {"grid_steps": 1}],
)
def test_strong_verdict_rejects_out_of_range_bounds_up_front(bounds):
    # the single-copy witness would end the search before these bounds are
    # used, so only an up-front check rejects them
    with pytest.raises(InvalidInput, match="must be at least"):
        strong_verdict(spec(0.5, 0.5), spec(0.7, 0.3), **bounds)


def test_strong_verdict_keeps_copy_counts_over_the_cap_once_proven():
    # condition_c holds; three copies of the 300-entry `a` would need 300**3
    # entries, beyond the default cap, and the proof still covers them
    a = spec(0.5, *[0.5 / 299] * 299)
    b = spec(*[1 / 299] * 299)
    assert 300**3 > catalysis.DEFAULT_SIZE_CAP
    verdict = strong_verdict(a, b)
    assert verdict.outcome is StrongOutcome.STRONG_BY_C
    assert verdict.checked_bounds == (3, 3, 100)


@pytest.mark.parametrize(
    "size_cap, bounds",
    [(20, (3, 3, 100)), (8, (10, 4, 500)), (3, (10**6, 10**6, 10**6))],
)
def test_strong_verdict_records_the_audited_bounds(size_cap, bounds):
    # the bounds of a proven verdict are the requested ones, whatever the cap
    a, b = spec(0.6, 0.2, 0.1, 0.1), spec(0.5, 0.5)
    m_max, dim_max, steps = bounds
    verdict = strong_verdict(
        a, b, m_max=m_max, catalyst_dim_max=dim_max, grid_steps=steps, size_cap=size_cap
    )
    assert verdict.outcome is StrongOutcome.STRONG_BY_C
    assert verdict.checked_bounds == bounds


def test_strong_verdict_keeps_a_huge_copy_count_once_proven():
    # 3**5 entries are over a cap of 100; the proof covers every copy count
    a, b = spec(0.6, 0.2, 0.2), spec(0.5, 0.5)
    verdict = strong_verdict(a, b, m_max=10**10, size_cap=100)
    assert verdict.outcome is StrongOutcome.STRONG_BY_C
    assert verdict.checked_bounds == (10**10, 3, 100)


def test_a_huge_grid_is_clipped_before_it_meets_a_float():
    # the end screen divides a gap by the grid's step count, clipped at
    # 2**53: no gap of at most 1 + E clears the least margin past that, so
    # a larger count decides the same
    a, b = spec(0.5, 0.2, 0.2, 0.1), spec(0.48, 0.46, 0.03, 0.03)
    for steps in (2**53, 10**400, 2**1024):
        verdict = strong_verdict(a, b, grid_steps=steps)
        assert verdict.outcome is StrongOutcome.INCONCLUSIVE
        assert verdict.checked_bounds == (3, 3, steps)
        assert catalysis._fold_gap(1.0, 0.0, 3, 2**-49, steps) == 0
    assert catalysis._fold_gap(1.0, 0.0, 3, 2**-49, 2**48) == 1


def test_a_proven_verdict_does_no_search(monkeypatch):
    def refuse(*args):
        raise AssertionError("a proven verdict searched")

    monkeypatch.setattr(catalysis, "_top_products", refuse)
    monkeypatch.setattr(catalysis, "_build_catalyst_grid", refuse)
    catalysis._grid_cache.clear()
    rng = np.random.default_rng(16)
    pairs = [(spec(0.6, 0.2, 0.1, 0.1), spec(0.5, 0.5))] + [
        tuple(map(make_spectrum, random_condition_c_pair(rng))) for _ in range(4)
    ]
    for a, b in pairs:
        for pair in ((a, b), (b, a)):
            for bounds in ((1, 2, 2), (3, 3, 100), (10**10, 10**9, 10**6)):
                m_max, dim_max, steps = bounds
                for size_cap in range(1, 21):
                    verdict = strong_verdict(
                        *pair, m_max=m_max, catalyst_dim_max=dim_max,
                        grid_steps=steps, size_cap=size_cap,
                    )
                    assert verdict.outcome is StrongOutcome.STRONG_BY_C
                    assert verdict.witness is None
                    assert verdict.checked_bounds == bounds
    assert catalysis._grid_cache == {}


@st.composite
def condition_c_pairs(draw):
    """A pair passing condition_c, either side first: `b` with 2..4 entries,
    `a` with more, up to 5, and a top entry above b's by at least 1e-6 of
    the mass below b's top entry.

    The top gap of a product is the gap times at least 3/25 (three copies of
    tops of 1/5 or more) or 1/3 (a catalyst of dimension 3 or less), and
    every entry stays above 1e-3, so each blocked prefix inequality of a
    product fails by far more than `tau_cmp`.
    """
    weights = st.floats(0.1, 1.0)
    nb = draw(st.integers(2, 4))
    b = np.array(draw(st.lists(weights, min_size=nb, max_size=nb)))
    b = make_spectrum(b / b.sum())
    top = b.values[0] + draw(st.floats(1e-6, 0.5)) * (1.0 - b.values[0])
    rest = np.array(draw(st.lists(weights, min_size=nb, max_size=4)))
    pair = (make_spectrum([top, *rest / rest.sum() * (1.0 - top)]), b)
    return pair[::-1] if draw(st.booleans()) else pair


@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(condition_c_pairs())
def test_condition_c_pairs_open_no_direction_by_search(pair):
    # the soundness of the proven path, checked outside strong_verdict
    assert condition_c(*pair)
    assert compare(*pair).relation is Relation.INCOMPARABLE
    assert multicopy_convertible(*pair, 3) is None
    assert catalyst_search(*pair, 3, 12) is None


def test_strong_verdict_cap_still_raises_before_a_proof():
    # equal Schmidt numbers: condition_c fails, so exceeding the cap is an error
    a, b = spec(*NO_WITNESS_A), spec(*NO_WITNESS_B)
    assert not condition_c(a, b)
    with pytest.raises(SizeCapExceeded):
        strong_verdict(a, b, catalyst_dim_max=2, grid_steps=3, size_cap=20)


def test_strong_verdict_audit_skips_grids_over_the_cap_once_proven():
    # the dimension-4 grid is over the cap; a proven verdict builds no grid
    catalysis._grid_cache.clear()
    a, b = spec(0.6, 0.2, 0.1, 0.1), spec(0.5, 0.5)
    verdict = strong_verdict(a, b, catalyst_dim_max=4, grid_steps=GRID_STEPS_OVER_CAP)
    assert verdict.outcome is StrongOutcome.STRONG_BY_C
    assert verdict.checked_bounds == (3, 4, GRID_STEPS_OVER_CAP)
    assert catalysis._grid_cache == {}


def test_strong_verdict_audit_follows_a_raised_size_cap():
    a, b = spec(0.6, 0.2, 0.1, 0.1), spec(0.5, 0.5)
    verdict = strong_verdict(
        a, b, catalyst_dim_max=4, grid_steps=GRID_STEPS_OVER_CAP, size_cap=10**8
    )
    assert verdict.outcome is StrongOutcome.STRONG_BY_C
    assert verdict.checked_bounds == (3, 4, GRID_STEPS_OVER_CAP)


def test_strong_verdict_covers_what_the_scan_refuses_once_proven():
    # a proven verdict covers the requested catalyst bound, also where the
    # scan is refused by a cap; wherever the scan runs, it finds nothing
    rng = np.random.default_rng(12)
    pairs = [(spec(0.6, 0.2, 0.1, 0.1), spec(0.5, 0.5))] + [
        tuple(map(make_spectrum, random_condition_c_pair(rng))) for _ in range(2)
    ]
    seen = set()
    for a, b in pairs:
        for cap, dim_max, steps in itertools.product(
            (6, 9, 16, catalysis.DEFAULT_SIZE_CAP), (2, 3, 4), (4, GRID_STEPS_OVER_CAP)
        ):
            verdict = strong_verdict(
                a, b, m_max=1, catalyst_dim_max=dim_max, grid_steps=steps, size_cap=cap
            )
            assert verdict.outcome is StrongOutcome.STRONG_BY_C
            assert verdict.checked_bounds == (1, dim_max, steps)
            try:
                assert catalyst_search(a, b, dim_max, steps, size_cap=cap) is None
                seen.add("full")
            except SizeCapExceeded as refusal:
                seen.add("grid" if "catalyst grid" in str(refusal) else "product")
    assert seen == {"grid", "product", "full"}


def test_strong_verdict_grid_cap_still_raises_before_a_proof():
    a, b = spec(*NO_WITNESS_A), spec(*NO_WITNESS_B)
    with pytest.raises(SizeCapExceeded) as info:
        strong_verdict(
            a, b, m_max=1, catalyst_dim_max=4, grid_steps=GRID_STEPS_OVER_CAP
        )
    assert info.value.cap == catalysis.DEFAULT_SIZE_CAP


# --- the end screen of strong_verdict ---------------------------------------


def unscreened_verdict(a, b, m_max, dim_max, steps, size_cap=catalysis.DEFAULT_SIZE_CAP):
    """strong_verdict's JSON without its end screen, from public functions."""
    if condition_c(a, b):
        outcome, witness = "strong-by-c", None
    else:
        witness = (
            multicopy_convertible(a, b, 1, size_cap=size_cap)
            or catalyst_search(a, b, dim_max, steps, size_cap=size_cap)
            or multicopy_convertible(a, b, m_max, size_cap=size_cap)
        )
        outcome = "inconclusive" if witness is None else "convertible-witness"
    return {
        "outcome": outcome,
        "witness": None if witness is None else witness.to_json(),
        "checked_bounds": {
            "m_max": m_max, "catalyst_dim_max": dim_max, "grid_steps": steps
        },
    }


def result_or_refusal(call, *args, **kwargs):
    try:
        return call(*args, **kwargs)
    except SizeCapExceeded as refusal:
        return "refused", refusal.required, refusal.cap, str(refusal)


def screened(a, b, m_max, dim_max, steps):
    return catalysis._monotones_block(
        a, b, m_max, dim_max, steps, DEFAULT_TOLERANCES, ()
    )


def test_a_screened_verdict_does_no_search(monkeypatch):
    def refuse(*args):
        raise AssertionError("a screened verdict searched")

    # the screen runs before the single copy, so not even that is compared,
    # and nothing is sized or fetched, so no cap can refuse what it decides
    for stage in (
        "_first_hit", "_top_products", "_pair_code", "compare_many",
        "_check_power_size", "_catalyst_grid", "_build_catalyst_grid",
    ):
        monkeypatch.setattr(catalysis, stage, refuse)
    a, b = spec(*SCREENED_A), spec(*SCREENED_B)
    assert not condition_c(a, b)
    assert compare(a, b).relation is Relation.INCOMPARABLE
    default = catalysis.DEFAULT_SIZE_CAP
    cases = [
        ((1, 2, 2), default),
        ((3, 3, 100), default),
        ((3, 4, 500), default),
        ((2, 3, 2000), default),
        ((1, 40, 60), default),
        # bounds the searches would refuse: the cap is below the spectra's 4
        # entries; the dimension-3 products, 4 * 3 entries, are over the cap;
        # the dimension-4 grid is over the default cap; three copies, 4**3
        # entries, are over the cap
        ((3, 3, 20), 3),
        ((3, 3, 20), 10),
        ((1, 4, GRID_STEPS_OVER_CAP), default),
        ((3, 3, 12), 20),
    ]
    for pair in ((a, b), (b, a)):
        for bounds, cap in cases:
            assert screened(*pair, *bounds)
            verdict = strong_verdict(
                *pair, m_max=bounds[0], catalyst_dim_max=bounds[1],
                grid_steps=bounds[2], size_cap=cap,
            )
            assert verdict.outcome is StrongOutcome.INCONCLUSIVE
            assert verdict.witness is None
            assert verdict.checked_bounds == bounds


@st.composite
def end_gap_pairs(draw):
    """An equal-length pair of 2..6 entries: `b` is `a` with its top and
    bottom entries moved the same way, by gaps between 10**-12.5 (below the
    screen's margin) and 0.1, half of them below 10**-9.5 (near the margin),
    and the mass moved spread over the middle entries before `b` is
    renormalized.  Small gaps give nearly equal spectra, where the slack
    of the searches decides."""
    n = draw(st.integers(2, 6))
    a = np.sort(np.array(draw(st.lists(st.floats(0.2, 1.0), min_size=n, max_size=n))))
    a = a[::-1] / a.sum()
    exponents = st.one_of(st.floats(-12.5, -9.5), st.floats(-12.5, -1.0))
    gaps = [10 ** draw(exponents) for _ in range(2)]
    top, bottom = (min(gap, 0.5 * a[-1]) for gap in gaps)
    sign = draw(st.sampled_from((-1.0, 1.0)))
    b = a.copy()
    b[0] -= sign * top
    b[-1] -= sign * bottom
    weights = draw(st.lists(st.floats(0.0, 1.0), min_size=n - 2, max_size=n - 2))
    b[1:-1] += sign * (top + bottom) * np.array(weights)
    b /= b.sum()
    pair = (make_spectrum(a), make_spectrum(b))
    return pair[::-1] if draw(st.booleans()) else pair


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(end_gap_pairs(), st.integers(1, 3), st.sampled_from(((2, 4), (3, 12), (4, 6))))
def test_the_end_screen_is_sound(pair, m_max, grid):
    # wherever the screen fires, neither search accepts either direction
    dim_max, steps = grid
    if not screened(*pair, m_max, dim_max, steps):
        return
    assert multicopy_convertible(*pair, m_max) is None
    assert catalyst_search(*pair, dim_max, steps) is None


def test_a_top_gap_inside_the_margin_is_left_to_the_searches():
    # both end gaps exceed tau_cmp, and they have the same sign, but the top
    # gap is below the margin once a catalyst of dimension 2 or 3 divides it:
    # the searches run and find the slack witnesses they find without the
    # screen
    a = spec(0.4 + 1.5e-12, 0.3 - 3e-12, 0.2, 0.1 + 1.5e-12)
    b = spec(0.4, 0.3, 0.2, 0.1)
    gaps = a.values - b.values
    assert gaps[0] > DEFAULT_TOLERANCES.tau_cmp and gaps[-1] > DEFAULT_TOLERANCES.tau_cmp
    assert not condition_c(a, b)
    for m_max, dim_max, steps in ((1, 3, 100), (2, 2, 100), (3, 3, 100)):
        assert not screened(a, b, m_max, dim_max, steps)
        verdict = strong_verdict(
            a, b, m_max=m_max, catalyst_dim_max=dim_max, grid_steps=steps
        )
        assert verdict.outcome is StrongOutcome.CONVERTIBLE
        assert verdict.to_json() == unscreened_verdict(a, b, m_max, dim_max, steps)


def test_grid_row_counts_match_the_built_grids():
    # the build refuses exactly the grids whose entries exceed the cap
    build = catalysis._build_catalyst_grid
    for steps in range(2, 61):
        for dim in range(2, 7):
            rows = len(build(dim, steps, 10**9))
            build(dim, steps, rows * dim)
            if rows:
                with pytest.raises(SizeCapExceeded):
                    build(dim, steps, rows * dim - 1)


def test_a_screened_verdict_builds_no_grid(monkeypatch):
    def refuse(*args):
        raise AssertionError("a screened verdict fetched a grid")

    monkeypatch.setattr(catalysis, "_catalyst_grid", refuse)
    a, b = spec(*SCREENED_A), spec(*SCREENED_B)
    for pair in ((a, b), (b, a)):
        for bounds in ((3, 4, 500), (2, 3, 2000), (1, 40, 60)):
            assert screened(*pair, *bounds)
            verdict = strong_verdict(
                *pair, m_max=bounds[0], catalyst_dim_max=bounds[1], grid_steps=bounds[2]
            )
            assert verdict.outcome is StrongOutcome.INCONCLUSIVE


def test_the_ends_screen_a_pair_at_a_coarse_tolerance(monkeypatch):
    # at tau_cmp = 1e-3 the margin is past 2**-20, where the power-sum orders
    # are not tried, but the ends alone still block both directions
    def refuse(*args):
        raise AssertionError("an end-screened verdict searched")

    for stage in (
        "_first_hit", "_top_products", "_pair_code", "compare_many",
        "_check_power_size", "_catalyst_grid", "_build_catalyst_grid",
    ):
        monkeypatch.setattr(catalysis, stage, refuse)
    coarse = dataclasses.replace(DEFAULT_TOLERANCES, tau_cmp=1e-3)
    a, b = spec(0.6, 0.25, 0.15), spec(0.5, 0.4, 0.1)
    for pair in ((a, b), (b, a)):
        assert not condition_c(*pair, coarse)
        verdict = strong_verdict(*pair, grid_steps=10, tol=coarse)
        assert verdict.outcome is StrongOutcome.INCONCLUSIVE
        assert verdict.witness is None
        assert verdict.checked_bounds == (3, 3, 10)


# --- the alpha screen of strong_verdict -------------------------------------


def alpha_screened(a, b, m_max, dim_max, steps):
    return catalysis._monotones_block(
        a, b, m_max, dim_max, steps, DEFAULT_TOLERANCES, catalysis._ALPHAS
    )


def test_power_sums_match_the_decimal_oracle():
    # the kernel's sums are within a relative (n + 4) eps of the exact sums
    # of its float entries, as the alpha screen's proof takes them to be;
    # tiny and zero entries included
    rng = np.random.default_rng(25)
    eps = Decimal(float(np.finfo(float).eps))
    alphas = catalysis._ALPHAS
    for i in range(12):
        n = 2 + i % 10
        concentration = (0.2, 1.0, 5.0)[i % 3]
        rows = np.array([random_sorted_probs(rng, n, concentration) for _ in range(2)])
        if i % 4 == 1:
            rows[:, -1] = 1e-300
        if i % 4 == 2:
            rows[1, -1] = 0.0
        got = catalysis._power_sums(rows, alphas)
        assert got.shape == (2, len(alphas))
        assert np.array_equal(catalysis._power_sums(rows[0], alphas), got[0])
        for row, sums in zip(rows, got):
            for value, exact in zip(sums, decimal_power_sums(row, alphas)):
                assert abs(Decimal(float(value)) - exact) <= (n + 4) * eps * exact


def test_an_alpha_screened_verdict_does_no_search(monkeypatch):
    def refuse(*args):
        raise AssertionError("an alpha-screened verdict searched")

    def single_copy_only(length, m, size_cap):
        # the single copy is sized and compared before the alpha screen
        if m != 1:
            refuse()

    a, b = spec(*ALPHA_SCREENED_A), spec(*ALPHA_SCREENED_B)
    assert not condition_c(a, b)
    assert compare(a, b).relation is Relation.INCOMPARABLE
    default = catalysis.DEFAULT_SIZE_CAP
    cases = [
        ((1, 2, 2), default),
        ((3, 3, 50), default),
        ((3, 3, 100), default),
        ((3, 4, 500), default),
        ((2, 3, 2000), default),
        ((1, 40, 60), default),
        # bounds the searches would refuse: the dimension-2 products, 4 * 2
        # entries, and the dimension-3 ones, 4 * 3, are over the cap; the
        # dimension-4 grid is over the default cap; three copies, 4**3
        # entries, are over the cap
        ((3, 3, 20), 4),
        ((3, 3, 20), 10),
        ((1, 4, GRID_STEPS_OVER_CAP), default),
        ((3, 3, 12), 20),
    ]
    for pair in ((a, b), (b, a)):
        for bounds, cap in cases:
            assert alpha_screened(*pair, *bounds)
            assert not screened(*pair, *bounds)
        # the searches, where they can run, find nothing either
        for bounds in ((3, 3, 50), (3, 3, 100)):
            assert unscreened_verdict(*pair, *bounds)["outcome"] == "inconclusive"
    # past 2**30 entries in the longest power the screen's bounds are not
    # formed, and the searches decide
    assert not alpha_screened(a, b, 16, 3, 50)
    for stage in (
        "_first_hit", "_top_products", "_catalyst_grid", "_build_catalyst_grid",
    ):
        monkeypatch.setattr(catalysis, stage, refuse)
    monkeypatch.setattr(catalysis, "_check_power_size", single_copy_only)
    for pair in ((a, b), (b, a)):
        for bounds, cap in cases:
            verdict = strong_verdict(
                *pair, m_max=bounds[0], catalyst_dim_max=bounds[1],
                grid_steps=bounds[2], size_cap=cap,
            )
            assert verdict.outcome is StrongOutcome.INCONCLUSIVE
            assert verdict.witness is None
            assert verdict.checked_bounds == bounds


@st.composite
def alpha_gap_pairs(draw):
    """An equal-length pair of 4..6 entries on the segment from a random
    spectrum `a` to a random `b` that the alpha screen decides at the bench
    bounds (3, 3, 50) and the end screen does not: `a` and (1 - t) a + t b,
    sorted and normalized, for t between 10**-12 and 1, half of them
    between 10**-10.5 and 10**-8.5.  The end and power-sum gaps shrink
    with t and meet the screen's margins there; below them the slack of
    the searches decides."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(4, 6))
    while True:
        a, b = (make_spectrum(random_sorted_probs(rng, n)) for _ in range(2))
        if alpha_screened(a, b, 3, 3, 50) and not screened(a, b, 3, 3, 50):
            break
    t = 10 ** draw(st.one_of(st.floats(-10.5, -8.5), st.floats(-12.0, 0.0)))
    pair = (a, make_spectrum((1 - t) * a.values + t * b.values))
    return pair[::-1] if draw(st.booleans()) else pair


@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(
    alpha_gap_pairs(),
    st.integers(1, 3),
    st.sampled_from(((2, 4), (3, 12), (4, 6), (3, 50))),
)
def test_the_alpha_screen_is_sound(pair, m_max, grid):
    # wherever the alpha screen fires, neither search accepts either
    # direction, the single copy included
    dim_max, steps = grid
    if not alpha_screened(*pair, m_max, dim_max, steps):
        return
    assert multicopy_convertible(*pair, m_max) is None
    assert catalyst_search(*pair, dim_max, steps) is None


def test_strong_verdict_matches_the_unscreened_composition():
    # the strata of the `strong` benchmark: condition-c pairs and equal-length
    # random pairs of 3..6 entries, at its bounds, some under small caps.  A
    # pair either screen decides is inconclusive over the requested bounds at
    # every cap, and no search accepts it, though a cap may refuse the
    # searches; every other pair gets the composition's verdict or refusal
    rng = np.random.default_rng(18)
    proven = {
        "outcome": "inconclusive",
        "witness": None,
        "checked_bounds": {"m_max": 3, "catalyst_dim_max": 3, "grid_steps": 50},
    }
    seen = set()
    for i in range(2000):
        if i % 2:
            a, b = random_condition_c_pair(rng)
        else:
            n = 3 + i // 2 % 4
            a, b = random_sorted_probs(rng, n), random_sorted_probs(rng, n)
        a, b = make_spectrum(a), make_spectrum(b)
        cap = (catalysis.DEFAULT_SIZE_CAP, catalysis.DEFAULT_SIZE_CAP, 150, 15)[i % 4]
        got = result_or_refusal(
            lambda: strong_verdict(
                a, b, m_max=3, catalyst_dim_max=3, grid_steps=50, size_cap=cap
            ).to_json()
        )
        expected = result_or_refusal(unscreened_verdict, a, b, 3, 3, 50, cap)
        if condition_c(a, b):
            pass
        elif screened(a, b, 3, 3, 50) or alpha_screened(a, b, 3, 3, 50):
            assert expected == proven or expected[0] == "refused"
            screen = "end screen" if screened(a, b, 3, 3, 50) else "alpha screen"
            small = "small cap" if cap < catalysis.DEFAULT_SIZE_CAP else "default cap"
            seen.add((screen, small))
            searches = "searches refused" if expected != proven else "searches failed"
            seen.add((screen, searches))
            expected = proven
        assert got == expected
    assert seen == {
        (screen, case)
        for screen in ("end screen", "alpha screen")
        for case in ("default cap", "small cap", "searches refused", "searches failed")
    }


# --- the single copy of strong_verdict ----------------------------------------


def single_copy_side(rng, n):
    """An n-entry spectrum with about a third of its entries zero (trailing
    once sorted), or [1.0] when every entry came out zero."""
    weights = rng.random(n) * (rng.random(n) > 1 / 3)
    if not weights.any():
        weights[0] = 1.0
    return make_spectrum(weights / weights.sum())


@st.composite
def single_copy_pairs(draw):
    """A finite pair of 1..5 entries a side, of one length half the time,
    with zero entries and one-entry spectra among them."""
    lengths = st.integers(1, 5)
    na = draw(lengths)
    nb = na if draw(st.booleans()) else draw(lengths)
    weight = st.one_of(st.just(0.0), st.floats(0.05, 1.0))
    sides = []
    for n in (na, nb):
        weights = np.array(draw(st.lists(weight, min_size=n, max_size=n)))
        if not weights.any():
            weights[0] = 1.0
        sides.append(make_spectrum(weights / weights.sum()))
    return tuple(sides)


def single_copy_agrees(a, b):
    """For a pair that neither condition_c nor the end screen decides, check
    strong_verdict's one-copy witness, or its absence, against
    multicopy_convertible(a, b, 1), and that the copy search is entered for
    m >= 2 only; return that witness, or "screened" for a decided pair."""
    if condition_c(a, b) or screened(a, b, 2, 2, 4):
        return "screened"
    firsts = []
    search = catalysis._multicopy_search

    def spy(a, b, first, *rest):
        firsts.append(first)
        return search(a, b, first, *rest)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(catalysis, "_multicopy_search", spy)
        verdict = strong_verdict(a, b, m_max=2, catalyst_dim_max=2, grid_steps=4)
    expected = multicopy_convertible(a, b, 1)
    if expected is not None:
        assert verdict.witness == expected
        assert firsts == []
    else:
        assert verdict.witness is None or verdict.witness.copies != 1
        assert firsts in ([], [2])
    return expected


def test_the_single_copy_is_the_one_copy_search_on_seeded_pairs():
    rng = np.random.default_rng(30)
    one = make_spectrum([1.0])
    pairs = [(one, one), (one, spec(0.5, 0.5)), (spec(0.5, 0.5), one)]
    for _ in range(600):
        na = int(rng.integers(1, 6))
        nb = na if rng.random() < 0.5 else int(rng.integers(1, 6))
        a, b = single_copy_side(rng, na), single_copy_side(rng, nb)
        pairs += [(a, b), (a, a)]
    seen = set()
    for a, b in pairs:
        witness = single_copy_agrees(a, b)
        if witness != "screened":
            shape = "equal" if len(a) == len(b) else "unequal"
            seen.add((shape, None if witness is None else witness.direction))
    assert seen == {
        (shape, direction)
        for shape in ("equal", "unequal")
        for direction in (Relation.FORWARD, Relation.BACKWARD, None)
    }


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(single_copy_pairs())
def test_the_single_copy_is_the_one_copy_search(pair):
    single_copy_agrees(*pair)


def test_a_cap_below_the_length_refuses_the_single_copy_first(monkeypatch):
    # an equal-length pair that passes condition_c and the end screen, and
    # that the alpha screen would decide: a cap below its length refuses the
    # single copy with the copy search's message, before any power sum
    a, b = spec(*ALPHA_SCREENED_A), spec(*ALPHA_SCREENED_B)
    length = len(a)
    assert not condition_c(a, b) and not screened(a, b, 3, 3, 100)
    assert alpha_screened(a, b, 3, 3, 100)

    def refuse(*args):
        raise AssertionError("the refused single copy reached a later stage")

    for stage in ("_power_sums", "_pair_code"):
        monkeypatch.setattr(catalysis, stage, refuse)
    for pair in ((a, b), (b, a)):
        with pytest.raises(SizeCapExceeded) as refusal:
            strong_verdict(*pair, size_cap=length - 1)
        assert str(refusal.value) == (
            f"operation needs {length}**1 entries; cap is {length - 1}"
        )
        assert (refusal.value.required, refusal.value.cap) == (length, length - 1)
