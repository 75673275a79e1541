"""Independent brute-force oracles and generators shared by the tests.

Everything here is deliberately written against plain Python lists and
itertools, not against the library's code paths, so the tests compare two
genuinely different computations.
"""

import itertools

import numpy as np

TAU = 1e-12


def brute_prefix_sums(values, length):
    """Running sums of a zero-padded list, by explicit accumulation."""
    padded = list(values) + [0.0] * (length - len(values))
    sums = []
    total = 0.0
    for entry in padded[:length]:
        total += entry
        sums.append(total)
    return sums


def brute_majorized(a, b, tau=TAU):
    """Prefix-by-prefix check that a is majorized by b."""
    length = max(len(a), len(b))
    pa = brute_prefix_sums(a, length)
    pb = brute_prefix_sums(b, length)
    return all(x <= y + tau for x, y in zip(pa, pb))


def brute_violations(a, b, tau=TAU):
    """1-based indices where the prefix inequality of a against b fails."""
    length = max(len(a), len(b))
    pa = brute_prefix_sums(a, length)
    pb = brute_prefix_sums(b, length)
    return [k + 1 for k in range(length) if pa[k] > pb[k] + tau]


def brute_relation(a, b, tau=TAU):
    forward = brute_majorized(a, b, tau)
    backward = brute_majorized(b, a, tau)
    if forward and backward:
        return "equivalent"
    if forward:
        return "forward-convertible"
    if backward:
        return "backward-convertible"
    return "incomparable"


def check_sorted_spectrum(spec):
    """Assert that `spec` is sorted: its head non-increasing, compared as
    plain floats, and its tail, if any, starting at or below the last head
    entry."""
    values = [float(v) for v in spec.values]
    for k, (x, y) in enumerate(zip(values, values[1:])):
        assert x >= y, f"entry {k + 1} ({y!r}) exceeds entry {k} ({x!r})"
    if spec.tail is not None:
        assert spec.tail.first <= values[-1], (
            f"tail starts at {spec.tail.first!r}, above the last head entry "
            f"{values[-1]!r}"
        )


def enumerate_power(values, m):
    """All m-fold products by explicit tuple enumeration, sorted descending."""
    products = [
        float(np.prod(combo)) for combo in itertools.product(list(values), repeat=m)
    ]
    return np.sort(np.asarray(products))[::-1]


def enumerate_product(a, c):
    """All pairwise products by explicit double loop, sorted descending."""
    products = [x * y for x in a for y in c]
    return np.sort(np.asarray(products))[::-1]


def enumerate_simplex_grid(dim, steps):
    """Sorted probability vectors on a 1/steps grid, by recursive generation.

    Ascending lexicographic order; for dim > 2 vectors with a trailing zero
    are skipped.  The reference for the library's catalyst grid builder.
    """

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


def count_simplex_grid(dim, steps):
    """Vectors of the dim > 2 grid, counted without enumerating them.

    They are the partitions of `steps` into `dim` positive parts, i.e. of
    steps - dim into parts of at most `dim`, counted part size by part size.
    """
    if steps < dim:
        return 0
    ways = [1] + [0] * (steps - dim)
    for part in range(1, dim + 1):
        for total in range(part, steps - dim + 1):
            ways[total] += ways[total - part]
    return ways[-1]


def gram_spectrum(matrix):
    """Squared singular values via the Gram matrix eigenproblem.

    Eigenvalues of M M^dagger equal the squared singular values of M.  This
    is the sampler's own route, rewritten; tests that must not share it
    redraw by SVD.
    """
    mat = np.asarray(matrix, dtype=complex)
    eigvals = np.linalg.eigvalsh(mat @ mat.conj().T)
    probs = np.sort(np.clip(eigvals.real, 0.0, None))[::-1]
    return probs / probs.sum()


def random_sorted_probs(rng, n, alpha=1.0):
    """Sorted probability vector from a flat-ish Dirichlet draw."""
    return np.sort(rng.dirichlet(np.full(n, alpha)))[::-1]


def random_condition_c_pair(rng, top_margin=0.005, entry_floor=1e-4):
    """Random pair satisfying the strong-incomparability sufficient test.

    Draws b with fewer positive entries, then a with more entries and a top
    entry forced above b's top by at least `top_margin`; every entry is kept
    above `entry_floor` so that no prefix-sum margin is at floating-point
    scale.
    """
    while True:
        nb = int(rng.integers(2, 5))
        na = int(rng.integers(nb + 1, 7))
        b = random_sorted_probs(rng, nb, alpha=2.0)
        a = random_sorted_probs(rng, na, alpha=2.0)
        if a[0] <= b[0] + top_margin:
            continue
        if a.min() < entry_floor or b.min() < entry_floor:
            continue
        return a, b


def random_complete_pair(rng, length_range=(30, 60), top_gap=0.01):
    """Random all-positive pair with clearly unequal top entries."""
    while True:
        na = int(rng.integers(*length_range))
        nb = int(rng.integers(*length_range))
        a = random_sorted_probs(rng, na, alpha=1.5)
        b = random_sorted_probs(rng, nb, alpha=1.5)
        if abs(a[0] - b[0]) > top_gap and a.min() > 1e-9 and b.min() > 1e-9:
            return a, b


def decimal_power_sums(values, alphas, digits=50):
    """sum(x**alpha) over the entries x of `values`, for each order alpha in
    `alphas`, as a `decimal.Decimal` computed from the floats' exact values
    at `digits` significant digits.  Zero entries add nothing (the orders
    are positive).  `decimal` is imported here, so that loading this
    module for the benchmark's output checks does not load it."""
    import decimal

    with decimal.localcontext() as ctx:
        ctx.prec = digits
        return [
            sum(
                (decimal.Decimal(float(x)) ** decimal.Decimal(float(alpha))
                 for x in values if x > 0),
                decimal.Decimal(0),
            )
            for alpha in alphas
        ]
