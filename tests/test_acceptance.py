"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines and the
measured runtimes.  The Monte Carlo regression values in criterion 6 were
frozen from a seeded run of the singular-value sampler, cross-checked
against a sampler on its own random stream (Gram-matrix eigenvalues), and
are pinned at three standard errors.  The sampler now takes the Gram route
itself and reproduces the frozen counts exactly; the check on a route that
does not share the sampler's is the SVD-redraw test in test_sampling.py,
with the benchmark's sweep oracle.
"""

import io
import time
import warnings

import numpy as np
import pytest

from entorder import (
    PermanenceWarning,
    Relation,
    catalyst_search,
    compare,
    complete_extension,
    condition_c,
    convergence_report,
    make_spectrum,
    minimal_c_index,
    multicopy_convertible,
    spectrum_distance,
    sweep,
    tensor_power_spectrum,
)
from entorder.cli import run as cli_run
from oracles import (
    brute_majorized,
    brute_relation,
    brute_violations,
    enumerate_power,
    enumerate_product,
    gram_spectrum,
    random_condition_c_pair,
    random_sorted_probs,
)


def report(number, name, ok, elapsed, budget):
    status = "PASS" if ok else "FAIL"
    print(f"criterion {number} ({name}): {status} [{elapsed:.1f}s / budget {budget:.0f}s]")
    assert ok, f"criterion {number} ({name}) failed"
    assert elapsed < budget, f"criterion {number} exceeded its {budget:.0f}s budget"


def test_criterion_1_oracle_equivalence():
    started = time.perf_counter()
    rng = np.random.default_rng(101)
    pairs = 100_000
    disagreements = 0
    for i in range(pairs):
        n = 2 + (i % 7)
        a = random_sorted_probs(rng, n)
        b = random_sorted_probs(rng, n)
        verdict = compare(make_spectrum(a), make_spectrum(b))
        if (
            verdict.relation.value != brute_relation(a, b)
            or list(verdict.forward_violations) != brute_violations(a, b)
            or list(verdict.backward_violations) != brute_violations(b, a)
        ):
            disagreements += 1
    report(
        1,
        "oracle equivalence on 1e5 pairs",
        disagreements == 0,
        time.perf_counter() - started,
        60.0,
    )


def test_criterion_2_condition_c_soundness():
    started = time.perf_counter()
    rng = np.random.default_rng(202)
    pairs = 10_000
    single, multi, catalysed, not_c = 0, 0, 0, 0
    for _ in range(pairs):
        a_vals, b_vals = random_condition_c_pair(rng)
        a, b = make_spectrum(a_vals), make_spectrum(b_vals)
        if abs(a.values[0] - b.values[0]) <= 10e-12 or not condition_c(a, b):
            not_c += 1
            continue
        if compare(a, b).relation is not Relation.INCOMPARABLE:
            single += 1
        if multicopy_convertible(a, b, 3) is not None:
            multi += 1
        if catalyst_search(a, b, 3, 50) is not None:
            catalysed += 1
    ok = single == 0 and multi == 0 and catalysed == 0 and not_c == 0
    report(
        2,
        "condition-c soundness sweep",
        ok,
        time.perf_counter() - started,
        600.0,
    )


def test_criterion_3_catalysis_witness():
    started = time.perf_counter()
    a_vals, b_vals = (0.4, 0.4, 0.1, 0.1), (0.5, 0.25, 0.25)
    a, b = make_spectrum(a_vals), make_spectrum(b_vals)
    incomparable = compare(a, b).relation is Relation.INCOMPARABLE
    incomparable &= brute_relation(a_vals, b_vals) == "incomparable"
    witness = catalyst_search(a, b, 2, 100)
    found = witness is not None and witness.direction is Relation.FORWARD
    verified = False
    if found:
        catalyst = list(witness.catalyst.values)
        verified = brute_majorized(
            list(enumerate_product(a_vals, catalyst)),
            list(enumerate_product(b_vals, catalyst)),
        )
    report(
        3,
        "catalyst witness for the worked pair",
        incomparable and found and verified,
        time.perf_counter() - started,
        1.0,
    )


def test_criterion_4_completion_construction():
    started = time.perf_counter()
    rng = np.random.default_rng(404)
    ok = True
    for _ in range(1000):
        base = make_spectrum(random_sorted_probs(rng, int(rng.integers(1, 13))))
        dists = []
        for m in (1, 10, 100):
            completed = complete_extension(base, m)
            ok &= abs(completed.total_mass() - 1.0) <= 1e-15
            ok &= bool((completed.values > 0).all()) and completed.tail.first > 0
            dists.append(spectrum_distance(completed, base))
        ok &= dists[0] > dists[1] > dists[2]
    report(
        4,
        "completion mass, positivity, convergence",
        ok,
        time.perf_counter() - started,
        10.0,
    )


def random_complete_tailed_pair(rng):
    """Genuinely complete pair: random finite bases extended by geometric
    tails, with top entries at least 0.01 apart."""
    while True:
        a = complete_extension(
            make_spectrum(random_sorted_probs(rng, int(rng.integers(4, 16)), 1.2)),
            int(rng.integers(3, 40)),
        )
        b = complete_extension(
            make_spectrum(random_sorted_probs(rng, int(rng.integers(4, 16)), 1.2)),
            int(rng.integers(3, 40)),
        )
        if abs(a.values[0] - b.values[0]) > 0.01:
            return a, b


def stable_c_index(a, b, m_max):
    """Start of the final all-m run of condition_c within the scan horizon.

    The first onset found by minimal_c_index can be followed by a dip (the
    prefix ratios are not monotone), while the construction's guarantee is
    about all sufficiently large m; the stable onset is the last failure
    plus one.
    """
    from entorder import NotComplete, truncation_pair

    failures = [1]
    for m in range(2, m_max + 1):
        try:
            pair = truncation_pair(a, b, m)
        except NotComplete:
            break
        if not condition_c(pair.a_m, pair.b_m):
            failures.append(m)
    return failures[-1] + 1


def test_criterion_5_truncation_construction():
    started = time.perf_counter()
    rng = np.random.default_rng(505)
    ok = True
    dip_pairs = 0
    for _ in range(1000):
        a, b = random_complete_tailed_pair(rng)
        with warnings.catch_warnings():
            # an onset dip is legitimate (and rare); the audit below starts
            # from the stable onset instead
            warnings.simplefilter("ignore", PermanenceWarning)
            first = minimal_c_index(a, b, 200)
        idx = stable_c_index(a, b, 200)
        dip_pairs += idx != first
        ok &= first <= idx <= 200
        rows = convergence_report(a, b, (idx, idx + 1, idx + 3, idx + 6, idx + 10))
        ok &= all(row.condition_c and row.incomparable for row in rows)
        dist_a = [row.dist_a for row in rows]
        dist_b = [row.dist_b for row in rows]
        ok &= all(x > y for x, y in zip(dist_a, dist_a[1:]))
        ok &= all(x > y for x, y in zip(dist_b, dist_b[1:]))
    ok &= dip_pairs <= 20  # non-monotone onsets must stay a rare exception
    report(
        5,
        f"truncation pairs turn strongly incomparable ({dip_pairs} onset dips)",
        ok,
        time.perf_counter() - started,
        60.0,
    )


# Frozen regression: sweep(seed=20240731, samples=10000) per dimension,
# frozen from the singular-value sampler; the Gram-eigenvalue sampler gives
# the same counts.
SWEEP_SEED = 20240731
SWEEP_SAMPLES = 10_000
FROZEN_COUNTS = {2: 0, 3: 3602, 4: 5178, 6: 6706, 8: 7502, 12: 8251, 16: 8688}


def test_criterion_6_monte_carlo_trend():
    started = time.perf_counter()
    dims = sorted(FROZEN_COUNTS)
    records = sweep(dims, SWEEP_SAMPLES, SWEEP_SEED)
    ok = records[0].fraction == 0.0
    # pinned within 3 standard errors of the frozen fractions
    for record in records:
        frozen = FROZEN_COUNTS[record.n] / SWEEP_SAMPLES
        se = np.sqrt(max(frozen * (1 - frozen), 1e-9) / SWEEP_SAMPLES)
        ok &= abs(record.fraction - frozen) <= 3 * se
    # non-decreasing within combined 95% intervals
    for prev, cur in zip(records, records[1:]):
        ok &= cur.fraction >= prev.fraction - (
            prev.ci95_halfwidth + cur.ci95_halfwidth
        )
    # the climb from n=3 to n=16 clears the combined interval widths
    low = next(r for r in records if r.n == 3)
    high = next(r for r in records if r.n == 16)
    ok &= high.fraction - low.fraction > low.ci95_halfwidth + high.ci95_halfwidth
    # agreement at n=3 with a sampler on its own stream (Gram eigenvalues,
    # the sampler's spectral route, with brute-force majorization): three
    # combined standard errors
    rng = np.random.default_rng(987654321)
    count = 0
    for _ in range(SWEEP_SAMPLES):
        x = gram_spectrum(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
        y = gram_spectrum(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
        if brute_relation(list(x), list(y)) == "incomparable":
            count += 1
    oracle_fraction = count / SWEEP_SAMPLES
    se = np.sqrt(
        oracle_fraction * (1 - oracle_fraction) / SWEEP_SAMPLES
        + low.fraction * (1 - low.fraction) / SWEEP_SAMPLES
    )
    ok &= abs(oracle_fraction - low.fraction) <= 3 * se
    report(
        6,
        "incomparability fraction trend",
        ok,
        time.perf_counter() - started,
        300.0,
    )


def test_criterion_7_cli_determinism():
    started = time.perf_counter()

    def invoke(*argv):
        out, err = io.StringIO(), io.StringIO()
        code = cli_run(list(argv), out=out, err=err)
        return code, out.getvalue()

    invocations = [
        ("compare", "--a", "0.5,0.25,0.25", "--b", "0.4,0.4,0.2", "--format", "json"),
        ("strong", "--a", "0.4,0.4,0.1,0.1", "--b", "0.5,0.25,0.25",
         "--catalyst-dim", "2", "--format", "json"),
        ("sweep", "--dims", "2,3,4", "--samples", "200", "--seed", "42"),
        ("construct", "audit", "--a", "0.6,0.2,0.1,0.05,0.05",
         "--b", "0.4,0.3,0.2,0.05,0.05", "--m-list", "3,4,5"),
        ("construct", "complete", "--base", "0.5,0.5", "--m", "9"),
    ]
    ok = True
    for argv in invocations:
        first = invoke(*argv)
        second = invoke(*argv)
        ok &= first == second and first[0] == 0
    report(
        7,
        "byte-identical CLI invocations",
        ok,
        time.perf_counter() - started,
        30.0,
    )


def test_criterion_8_tensor_power_oracle():
    started = time.perf_counter()
    steps = 20  # 0.05 grid resolution
    grids = [[(steps,)]]
    grids.append([(i, steps - i) for i in range(steps, (steps + 1) // 2 - 1, -1)])
    grids.append(
        [
            (i, j, steps - i - j)
            for i in range(steps, -1, -1)
            for j in range(min(i, steps - i), -1, -1)
            if 0 <= steps - i - j <= j
        ]
    )
    ok = True
    cases = 0
    for grid in grids:
        for combo in grid:
            spec = make_spectrum(np.asarray(combo, dtype=float) / steps)
            for m in (1, 2, 3):
                got = tensor_power_spectrum(spec, m).values
                ok &= np.array_equal(got, enumerate_power(spec.values, m))
                cases += 1
    ok &= cases == (1 + 11 + 44) * 3
    report(
        8,
        "tensor powers match exhaustive enumeration",
        ok,
        time.perf_counter() - started,
        60.0,
    )
