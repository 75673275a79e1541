import io
import json
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from entorder import (
    DEFAULT_TOLERANCES,
    EntOrderError,
    GeometricTail,
    InfiniteSchmidtNumber,
    InvalidInput,
    NotComplete,
    NotFoundWithin,
    PermanenceWarning,
    Relation,
    SchmidtSpectrum,
    SizeCapExceeded,
    TopEntriesTied,
    catalyst_convertible,
    catalyst_search,
    cli,
    compare,
    complete_extension,
    condition_c,
    convergence_report,
    incomparability_fraction,
    make_spectrum,
    minimal_c_index,
    multicopy_convertible,
    schmidt_number,
    spectrum_distance,
    strong_verdict,
    tensor_power_spectrum,
    tensor_product_spectrum,
    top_k_tensor_power,
    truncation_pair,
)
from entorder.genericity import _positive_prefix
from oracles import random_complete_pair, random_sorted_probs


def spec(*values):
    return make_spectrum(list(values))


WORKED_A = (0.6, 0.2, 0.1, 0.05, 0.05)
WORKED_B = (0.4, 0.3, 0.2, 0.05, 0.05)


# --- complete_extension -----------------------------------------------------


def test_completion_of_point_spectrum():
    completed = complete_extension(spec(1.0), 1)
    assert completed.values == pytest.approx([0.5])
    assert completed.tail == GeometricTail(0.25, 0.5)


def test_completion_of_bell_spectrum():
    completed = complete_extension(spec(0.5, 0.5), 9)
    assert completed.values == pytest.approx([0.45, 0.45])
    assert completed.tail == GeometricTail(0.05, 0.5)
    assert completed.total_mass() == pytest.approx(1.0, abs=1e-15)


def test_completion_mass_identity_in_closed_form():
    # head factor m/(m+1) plus tail mass 1/(m+1) is 1, for every index
    ms = np.arange(1, 10_001, dtype=float)
    head_factor = ms / (ms + 1.0)
    tail_mass = (1.0 / (2.0 * (ms + 1.0))) / (1.0 - 0.5)
    assert np.max(np.abs(head_factor + tail_mass - 1.0)) < 1e-15


def test_completion_strips_padding_zeros():
    completed = complete_extension(spec(1.0, 0.0, 0.0), 4)
    assert len(completed.values) == 1
    assert schmidt_number(completed) == math.inf


def test_completion_entries_positive_and_mass_one():
    rng = np.random.default_rng(41)
    for _ in range(50):
        base = make_spectrum(random_sorted_probs(rng, int(rng.integers(1, 13))))
        for m in (1, 10, 100):
            completed = complete_extension(base, m)
            assert (completed.values > 0).all()
            assert completed.tail.first > 0
            assert abs(completed.total_mass() - 1.0) < 1e-15


def test_completion_distance_decreases():
    rng = np.random.default_rng(42)
    for _ in range(20):
        base = make_spectrum(random_sorted_probs(rng, int(rng.integers(2, 10))))
        dists = [
            spectrum_distance(complete_extension(base, m), base)
            for m in (1, 10, 100, 1000)
        ]
        assert all(x > y for x, y in zip(dists, dists[1:]))


def test_completion_merges_tail_for_small_bases():
    # base minimum scaled below the tail's first term: entries must still
    # come out globally sorted
    completed = complete_extension(spec(0.999, 0.001), 1)
    assert (np.diff(completed.values) <= 1e-18).all()
    assert completed.tail.first <= completed.values[-1]
    assert completed.total_mass() == pytest.approx(1.0, abs=1e-15)


def test_completion_rejects_bad_input():
    with pytest.raises(InvalidInput):
        complete_extension(spec(1.0), 0)
    with pytest.raises(InvalidInput):
        complete_extension(complete_extension(spec(1.0), 1), 1)


# --- truncation_pair ----------------------------------------------------------


def test_worked_truncation():
    pair = truncation_pair(spec(*WORKED_A), spec(*WORKED_B), 3)
    assert not pair.swapped
    assert pair.a_m.values == pytest.approx([2 / 3, 2 / 9, 1 / 9], abs=1e-15)
    assert pair.b_m.values == pytest.approx([4 / 7, 3 / 7], abs=1e-15)


def test_truncation_swaps_when_second_top_is_larger():
    pair = truncation_pair(spec(*WORKED_B), spec(*WORKED_A), 3)
    assert pair.swapped
    assert len(pair.a_m.values) == 2
    assert len(pair.b_m.values) == 3
    assert pair.b_m.values == pytest.approx([2 / 3, 2 / 9, 1 / 9], abs=1e-15)


def test_truncation_schmidt_gap_is_one():
    rng = np.random.default_rng(43)
    for _ in range(30):
        a, b = random_complete_pair(rng)
        for m in (2, 5, 11):
            pair = truncation_pair(make_spectrum(a), make_spectrum(b), m)
            counts = {
                schmidt_number(pair.a_m),
                schmidt_number(pair.b_m),
            }
            assert counts == {m, m - 1}


def test_truncation_rejects_tied_tops():
    with pytest.raises(TopEntriesTied):
        truncation_pair(spec(0.5, 0.5), spec(0.5, 0.25, 0.25), 2)


def test_truncation_rejects_exhausted_spectra():
    with pytest.raises(NotComplete):
        truncation_pair(spec(0.6, 0.4), spec(0.5, 0.3, 0.2), 3)
    with pytest.raises(InvalidInput):
        truncation_pair(spec(0.6, 0.4), spec(0.5, 0.3, 0.2), 1)


def test_truncation_of_tailed_spectra_materializes_entries():
    a = complete_extension(spec(0.7, 0.3), 3)
    b = complete_extension(spec(0.55, 0.45), 3)
    pair = truncation_pair(a, b, 6)
    assert len(pair.a_m.values) == 6
    assert (pair.a_m.values > 0).all()
    assert pair.a_m.values.sum() == pytest.approx(1.0, abs=1e-14)


def test_truncation_stops_where_the_tail_drops_below_tau_zero():
    # a's tail 0.25 * 0.5**j exceeds tau_zero = 1e-12 for j <= 37 only, so a
    # has 1 + 38 positive entries; b (the shorter cut) has 2 + 38
    a = complete_extension(spec(1.0), 1)
    b = complete_extension(spec(0.5, 0.5), 1)
    positive = np.count_nonzero(a.entry_prefix(60) > 1e-12)
    assert positive == 39
    assert len(truncation_pair(a, b, positive).a_m) == positive
    with pytest.raises(NotComplete):
        truncation_pair(a, b, positive + 1)


def test_truncation_decides_both_sides_before_materializing_either():
    ratio = 0.99999999
    a = make_spectrum([0.5000000025123796], GeometricTail(5e-09, ratio))
    b = make_spectrum([0.4], GeometricTail(0.6 * (1 - ratio), ratio))
    # a's m - 1 entries are not built before the short side is refused, and
    # an index past the size cap is refused before either side is built
    for short, m, error, message in (
        (spec(0.6, 0.4), 10**7, NotComplete, "fewer than 10000000 positive"),
        (b, 10**7 + 1, SizeCapExceeded, "needs 10000001 entries; cap is 10000000"),
    ):
        tracemalloc.start()
        try:
            with pytest.raises(error, match=message):
                truncation_pair(a, short, m)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20


# --- minimal_c_index -----------------------------------------------------------


def test_worked_minimal_index():
    # m=2 can never qualify (the one-entry member has top 1.0); m=3 does:
    # 2/3 > 4/7
    assert minimal_c_index(spec(*WORKED_A), spec(*WORKED_B), 50) == 3


def test_minimal_index_not_found_within_bound():
    with pytest.raises(NotFoundWithin):
        minimal_c_index(spec(*WORKED_A), spec(*WORKED_B), 2)


def test_minimal_index_propagates_tied_tops():
    with pytest.raises(TopEntriesTied):
        minimal_c_index(spec(0.5, 0.5), spec(0.5, 0.25, 0.25), 10)


def test_permanence_audit_warns_on_non_monotone_onset():
    # crafted pair: the sufficient test holds at m=3, fails again at m=4..8
    # (the second spectrum's third entry is far smaller than its second)
    a = spec(*([0.40, 0.25] + [0.05] * 7))
    b = spec(*([0.39, 0.30] + [0.001] * 310))
    with pytest.warns(PermanenceWarning):
        assert minimal_c_index(a, b, 30) == 3


def test_minimal_index_exists_for_random_complete_pairs():
    rng = np.random.default_rng(44)
    for _ in range(25):
        # genuinely complete inputs: finite bases extended by geometric tails
        a = complete_extension(
            make_spectrum(random_sorted_probs(rng, int(rng.integers(4, 16)), 1.2)),
            int(rng.integers(3, 40)),
        )
        b = complete_extension(
            make_spectrum(random_sorted_probs(rng, int(rng.integers(4, 16)), 1.2)),
            int(rng.integers(3, 40)),
        )
        if abs(a.values[0] - b.values[0]) <= 0.01:
            continue
        with warnings.catch_warnings():
            warnings.simplefilter("error", PermanenceWarning)
            idx = minimal_c_index(a, b, 200)
        assert 3 <= idx <= 200


# --- convergence_report ----------------------------------------------------------


def test_report_rows_ordered_and_consistent():
    a, b = spec(*WORKED_A), spec(*WORKED_B)
    rows = convergence_report(a, b, [5, 3, 4])
    assert [row.m for row in rows] == [3, 4, 5]
    for row in rows:
        if row.condition_c:
            assert row.incomparable


def test_report_distances_match_closed_form():
    # A renormalized truncation keeping mass S overlaps its source by
    # sqrt(S) exactly, so the distance must equal sqrt(2 - 2*sqrt(S)).
    rng = np.random.default_rng(45)
    a_vals, b_vals = random_complete_pair(rng)
    a, b = make_spectrum(a_vals), make_spectrum(b_vals)
    rows = convergence_report(a, b, [4, 8, 16])
    for row in rows:
        keep_a = row.m if a_vals[0] > b_vals[0] else row.m - 1
        keep_b = row.m - 1 if a_vals[0] > b_vals[0] else row.m
        expected_a = math.sqrt(2.0 - 2.0 * math.sqrt(a_vals[:keep_a].sum()))
        expected_b = math.sqrt(2.0 - 2.0 * math.sqrt(b_vals[:keep_b].sum()))
        assert row.dist_a == pytest.approx(expected_a, abs=1e-12)
        assert row.dist_b == pytest.approx(expected_b, abs=1e-12)


def test_report_converges_to_zero_distance():
    a, b = spec(*WORKED_A), spec(*WORKED_B)
    rows = convergence_report(a, b, [3, 4, 5])
    dists_a = [row.dist_a for row in rows]
    dists_b = [row.dist_b for row in rows]
    assert dists_a == sorted(dists_a, reverse=True)
    assert dists_b == sorted(dists_b, reverse=True)
    # the full five entries are recovered at m=5: member a is then exact
    assert rows[-1].dist_a == pytest.approx(0.0, abs=1e-7)


def test_report_rows_above_minimal_index_certify_incomparability():
    rng = np.random.default_rng(46)
    a_vals, b_vals = random_complete_pair(rng)
    a, b = make_spectrum(a_vals), make_spectrum(b_vals)
    idx = minimal_c_index(a, b, 200)
    rows = convergence_report(a, b, [idx, idx + 1, idx + 5])
    for row in rows:
        assert row.condition_c
        assert row.incomparable
        assert compare(a, b).relation in Relation


# --- the audit path against its per-index composition ------------------------
#
# The report reads its `incomparable` column from the verdict code alone.
# Each row must still be what the public functions give at its index, bit
# for bit, and an invalid m-list must fail as they fail, index by index.


def composed_rows(a, b, m_list):
    rows = []
    for m in sorted(set(m_list)):
        pair = truncation_pair(a, b, m)
        rows.append((
            m,
            spectrum_distance(pair.a_m, a).hex(),
            spectrum_distance(pair.b_m, b).hex(),
            condition_c(pair.a_m, pair.b_m),
            compare(pair.a_m, pair.b_m).relation is Relation.INCOMPARABLE,
        ))
    return rows


def reported_rows(a, b, m_list):
    rows = convergence_report(a, b, m_list)
    assert all(type(row.incomparable) is bool for row in rows)
    return [
        (row.m, row.dist_a.hex(), row.dist_b.hex(), row.condition_c, row.incomparable)
        for row in rows
    ]


def outcome(report, a, b, m_list):
    try:
        return report(a, b, m_list)
    except EntOrderError as exc:
        return type(exc), str(exc)


def tailed_spectrum(rng):
    tail = GeometricTail(float(rng.uniform(0.001, 0.02)), float(rng.uniform(0.5, 0.9)))
    head = np.maximum(random_sorted_probs(rng, int(rng.integers(2, 6))), 0.05)
    return make_spectrum(head / head.sum() * (1.0 - tail.mass()), tail)


def test_report_rows_are_the_per_index_composition():
    rng = np.random.default_rng(47)
    cases = [(spec(*WORKED_A), spec(*WORKED_B), [2, 3, 4, 5])]
    for _ in range(6):
        a, b = map(make_spectrum, random_complete_pair(rng))
        cases.append((a, b, [2, 3, 5, 8, 13, 21]))
        cases.append((tailed_spectrum(rng), tailed_spectrum(rng), [2, 3, 5, 8, 13, 21]))
    seen = set()
    for a, b, m_list in cases:
        for pair in ((a, b), (b, a)):
            rows = reported_rows(*pair, m_list[::-1])
            assert rows == composed_rows(*pair, m_list)
            seen.update(row[3:] for row in rows)
    # rows of each kind: comparable, and strongly incomparable
    assert {(False, False), (True, True)} <= seen


LONG_TAIL = 0.99999999


@pytest.mark.parametrize(
    "a, b, m_list, error, message",
    [
        (spec(*WORKED_A), spec(*WORKED_B), [3, 1, 4], InvalidInput,
         "truncation index must be at least 2"),
        (spec(0.5, 0.3, 0.2), spec(0.5, 0.25, 0.25), [3], TopEntriesTied,
         "top entries differ by 0.0, within tau_cmp"),
        # at m = 5 both are short; `a`, checked first, is the one named
        (spec(0.6, 0.2, 0.1, 0.1), spec(0.4, 0.3, 0.3), [2, 4, 5], NotComplete,
         "spectrum has fewer than 5 positive entries"),
        (make_spectrum([0.5000000025123796], GeometricTail(5e-09, LONG_TAIL)),
         make_spectrum([0.4], GeometricTail(0.6 * (1 - LONG_TAIL), LONG_TAIL)),
         [10**7 + 1], SizeCapExceeded, "operation needs 10000001 entries; cap is 10000000"),
    ],
)
def test_report_refuses_an_m_list_as_its_composition_does(a, b, m_list, error, message):
    got = outcome(reported_rows, a, b, m_list)
    assert got == outcome(composed_rows, a, b, m_list)
    assert got[0] is error and got[1].startswith(message)


# The body `_positive_prefix` had before it read only the last entry: a full
# scan of the head, then the last kept tail entry.
def full_scan_positive_prefix(spec, count, tol):
    head = spec.values[:count]
    if not (head > tol.tau_zero).all():
        return False
    extra = count - len(head)
    if extra == 0:
        return True
    if spec.tail is None:
        return False
    return bool(spec.tail.entries(1, extra - 1)[0] > tol.tau_zero)


TAU_ZERO = DEFAULT_TOLERANCES.tau_zero


@pytest.mark.parametrize(
    "last", [0.0, TAU_ZERO, np.nextafter(TAU_ZERO, 0.0), np.nextafter(TAU_ZERO, 1.0)]
)
def test_positive_prefix_matches_a_full_scan(last):
    # no tail, or one that starts at the head's last entry, at half of it, or
    # far below tau_zero, as long as that keeps the spectrum sorted
    firsts = [first for first in (last, last / 2, TAU_ZERO / 8) if 0 < first <= last]
    tails = [None] + [GeometricTail(first, 0.5) for first in firsts]
    answers = set()
    for trailing in (1, 2):
        values = np.array([0.5, 0.3] + [last] * trailing)
        for tail in tails:
            spec = SchmidtSpectrum(values, tail)
            for count in range(1, len(values) + 4):
                got = _positive_prefix(spec, count, DEFAULT_TOLERANCES)
                assert got is full_scan_positive_prefix(spec, count, DEFAULT_TOLERANCES)
                answers.add(got)
    assert answers == {False, True}


# --- count arguments ---------------------------------------------------------


COUNT_A, COUNT_B = spec(0.6, 0.2, 0.1, 0.1), spec(0.4, 0.4, 0.2)


@pytest.mark.parametrize(
    "call, name",
    [
        (lambda a, b: strong_verdict(a, b, m_max=2.5), "m_max"),
        (lambda a, b: strong_verdict(a, b, catalyst_dim_max=2.0), "catalyst_dim_max"),
        (lambda a, b: strong_verdict(a, b, grid_steps="100"), "grid_steps"),
        (lambda a, b: complete_extension(a, 1.5), "m"),
        (lambda a, b: convergence_report(a, b, [3, 2.7]), "m"),
        (lambda a, b: truncation_pair(a, b, 2.5), "m"),
        (lambda a, b: minimal_c_index(a, b, 2.5), "m_max"),
        (lambda a, b: tensor_power_spectrum(a, 2.0), "m"),
        (lambda a, b: multicopy_convertible(a, b, 2.5), "m_max"),
        (lambda a, b: catalyst_search(a, b, 3, 20.0), "grid_steps"),
        (lambda a, b: top_k_tensor_power(a, 3.0, 5), "m"),
        (lambda a, b: top_k_tensor_power(a, 3, 5.0), "k"),
        # booleans are not counts, though operator.index takes them
        (lambda a, b: strong_verdict(a, b, m_max=True), "m_max"),
        (lambda a, b: tensor_power_spectrum(a, True), "m"),
        (lambda a, b: incomparability_fraction(3, True, 0), "samples"),
        (lambda a, b: incomparability_fraction(3, 1, False), "seed"),
        (lambda a, b: complete_extension(a, np.True_), "m"),
        # size_cap, in each of the six functions that take it
        (lambda a, b: strong_verdict(a, b, size_cap=1e7), "size_cap"),
        (lambda a, b: strong_verdict(a, b, size_cap=True), "size_cap"),
        (lambda a, b: tensor_product_spectrum(a, b, size_cap=100.0), "size_cap"),
        (lambda a, b: tensor_power_spectrum(a, 2, size_cap="100"), "size_cap"),
        (lambda a, b: multicopy_convertible(a, b, 2, size_cap=2.5), "size_cap"),
        (lambda a, b: catalyst_convertible(a, b, b, size_cap=100.0), "size_cap"),
        (lambda a, b: catalyst_search(a, b, 3, 20, size_cap=1e7), "size_cap"),
    ],
)
def test_count_arguments_must_be_integers(call, name):
    with pytest.raises(InvalidInput, match=f"^{name} must be an integer, got "):
        call(COUNT_A, COUNT_B)


def test_count_checks_keep_the_range_messages_and_their_order():
    a, b = spec(0.6, 0.4), spec(0.5, 0.5)
    # an earlier argument's range check still comes before a later one's type
    with pytest.raises(InvalidInput, match="m_max must be at least 1"):
        strong_verdict(a, b, m_max=0, grid_steps=1.5)
    with pytest.raises(InvalidInput, match="copy count must be at least 1"):
        top_k_tensor_power(a, 0, 5.0)
    with pytest.raises(InvalidInput, match="dim_max must be at least 2"):
        catalyst_search(a, b, 1, 20.0)
    # size_cap is checked after every other argument, and refused below 1
    with pytest.raises(InvalidInput, match="m_max must be at least 1"):
        strong_verdict(a, b, m_max=0, size_cap="x")
    tailed = make_spectrum([0.5], GeometricTail(0.25, 0.5))
    with pytest.raises(InfiniteSchmidtNumber):
        tensor_product_spectrum(tailed, b, size_cap=0)
    with pytest.raises(InfiniteSchmidtNumber):
        catalyst_convertible(tailed, b, b, size_cap=0)
    with pytest.raises(InfiniteSchmidtNumber):
        strong_verdict(tailed, b, size_cap=0)
    with pytest.raises(InvalidInput, match="copy count must be at least 1"):
        tensor_power_spectrum(a, 0, size_cap=-1)
    # a condition-c pair used to come back strong-by-c with bounds (0, 1, 100)
    with pytest.raises(InvalidInput, match="^size_cap must be at least 1$"):
        strong_verdict(COUNT_A, COUNT_B, size_cap=0)
    with pytest.raises(InvalidInput, match="^size_cap must be at least 1$"):
        catalyst_search(a, b, 2, 20, size_cap=-5)


def test_numpy_integer_counts_are_accepted():
    a, b = spec(0.4, 0.4, 0.1, 0.1), spec(0.5, 0.25, 0.25)
    got = strong_verdict(
        a, b, m_max=np.int64(3), catalyst_dim_max=np.int32(3), grid_steps=np.uint16(40),
        size_cap=np.int64(10**7),
    )
    expected = strong_verdict(a, b, m_max=3, catalyst_dim_max=3, grid_steps=40)
    assert json.dumps(got.to_json()) == json.dumps(expected.to_json())
    assert (
        tensor_power_spectrum(a, np.int8(2), size_cap=np.int32(100)).values.tobytes()
        == tensor_power_spectrum(a, 2).values.tobytes()
    )
    assert (
        tensor_product_spectrum(a, b, size_cap=np.uint8(12)).values.tobytes()
        == tensor_product_spectrum(a, b).values.tobytes()
    )
    assert catalyst_convertible(a, b, b, size_cap=np.int16(12)) == catalyst_convertible(
        a, b, b
    )
    # a condition-c pair takes a numpy size_cap too
    got = strong_verdict(COUNT_A, COUNT_B, size_cap=np.int64(100))
    expected = strong_verdict(COUNT_A, COUNT_B, size_cap=100)
    assert json.dumps(got.to_json()) == json.dumps(expected.to_json())
    assert (
        top_k_tensor_power(a, np.int64(3), np.uint8(5)).tobytes()
        == top_k_tensor_power(a, 3, 5).tobytes()
    )
    assert multicopy_convertible(
        a, b, np.int16(3), size_cap=np.int64(10**7)
    ) == multicopy_convertible(a, b, 3)
    witness = catalyst_search(a, b, np.int64(2), np.int64(20), size_cap=np.int64(10**7))
    assert witness.to_json() == catalyst_search(a, b, 2, 20).to_json()
    ca, cb = complete_extension(a, np.int64(25)), complete_extension(b, 25)
    assert ca.values.tobytes() == complete_extension(a, 25).values.tobytes()
    rows = convergence_report(ca, cb, np.array([3, 5]))
    assert rows == convergence_report(ca, cb, [3, 5])
    assert all(type(row.m) is int for row in rows)
    pair, expected = truncation_pair(ca, cb, np.int32(3)), truncation_pair(ca, cb, 3)
    assert type(pair.m) is int
    assert pair.a_m.values.tobytes() == expected.a_m.values.tobytes()
    assert pair.b_m.values.tobytes() == expected.b_m.values.tobytes()


def test_complete_extension_refuses_a_tailed_base_as_an_infinite_schmidt_number():
    base = make_spectrum([0.45, 0.45], GeometricTail(0.05, 0.5))
    with pytest.raises(InfiniteSchmidtNumber, match="^base must have a finite Schmidt"):
        complete_extension(base, 3)
    # still an input error to the CLI, with the same bytes
    out, err = io.StringIO(), io.StringIO()
    argv = ["construct", "complete", "--base", "0.45,0.45...geom(0.05,0.5)", "--m", "3"]
    assert cli.run(argv, out, err) == 2
    assert (out.getvalue(), err.getvalue()) == (
        "", "error: base must have a finite Schmidt number\n"
    )


def test_huge_indices_are_clipped_before_they_meet_a_float():
    # a tail entry past offset 2**63 is 0.0 for every ratio below 1
    huge = 10**400
    for ratio in (0.5, 1 - 2**-53):
        for offset in (2**63, 2**1024, huge):
            assert GeometricTail(0.5, ratio).entries(2, offset).tolist() == [0.0, 0.0]
    # so the truncations of two tailed spectra run out of positive entries
    a = make_spectrum([0.45, 0.45], GeometricTail(0.05, 0.5))
    b = make_spectrum([0.6, 0.3], GeometricTail(0.05, 0.5))
    message = f"^spectrum has fewer than {huge - 1} positive entries"
    with pytest.raises(NotComplete, match=message):
        truncation_pair(a, b, huge)
    with pytest.raises(NotComplete, match=message):
        convergence_report(a, b, [2, huge])
    # an index whose tail has no positive float first term is an input error
    base = spec(0.5, 0.5)
    for m in (2**1023, 2**1024, huge):
        with pytest.raises(InvalidInput, match="^approximation index too large"):
            complete_extension(base, m)
    tail = complete_extension(base, 2**1022).tail
    assert tail.first == 2.0**-1023 and tail.ratio == 0.5
