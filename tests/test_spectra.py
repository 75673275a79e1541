import json
import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entorder import (
    DEFAULT_TOLERANCES,
    DimensionTooSmall,
    EntOrderError,
    GeometricTail,
    InvalidInput,
    NotComplete,
    NotNormalized,
    SchmidtSpectrum,
    SizeCapExceeded,
    Tolerances,
    complete_extension,
    format_spectrum,
    make_spectrum,
    parse_spectrum,
    prefix_sums,
    schmidt_number,
    schmidt_spectrum,
    spectrum_distance,
    spectrum_from_json,
    spectrum_to_json,
    TopEntriesTied,
    truncation_pair,
)
from entorder.spectra import MAX_HORIZON, _merge_tail_boundary, _probabilities
from oracles import check_sorted_spectrum, gram_spectrum, random_sorted_probs


def haar_unitary(rng, n):
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


# --- schmidt_spectrum -----------------------------------------------------


def test_bell_state_spectrum():
    spec = schmidt_spectrum(np.diag([2**-0.5, 2**-0.5]))
    assert spec.values == pytest.approx([0.5, 0.5], abs=1e-15)


def test_product_state_spectrum():
    spec = schmidt_spectrum(np.diag([1.0, 0.0]))
    assert spec.values == pytest.approx([1.0, 0.0], abs=1e-15)


@pytest.mark.parametrize("theta", [0.0, 0.7, 2.3, -1.1])
def test_diagonal_with_phase_matches_gram_oracle(theta):
    mat = np.array(
        [[math.sqrt(0.7) * np.exp(1j * theta), 0.0], [0.0, math.sqrt(0.3)]]
    )
    spec = schmidt_spectrum(mat)
    assert spec.values == pytest.approx([0.7, 0.3], abs=1e-14)
    assert spec.values == pytest.approx(gram_spectrum(mat), abs=1e-14)


def test_random_matrices_match_gram_oracle():
    rng = np.random.default_rng(11)
    for _ in range(50):
        n = int(rng.integers(2, 9))
        mat = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        mat /= np.linalg.norm(mat)
        spec = schmidt_spectrum(mat)
        assert abs(spec.values.sum() - 1.0) < 1e-12
        assert (np.diff(spec.values) <= 1e-15).all()
        assert spec.values == pytest.approx(gram_spectrum(mat), abs=1e-10)
        # the SVD helper for user matrices, bit for bit the squared
        # singular values renormalized by their sum
        sv = np.linalg.svd(mat, compute_uv=False)
        probs = sv * sv
        probs /= probs.sum()
        assert spec.values.tobytes() == probs.tobytes()
        assert _probabilities(mat).tobytes() == probs.tobytes()


def test_unitary_invariance():
    rng = np.random.default_rng(12)
    for _ in range(25):
        n = int(rng.integers(2, 8))
        mat = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        mat /= np.linalg.norm(mat)
        rotated = haar_unitary(rng, n) @ mat @ haar_unitary(rng, n)
        assert schmidt_spectrum(mat).values == pytest.approx(
            schmidt_spectrum(rotated).values, abs=1e-10
        )


def test_schmidt_spectrum_rejects_bad_input():
    with pytest.raises(NotNormalized):
        schmidt_spectrum(np.diag([1.0, 1.0]))
    with pytest.raises(DimensionTooSmall):
        schmidt_spectrum(np.array([[1.0]]))
    with pytest.raises(InvalidInput):
        schmidt_spectrum(np.ones((2, 3)) / math.sqrt(6))


# --- schmidt_number -------------------------------------------------------


def test_schmidt_number_counts_positive_entries():
    assert schmidt_number(make_spectrum([0.5, 0.5])) == 2
    assert schmidt_number(make_spectrum([1.0, 0.0, 0.0])) == 1


def test_schmidt_number_infinite_for_tailed_spectra():
    completed = complete_extension(make_spectrum([1.0]), 1)
    assert schmidt_number(completed) == math.inf


def test_schmidt_number_respects_zero_cutoff():
    tol = Tolerances(tau_zero=1e-6)
    spec = SchmidtSpectrum(np.array([0.9999999, 1e-7]))
    assert schmidt_number(spec, tol) == 1


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(
    st.sampled_from((1e-12, 1e-6, 0.25)),
    st.lists(st.floats(0.3, 1.0), min_size=0, max_size=5),
    st.lists(st.sampled_from(("zero", "below", "at", "above")), max_size=5),
    st.booleans(),
)
def test_schmidt_number_counts_sorted_ends_at_the_cutoff(tau, head, ends, tailed):
    # the count stops at the last entry when that entry is above tau_zero:
    # trailing entries at 0, at tau_zero and one ulp either side of it must
    # count as the full count does, and a tail still makes it infinite
    near = {
        "zero": 0.0,
        "below": np.nextafter(tau, 0.0),
        "at": tau,
        "above": np.nextafter(tau, 1.0),
    }
    values = np.sort(np.array(head + [near[end] for end in ends], dtype=float))[::-1]
    tol = Tolerances(tau_zero=tau)
    if tailed and len(values) and values[-1] > 0:
        tail = GeometricTail(float(values[-1]) / 2, 0.5)
        assert schmidt_number(SchmidtSpectrum(values, tail), tol) == math.inf
    count = schmidt_number(SchmidtSpectrum(values), tol)
    assert count == np.count_nonzero(values > tau)
    assert type(count) is int


@pytest.mark.parametrize("key", ["tau_norm", "tau_zero", "tau_cmp"])
@pytest.mark.parametrize(
    "value, message",
    [(0.0, "positive"), (-1e-12, "positive"), (math.nan, "positive"),
     (math.inf, "finite")],
)
def test_tolerances_must_be_finite_and_positive(key, value, message):
    with pytest.raises(InvalidInput, match=message):
        Tolerances(**{key: value})


# --- prefix_sums ----------------------------------------------------------


def test_prefix_sums_basic():
    spec = make_spectrum([0.5, 0.3, 0.2])
    assert prefix_sums(spec, 3) == pytest.approx([0.5, 0.8, 1.0], abs=1e-15)


def test_prefix_sums_pads_with_zeros():
    assert prefix_sums(make_spectrum([1.0]), 2) == pytest.approx([1.0, 1.0])


def test_prefix_sums_of_completed_point_spectrum():
    # head 1/2, then a geometric tail 1/4, 1/8, ...
    completed = complete_extension(make_spectrum([1.0]), 1)
    assert prefix_sums(completed, 3) == pytest.approx([0.5, 0.75, 0.875], abs=1e-15)


def test_prefix_sums_tail_closed_form_matches_materialized():
    spec = SchmidtSpectrum(np.array([0.5]), GeometricTail(0.25, 0.5))
    k = 40
    materialized = np.cumsum(np.concatenate([spec.values, spec.tail.entries(k - 1)]))
    assert prefix_sums(spec, k) == pytest.approx(materialized, abs=1e-15)


def test_prefix_sums_monotone_and_bounded():
    rng = np.random.default_rng(13)
    for _ in range(50):
        spec = make_spectrum(random_sorted_probs(rng, int(rng.integers(2, 10))))
        sums = prefix_sums(spec, len(spec) + 3)
        assert (np.diff(sums) >= -1e-15).all()
        assert sums[-1] <= 1.0 + 1e-9


# --- spectrum_distance ----------------------------------------------------


def test_distance_zero_for_identical_spectra():
    spec = make_spectrum([0.5, 0.5])
    assert spectrum_distance(spec, spec) == 0.0


def test_distance_ignores_input_ordering():
    assert spectrum_distance(make_spectrum([1.0]), make_spectrum([0.0, 1.0])) == 0.0


def test_distance_product_vs_bell():
    expected = math.sqrt(2.0 - 2.0 * math.sqrt(0.5))
    got = spectrum_distance(make_spectrum([1.0, 0.0]), make_spectrum([0.5, 0.5]))
    assert got == pytest.approx(expected, abs=1e-15)


def test_distance_symmetric_and_triangle():
    rng = np.random.default_rng(14)
    for _ in range(100):
        n = int(rng.integers(2, 8))
        a = make_spectrum(random_sorted_probs(rng, n))
        b = make_spectrum(random_sorted_probs(rng, n))
        c = make_spectrum(random_sorted_probs(rng, n))
        assert spectrum_distance(a, b) == pytest.approx(
            spectrum_distance(b, a), abs=1e-15
        )
        assert spectrum_distance(a, c) <= (
            spectrum_distance(a, b) + spectrum_distance(b, c) + 1e-10
        )


def test_distance_with_tails_converges():
    base = make_spectrum([0.6, 0.4])
    dists = [spectrum_distance(complete_extension(base, m), base) for m in (1, 10, 100)]
    assert dists[0] > dists[1] > dists[2]


# --- ingestion ------------------------------------------------------------


def test_ingestion_sorts_and_flags():
    spec = make_spectrum([0.2, 0.5, 0.3])
    assert spec.values == pytest.approx([0.5, 0.3, 0.2])
    assert spec.adjusted


def test_ingestion_renormalizes_within_tolerance():
    spec = make_spectrum([0.5, 0.5 - 1e-12])
    assert spec.values.sum() == pytest.approx(1.0, abs=1e-15)
    assert spec.adjusted


def test_ingestion_keeps_clean_input_unflagged():
    assert not make_spectrum([0.5, 0.3, 0.2]).adjusted


def test_ingestion_rejects_bad_mass_and_entries():
    with pytest.raises(NotNormalized):
        make_spectrum([0.5, 0.6])
    with pytest.raises(InvalidInput):
        make_spectrum([1.2, -0.2])
    with pytest.raises(InvalidInput):
        make_spectrum([])
    with pytest.raises(InvalidInput):
        make_spectrum([0.5, float("nan")])


def test_ingestion_merges_tail_above_head():
    # tail first term 0.225 exceeds the smallest head entry, so leading tail
    # entries must be folded into the head to keep the spectrum sorted
    spec = make_spectrum([0.5, 0.05], GeometricTail(0.225, 0.5))
    assert (np.diff(spec.values) <= 1e-15).all()
    assert spec.tail.first <= spec.values[-1] + 1e-15
    assert spec.total_mass() == pytest.approx(1.0, abs=1e-12)


def test_ingestion_refuses_a_tail_above_the_head_past_the_horizon():
    # the tail stays above the head's last entry for about 5.5 million
    # entries: refused at once instead of peeled one entry per pass
    start = time.process_time()
    with pytest.raises(SizeCapExceeded, match="for more than 1000000 entries"):
        parse_spectrum("0.9994999999980144,2e-12...geom(5e-10,0.999999)")
    assert time.process_time() - start < 0.1
    # about 101 thousand entries to peel is within the horizon
    spec = parse_spectrum("0.9994999999980144,2e-12...geom(5e-08,0.9999)")
    assert len(spec) == 101264
    assert spec.tail.first <= spec.values[-1]


def window_tails(rng, count):
    """Two-entry heads under tails whose boundary falls where peeling one
    entry per multiplication and forming first * ratio**n disagree: the
    head's last entry is first multiplied by ratio n times, which lies below
    first * ratio**n.  Ratios are not powers of 2, and every head is exact,
    so ingestion keeps it as given."""
    found = 0
    while found < count:
        ratio = float(rng.uniform(0.3, 0.99))
        first = float(rng.uniform(0.01, 0.3)) * (1.0 - ratio)
        n = int(rng.integers(5, 400))
        level = first
        for _ in range(n):
            level *= ratio
        tail = GeometricTail(first, ratio)
        big = 1.0 - tail.mass() - level
        if not (1e-9 < level < first * ratio**n) or big + level != 1.0 - tail.mass():
            continue
        found += 1
        yield [big, level], tail


def test_a_peeled_tail_never_starts_above_the_head():
    rng = np.random.default_rng(71)
    for values, tail in window_tails(rng, 200):
        check_sorted_spectrum(make_spectrum(values, tail))
        text = f"{values[0]!r},{values[1]!r}...geom({tail.first!r},{tail.ratio!r})"
        check_sorted_spectrum(parse_spectrum(text))


def test_a_tail_is_refused_exactly_when_entry_max_horizon_is_above_the_head():
    tail = GeometricTail(1e-3, 0.99999)
    level = tail.first * tail.ratio**MAX_HORIZON  # entry MAX_HORIZON
    values, kept = _merge_tail_boundary(np.array([0.5, level]), tail)
    assert len(values) == 2 + MAX_HORIZON  # entries 0 .. MAX_HORIZON - 1 peeled
    assert kept == GeometricTail(level, tail.ratio)
    check_sorted_spectrum(SchmidtSpectrum(values, kept))
    with pytest.raises(SizeCapExceeded, match="for more than 1000000 entries"):
        _merge_tail_boundary(np.array([0.5, np.nextafter(level, 0.0)]), tail)


def peel_levels(rng, count):
    """Tails with a level at entry i, formed by `entries` or as the scalar
    power first * ratio**i.  With some numpy builds the two differ by an
    ulp for a few per cent of (ratio, i) pairs, so such a level sits just
    above or just below the entry it names."""
    for _ in range(count):
        first, ratio = rng.uniform(0.01, 0.5), rng.uniform(0.05, 0.999)
        tail = GeometricTail(float(first), float(ratio))
        i = int(rng.integers(1, 200))
        if rng.random() < 0.5:
            yield tail, tail.first * tail.ratio**i
        else:
            yield tail, float(tail.entries(1, i)[0])


def test_a_peel_takes_the_entries_above_the_level_by_their_own_bits():
    rng = np.random.default_rng(29)
    for tail, level in peel_levels(rng, 4000):
        values, kept = _merge_tail_boundary(np.array([level]), tail)
        # the peeled entries are the leading `entries`, all above the level
        peeled = len(values) - 1
        entries = tail.entries(peeled + 1)
        assert values[-1] == level
        assert values[:-1].tobytes() == entries[:-1].tobytes()
        assert (entries[:-1] > level).all()
        # and the kept tail resumes at the next one, bit for bit
        assert np.float64(kept.first).tobytes() == entries[-1].tobytes()
        assert kept.first <= level and kept.ratio == tail.ratio


@st.composite
def tailed_inputs(draw):
    """Positive head entries and a tail of mass `share`, normalized together;
    the tail may start anywhere relative to the head."""
    head = draw(st.lists(st.floats(1e-6, 1.0), min_size=1, max_size=6))
    ratio = draw(st.floats(0.01, 0.999))
    tail = GeometricTail(draw(st.floats(1e-4, 0.9)) * (1.0 - ratio), ratio)
    total = sum(head)
    return [v / total * (1.0 - tail.mass()) for v in head], tail


@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(tailed_inputs(), st.integers(1, 40), st.integers(2, 30))
def test_every_ingestion_path_returns_a_sorted_spectrum(case, m, index):
    values, tail = case
    text = ",".join(map(repr, values)) + f"...geom({tail.first!r},{tail.ratio!r})"
    payload = {"values": values, "tail": {"first": tail.first, "ratio": tail.ratio}}
    spec = make_spectrum(values, tail)
    complete = complete_extension(make_spectrum([v / sum(values) for v in values]), m)
    specs = [spec, parse_spectrum(text), parse_spectrum(json.dumps(payload)), complete]
    try:
        pair = truncation_pair(spec, complete, index)
        specs += [pair.a_m, pair.b_m]
    except (TopEntriesTied, NotComplete):
        pass
    for got in specs:
        check_sorted_spectrum(got)


def test_entry_prefix_crosses_into_tail():
    spec = SchmidtSpectrum(np.array([0.5]), GeometricTail(0.25, 0.5))
    assert spec.entry_prefix(4) == pytest.approx([0.5, 0.25, 0.125, 0.0625])
    assert spec.residual_after(4) == pytest.approx(0.0625, abs=1e-15)


# --- text / JSON forms ----------------------------------------------------


def test_parse_format_roundtrip():
    spec = parse_spectrum("0.5,0.25,0.25")
    assert spec.values == pytest.approx([0.5, 0.25, 0.25])
    assert parse_spectrum(format_spectrum(spec)).values == pytest.approx(spec.values)


def test_parse_tail_syntax():
    spec = parse_spectrum("0.45,0.45...geom(0.05,0.5)")
    assert spec.values == pytest.approx([0.45, 0.45])
    assert spec.tail == GeometricTail(0.05, 0.5)
    # 17-significant-digit text form round-trips the doubles bit for bit
    back = parse_spectrum(format_spectrum(spec))
    assert np.array_equal(back.values, spec.values)
    assert back.tail == spec.tail


def test_json_roundtrip():
    spec = make_spectrum([0.45, 0.45], GeometricTail(0.05, 0.5))
    payload = json.loads(json.dumps(spectrum_to_json(spec)))
    back = spectrum_from_json(payload)
    assert back.values == pytest.approx(spec.values, abs=1e-15)
    assert back.tail == spec.tail


def test_parse_rejects_garbage():
    for bad in ("", "0.5,abc", "0.5...geom(0.5)", '{"tail": null}'):
        with pytest.raises(InvalidInput):
            parse_spectrum(bad)


# --- ingestion and distance against their earlier bodies -------------------
#
# `make_spectrum` copies, checks and sums its input once, and two finite
# spectra skip the tail horizon.  The bodies below are the functions as they
# were before, kept as references: every output and every error must match
# them bit for bit.


def reference_make_spectrum(values, tail=None, *, tol=DEFAULT_TOLERANCES):
    try:
        arr = np.asarray(values, dtype=float).ravel().copy()
    except (TypeError, ValueError, OverflowError) as exc:
        raise InvalidInput(f"spectrum entries must be numbers: {exc}") from exc
    if arr.size == 0:
        raise InvalidInput("a spectrum needs at least one entry")
    if not np.all(np.isfinite(arr)):
        raise InvalidInput("spectrum entries must be finite numbers")
    adjusted = False
    negative = arr < 0
    if negative.any():
        if arr.min() < -tol.tau_zero:
            raise InvalidInput(f"negative entry {float(arr.min())!r} in spectrum")
        arr[negative] = 0.0
        adjusted = True
    arr[arr == 0] = 0.0  # a zero of either sign reads as +0.0
    order = np.sort(arr)[::-1]
    if not np.array_equal(order, arr):
        adjusted = True
        arr = order
    if tail is not None:
        keep = arr > tol.tau_zero
        if not keep.all():
            arr = arr[keep]
            adjusted = True
        if arr.size == 0:
            raise InvalidInput("a tailed spectrum needs a positive head")
    tail_mass = tail.mass() if tail is not None else 0.0
    total = float(arr.sum()) + tail_mass
    if abs(total - 1.0) > tol.tau_norm:
        raise NotNormalized(f"total mass {total!r} deviates from 1 beyond tau_norm")
    head_target = 1.0 - tail_mass
    if head_target <= 0:
        raise NotNormalized("tail mass alone reaches or exceeds 1")
    if abs(total - 1.0) > 4 * np.finfo(float).eps:
        adjusted = True
    arr *= head_target / arr.sum()
    arr, tail = _merge_tail_boundary(arr, tail)
    return SchmidtSpectrum(arr, tail, adjusted)


def reference_distance(a, b, tol=DEFAULT_TOLERANCES):
    k = max(a.horizon(tol.tau_cmp), b.horizon(tol.tau_cmp), 1)
    overlap = float(np.sqrt(a.entry_prefix(k) * b.entry_prefix(k)).sum())
    return math.sqrt(max(0.0, 2.0 - 2.0 * overlap))


def ingestion_outcome(ingest, values, tail):
    """The bytes of everything `ingest` returns, or its error's type and text."""
    try:
        spec = ingest(values, tail)
    except EntOrderError as exc:
        return type(exc), str(exc)
    got_tail = None if spec.tail is None else (spec.tail.first, spec.tail.ratio)
    return spec.values.tobytes(), spec.values.shape, got_tail, spec.adjusted


def assert_ingests_like_the_reference(values, tail=None):
    got = ingestion_outcome(make_spectrum, values, tail)
    assert got == ingestion_outcome(reference_make_spectrum, values, tail)
    if not isinstance(got[0], type):
        spec = make_spectrum(values, tail)
        assert not np.shares_memory(spec.values, np.asarray(values))


def seeded_ingestion_inputs(rng, count):
    """Valid and invalid spectra of every shape ingestion handles."""
    for _ in range(count):
        n = int(rng.integers(1, 9))
        values = list(random_sorted_probs(rng, n))
        kind = int(rng.integers(0, 9))
        tail = None
        if kind == 1:
            rng.shuffle(values)
        elif kind == 2:  # denormalized, within tau_norm or just past it
            scale = 1.0 + float(rng.choice([-5e-10, 3e-10, 2e-15, 2e-9]))
            values = [v * scale for v in values]
        elif kind == 3:  # tiny negatives and signed zeros among the entries
            values += [float(rng.choice([-1e-13, -0.0, 0.0, -2e-12]))] * 2
            rng.shuffle(values)
        elif kind == 4 and n % 2 == 0:
            values = [values[: n // 2], values[n // 2 :]]
        elif kind == 5:
            ratio = float(rng.choice([0.1, 0.5, 0.9]))
            tail = GeometricTail(float(rng.uniform(0.001, 0.3)) * (1 - ratio), ratio)
            values = [v * (1.0 - tail.mass()) for v in values]
            if rng.random() < 0.5:
                values.append(0.0)
        elif kind == 6:
            bad = float(rng.choice([np.nan, np.inf, -np.inf]))
            values[int(rng.integers(0, n))] = bad
        elif kind == 7:
            values = np.array(values)[:: int(rng.choice([1, -1]))]
        yield values, tail


def test_make_spectrum_matches_its_reference_on_seeded_inputs():
    rng = np.random.default_rng(61)
    for values, tail in seeded_ingestion_inputs(rng, 3000):
        assert_ingests_like_the_reference(values, tail)


@pytest.mark.parametrize(
    "values, tail",
    [
        ([], None),
        ([0.5, "x"], None),
        ([[0.5, 0.5], [0.1]], None),
        ([1.2, -0.2], None),
        ([0.5, 0.5, -0.0, 0.0, -1e-13, 0.0], None),
        ([0.5, -1e-13, 0.5, -0.0], None),
        ([0.0, 0.0], None),
        ([1.0], None),
        (1.0, None),
        ([0.5, 0.6], None),
        pytest.param([1e308, 1e308], None, marks=pytest.mark.filterwarnings(
            "ignore:overflow encountered:RuntimeWarning"
        )),
        ([0.5, 0.05], GeometricTail(0.225, 0.5)),
        ([0.0, 0.0], GeometricTail(0.5, 0.5)),
        ([0.1], GeometricTail(0.9, 0.5)),
        (np.array([[0.25, 0.5], [0.125, 0.125]]), None),
        (np.array([0.1, 0.2, 0.3, 0.4])[::2] / 0.4, None),
    ],
)
def test_make_spectrum_matches_its_reference_on_edge_inputs(values, tail):
    assert_ingests_like_the_reference(values, tail)


ENTRY = st.one_of(
    st.floats(0.0, 1.0), st.sampled_from([0.0, -0.0, -1e-13, -1e-11, 1e-13])
)


@st.composite
def raw_spectra(draw):
    """Entries, rescaled to a mass near 1 most of the time, perhaps nested,
    perhaps under a geometric tail."""
    values = draw(st.lists(ENTRY, max_size=8))
    tail = None
    if draw(st.booleans()):
        ratio = draw(st.sampled_from([0.1, 0.5, 0.9]))
        tail = GeometricTail(draw(st.floats(1e-6, 0.3)) * (1.0 - ratio), ratio)
    mass = sum(v for v in values if math.isfinite(v) and v > 0)
    if mass > 0 and draw(st.integers(0, 3)):
        scale = draw(st.sampled_from([1.0, 1 + 3e-16, 1 - 4e-10, 1 + 2e-9]))
        target = 1.0 if tail is None else 1.0 - tail.mass()
        values = [v / mass * target * scale for v in values]
    if values and not draw(st.integers(0, 7)):
        values[draw(st.integers(0, len(values) - 1))] = draw(
            st.floats(allow_nan=True, allow_infinity=True)
        )
    if len(values) % 2 == 0 and values and draw(st.booleans()):
        values = [values[: len(values) // 2], values[len(values) // 2 :]]
    return values, tail


@settings(derandomize=True, max_examples=500, deadline=None)
@given(raw_spectra())
def test_make_spectrum_matches_its_reference_on_generated_inputs(case):
    assert_ingests_like_the_reference(*case)


def test_spectrum_distance_matches_its_reference():
    rng = np.random.default_rng(62)
    specs = []
    for values, tail in seeded_ingestion_inputs(rng, 400):
        try:
            specs.append(make_spectrum(values, tail))
        except EntOrderError:
            pass
    for a, b in zip(specs, specs[1:] + specs[:1]):
        assert spectrum_distance(a, b).hex() == reference_distance(a, b).hex()
