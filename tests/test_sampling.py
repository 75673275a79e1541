import numpy as np
import pytest

from entorder import (
    DimensionTooSmall,
    InvalidInput,
    incomparability_fraction,
    sample_random_spectrum,
    sweep,
    wilson_halfwidth,
)
from entorder.sampling import pair_stream
from oracles import gram_spectrum


def test_sample_shape_and_normalization():
    rng = np.random.default_rng(0)
    spec = sample_random_spectrum(2, rng)
    assert len(spec.values) == 2
    assert spec.values.sum() == pytest.approx(1.0, abs=1e-14)
    assert spec.values[0] >= spec.values[1]


def test_sample_requires_dimension_two():
    with pytest.raises(DimensionTooSmall):
        sample_random_spectrum(1, np.random.default_rng(0))


def test_sample_deterministic_for_fixed_stream():
    first = sample_random_spectrum(4, pair_stream(7, 4, 0))
    second = sample_random_spectrum(4, pair_stream(7, 4, 0))
    assert np.array_equal(first.values, second.values)


def test_mean_top_entry_matches_independent_sampler():
    # same Haar construction, re-implemented through the Gram eigenproblem
    # with its own stream; agreement within three standard errors
    n, samples = 16, 2000
    rng = np.random.default_rng(99)
    tops = np.empty(samples)
    for i in range(samples):
        tops[i] = sample_random_spectrum(n, pair_stream(5, n, i)).values[0]
    oracle_tops = np.empty(samples)
    for i in range(samples):
        mat = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        oracle_tops[i] = gram_spectrum(mat)[0]
    se = np.hypot(tops.std() / np.sqrt(samples), oracle_tops.std() / np.sqrt(samples))
    assert abs(tops.mean() - oracle_tops.mean()) < 3 * se


def test_dimension_two_fraction_is_exactly_zero():
    # sorted 2-entry spectra are totally ordered by their first entry
    for seed in (0, 1, 12345):
        record = incomparability_fraction(2, 500, seed)
        assert record.incomparable_count == 0
        assert record.fraction == 0.0


def test_counts_partition_samples():
    record = incomparability_fraction(5, 400, 3)
    total = (
        record.incomparable_count
        + record.forward_count
        + record.backward_count
        + record.equivalent_count
    )
    assert total == record.samples == 400
    assert record.fraction == record.incomparable_count / 400
    assert record.ci95_halfwidth >= 0.0


def test_continuous_measure_has_no_ties():
    record = incomparability_fraction(6, 500, 17)
    assert record.equivalent_count == 0
    assert record.near_tie_count == 0
    assert record.near_product_count == 0


def test_record_deterministic_across_runs():
    a = incomparability_fraction(4, 300, 11)
    b = incomparability_fraction(4, 300, 11)
    assert a == b


def test_fraction_grows_with_dimension():
    low = incomparability_fraction(3, 2000, 42)
    high = incomparability_fraction(16, 2000, 42)
    assert high.fraction - low.fraction > low.ci95_halfwidth + high.ci95_halfwidth


def test_sweep_structure_and_validation():
    records = sweep([2, 4], 50, 9)
    assert [record.n for record in records] == [2, 4]
    assert records[0].fraction == 0.0
    with pytest.raises(InvalidInput):
        sweep([], 50, 9)
    with pytest.raises(InvalidInput):
        sweep([4, 2], 50, 9)
    with pytest.raises(InvalidInput):
        incomparability_fraction(4, 0, 9)


def test_wilson_halfwidth_behaviour():
    assert wilson_halfwidth(0, 100) > 0.0
    assert wilson_halfwidth(50, 100) < 0.12
    assert wilson_halfwidth(0, 100) == wilson_halfwidth(100, 100)
    with pytest.raises(InvalidInput):
        wilson_halfwidth(0, 0)


@pytest.mark.parametrize(
    "n, seed, message",
    [(3, -1, "seed must be non-negative"), (-1, 0, "need dimension >= 2")],
)
def test_negative_stream_keys_are_input_errors(n, seed, message):
    # numpy's SeedSequence would raise a bare ValueError for either
    with pytest.raises(InvalidInput, match=message):
        incomparability_fraction(n, 5, seed)
    with pytest.raises(InvalidInput, match=message):
        sweep([n], 5, seed)
