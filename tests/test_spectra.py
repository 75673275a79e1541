import json
import math

import numpy as np
import pytest

from entorder import (
    DimensionTooSmall,
    GeometricTail,
    InvalidInput,
    NotNormalized,
    SchmidtSpectrum,
    Tolerances,
    complete_extension,
    format_spectrum,
    make_spectrum,
    parse_spectrum,
    prefix_sums,
    sampling,
    schmidt_number,
    schmidt_spectrum,
    spectrum_distance,
    spectrum_from_json,
    spectrum_to_json,
)
from oracles import gram_spectrum, random_sorted_probs


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
        # the sweep's SVD helper, bit for bit the squared singular values
        # renormalized by their sum
        sv = np.linalg.svd(mat, compute_uv=False)
        probs = sv * sv
        probs /= probs.sum()
        assert spec.values.tobytes() == probs.tobytes()
        assert sampling._probabilities(mat).tobytes() == probs.tobytes()


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
