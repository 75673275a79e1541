import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import entorder.sampling as sampling
from entorder import (
    DEFAULT_TOLERANCES,
    DimensionTooSmall,
    InternalInconsistency,
    InvalidInput,
    Relation,
    SizeCapExceeded,
    Tolerances,
    compare,
    incomparability_fraction,
    sample_random_spectrum,
    sweep,
    wilson_halfwidth,
)
from entorder.sampling import pair_stream
from oracles import brute_relation, gram_spectrum


def test_sample_shape_and_normalization():
    rng = np.random.default_rng(0)
    spec = sample_random_spectrum(2, rng)
    assert len(spec.values) == 2
    assert spec.values.sum() == pytest.approx(1.0, abs=1e-14)
    assert spec.values[0] >= spec.values[1]


def test_sample_requires_dimension_two():
    with pytest.raises(DimensionTooSmall, match="need dimension >= 2, got 1"):
        sample_random_spectrum(1, np.random.default_rng(0))


class NoDraw:
    """A generator stand-in that fails any draw."""

    def standard_normal(self, *args, **kwargs):
        raise AssertionError("drew Gaussians")


@pytest.mark.parametrize("n", [1582, 2**63, 10**400], ids=["1582", "2**63", "10**400"])
def test_a_sample_past_the_size_cap_is_refused_before_the_draw(n):
    with pytest.raises(SizeCapExceeded) as info:
        sample_random_spectrum(n, NoDraw())
    cap = sampling.DEFAULT_SIZE_CAP
    assert (info.value.required, info.value.cap) == (4 * n * n, cap)
    # 1581, the largest dimension under the cap, goes on to draw
    with pytest.raises(AssertionError, match="drew Gaussians"):
        sample_random_spectrum(1581, NoDraw())


def test_sample_deterministic_for_fixed_stream():
    first = sample_random_spectrum(4, pair_stream(7, 4, 0))
    second = sample_random_spectrum(4, pair_stream(7, 4, 0))
    assert np.array_equal(first.values, second.values)


def test_mean_top_entry_matches_independent_sampler():
    # same Haar construction and spectral route (the Gram eigenproblem),
    # re-implemented on its own stream; agreement within three standard
    # errors.  The route itself is checked by the SVD-redraw test below.
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


# --- the batched sweep against the sample-by-sample loop --------------------


def scalar_samples(n, samples, seed, tol=DEFAULT_TOLERANCES):
    """The per-sample sweep loop the batched path replaced: the reference.

    Returns, per sample, its two spectra and its tallies in the order
    (equivalent, forward, backward, incomparable, near tie, near product).
    """
    order = [Relation.EQUIVALENT, Relation.FORWARD, Relation.BACKWARD,
             Relation.INCOMPARABLE]
    out = []
    for i in range(samples):
        rng = pair_stream(seed, n, i)
        a = sample_random_spectrum(n, rng)
        b = sample_random_spectrum(n, rng)
        verdict = compare(a, b, tol)
        tally = [0] * 6
        tally[order.index(verdict.relation)] = 1
        tally[4] = int(verdict.near_tie)
        tally[5] = int(
            a.values[0] > 1.0 - tol.tau_norm or b.values[0] > 1.0 - tol.tau_norm
        )
        out.append((a.values, b.values, tally))
    return out


def record_tallies(record):
    return [
        record.equivalent_count, record.forward_count, record.backward_count,
        record.incomparable_count, record.near_tie_count,
        record.near_product_count,
    ]


def batched_spectra(monkeypatch, n, samples, seed, tol):
    """Run the batched sweep, recording every spectrum its blocks produce."""
    blocks = []
    probabilities = sampling._gram_probabilities

    def recording(mats):
        probs = probabilities(mats)
        blocks.append(probs.copy())
        return probs

    monkeypatch.setattr(sampling, "_gram_probabilities", recording)
    record = incomparability_fraction(n, samples, seed, tol)
    monkeypatch.setattr(sampling, "_gram_probabilities", probabilities)
    return record, np.concatenate(blocks)


def assert_matches_reference(monkeypatch, reference, n, samples, seed, tol):
    record, spectra = batched_spectra(monkeypatch, n, samples, seed, tol)
    expected = np.sum([tally for _, _, tally in reference[:samples]], axis=0)
    assert record_tallies(record) == expected.tolist()
    assert record.fraction == record.incomparable_count / samples
    assert spectra.shape == (samples, 2, n)
    for (a, b, _), (got_a, got_b) in zip(reference, spectra):
        assert got_a.tobytes() == a.tobytes()
        assert got_b.tobytes() == b.tobytes()


@pytest.mark.parametrize("n", [*range(2, 17), 24])
def test_batched_sweep_matches_scalar_reference(n, monkeypatch):
    rows = max(1, sampling._BLOCK_ENTRIES // (4 * n * n))
    # sample counts on both sides of the first and second block boundary
    counts = sorted({max(1, rows - 1), rows, rows + 1, 2 * rows + 1})
    for seed in (3, 20260):
        reference = scalar_samples(n, counts[-1], seed)
        for samples in counts:
            assert_matches_reference(
                monkeypatch, reference, n, samples, seed, DEFAULT_TOLERANCES
            )


# Coarse slack: equivalent, near-tie and near-product tallies are nonzero.
COARSE = Tolerances(tau_norm=0.3, tau_cmp=0.02)


@pytest.mark.parametrize("tol", [DEFAULT_TOLERANCES, COARSE])
@pytest.mark.parametrize("n", [2, 3, 5, 8, 24])
def test_one_row_blocks_match_scalar_reference(n, tol, monkeypatch):
    monkeypatch.setattr(sampling, "_BLOCK_ENTRIES", 1)
    reference = scalar_samples(n, 40, 11, tol)
    for samples in (1, 2, 40):
        assert_matches_reference(monkeypatch, reference, n, samples, 11, tol)


def test_coarse_tolerances_exercise_every_tally():
    reference = scalar_samples(3, 400, 5, COARSE)
    totals = np.sum([tally for _, _, tally in reference], axis=0)
    assert (totals > 0).all(), totals
    assert record_tallies(incomparability_fraction(3, 400, 5, COARSE)) == totals.tolist()


def test_sample_random_spectrum_is_the_single_matrix_draw():
    # the body of sample_random_spectrum, spelled out: the eigenvalues of
    # the Gram matrix, largest first, clipped at 0 and normalized
    for n in (2, 3, 8, 24):
        for seed in (0, 9):
            rng = pair_stream(seed, n, 4)
            mat = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            eigvals = np.linalg.eigvalsh(mat @ mat.conj().T)
            probs = np.maximum(eigvals[::-1], 0.0)
            probs /= probs.sum()
            got = sample_random_spectrum(n, pair_stream(seed, n, 4)).values
            assert got.tobytes() == probs.tobytes()


# --- the Gram route against an SVD redraw ----------------------------------


def svd_redraw(n, samples, seed):
    """Spectrum pairs of samples 0..samples-1 from their pair_stream draws,
    taken as normalized squared singular values: not the sampler's route."""
    pairs = []
    for i in range(samples):
        rng = pair_stream(seed, n, i)
        pair = []
        for _ in range(2):
            mat = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            sv = np.linalg.svd(mat, compute_uv=False)
            probs = sv * sv
            pair.append(probs / probs.sum())
        pairs.append(pair)
    return pairs


@pytest.mark.parametrize("n", [2, 3, 4, 6, 8, 12, 16, 24])
def test_gram_route_matches_an_svd_redraw(n, monkeypatch):
    # the sweep's spectra against the SVD route, sample by sample, and its
    # tallies against brute_relation on the SVD spectra
    samples, slack = 200, 16 * n * np.finfo(float).eps
    for seed in (1, 20240731):
        record, spectra = batched_spectra(
            monkeypatch, n, samples, seed, DEFAULT_TOLERANCES
        )
        tally = dict.fromkeys((relation.value for relation in Relation), 0)
        for got, (a, b) in zip(spectra, svd_redraw(n, samples, seed)):
            for row, probs in zip(got, (a, b)):
                assert np.abs(row - probs).max() <= slack
                assert np.abs(np.cumsum(row) - np.cumsum(probs)).max() <= slack
            tally[brute_relation(a.tolist(), b.tolist())] += 1
        assert tally == {
            Relation.FORWARD.value: record.forward_count,
            Relation.BACKWARD.value: record.backward_count,
            Relation.EQUIVALENT.value: record.equivalent_count,
            Relation.INCOMPARABLE.value: record.incomparable_count,
        }


def assert_probability_rows(probs):
    assert (probs >= 0.0).all()
    assert (np.diff(probs, axis=-1) <= 0.0).all()
    assert np.abs(probs.sum(axis=-1) - 1.0).max() <= 4 * np.finfo(float).eps


def test_gram_route_on_rank_deficient_stacks():
    rng = np.random.default_rng(5)
    clipped = 0
    for n in (2, 3, 4, 6, 8):
        u, v, z = (
            rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            for shape in (n, n, (n, n))
        )
        z[:, 1] = 0.0
        # a rank-1 matrix, one with a zero column, and a generic one
        mats = np.stack([np.outer(u, v.conj()), z, z + np.eye(n)])
        clipped += np.count_nonzero(
            np.linalg.eigvalsh(mats @ mats.conj().swapaxes(-1, -2)) < 0.0
        )
        probs = sampling._gram_probabilities(mats)
        assert probs.shape == (3, n)
        assert_probability_rows(probs)
        assert probs[0, 1:].max() <= 16 * n * np.finfo(float).eps
        assert probs[1, -1] <= 16 * n * np.finfo(float).eps
    # rounding took some eigenvalue below 0, so the clip was exercised
    assert clipped > 0


def test_gram_route_at_dimension_two_is_the_closed_form():
    rng = np.random.default_rng(8)
    mats = rng.standard_normal((50, 2, 2)) + 1j * rng.standard_normal((50, 2, 2))
    mats[0, :, 1] = 0.0
    mats[1] = np.outer(mats[1, :, 0], [1.0, 2.0 - 1j])
    gram = mats @ mats.conj().swapaxes(-1, -2)
    t = np.trace(gram, axis1=-2, axis2=-1).real
    det = np.linalg.det(gram).real
    root = np.sqrt(np.maximum(t * t - 4.0 * det, 0.0))
    closed = np.stack([t + root, t - root], axis=-1) / (2.0 * t[:, None])
    probs = sampling._gram_probabilities(mats)
    assert_probability_rows(probs)
    assert np.abs(probs - closed).max() <= 8 * np.finfo(float).eps


# --- size cap --------------------------------------------------------------


def refuse_streams(monkeypatch):
    def no_stream(*args):
        raise AssertionError("a stream was built before the size check")

    monkeypatch.setattr(sampling, "pair_stream", no_stream)
    monkeypatch.setattr(sampling, "_stream_words", no_stream)
    monkeypatch.setattr(sampling.np.random, "PCG64", no_stream)


def test_dimension_over_the_cap_is_refused_before_any_draw(monkeypatch):
    # 4 * 6**2 = 144 Gaussian entries per sample against a cap of 100
    monkeypatch.setattr(sampling, "DEFAULT_SIZE_CAP", 100)
    refuse_streams(monkeypatch)
    with pytest.raises(SizeCapExceeded, match="dimension 6 draws 144") as info:
        incomparability_fraction(6, 10, 1)
    assert (info.value.required, info.value.cap) == (144, 100)
    # every dimension of a sweep is checked before the first one runs
    with pytest.raises(SizeCapExceeded) as info:
        sweep([2, 3, 6], 10, 1)
    assert (info.value.required, info.value.cap) == (144, 100)
    monkeypatch.undo()
    monkeypatch.setattr(sampling, "DEFAULT_SIZE_CAP", 144)
    assert incomparability_fraction(6, 10, 1).samples == 10


@pytest.mark.parametrize("samples", [2**63, 10**400], ids=["2**63", "10**400"])
def test_a_sample_count_over_the_cap_is_refused_before_any_draw(
    monkeypatch, samples
):
    refuse_streams(monkeypatch)
    cap = sampling.DEFAULT_SIZE_CAP
    start = time.process_time()
    for call in (
        lambda: incomparability_fraction(3, samples, 1),
        lambda: sweep([2, 3], samples, 1),
    ):
        with pytest.raises(SizeCapExceeded) as info:
            call()
        assert (info.value.required, info.value.cap) == (samples, cap)
        assert str(info.value) == f"too many samples per dimension; cap is {cap}"
    assert time.process_time() - start < 1


def test_the_sample_cap_is_inclusive_and_follows_the_other_checks(monkeypatch):
    # a sample at dimension 2 draws 16 entries, at dimension 3 36
    monkeypatch.setattr(sampling, "DEFAULT_SIZE_CAP", 16)
    assert incomparability_fraction(2, 16, 1).samples == 16
    assert [record.samples for record in sweep([2], 16, 1)] == [16]
    with pytest.raises(SizeCapExceeded, match="samples per dimension; cap is 16"):
        sweep([2], 17, 1)
    # every dimension is checked first, and the least sample count before the cap
    with pytest.raises(DimensionTooSmall):
        sweep([1, 2], 17, 1)
    with pytest.raises(SizeCapExceeded, match="dimension 3 draws 36"):
        sweep([2, 3], 17, 1)
    with pytest.raises(InvalidInput, match="need at least one sample"):
        sweep([2], 0, 1)


# --- vectorized stream setup -------------------------------------------------


def seed_sequence_words(seed, n, index):
    return np.random.SeedSequence(seed, spawn_key=(n, index)).generate_state(
        4, np.uint64
    )


# indices up to 2**32 - 1, the last of one word; the sample cap keeps every
# sweep index below it
BELOW_2_32 = np.array([0, 1, 7, 2**32 - 2, 2**32 - 1], dtype=np.uint64)


# seeds of more than four words (2**128 on) are not zero-padded to the pool size
@pytest.mark.parametrize(
    "seed",
    [0, 1, 2**32 - 1, 2**32, 2**64 + 5, 10**30, 2**128 - 1, 2**128, 10**40],
)
def test_stream_words_are_seed_sequence_words(seed):
    # 1581 is the largest dimension under the default size cap
    assert 4 * 1581**2 <= sampling.DEFAULT_SIZE_CAP < 4 * 1582**2
    for n in [*range(2, 25), 1581]:
        words = sampling._stream_words(seed, n)(BELOW_2_32)
        assert words.dtype == np.uint64 and words.flags.c_contiguous
        assert words.shape == (len(BELOW_2_32), 4)
        for index, row in zip(BELOW_2_32.tolist(), words):
            assert row.tolist() == seed_sequence_words(seed, n, index).tolist()


def test_stream_words_seed_the_pair_stream_draws():
    # a block ending at 2**32 - 1 draws what pair_stream draws, row by row
    indices = np.arange(2**32 - 4, 2**32)
    for row, index in zip(sampling._stream_words(9, 3)(indices), indices.tolist()):
        bits = np.random.PCG64(sampling._StateWords(row))
        got = np.random.Generator(bits).standard_normal((4, 3, 3))
        expected = pair_stream(9, 3, index).standard_normal((4, 3, 3))
        assert got.tobytes() == expected.tobytes()


@pytest.mark.parametrize(
    "n_words, dtype", [(4, np.uint32), (2, np.uint64), (8, np.uint64)]
)
def test_state_words_serve_only_pcg64_seeding(n_words, dtype):
    words = sampling._stream_words(1, 2)(np.arange(1))[0]
    with pytest.raises(InternalInconsistency, match="PCG64 asked for"):
        sampling._StateWords(words).generate_state(n_words, dtype)


def test_sweep_builds_one_seed_sequence_per_call(monkeypatch):
    built = []
    seed_sequence = np.random.SeedSequence

    def counting(*args, **kwargs):
        built.append(kwargs.get("spawn_key"))
        return seed_sequence(*args, **kwargs)

    monkeypatch.setattr(np.random, "SeedSequence", counting)
    # dimension 8 takes 128 samples a block: 300 samples are three blocks;
    # one SeedSequence gives the pool, one the guard, and none is per sample
    record = incomparability_fraction(8, 300, 4)
    assert built == [(8,), (8, 0)]
    monkeypatch.setattr(np.random, "SeedSequence", seed_sequence)
    reference = scalar_samples(8, 300, 4)
    expected = np.sum([tally for _, _, tally in reference], axis=0)
    assert record_tallies(record) == expected.tolist()
    built.clear()
    monkeypatch.setattr(np.random, "SeedSequence", counting)
    sweep([2, 3, 5], 300, 4)
    assert built == [(2,), (2, 0), (3,), (3, 0), (5,), (5, 0)]


def test_stream_word_mismatch_is_an_internal_inconsistency(monkeypatch):
    stream_words = sampling._stream_words

    def flipped(seed, n):
        words = stream_words(seed, n)
        return lambda indices: words(indices) ^ np.uint64(1)

    monkeypatch.setattr(sampling, "_stream_words", flipped)
    with pytest.raises(InternalInconsistency, match="differ from SeedSequence"):
        incomparability_fraction(3, 5, 2)


@pytest.mark.parametrize(
    "args, name",
    [
        (([3.7], 10, 1), "n"),
        (([3], 10.0, 1), "samples"),
        (([3], 10, 1.5), "seed"),
        (([3], "10", 1), "samples"),
        (([np.float64(4.0)], 10, 1), "n"),
    ],
)
def test_sweep_arguments_must_be_integers(args, name):
    n_list, samples, seed = args
    with pytest.raises(InvalidInput, match=f"{name} must be an integer"):
        sweep(n_list, samples, seed)
    with pytest.raises(InvalidInput, match=f"{name} must be an integer"):
        incomparability_fraction(n_list[0], samples, seed)


def test_numpy_integer_arguments_give_plain_int_records():
    record = incomparability_fraction(np.int32(3), np.int64(20), np.uint8(5))
    assert record == incomparability_fraction(3, 20, 5)
    assert all(type(v) is int for v in (record.n, record.samples, record.seed))
    (swept,) = sweep(np.array([3], dtype=np.int32), np.int16(20), np.int64(5))
    assert swept == record
    json.dumps(swept.to_json())


def test_importing_the_package_leaves_numpy_random_unloaded():
    # commands that never sample should not pay for numpy.random
    code = "import sys, entorder, entorder.cli; print('numpy.random' in sys.modules)"
    src = Path(__file__).resolve().parent.parent / "src"
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True,
        text=True,
        check=True,
        timeout=60,
    )
    assert out.stdout.strip() == "False"
