"""Monte Carlo estimation of the incomparability fraction.

How often are two states drawn at random not convertible into each other in
either direction?  Pairs are sampled from the rotationally invariant measure
on pure states of two n-dimensional subsystems — realized by normalizing a
matrix of independent standard complex Gaussians (a Ginibre matrix), whose
squared singular values then give the Schmidt spectrum — and classified by
majorization.  Sweeping the dimension shows the fraction climbing toward 1.

Reproducibility: the randomness of sample i at dimension n is derived from
(seed, n, i) alone, so estimates are independent of evaluation order, batch
size, or any parallel schedule.

The sweep draws blocks of samples: each sample's four n-by-n Gaussian planes
(real and imaginary parts of the two matrices) come from its own stream,
the one :func:`pair_stream` defines, in the order
:func:`sample_random_spectrum` draws them; one stacked SVD call turns the
block into spectra, and one :func:`~entorder.majorization.compare_many`
call classifies it (one :func:`~entorder.majorization.near_ties` call flags
its near ties).  The verdicts are tallied by their
:func:`~entorder.majorization.verdict_code`, in the order of
:data:`~entorder.majorization.RELATIONS`, so every spectrum and tally is
bitwise equal to sampling the pairs one at a time and comparing them with
:func:`~entorder.majorization.compare`.

Stream setup is batched too.  :func:`pair_stream` builds numpy's
``SeedSequence(seed, spawn_key=(n, i))`` for one sample; the sweep asks
numpy once per call for the (seed, n) entropy pool, adds only the index step
for a whole block of indices at once, and hands each row's four PCG64 state
words to numpy's own PCG64 seeding.  A guard checks each call's first row
against a real ``SeedSequence`` and raises InternalInconsistency on any
difference.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .errors import (
    DimensionTooSmall,
    InternalInconsistency,
    InvalidInput,
    SizeCapExceeded,
)
from .majorization import RELATIONS, Relation, compare_many, near_ties, verdict_code
from .spectra import DEFAULT_SIZE_CAP, DEFAULT_TOLERANCES, SchmidtSpectrum, Tolerances
from .spectra import _BLOCK_ENTRIES, _integer

# Normal quantile for a two-sided 95% interval.
Z95 = 1.959963984540054


def _probabilities(mats: np.ndarray) -> np.ndarray:
    """Normalized squared singular values of each matrix in a stack."""
    sv = np.linalg.svd(mats, compute_uv=False)
    probs = sv * sv
    probs /= probs.sum(axis=-1, keepdims=True)
    return probs


def sample_random_spectrum(n: int, rng: np.random.Generator) -> SchmidtSpectrum:
    """Schmidt spectrum of a Haar-random pure state on two n-dim subsystems.

    Draws an n-by-n complex Ginibre matrix from `rng` and returns its
    normalized squared singular values; the induced distribution is
    invariant under local unitaries by construction.
    """
    if n < 2:
        raise DimensionTooSmall(f"need dimension >= 2, got {n}")
    mat = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return SchmidtSpectrum(_probabilities(mat))


def pair_stream(seed: int, n: int, index: int) -> np.random.Generator:
    """Deterministic per-sample generator, keyed by (seed, n, index).

    This is the definition of sample `index`'s randomness at dimension `n`:
    the sweep does not call it, but draws from generators seeded with the
    very state words this one's SeedSequence generates.
    """
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(n, index)))


# numpy's SeedSequence hash (numpy/random/bit_generator.pyx): the
# multiplicative hash constants of entropy mixing (A) and of state
# generation (B), and the two multipliers of `mix`.
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715


def _hash_constants(init: int, mult: int, start: int, count: int) -> np.ndarray:
    """Hash constants init * mult**k mod 2**32 for k from `start` on, as uint32."""
    steps = range(start, start + count)
    return np.array([init * pow(mult, k, 1 << 32) % (1 << 32) for k in steps], "u4")


# Hash steps on uint32 arrays, whose products wrap mod 2**32: constant `h` is
# the step's xor word, and h * mult its multiplier.
def _hash(value, h, mult: int = _MULT_A):
    value = (value ^ h) * (h * mult)
    return value ^ value >> 16


def _mix(x, y):
    value = _MIX_L * x - _MIX_R * y
    return value ^ value >> 16


def _stream_words(seed: int, n: int):
    """State words of every sample stream at (seed, n), a block at a time.

    Returns a function from an index array to a C-ordered `(rows, 4)`
    uint64 array whose row j equals
    ``SeedSequence(seed, spawn_key=(n, indices[j])).generate_state(4,
    np.uint64)``.  numpy computes the pool of ``SeedSequence(seed,
    spawn_key=(n,))``: the seed, zero-padded to the pool size, and n mixed
    in, which is every (n, i) stream's pool before its index words.  The
    returned function adds only the index step, vectorized: as in
    SeedSequence, an index of 2**32 or more is two words, and one block may
    hold indices of both lengths.
    """
    # on first use: importing numpy.random at package import would cost
    # every command, sampling or not, its start-up time and memory
    np.random.bit_generator.ISeedSequence.register(_StateWords)
    root = np.random.SeedSequence(seed, spawn_key=(n,))
    size = root.pool_size
    # pool words down the rows, samples across the columns
    head = root.pool[:, None]
    # an index's words follow one hash step per pool word for each word of
    # the padded seed and of n (SeedSequence splits 0 into one word)
    seed_words, n_words = (max(1, (v.bit_length() + 31) // 32) for v in (seed, n))
    mixed = size * (max(size, seed_words) + n_words)
    index_steps = _hash_constants(_INIT_A, _MULT_A, mixed, 2 * size).reshape(2, size, 1)
    # generate_state's eight uint32 outputs: two passes over the pool
    state_steps = _hash_constants(_INIT_B, _MULT_B, 0, 2 * size)[:, None]

    def words(indices: np.ndarray) -> np.ndarray:
        indices = np.asarray(indices, dtype=np.uint64)
        low = indices.astype(np.uint32)  # keeps the low 32 bits
        pool = _mix(head, _hash(low, index_steps[0]))
        high = (indices >> np.uint64(32)).astype(np.uint32)
        wide = high != 0
        if wide.any():
            pool = np.where(wide, _mix(pool, _hash(high, index_steps[1])), pool)
        state = _hash(np.tile(pool, (2, 1)), state_steps, _MULT_B)
        # little-endian word pairs, as generate_state joins them
        state = np.ascontiguousarray(state.T, dtype="<u4")
        return state.view("<u8").astype(np.uint64)

    return words


class _StateWords:
    """One sample's precomputed SeedSequence state words, for PCG64 to seed from.

    A virtual `numpy.random.bit_generator.ISeedSequence`, registered by
    :func:`_stream_words`, which computes the words.
    """

    __slots__ = ("_words",)

    def __init__(self, words: np.ndarray):
        self._words = words

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 4 or np.dtype(dtype) != np.uint64:
            raise InternalInconsistency(
                f"PCG64 asked for {n_words} words of {np.dtype(dtype)}; "
                "the sweep holds 4 uint64 state words per sample"
            )
        return self._words


def _check_stream_words(seed: int, n: int, first: np.ndarray) -> None:
    """Guard: sample 0's words must be numpy's SeedSequence words."""
    expected = np.random.SeedSequence(seed, spawn_key=(n, 0)).generate_state(
        4, np.uint64
    )
    if not np.array_equal(first, expected):
        raise InternalInconsistency(
            f"sweep stream words {first.tolist()} differ from SeedSequence "
            f"words {expected.tolist()} for seed {seed}, n {n}, sample 0"
        )


def wilson_halfwidth(successes: int, trials: int) -> float:
    """Half-width of the 95% Wilson score interval for a binomial fraction."""
    if trials < 1:
        raise InvalidInput("trials must be at least 1")
    p = successes / trials
    z2 = Z95 * Z95
    return (
        Z95
        * math.sqrt(p * (1.0 - p) / trials + z2 / (4.0 * trials * trials))
        / (1.0 + z2 / trials)
    )


@dataclass(frozen=True)
class SweepRecord:
    """Incomparability estimate at one dimension.

    Beyond the headline fraction the record keeps the full four-way verdict
    tally (the four counts partition `samples`), the number of near-tie
    verdicts, and the number of samples where either spectrum was within
    `tau_norm` of a product state (possible in principle, measure zero under
    the continuous sampling measure).
    """

    n: int
    samples: int
    incomparable_count: int
    fraction: float
    ci95_halfwidth: float
    seed: int
    tol: Tolerances
    forward_count: int
    backward_count: int
    equivalent_count: int
    near_tie_count: int
    near_product_count: int

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "samples": self.samples,
            "incomparable": self.incomparable_count,
            "fraction": self.fraction,
            "ci95": self.ci95_halfwidth,
            "seed": self.seed,
            "forward": self.forward_count,
            "backward": self.backward_count,
            "equivalent": self.equivalent_count,
            "near_tie": self.near_tie_count,
            "near_product": self.near_product_count,
            "tol": asdict(self.tol),
        }


def _check_dimension(n: int) -> None:
    """Refuse a dimension before any stream or array of it exists."""
    if n < 2:
        raise DimensionTooSmall(f"need dimension >= 2, got {n}")
    entries = 4 * n * n
    if entries > DEFAULT_SIZE_CAP:
        raise SizeCapExceeded(
            entries,
            DEFAULT_SIZE_CAP,
            f"a sample at dimension {n} draws {entries} Gaussian entries; "
            f"cap is {DEFAULT_SIZE_CAP}",
        )


def _block_tallies(z: np.ndarray, tol: Tolerances) -> np.ndarray:
    """Tallies of a `(rows, 4, n, n)` block of Gaussian planes.

    Returns the count of each verdict, in the order of
    :data:`~entorder.majorization.RELATIONS`, then of near ties and of
    near-product samples.
    """
    # real + 1j * imag, formed in place: the same bits with one temporary
    mats = 1j * z[:, 1::2]
    mats += z[:, 0::2]
    probs = _probabilities(mats)
    prefix = np.cumsum(probs, axis=-1)
    totals = probs.sum(axis=-1, keepdims=True)
    pa, pb = prefix[:, 0], prefix[:, 1]
    forward, backward = compare_many(pa, pb, tol.tau_cmp)
    near = near_ties(pa, pb, totals[:, 0], totals[:, 1], tol)
    codes = verdict_code(forward.any(axis=-1), backward.any(axis=-1))
    near_product = (probs[:, :, 0] > 1.0 - tol.tau_norm).any(axis=-1)
    return np.concatenate([
        np.bincount(codes, minlength=len(RELATIONS)),
        [np.count_nonzero(near), np.count_nonzero(near_product)],
    ])


def incomparability_fraction(
    n: int,
    samples: int,
    seed: int,
    tol: Tolerances = DEFAULT_TOLERANCES,
) -> SweepRecord:
    """Estimate the probability that two random states are incomparable.

    Draws `samples` independent pairs at dimension `n` and classifies each.
    All sampled pairs count toward the estimate (product-like draws are
    tallied separately, not filtered out).  Pairs are drawn and classified
    in blocks of at most `_BLOCK_ENTRIES` Gaussian entries (at least one
    sample each); sample i still draws the stream `pair_stream(seed, n, i)`
    defines, so the record is the one a sample-by-sample loop gives.  A
    dimension whose single sample would draw more than `DEFAULT_SIZE_CAP`
    entries raises SizeCapExceeded before anything is drawn.  `n`,
    `samples` and `seed` must be integers (numpy ones included); the record
    holds them as plain ints.
    """
    n = _integer("n", n)
    samples, seed = _integer("samples", samples), _integer("seed", seed)
    _check_dimension(n)
    if samples < 1:
        raise InvalidInput("need at least one sample")
    if seed < 0:
        raise InvalidInput(f"seed must be non-negative, got {seed}")
    rows = max(1, _BLOCK_ENTRIES // (4 * n * n))
    z = np.empty((min(rows, samples), 4, n, n))
    tallies = np.zeros(6, dtype=np.int64)
    stream_words = _stream_words(seed, n)
    for start in range(0, samples, rows):
        block = z[: min(rows, samples - start)]
        words = stream_words(np.arange(start, start + len(block)))
        if start == 0:
            _check_stream_words(seed, n, words[0])
        for plane, state in zip(block, words):
            bits = np.random.PCG64(_StateWords(state))
            np.random.Generator(bits).standard_normal(out=plane)
        tallies += _block_tallies(block, tol)
    *verdicts, near_ties, near_products = (int(count) for count in tallies)
    counts = dict(zip(RELATIONS, verdicts))
    incomparable = counts[Relation.INCOMPARABLE]
    return SweepRecord(
        n=n,
        samples=samples,
        incomparable_count=incomparable,
        fraction=incomparable / samples,
        ci95_halfwidth=wilson_halfwidth(incomparable, samples),
        seed=seed,
        tol=tol,
        forward_count=counts[Relation.FORWARD],
        backward_count=counts[Relation.BACKWARD],
        equivalent_count=counts[Relation.EQUIVALENT],
        near_tie_count=near_ties,
        near_product_count=near_products,
    )


def sweep(
    n_list,
    samples: int,
    seed: int,
    tol: Tolerances = DEFAULT_TOLERANCES,
) -> list[SweepRecord]:
    """One incomparability estimate per dimension in ascending `n_list`."""
    dims = [_integer("n", n) for n in n_list]
    samples, seed = _integer("samples", samples), _integer("seed", seed)
    if not dims:
        raise InvalidInput("n_list must not be empty")
    if sorted(dims) != dims:
        raise InvalidInput("n_list must be ascending")
    for n in dims:
        _check_dimension(n)
    return [incomparability_fraction(n, samples, seed, tol) for n in dims]
