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
(real and imaginary parts of the two matrices) come from its own
:func:`pair_stream` in the order :func:`sample_random_spectrum` draws them,
one stacked SVD call turns the block into spectra, and one
:func:`~entorder.majorization.compare_many` call classifies it (one
:func:`~entorder.majorization.near_ties` call flags its near ties).  Every
spectrum and tally is bitwise equal to sampling and comparing the pairs one
at a time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .catalysis import DEFAULT_SIZE_CAP
from .errors import DimensionTooSmall, InvalidInput, SizeCapExceeded
from .majorization import compare_many, near_ties
from .spectra import DEFAULT_TOLERANCES, SchmidtSpectrum, Tolerances

# Normal quantile for a two-sided 95% interval.
Z95 = 1.959963984540054

# Gaussian entries per block of the sweep, four n-by-n planes per sample:
# the same budget as the catalyst scan's blocks.  Bounds the sweep's peak
# memory.
_BLOCK_ENTRIES = 1 << 15


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
    """Deterministic per-sample generator, keyed by (seed, n, index)."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(n, index)))


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
            "tol": {
                "tau_norm": self.tol.tau_norm,
                "tau_zero": self.tol.tau_zero,
                "tau_cmp": self.tol.tau_cmp,
            },
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

    Returns counts of equivalent, forward, backward and incomparable
    verdicts, then of near ties and of near-product samples.
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
    # 2 * (forward fails) + (backward fails): 0 equivalent, 1 forward,
    # 2 backward, 3 incomparable, as compare() assigns them.
    codes = 2 * forward.any(axis=-1) + backward.any(axis=-1)
    near_product = (probs[:, :, 0] > 1.0 - tol.tau_norm).any(axis=-1)
    return np.concatenate([
        np.bincount(codes, minlength=4),
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
    sample each); sample i still draws from its own `pair_stream(seed, n,
    i)`, so the record is the one a sample-by-sample loop gives.  A
    dimension whose single sample would draw more than `DEFAULT_SIZE_CAP`
    entries raises SizeCapExceeded before anything is drawn.
    """
    _check_dimension(n)
    if samples < 1:
        raise InvalidInput("need at least one sample")
    if seed < 0:
        raise InvalidInput(f"seed must be non-negative, got {seed}")
    rows = max(1, _BLOCK_ENTRIES // (4 * n * n))
    z = np.empty((min(rows, samples), 4, n, n))
    tallies = np.zeros(6, dtype=np.int64)
    for start in range(0, samples, rows):
        block = z[: min(rows, samples - start)]
        for j, plane in enumerate(block):
            pair_stream(seed, n, start + j).standard_normal(out=plane)
        tallies += _block_tallies(block, tol)
    equivalent, forward, backward, incomparable, near_ties, near_products = (
        int(count) for count in tallies
    )
    return SweepRecord(
        n=n,
        samples=samples,
        incomparable_count=incomparable,
        fraction=incomparable / samples,
        ci95_halfwidth=wilson_halfwidth(incomparable, samples),
        seed=seed,
        tol=tol,
        forward_count=forward,
        backward_count=backward,
        equivalent_count=equivalent,
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
    dims = [int(n) for n in n_list]
    if not dims:
        raise InvalidInput("n_list must not be empty")
    if sorted(dims) != dims:
        raise InvalidInput("n_list must be ascending")
    for n in dims:
        _check_dimension(n)
    return [incomparability_fraction(n, samples, seed, tol) for n in dims]
