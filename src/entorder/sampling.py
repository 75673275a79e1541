"""Monte Carlo estimation of the incomparability fraction.

How often are two states drawn at random not convertible into each other in
either direction?  Pairs are sampled from the rotationally invariant measure
on pure states of two n-dimensional subsystems — realized by normalizing a
matrix of independent standard complex Gaussians (a Ginibre matrix), whose
squared singular values then give the Schmidt spectrum — and classified with
:func:`~entorder.majorization.compare`.  Sweeping the dimension shows the
fraction climbing toward 1.

Reproducibility: the randomness of sample i at dimension n is derived from
(seed, n, i) alone, so estimates are independent of evaluation order, batch
size, or any parallel schedule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionTooSmall, InvalidInput
from .majorization import Relation, compare
from .spectra import DEFAULT_TOLERANCES, SchmidtSpectrum, Tolerances

# Normal quantile for a two-sided 95% interval.
Z95 = 1.959963984540054


def sample_random_spectrum(n: int, rng: np.random.Generator) -> SchmidtSpectrum:
    """Schmidt spectrum of a Haar-random pure state on two n-dim subsystems.

    Draws an n-by-n complex Ginibre matrix from `rng` and returns its
    normalized squared singular values; the induced distribution is
    invariant under local unitaries by construction.
    """
    if n < 2:
        raise DimensionTooSmall(f"need dimension >= 2, got {n}")
    mat = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    sv = np.linalg.svd(mat, compute_uv=False)
    probs = sv * sv
    probs /= probs.sum()
    return SchmidtSpectrum(probs)


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


def incomparability_fraction(
    n: int,
    samples: int,
    seed: int,
    tol: Tolerances = DEFAULT_TOLERANCES,
) -> SweepRecord:
    """Estimate the probability that two random states are incomparable.

    Draws `samples` independent pairs at dimension `n` and classifies each.
    All sampled pairs count toward the estimate (product-like draws are
    tallied separately, not filtered out).
    """
    if n < 2:
        raise DimensionTooSmall(f"need dimension >= 2, got {n}")
    if samples < 1:
        raise InvalidInput("need at least one sample")
    if seed < 0:
        raise InvalidInput(f"seed must be non-negative, got {seed}")
    counts = {relation: 0 for relation in Relation}
    near_ties = 0
    near_products = 0
    for i in range(samples):
        rng = pair_stream(seed, n, i)
        a = sample_random_spectrum(n, rng)
        b = sample_random_spectrum(n, rng)
        verdict = compare(a, b, tol)
        counts[verdict.relation] += 1
        if verdict.near_tie:
            near_ties += 1
        if a.values[0] > 1.0 - tol.tau_norm or b.values[0] > 1.0 - tol.tau_norm:
            near_products += 1
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
    dims = [int(n) for n in n_list]
    if not dims:
        raise InvalidInput("n_list must not be empty")
    if sorted(dims) != dims:
        raise InvalidInput("n_list must be ascending")
    return [incomparability_fraction(n, samples, seed, tol) for n in dims]
