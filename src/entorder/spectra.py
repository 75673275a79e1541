"""Schmidt spectra of bipartite pure states.

Every quantity in this package is a function of the Schmidt spectrum alone:
the non-increasing vector of squared Schmidt coefficients, equal to the
eigenvalues of either reduced density operator.  Coefficient matrices appear
only at ingestion (:func:`schmidt_spectrum`); everything downstream consumes
:class:`SchmidtSpectrum` objects.

A spectrum is stored as a finite explicit head, optionally followed by a
geometric tail.  The tail represents infinitely many strictly positive
entries ``first * ratio**i`` in closed form, so prefix sums and residual
masses of infinite spectra are exact geometric series, never truncations.
"""

from __future__ import annotations

import json
import math
import operator
import re
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionTooSmall,
    InvalidInput,
    NotNormalized,
    SizeCapExceeded,
)

# Comparison horizons for tailed spectra are capped here; a geometric tail
# whose residual has not dropped below tolerance after this many entries is
# treated as an ill-conditioned input rather than ground through.
MAX_HORIZON = 10**6
# Default entry cap of products, powers, catalyst grids and sweep samples.
DEFAULT_SIZE_CAP = 10**7
# Entries per block of the catalyst scan (products over both spectra of a
# pair) and of the sweep (Gaussian entries): bounds their peak memory.
_BLOCK_ENTRIES = 1 << 15

# A total mass this close to 1 counts as already normalized on ingestion.
_ROUNDING = 4 * np.finfo(float).eps


@dataclass(frozen=True)
class Tolerances:
    """Numerical slack used throughout the package.

    tau_norm
        Allowed deviation of total probability mass from 1.
    tau_zero
        Entries at or below this count as zero for Schmidt numbers.
    tau_cmp
        Slack for prefix-sum inequalities and strictness margins.
    """

    tau_norm: float = 1e-9
    tau_zero: float = 1e-12
    tau_cmp: float = 1e-12

    def __post_init__(self):
        taus = (self.tau_norm, self.tau_zero, self.tau_cmp)
        if not all(tau > 0 for tau in taus):
            raise InvalidInput("tolerances must be strictly positive")
        if not all(math.isfinite(tau) for tau in taus):
            raise InvalidInput("tolerances must be finite")
        if not self.tau_zero < 1:
            raise InvalidInput("tau_zero must be below 1")


DEFAULT_TOLERANCES = Tolerances()


def _integer(name: str, value, least: int | None = None, message: str = "") -> int:
    """`value` as a plain int, or InvalidInput when it is not integral.

    Booleans are refused, though `operator.index` takes them as 0 and 1.
    Given `least`, a smaller value raises InvalidInput too, with `message`
    (by default "<name> must be at least <least>").
    """
    try:
        if isinstance(value, bool):
            raise TypeError
        value = operator.index(value)
    except TypeError:
        raise InvalidInput(f"{name} must be an integer, got {value!r}") from None
    if least is not None and value < least:
        raise InvalidInput(message or f"{name} must be at least {least}")
    return value


@dataclass(frozen=True)
class GeometricTail:
    """Closed-form remainder of an infinite spectrum: entries first*ratio**i."""

    first: float
    ratio: float

    def __post_init__(self):
        if not (self.first > 0):
            raise InvalidInput("tail first term must be positive")
        if not (0 < self.ratio < 1):
            raise InvalidInput("tail ratio must lie strictly between 0 and 1")

    def mass(self) -> float:
        return self.first / (1.0 - self.ratio)

    def entries(self, count: int, offset: int = 0) -> np.ndarray:
        return self.first * self.ratio ** np.arange(offset, offset + count)

    def prefix_mass(self, count) -> float:
        """Sum of the first `count` tail entries (vectorizes over `count`)."""
        return self.first * (1.0 - self.ratio**count) / (1.0 - self.ratio)

    def residual_mass(self, count) -> float:
        return self.first * self.ratio**count / (1.0 - self.ratio)

    def count_above(self, level: float) -> int:
        """Count of scalar powers first * ratio**i above `level`, capped at
        `MAX_HORIZON` + 1, which sizes the peel window of :func:`_merge_tail_boundary`:
        a log estimate corrected a step at a time (entries fall with i; one
        that underflows to 0 is at or below a level of 0)."""
        if self.first <= level:
            return 0
        guess = math.log(max(level, math.ulp(0.0)) / self.first) / math.log(self.ratio)
        count = min(max(math.ceil(guess), 1), MAX_HORIZON + 1)
        while count > 1 and self.first * self.ratio ** (count - 1) <= level:
            count -= 1
        while count <= MAX_HORIZON and self.first * self.ratio**count > level:
            count += 1
        return count


@dataclass(frozen=True, eq=False)
class SchmidtSpectrum:
    """Non-increasing probability vector, optionally with a geometric tail.

    `values` holds the explicit head, sorted non-increasing; when `tail` is
    present its first term does not exceed the last head entry, so the head
    followed by the tail IS the sorted spectrum.  `adjusted` records that
    ingestion had to reorder or renormalize user input.
    """

    values: np.ndarray
    tail: GeometricTail | None = None
    adjusted: bool = False

    def __len__(self) -> int:
        return len(self.values)

    def total_mass(self) -> float:
        mass = float(self.values.sum())
        if self.tail is not None:
            mass += self.tail.mass()
        return mass

    def entry_prefix(self, k: int) -> np.ndarray:
        """First `k` entries of the sorted spectrum, zero-padded past the end."""
        head = self.values[:k]
        if len(head) == k:
            return head.astype(float, copy=False)
        out = np.zeros(k)
        out[: len(head)] = head
        if self.tail is not None:
            out[len(head) :] = self.tail.entries(k - len(head))
        return out

    def residual_after(self, k: int) -> float:
        """Mass beyond the first `k` entries, tail evaluated in closed form."""
        if k < len(self.values):
            rest = float(self.values[k:].sum())
        else:
            rest = 0.0
        if self.tail is None:
            return rest
        if k <= len(self.values):
            return rest + self.tail.mass()
        return self.tail.residual_mass(k - len(self.values))

    def horizon(self, tau: float) -> int:
        """Smallest entry count after which the residual mass is below `tau`."""
        if self.tail is None:
            return len(self.values)
        target = tau * (1.0 - self.tail.ratio) / self.tail.first
        if target >= 1.0:
            extra = 0
        else:
            extra = int(math.floor(math.log(target) / math.log(self.tail.ratio))) + 1
        k = len(self.values) + extra
        if k > MAX_HORIZON:
            raise SizeCapExceeded(k, MAX_HORIZON, "tail residual shrinks too slowly")
        return k


def _merge_tail_boundary(values, tail):
    """Peel exactly the tail entries above the last entry of the non-empty
    head `values` into the head; the rest of the tail starts at or below it.
    The peel is decided on the bits of :meth:`GeometricTail.entries`, in a
    window two entries past the count of :meth:`GeometricTail.count_above`,
    and the kept tail starts at the first entry not peeled.  A tail above
    the head for more than `MAX_HORIZON` entries is refused before anything
    is peeled, as its horizon would be; a kept first entry that underflows
    to 0 is refused as invalid input."""
    count = 0 if tail is None else tail.count_above(values[-1])
    if count > MAX_HORIZON:
        raise SizeCapExceeded(MAX_HORIZON + 1, MAX_HORIZON, "tail stays above the "
                              f"head's last entry for more than {MAX_HORIZON} entries")
    if not count:
        return values, tail
    window = tail.entries(count + 2)
    peeled = np.count_nonzero(window > values[-1])
    if not window[peeled] > 0:
        raise InvalidInput(f"tail entry first*ratio**{peeled} underflows to 0")
    merged = np.sort(np.concatenate([values, window[:peeled]]))[::-1]
    return merged, GeometricTail(float(window[peeled]), tail.ratio)


def make_spectrum(
    values,
    tail: GeometricTail | None = None,
    *,
    tol: Tolerances = DEFAULT_TOLERANCES,
) -> SchmidtSpectrum:
    """Ingest a user-supplied spectrum: sort, validate, renormalize.

    Unsorted input is sorted and slightly denormalized input (within
    `tol.tau_norm`) is rescaled to total mass 1; either fix sets the
    `adjusted` flag on the result instead of rejecting.  Masses further than
    `tau_norm` from 1 and negative, non-finite or non-numeric entries (ragged
    nested lists included) are errors.

    The input is copied once and checked for finiteness once; it is sorted
    only when some entry exceeds the one before it, and the head's sum is
    taken once, for both the mass check and the rescaling.
    """
    try:
        arr = np.array(values, dtype=float).ravel()
    except (TypeError, ValueError, OverflowError) as exc:
        raise InvalidInput(f"spectrum entries must be numbers: {exc}") from exc
    if arr.size == 0:
        raise InvalidInput("a spectrum needs at least one entry")
    if not np.isfinite(arr).all():
        raise InvalidInput("spectrum entries must be finite numbers")
    adjusted = False
    negative = arr < 0
    if negative.any():
        if arr.min() < -tol.tau_zero:
            raise InvalidInput(f"negative entry {arr.min()!r} in spectrum")
        arr[negative] = 0.0
        adjusted = True
    if (arr[1:] > arr[:-1]).any():
        adjusted = True
        arr = np.sort(arr)[::-1]
    if tail is not None:
        # Positive tail entries cannot sit below explicit zeros.
        keep = arr > tol.tau_zero
        if not keep.all():
            arr = arr[keep]
            adjusted = True
        if arr.size == 0:
            raise InvalidInput("a tailed spectrum needs a positive head")
    tail_mass = tail.mass() if tail is not None else 0.0
    head = float(arr.sum())
    total = head + tail_mass
    if abs(total - 1.0) > tol.tau_norm:
        raise NotNormalized(f"total mass {total!r} deviates from 1 beyond tau_norm")
    head_target = 1.0 - tail_mass
    if head_target <= 0:
        raise NotNormalized("tail mass alone reaches or exceeds 1")
    if abs(total - 1.0) > _ROUNDING:
        adjusted = True
    arr *= head_target / head
    arr, tail = _merge_tail_boundary(arr, tail)
    return SchmidtSpectrum(arr, tail, adjusted)


def schmidt_spectrum(
    matrix, tol: Tolerances = DEFAULT_TOLERANCES
) -> SchmidtSpectrum:
    """Schmidt spectrum of a pure state given by its coefficient matrix.

    `matrix` is the n-by-n complex amplitude array of a state of two
    n-dimensional subsystems in a fixed product basis; its squared singular
    values are the eigenvalues of the reduced density operator.

    Raises NotNormalized when the Frobenius norm deviates from 1 beyond
    `tol.tau_norm` and DimensionTooSmall for n < 2.
    """
    try:
        mat = np.asarray(matrix, dtype=complex)
    except (ValueError, TypeError) as exc:
        raise InvalidInput(f"bad coefficient matrix: {exc}") from exc
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise InvalidInput(f"coefficient matrix must be square, got {mat.shape}")
    n = mat.shape[0]
    if n < 2:
        raise DimensionTooSmall(f"need dimension >= 2, got {n}")
    norm = float(np.linalg.norm(mat))
    if not abs(norm - 1.0) <= tol.tau_norm:  # a NaN entry fails here too
        raise NotNormalized(f"Frobenius norm {norm!r} deviates from 1")
    from .sampling import _probabilities  # sampling imports this module
    return SchmidtSpectrum(_probabilities(mat))


def schmidt_number(
    spec: SchmidtSpectrum, tol: Tolerances = DEFAULT_TOLERANCES
) -> int | float:
    """Count of entries above `tol.tau_zero`; `math.inf` for tailed spectra."""
    if spec.tail is not None:
        return math.inf
    return int(np.count_nonzero(spec.values > tol.tau_zero))


def prefix_sums(spec: SchmidtSpectrum, k_max: int) -> np.ndarray:
    """Cumulative sums of the first k entries, for k = 1..k_max.

    Past the explicit head the tail contribution is the closed-form partial
    geometric series; past a finite spectrum the sums stay at the total.
    """
    if k_max < 1:
        raise InvalidInput("k_max must be at least 1")
    head = spec.values.cumsum()
    if k_max <= len(head):
        return head[:k_max]
    out = np.empty(k_max)
    out[: len(head)] = head
    head_total = head[-1] if len(head) else 0.0
    if spec.tail is None:
        out[len(head) :] = head_total
    else:
        counts = np.arange(1, k_max - len(head) + 1)
        out[len(head) :] = head_total + spec.tail.prefix_mass(counts)
    return out


def comparison_horizon(
    a: SchmidtSpectrum, b: SchmidtSpectrum, tol: Tolerances = DEFAULT_TOLERANCES
) -> int:
    """Entry count after which both residual masses drop below `tau_cmp`.

    For two finite spectra that is the longer length, at least 1.
    """
    if a.tail is None and b.tail is None:
        return max(len(a.values), len(b.values), 1)
    return max(a.horizon(tol.tau_cmp), b.horizon(tol.tau_cmp), 1)


def spectrum_distance(
    a: SchmidtSpectrum, b: SchmidtSpectrum, tol: Tolerances = DEFAULT_TOLERANCES
) -> float:
    """Hilbert-space distance between states sharing sorted Schmidt bases.

    d(a, b) = sqrt(2 - 2 * sum_j sqrt(a_j * b_j)).  Tails are truncated once
    both residual masses are below `tau_cmp`; by Cauchy-Schwarz the neglected
    overlap is below `tau_cmp` as well.
    """
    k = comparison_horizon(a, b, tol)
    overlap = float(np.sqrt(a.entry_prefix(k) * b.entry_prefix(k)).sum())
    return math.sqrt(max(0.0, 2.0 - 2.0 * overlap))


# --- text and JSON forms -------------------------------------------------
#
# Text:  0.5,0.25,0.25        or with a tail:  0.45,0.45...geom(0.05,0.5)
# JSON:  {"values": [...], "tail": {"first": f, "ratio": r} | null}

_TAIL_RE = re.compile(r"^(?P<head>.*?)\.\.\.geom\((?P<first>[^,]+),(?P<ratio>[^)]+)\)$")


def g17(x: float) -> str:
    """Format a float with 17 significant digits (round-trips doubles)."""
    return format(float(x), ".17g")


def parse_spectrum(
    text: str, *, tol: Tolerances = DEFAULT_TOLERANCES
) -> SchmidtSpectrum:
    """Parse the text or JSON form of a spectrum (ingestion rules apply)."""
    text = text.strip()
    if not text:
        raise InvalidInput("empty spectrum")
    if text.startswith("{"):
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise InvalidInput(f"bad spectrum JSON: {exc}") from exc
        return spectrum_from_json(payload, tol=tol)
    tail = None
    match = _TAIL_RE.match(text)
    if match:
        text = match.group("head")
        try:
            tail = GeometricTail(
                float(match.group("first")), float(match.group("ratio"))
            )
        except ValueError as exc:
            raise InvalidInput(f"bad tail syntax: {exc}") from exc
    try:
        values = [float(part) for part in text.split(",") if part.strip()]
    except ValueError as exc:
        raise InvalidInput(f"bad spectrum value: {exc}") from exc
    return make_spectrum(values, tail, tol=tol)


def format_spectrum(spec: SchmidtSpectrum) -> str:
    """Text form of a spectrum, 17 significant digits per entry."""
    head = ",".join(g17(v) for v in spec.values)
    if spec.tail is None:
        return head
    return f"{head}...geom({g17(spec.tail.first)},{g17(spec.tail.ratio)})"


def spectrum_to_json(spec: SchmidtSpectrum) -> dict:
    tail = None
    if spec.tail is not None:
        tail = {"first": spec.tail.first, "ratio": spec.tail.ratio}
    return {"values": [float(v) for v in spec.values], "tail": tail,
            "adjusted": spec.adjusted}


def _is_json_number(value) -> bool:
    """Whether a decoded JSON value is a number; booleans and strings are not."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def spectrum_from_json(
    payload: dict, *, tol: Tolerances = DEFAULT_TOLERANCES
) -> SchmidtSpectrum:
    """Spectrum of a decoded JSON object: `values` must be an array (flat or
    nested), and every entry in it a JSON number."""
    if not isinstance(payload, dict) or "values" not in payload:
        raise InvalidInput("spectrum JSON needs a 'values' array")
    tail = None
    raw_tail = payload.get("tail")
    if raw_tail is not None:
        try:
            first, ratio = raw_tail["first"], raw_tail["ratio"]
            if not (_is_json_number(first) and _is_json_number(ratio)):
                raise InvalidInput(f"tail first and ratio must be numbers: {raw_tail}")
            tail = GeometricTail(float(first), float(ratio))
        except (KeyError, TypeError, OverflowError) as exc:
            raise InvalidInput(f"bad tail object: {exc}") from exc
    values = payload["values"]
    if not isinstance(values, list):
        raise InvalidInput(
            f"spectrum entries must be numbers in an array, got {values!r}"
        )
    # nested lists are walked without recursion; make_spectrum checks shape
    pending = [values]
    while pending:
        item = pending.pop()
        if isinstance(item, list):
            pending.extend(item)
        elif not _is_json_number(item):
            raise InvalidInput(f"spectrum entries must be numbers, got {item!r}")
    return make_spectrum(values, tail, tol=tol)
