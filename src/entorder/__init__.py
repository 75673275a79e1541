"""entorder: convertibility and incomparability of bipartite entanglement.

Everything is driven by Schmidt spectra (sorted probability vectors,
optionally with an exact geometric tail).  The library decides whether one
pure state converts into another under local operations and classical
communication, searches for multi-copy and catalyst-assisted conversions,
certifies strong incomparability, reproduces two explicit density
constructions, and estimates how common incomparability is for random pairs
as the dimension grows.
"""

from types import ModuleType as _ModuleType

from .catalysis import (
    CatalystWitness,
    MultiCopyWitness,
    StrongOutcome,
    StrongVerdict,
    catalyst_convertible,
    catalyst_search,
    condition_c,
    multicopy_convertible,
    strong_verdict,
    tensor_power_spectrum,
    tensor_product_spectrum,
    top_k_tensor_power,
)
from .errors import (
    DimensionTooSmall,
    EntOrderError,
    InfiniteSchmidtNumber,
    InternalInconsistency,
    InvalidInput,
    NotComplete,
    NotFoundWithin,
    NotNormalized,
    SizeCapExceeded,
    TopEntriesTied,
)
from .genericity import (
    ConvergenceRow,
    PermanenceWarning,
    TruncationPair,
    complete_extension,
    convergence_report,
    minimal_c_index,
    truncation_pair,
)
from .majorization import (
    ComparisonVerdict,
    Relation,
    compare,
    compare_many,
    majorized_by,
    near_ties,
)
from .sampling import (
    SweepRecord,
    incomparability_fraction,
    sample_random_spectrum,
    sweep,
    wilson_halfwidth,
)
from .spectra import (
    DEFAULT_SIZE_CAP,
    DEFAULT_TOLERANCES,
    GeometricTail,
    SchmidtSpectrum,
    Tolerances,
    format_spectrum,
    make_spectrum,
    parse_spectrum,
    prefix_sums,
    schmidt_number,
    schmidt_spectrum,
    spectrum_distance,
    spectrum_from_json,
    spectrum_to_json,
)

__version__ = "0.1.0"

# every public name the imports above bind, submodules aside
__all__ = sorted(
    name for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
)
