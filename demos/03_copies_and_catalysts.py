"""Multiple copies, catalysts, and strong incomparability.

Some incomparable pairs become convertible when several copies are
transformed collectively, or when an ancillary entangled state is borrowed
and returned intact.  Others stay blocked no matter what: when the same
state has both the strictly larger top entry and the strictly larger
Schmidt number, no copy count and no finite catalyst can help
(condition_c), because both quantities multiply under tensor products.
"""

import numpy as np

from entorder import (
    catalyst_convertible,
    catalyst_search,
    compare,
    condition_c,
    make_spectrum,
    multicopy_convertible,
    strong_verdict,
    tensor_power_spectrum,
    top_k_tensor_power,
)

# --- the classic catalysis example -------------------------------------------

a = make_spectrum([0.4, 0.4, 0.1, 0.1])
b = make_spectrum([0.5, 0.25, 0.25])
print("single copy:", compare(a, b).relation.value)

witness = catalyst_search(a, b, dim_max=2, grid_steps=100)
print("grid search found a catalyst:", witness.catalyst.values,
      "->", witness.direction.value)
print("re-checked:", catalyst_convertible(a, b, witness.catalyst).value)

# --- collective copies ---------------------------------------------------------

two_copy_a = make_spectrum(
    [0.34496799342011342, 0.32050013695177559, 0.19305555610992023,
     0.14147631351819076])
two_copy_b = make_spectrum(
    [0.44453598181443021, 0.22062739893430541, 0.20716460313794391,
     0.12767201611332063])
print("\na pair that needs two copies:",
      compare(two_copy_a, two_copy_b).relation.value, "at one copy,",
      multicopy_convertible(two_copy_a, two_copy_b, 3), "collectively")

# --- a pair that nothing can convert -------------------------------------------

strong_a = make_spectrum([0.6, 0.2, 0.1, 0.1])
strong_b = make_spectrum([0.5, 0.5])
print("\ntops:", strong_a.values[0], ">", strong_b.values[0],
      " terms: 4 > 2  -> condition_c:", condition_c(strong_a, strong_b))
verdict = strong_verdict(strong_a, strong_b)
print("strong verdict:", verdict.outcome.value,
      "(bounds m<=%d, catalyst dim<=%d, grid %d)" % verdict.checked_bounds)

# --- product spectra scale fast; prefixes do not -------------------------------

spec = make_spectrum([0.5, 0.3, 0.2])
print("\nthree copies, all %d entries:" % len(tensor_power_spectrum(spec, 3)),
      np.round(tensor_power_spectrum(spec, 3).values[:5], 4), "...")
print("forty copies have 3**40 ~ 1.2e19 entries; the top-k merge still gives")
print("the leading ones exactly:", top_k_tensor_power(spec, 40, 4))
