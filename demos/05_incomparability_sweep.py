"""How common is incomparability among random states?

Pairs of states are drawn from the rotationally invariant measure (complex
Ginibre matrix M, normalized; the eigenvalues of M M†, its reduced density
matrix up to the trace) and classified.  In
dimension 2 sorted spectra are totally ordered, so incomparability never
happens; as the dimension grows the incomparable fraction climbs steadily
toward 1.  Identical seeds give identical estimates regardless of how the
samples are scheduled, because every sample's randomness is derived from
(seed, dimension, index).
"""

from entorder import sweep

SAMPLES = 2000
SEED = 42

print(f"{SAMPLES} sampled pairs per dimension, seed {SEED}:\n")
print("n    incomparable  fraction  95% halfwidth")
records = sweep([2, 3, 4, 6, 8, 12, 16], SAMPLES, SEED)
for record in records:
    print(f"{record.n:<4d} {record.incomparable_count:<13d} "
          f"{record.fraction:<9.4f} {record.ci95_halfwidth:.4f}")

low = next(r for r in records if r.n == 3)
high = next(r for r in records if r.n == 16)
print(f"\nclimb from n=3 to n=16: {high.fraction - low.fraction:+.4f} "
      f"(combined interval {low.ci95_halfwidth + high.ci95_halfwidth:.4f})")
print("re-running with the same seed reproduces this table byte for byte.")
