import io
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entorder import (
    DEFAULT_TOLERANCES,
    GeometricTail,
    ComparisonVerdict,
    Relation,
    SchmidtSpectrum,
    Tolerances,
    catalysis,
    cli,
    compare,
    compare_many,
    complete_extension,
    make_spectrum,
    majorized_by,
    near_ties,
    prefix_sums,
    sampling,
    schmidt_number,
    tensor_product_spectrum,
)
from entorder.majorization import RELATIONS, _pair_code
from entorder.spectra import comparison_horizon
from oracles import brute_relation, brute_violations, random_sorted_probs


def spec(*values):
    return make_spectrum(list(values))


# --- majorized_by ---------------------------------------------------------


def test_bell_majorized_by_skewed():
    assert majorized_by(spec(0.5, 0.5), spec(0.7, 0.3))


def test_first_prefix_violation_blocks():
    # k=1 already fails: 0.5 > 0.4
    assert not majorized_by(spec(0.5, 0.25, 0.25), spec(0.4, 0.4, 0.2))


def test_reflexive():
    rng = np.random.default_rng(21)
    for _ in range(20):
        s = make_spectrum(random_sorted_probs(rng, int(rng.integers(2, 9))))
        assert majorized_by(s, s)


# --- compare --------------------------------------------------------------


def test_incomparable_pair_with_witness_indices():
    verdict = compare(spec(0.5, 0.25, 0.25), spec(0.4, 0.4, 0.2))
    assert verdict.relation is Relation.INCOMPARABLE
    assert verdict.forward_violations == (1,)
    assert verdict.backward_violations == (2,)  # 0.8 > 0.75


def test_maximally_entangled_converts_to_anything():
    verdict = compare(spec(0.25, 0.25, 0.25, 0.25), spec(1.0, 0.0, 0.0, 0.0))
    assert verdict.relation is Relation.FORWARD
    assert verdict.forward_violations == ()


def test_schmidt_gap_pair_is_incomparable():
    verdict = compare(spec(0.6, 0.2, 0.1, 0.1), spec(0.5, 0.5, 0.0, 0.0))
    assert verdict.relation is Relation.INCOMPARABLE
    assert verdict.forward_violations == (1,)
    # lists are complete, not first-failure-only: 1.0 > 0.8 and 1.0 > 0.9
    assert verdict.backward_violations == (2, 3)


def test_equivalent_spectra():
    verdict = compare(spec(0.5, 0.3, 0.2), spec(0.5, 0.3, 0.2))
    assert verdict.relation is Relation.EQUIVALENT
    assert verdict.forward_violations == ()
    assert verdict.backward_violations == ()


def test_near_tie_flag():
    # margins at k=1 and k=2 are mid-sequence algebraic ties
    tied = compare(spec(0.5, 0.25, 0.25), spec(0.5, 0.3, 0.2))
    assert tied.near_tie
    # a clean pair has no decisive margin near tau_cmp; the forced final tie
    # at k=n (both totals reach 1) must not pollute the flag
    clean = compare(spec(0.5, 0.5), spec(0.7, 0.3))
    assert not clean.near_tie


# --- agreement with the brute-force oracle ---------------------------------


def test_matches_brute_force_oracle_on_random_pairs():
    rng = np.random.default_rng(22)
    for _ in range(2000):
        n = int(rng.integers(2, 9))
        a = random_sorted_probs(rng, n)
        b = random_sorted_probs(rng, n)
        verdict = compare(make_spectrum(a), make_spectrum(b))
        assert verdict.relation.value == brute_relation(a, b)
        assert list(verdict.forward_violations) == brute_violations(a, b)
        assert list(verdict.backward_violations) == brute_violations(b, a)


# --- order-theoretic properties --------------------------------------------


def test_antisymmetry_on_random_pairs():
    rng = np.random.default_rng(23)
    for _ in range(300):
        n = int(rng.integers(2, 8))
        a = make_spectrum(random_sorted_probs(rng, n))
        b = make_spectrum(random_sorted_probs(rng, n))
        ab = compare(a, b).relation
        ba = compare(b, a).relation
        assert (ab is Relation.FORWARD) == (ba is Relation.BACKWARD)
        assert (ab is Relation.INCOMPARABLE) == (ba is Relation.INCOMPARABLE)
        assert (ab is Relation.EQUIVALENT) == (ba is Relation.EQUIVALENT)


def test_transitivity_on_random_triples():
    rng = np.random.default_rng(24)
    checked = 0
    for _ in range(3000):
        n = int(rng.integers(2, 6))
        a = make_spectrum(random_sorted_probs(rng, n))
        b = make_spectrum(random_sorted_probs(rng, n))
        c = make_spectrum(random_sorted_probs(rng, n))
        if majorized_by(a, b) and majorized_by(b, c):
            assert majorized_by(a, c)
            checked += 1
    assert checked > 50  # the premise must actually fire


def test_schmidt_number_monotonicity():
    # a target with a larger Schmidt number is never reachable
    rng = np.random.default_rng(25)
    for _ in range(300):
        na = int(rng.integers(2, 6))
        nb = int(rng.integers(na + 1, 8))
        a = make_spectrum(np.concatenate([random_sorted_probs(rng, na), np.zeros(nb - na)]))
        b = make_spectrum(random_sorted_probs(rng, nb))
        assert schmidt_number(a) < schmidt_number(b)
        assert not majorized_by(a, b)


def test_padding_invariance():
    rng = np.random.default_rng(26)
    for _ in range(200):
        n = int(rng.integers(2, 7))
        a = random_sorted_probs(rng, n)
        b = random_sorted_probs(rng, n)
        base = compare(make_spectrum(a), make_spectrum(b))
        padded = compare(
            make_spectrum(np.concatenate([a, np.zeros(3)])),
            make_spectrum(np.concatenate([b, np.zeros(1)])),
        )
        assert base.relation is padded.relation
        assert base.forward_violations == padded.forward_violations
        assert base.backward_violations == padded.backward_violations


def test_top_entry_necessary_condition():
    rng = np.random.default_rng(27)
    for _ in range(300):
        n = int(rng.integers(2, 8))
        a = make_spectrum(random_sorted_probs(rng, n))
        b = make_spectrum(random_sorted_probs(rng, n))
        if majorized_by(a, b):
            assert a.values[0] <= b.values[0] + 1e-12


# --- tailed spectra --------------------------------------------------------


def test_tailed_comparison_is_well_defined():
    base = make_spectrum([0.6, 0.4])
    near = complete_extension(base, 1000)
    far = complete_extension(base, 1)
    # the far completion pushes much more mass into the flat tail, so it is
    # majorized by the near one but not conversely
    assert majorized_by(far, near)
    assert not majorized_by(near, far)
    verdict = compare(far, near)
    assert verdict.relation is Relation.FORWARD


def test_completion_majorized_by_its_base():
    base = make_spectrum([0.7, 0.2, 0.1])
    completed = complete_extension(base, 5)
    # spreading mass into the tail only lowers prefix sums
    assert majorized_by(completed, base)
    assert not majorized_by(base, completed)


# --- Hypothesis properties of the kernel -------------------------------------


def normalized(weights, mass=1.0):
    weights = np.asarray(weights, dtype=float)
    return weights / weights.sum() * mass


# Integer weights give prefix sums that are rationals with small
# denominators: every margin is a rounding-level tie or far above tau_cmp,
# so exact order-theoretic facts hold for the computed verdicts.
WEIGHTS = st.lists(st.integers(0, 20), min_size=1, max_size=6).filter(any)
FINITE = WEIGHTS.map(lambda w: make_spectrum(normalized(w)))
FLOATS = st.lists(st.floats(0, 1), min_size=1, max_size=8).filter(
    lambda v: sum(v) > 0.01
).map(lambda v: make_spectrum(normalized(v)))


@st.composite
def tailed(draw):
    head = draw(st.lists(st.integers(1, 20), min_size=1, max_size=5))
    ratio = draw(st.sampled_from([0.1, 0.5, 0.8]))
    share = draw(st.sampled_from([0.05, 0.2, 0.4]))
    tail = GeometricTail(share * (1.0 - ratio), ratio)
    return make_spectrum(normalized(head, 1.0 - tail.mass()), tail)


ANY = st.one_of(FINITE, FLOATS, tailed())


@st.composite
def richer(draw, weights):
    """`weights` after moving units from poorer entries to richer ones.

    Each such transfer yields a vector that majorizes the one before, so
    the spectrum of `weights` converts to the result.
    """
    w = sorted(weights, reverse=True)
    for _ in range(draw(st.integers(0, 3)) if len(w) > 1 else 0):
        i = draw(st.integers(0, len(w) - 2))
        j = draw(st.integers(i + 1, len(w) - 1))
        units = draw(st.integers(0, w[j]))
        w[i] += units
        w[j] -= units
        w.sort(reverse=True)
    return w


@st.composite
def chain(draw, length):
    """`length` spectra, each converting to the next by transfers."""
    weights = [draw(WEIGHTS)]
    while len(weights) < length:
        weights.append(draw(richer(weights[-1])))
    return tuple(make_spectrum(normalized(w)) for w in weights)


PROPERTY = settings(derandomize=True, max_examples=300, deadline=None)
MIRROR = {
    Relation.FORWARD: Relation.BACKWARD,
    Relation.BACKWARD: Relation.FORWARD,
    Relation.EQUIVALENT: Relation.EQUIVALENT,
    Relation.INCOMPARABLE: Relation.INCOMPARABLE,
}


def relation_of(forward, backward):
    if not forward.any():
        return Relation.FORWARD if backward.any() else Relation.EQUIVALENT
    return Relation.BACKWARD if not backward.any() else Relation.INCOMPARABLE


@PROPERTY
@given(st.lists(st.tuples(ANY, ANY), min_size=1, max_size=8))
def test_compare_many_rows_match_compare(pairs):
    # pairs sharing a comparison horizon are stacked into one call, with
    # per-row totals and slack (tau_cmp plus both residuals past the horizon)
    tol = DEFAULT_TOLERANCES
    groups = {}
    for a, b in pairs:
        groups.setdefault(comparison_horizon(a, b, tol), []).append((a, b))
    for k, group in groups.items():
        pa = np.stack([prefix_sums(a, k) for a, _ in group])
        pb = np.stack([prefix_sums(b, k) for _, b in group])
        forward, backward = compare_many(
            pa,
            pb,
            np.array([
                [tol.tau_cmp + (a.residual_after(k) + b.residual_after(k))]
                for a, b in group
            ]),
        )
        near = near_ties(
            pa,
            pb,
            np.array([[a.total_mass()] for a, _ in group]),
            np.array([[b.total_mass()] for _, b in group]),
            tol,
        )
        assert forward.shape == backward.shape == (len(group), k)
        for row, (a, b) in enumerate(group):
            verdict = compare(a, b, tol)
            assert tuple(np.flatnonzero(forward[row]) + 1) == verdict.forward_violations
            assert tuple(np.flatnonzero(backward[row]) + 1) == verdict.backward_violations
            assert bool(near[row]) is verdict.near_tie
            assert relation_of(forward[row], backward[row]) is verdict.relation
            assert majorized_by(a, b, tol) is (not forward[row].any())


@PROPERTY
@given(ANY, ANY)
def test_swapping_the_pair_swaps_the_directions(a, b):
    ab, ba = compare(a, b), compare(b, a)
    assert ba.forward_violations == ab.backward_violations
    assert ba.backward_violations == ab.forward_violations
    assert ba.near_tie is ab.near_tie
    assert ba.relation is MIRROR[ab.relation]


@PROPERTY
@given(st.one_of(chain(3), st.tuples(FINITE, FINITE, FINITE)))
def test_forward_is_transitive(triple):
    a, b, c = triple
    if majorized_by(a, b) and majorized_by(b, c):
        assert majorized_by(a, c)


@PROPERTY
@given(st.one_of(chain(2), st.tuples(FINITE, FINITE)), FINITE)
def test_forward_survives_a_common_tensor_factor(pair, c):
    a, b = pair
    if majorized_by(a, b):
        assert majorized_by(tensor_product_spectrum(a, c), tensor_product_spectrum(b, c))


def test_a_common_tensor_factor_can_open_a_conversion():
    # the converse of the property above fails: this is catalysis
    a, b = spec(0.4, 0.4, 0.1, 0.1), spec(0.5, 0.25, 0.25, 0.0)
    c = spec(0.6, 0.4)
    assert not majorized_by(a, b)
    assert majorized_by(tensor_product_spectrum(a, c), tensor_product_spectrum(b, c))


# --- compare against its earlier body ----------------------------------------
#
# Two finite spectra skip the tail horizon, and the violation lists come
# from one `nonzero` each.  The body below is `compare` as it was before,
# kept as the reference: verdicts must match it exactly, types included.


def reference_compare(a, b, tol=DEFAULT_TOLERANCES):
    k = max(a.horizon(tol.tau_cmp), b.horizon(tol.tau_cmp), 1)
    slack = tol.tau_cmp
    if a.tail is not None or b.tail is not None:
        slack += a.residual_after(k) + b.residual_after(k)
    pa, pb = prefix_sums(a, k), prefix_sums(b, k)
    forward, backward = compare_many(pa, pb, slack)
    forward = np.flatnonzero(forward) + 1
    backward = np.flatnonzero(backward) + 1
    near = bool(near_ties(pa, pb, a.total_mass(), b.total_mass(), tol))
    if len(forward) == 0 and len(backward) == 0:
        relation = Relation.EQUIVALENT
    elif len(forward) == 0:
        relation = Relation.FORWARD
    elif len(backward) == 0:
        relation = Relation.BACKWARD
    else:
        relation = Relation.INCOMPARABLE
    return ComparisonVerdict(
        relation,
        tuple(int(k) for k in forward),
        tuple(int(k) for k in backward),
        near,
    )


def assert_compares_like_the_reference(a, b, tol=DEFAULT_TOLERANCES):
    got, expected = compare(a, b, tol), reference_compare(a, b, tol)
    assert got == expected
    assert json.dumps(got.to_json()) == json.dumps(expected.to_json())
    for k in got.forward_violations + got.backward_violations:
        assert type(k) is int
    assert type(got.near_tie) is bool


def test_compare_matches_its_reference_on_seeded_pairs():
    rng = np.random.default_rng(63)
    tails = [None, GeometricTail(0.01, 0.5), GeometricTail(0.002, 0.9)]
    for _ in range(1500):
        specs = []
        for _ in range(2):
            n = int(rng.integers(1, 9))
            # dyadic entries give exact ties, random ones clean margins
            if rng.random() < 0.5:
                values = random_sorted_probs(rng, n)
            else:
                counts = np.sort(rng.multinomial(64, np.full(n, 1.0 / n)))[::-1]
                values = counts / 64.0
            tail = tails[int(rng.integers(0, 3))] if rng.random() < 0.2 else None
            if tail is not None:
                values = np.maximum(values, 0.05) * (1.0 - tail.mass())
                values /= values.sum() / (1.0 - tail.mass())
            values = np.concatenate([values, np.zeros(int(rng.integers(0, 3)))])
            specs.append(make_spectrum(values, tail))
        a, b = specs
        assert_compares_like_the_reference(a, b)
        assert_compares_like_the_reference(a, a)


@PROPERTY
@given(ANY, ANY)
def test_compare_matches_its_reference_on_generated_pairs(a, b):
    assert_compares_like_the_reference(a, b)


# --- near ties at the tolerance and the verdict-code helper -------------------
#
# `compare` takes its near-tie flag from `near_ties`, which flags a margin
# within `tau_cmp` only where not both masses are already spent; `_pair_code`
# gives the verdict code with neither violation lists nor near ties.  Spectra
# built directly from exact floats put a prefix margin exactly where the
# test wants it.

# A tolerance that is a whole number of ulps of the prefix sums in [0.5, 1),
# so a margin can sit exactly at it or one ulp either side.
EXACT_TAU = Tolerances(tau_cmp=2.0**-40)


@pytest.mark.parametrize("step", [-1, 0, 1])
def test_compare_gates_near_ties_like_the_reference(step):
    tau = EXACT_TAU.tau_cmp
    top = np.nextafter(0.75 + tau, step * np.inf) if step else 0.75 + tau
    margin = top - 0.75
    assert margin == tau + step * 2.0**-53
    b = SchmidtSpectrum(np.array([0.75, 0.25]))
    # the margin at k = 1, with both masses still to come
    a = SchmidtSpectrum(np.array([top, 1.0 - top]))
    assert_compares_like_the_reference(a, b, EXACT_TAU)
    assert compare(a, b, EXACT_TAU).near_tie is bool(margin <= tau)
    # the margin at k = 2, where both masses are spent to within tau_cmp:
    # a tie forced by normalization, never flagged
    spent = SchmidtSpectrum(np.array([0.5, 0.5 - margin, margin]))
    assert prefix_sums(spent, 2)[1] == 1.0 - margin
    assert_compares_like_the_reference(b, spent, EXACT_TAU)
    assert compare(b, spent, EXACT_TAU).near_tie is False
    for pair in ((a, b), (b, spent)):
        assert_compares_like_the_reference(*pair)
        assert_compares_like_the_reference(*pair[::-1], EXACT_TAU)


def test_compare_reads_a_lone_last_tie_like_near_ties():
    # With tau_cmp far below rounding, only an exact tie is close.  Random
    # pairs tie at the last index alone when their running sums end on the
    # same double, and that index is undecided when the running sum falls
    # short of numpy's pairwise `total_mass`.
    tol = Tolerances(tau_cmp=1e-300)
    rng = np.random.default_rng(64)
    flags = set()
    for _ in range(300):
        a, b = (SchmidtSpectrum(random_sorted_probs(rng, 12)) for _ in range(2))
        assert_compares_like_the_reference(a, b, tol)
        flags.add(compare(a, b, tol).near_tie)
    assert flags == {False, True}


def seeded_pairs(rng, count):
    """Finite pairs, dyadic (exact ties) or random, some with zero padding,
    and pairs in which one or both spectra carry a geometric tail."""
    tails = [GeometricTail(0.01, 0.5), GeometricTail(0.002, 0.9)]
    for _ in range(count):
        specs = []
        for _ in range(2):
            n = int(rng.integers(1, 9))
            if rng.random() < 0.5:
                values = random_sorted_probs(rng, n)
            else:
                values = np.sort(rng.multinomial(64, np.full(n, 1.0 / n)))[::-1] / 64
            tail = tails[int(rng.integers(0, 2))] if rng.random() < 0.3 else None
            if tail is None:
                values = np.concatenate([values, np.zeros(int(rng.integers(0, 3)))])
            else:
                values = normalized(np.maximum(values, 0.05), 1.0 - tail.mass())
            specs.append(make_spectrum(values, tail))
        yield specs


def test_pair_code_reads_the_relation_compare_gives_on_seeded_pairs():
    rng = np.random.default_rng(65)
    seen = set()
    for a, b in seeded_pairs(rng, 1500):
        for pair in ((a, b), (b, a), (a, a)):
            relation = compare(*pair).relation
            assert RELATIONS[_pair_code(*pair, DEFAULT_TOLERANCES)] is relation
            seen.add((relation, pair[0].tail is not None or pair[1].tail is not None))
    assert {relation for relation, _ in seen} == set(Relation)
    assert {tailed for _, tailed in seen} == {False, True}


@PROPERTY
@given(ANY, ANY)
def test_pair_code_reads_the_relation_compare_gives(a, b):
    for tol in (DEFAULT_TOLERANCES, EXACT_TAU):
        assert RELATIONS[_pair_code(a, b, tol)] is compare(a, b, tol).relation


# --- one verdict code, read by every path ------------------------------------
#
# Each row: a pair, its relation, and the direction a conversion goes.  The
# sweep tallies the relations in the order equivalent, forward, backward,
# incomparable; equal spectra convert forward, incomparable ones neither way.
VERDICT_ROWS = [
    ((0.5, 0.3, 0.2), (0.5, 0.3, 0.2), Relation.EQUIVALENT, Relation.FORWARD),
    ((0.5, 0.3, 0.2), (0.7, 0.2, 0.1), Relation.FORWARD, Relation.FORWARD),
    ((0.7, 0.2, 0.1), (0.5, 0.3, 0.2), Relation.BACKWARD, Relation.BACKWARD),
    ((0.6, 0.2, 0.2), (0.5, 0.4, 0.1), Relation.INCOMPARABLE, None),
]
TALLY_ORDER = (
    Relation.EQUIVALENT, Relation.FORWARD, Relation.BACKWARD, Relation.INCOMPARABLE
)


@pytest.mark.parametrize("a, b, relation, direction", VERDICT_ROWS)
def test_every_verdict_path_agrees_on_relation_and_direction(a, b, relation, direction):
    sa, sb = spec(*a), spec(*b)
    assert compare(sa, sb).relation is relation
    # the sweep's tallies of a one-pair block: diagonal Gaussian planes
    planes = np.zeros((1, 4, 3, 3))
    planes[0, 0], planes[0, 2] = np.diag(np.sqrt(a)), np.diag(np.sqrt(b))
    tallies = sampling._block_tallies(planes, DEFAULT_TOLERANCES)[:4]
    assert tallies.tolist() == [int(r is relation) for r in TALLY_ORDER]
    # the catalyst scan with the trivial catalyst, and one copy
    hit = catalysis._first_hit(sa, sb, np.array([[1.0]]), DEFAULT_TOLERANCES)
    assert (hit and hit[1]) is direction
    witness = catalysis._multicopy_search(
        sa, sb, 1, 1, DEFAULT_TOLERANCES, catalysis.DEFAULT_SIZE_CAP
    )
    assert (witness and witness.direction) is direction
    out, err = io.StringIO(), io.StringIO()
    argv = ["catalyze", "--a", ",".join(map(str, a)), "--b", ",".join(map(str, b)),
            "--c", "1", "--format", "json"]
    assert cli.run(argv, out, err) == 0
    assert json.loads(out.getvalue())["direction"] == (direction and direction.value)
