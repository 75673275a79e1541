"""Checks of every op's output against the independent oracles.

The brute-force helpers come from the repository's `tests/oracles.py`
(loaded read-only); they work on plain lists and never call the program.
`check(workload, spec, output)` returns None when the output is right and a
one-line reason otherwise.  Checks run after timing, in the parent process.
"""

from __future__ import annotations

import json
import math

import numpy as np

from workloads import STRONG_BOUNDS, load_oracles

O = load_oracles()
TAU = O.TAU


def check(workload: str, spec: dict, output: dict) -> str | None:
    if "error" in output:
        return f"raised {output['error']}"
    checks = {"strong": _check_strong, "sweep": _check_sweep,
              "cli": _check_cli, "topk": _check_topk}
    return checks[workload](spec, output["ok"])


def _condition_c(a, b):
    gap = a[0] - b[0]
    na = sum(1 for x in a if x > TAU)
    nb = sum(1 for x in b if x > TAU)
    return (gap > TAU and na > nb) or (gap < -TAU and na < nb)


def _normalized(values):
    total = sum(values)
    return [x / total for x in values]


def _check_strong(spec, out):
    a, b = spec["a"], spec["b"]
    holds = _condition_c(a, b)
    outcome = out["outcome"]
    if outcome == "strong-by-c":
        return None if holds else "strong-by-c, but the oracle's tops and ranks disagree"
    if holds:
        return f"oracle proves condition c, but the outcome is {outcome}"
    if outcome == "inconclusive":
        if O.brute_relation(a, b) != "incomparable":
            return "inconclusive, but the pair is single-copy comparable"
        return None
    witness = out["witness"]
    if outcome != "convertible-witness" or witness is None:
        return f"unexpected outcome {outcome!r}"
    if "catalyst" in witness:
        catalyst = witness["catalyst"]
        if len(catalyst) > STRONG_BOUNDS["catalyst_dim_max"]:
            return "catalyst beyond the searched dimension"
        left = _normalized(list(O.enumerate_product(a, catalyst)))
        right = _normalized(list(O.enumerate_product(b, catalyst)))
    else:
        copies = witness["copies"]
        if not 1 <= copies <= STRONG_BOUNDS["m_max"]:
            return f"copy count {copies} outside the searched range"
        left = list(O.enumerate_power(a, copies))
        right = list(O.enumerate_power(b, copies))
    if witness["direction"] == "forward-convertible":
        ok = O.brute_majorized(left, right)
    elif witness["direction"] == "backward-convertible":
        ok = O.brute_majorized(right, left)
    else:
        return f"bad witness direction {witness['direction']!r}"
    return None if ok else f"witness {witness} does not verify"


def _redraw(n, seed, samples):
    """Spectrum pairs of samples 0..samples-1, from their (seed, n, i) streams.

    Draws as the sampler does, but takes all the SVDs in one stacked call.
    """
    mats = []
    for i in range(samples):
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(n, i)))
        for _ in range(2):
            mats.append(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    spectra = []
    for sv in np.linalg.svd(np.stack(mats), compute_uv=False):
        probs = sv * sv
        spectra.append((probs / probs.sum()).tolist())
    return zip(spectra[0::2], spectra[1::2])


def _check_sweep(spec, out):
    samples = spec["samples"]
    tally = {"forward-convertible": 0, "backward-convertible": 0,
             "equivalent": 0, "incomparable": 0}
    for a, b in _redraw(spec["n"], spec["seed"], samples):
        tally[O.brute_relation(a, b)] += 1
    got = {"forward-convertible": out["forward"], "backward-convertible": out["backward"],
           "equivalent": out["equivalent"], "incomparable": out["incomparable"]}
    if out["samples"] != samples or sum(got.values()) != samples:
        return f"tallies {got} do not partition {samples} samples"
    return None if got == tally else f"tallies {got}, oracle {tally}"


def _check_topk(spec, out):
    a, m, k = spec["a"], spec["m"], spec["k"]
    expected_len = min(k, len(a) ** m)
    if len(out) != expected_len:
        return f"length {len(out)}, expected {expected_len}"
    if len(a) ** m <= 50_000:
        full = O.enumerate_power(a, m)[:k]
        return None if full.tolist() == out else "differs from full enumeration"
    if any(x < y for x, y in zip(out, out[1:])):
        return "not non-increasing"
    top = float(np.prod([a[0]] * m))
    return None if out[0] == top else f"first entry {out[0]} != a1**m"


# --- cli ------------------------------------------------------------------


def _spectrum_text(text):
    """(values, tail) from the CLI's text form of a spectrum."""
    tail = None
    if "...geom(" in text:
        text, rest = text.split("...geom(")
        first, ratio = rest.rstrip(")").split(",")
        tail = (float(first), float(ratio))
    return [float(x) for x in text.split(",")], tail


def _spectrum_json(payload):
    tail = payload["tail"]
    return payload["values"], None if tail is None else (tail["first"], tail["ratio"])


def _fields(stdout):
    """`key: value` lines of the CLI's text output."""
    return dict(line.split(": ", 1) for line in stdout.splitlines())


def _expand(spec_value):
    """Entries of a generated spectrum, tails expanded far below TAU."""
    if isinstance(spec_value, list):
        return spec_value
    first, ratio = spec_value["first"], spec_value["ratio"]
    return spec_value["values"] + [first * ratio**i for i in range(80)]


def _near_tie(a, b):
    length = max(len(a), len(b))
    pa = O.brute_prefix_sums(a, length)
    pb = O.brute_prefix_sums(b, length)
    ta, tb = sum(a), sum(b)
    return any(
        abs(x - y) <= TAU and not (x >= ta - TAU and y >= tb - TAU)
        for x, y in zip(pa, pb)
    )


def _compare_output(stdout):
    if stdout.lstrip().startswith("{"):
        got = json.loads(stdout)
        return (got["relation"], got["forward_violations"],
                got["backward_violations"], got["near_tie"])
    f = _fields(stdout)

    def ints(text):
        return [] if text == "-" else [int(x) for x in text.split(",")]

    return (f["relation"], ints(f["forward violations"]),
            ints(f["backward violations"]), f["near tie"] == "true")


def _cli_compare(spec, stdout):
    relation, forward, backward, near = _compare_output(stdout)
    a, b = _expand(spec["a"]), _expand(spec["b"])
    if relation != O.brute_relation(a, b):
        return f"relation {relation}, oracle {O.brute_relation(a, b)}"
    want_fwd, want_bwd = O.brute_violations(a, b), O.brute_violations(b, a)
    if spec["kind"] != "compare-tail":
        if (forward, backward, near) != (want_fwd, want_bwd, _near_tie(a, b)):
            return "violations or near-tie flag differ from the oracle"
        return None
    # With a geometric tail, the program stops at the horizon where the
    # residual mass drops below TAU; compare the indices decided clearly.
    length = max(len(a), len(b))
    pa, pb = O.brute_prefix_sums(a, length), O.brute_prefix_sums(b, length)
    clear = {k + 1 for k in range(length) if abs(pa[k] - pb[k]) > 1e-9}
    if set(forward) & clear != set(want_fwd) & clear:
        return "forward violations differ from the oracle"
    if set(backward) & clear != set(want_bwd) & clear:
        return "backward violations differ from the oracle"
    if any(pa[k - 1] <= pb[k - 1] for k in forward) or any(
        pb[k - 1] <= pa[k - 1] for k in backward
    ):
        return "a reported violation does not hold"
    return None


def _parse_spectrum_out(stdout):
    if stdout.lstrip().startswith("{"):
        return _spectrum_json(json.loads(stdout))
    return _spectrum_text(stdout.strip())


def _cli_power(spec, stdout):
    values, tail = _parse_spectrum_out(stdout)
    want = O.enumerate_power(spec["a"], spec["m"]).tolist()
    return None if tail is None and values == want else "power spectrum differs"


def _cli_catalyze(spec, stdout):
    a, b, c = spec["a"], spec["b"], spec["c"]
    if stdout.lstrip().startswith("{"):
        got = json.loads(stdout)
        direction = got["direction"] or "-"
        prod_a = _spectrum_json(got["a_product"])[0]
        prod_b = _spectrum_json(got["b_product"])[0]
    else:
        f = _fields(stdout)
        direction = f["direction"]
        prod_a = _spectrum_text(f["a (x) c"])[0]
        prod_b = _spectrum_text(f["b (x) c"])[0]
    want_a = _normalized(O.enumerate_product(a, c).tolist())
    want_b = _normalized(O.enumerate_product(b, c).tolist())
    if (prod_a, prod_b) != (want_a, want_b):
        return "product spectra differ from enumeration"
    relation = O.brute_relation(want_a, want_b)
    want = {"equivalent": "forward-convertible", "incomparable": "-"}.get(relation, relation)
    return None if direction == want else f"direction {direction}, oracle {want}"


def _cli_complete(spec, stdout):
    values, tail = _parse_spectrum_out(stdout)
    m = spec["m"]
    scaled = [x * (m / (m + 1.0)) for x in spec["base"] if x > TAU]
    terms = [1.0 / (2.0 * (m + 1.0)) * 0.5**i for i in range(64)]
    peeled = sum(1 for t in terms if t > min(scaled))
    head = sorted(scaled + terms[:peeled], reverse=True)
    if tail is None or tail[1] != 0.5 or len(values) != len(head):
        return "completion has the wrong shape"
    if not math.isclose(tail[0], terms[peeled], rel_tol=1e-14):
        return "completion tail starts at the wrong term"
    if not all(math.isclose(x, y, rel_tol=1e-14) for x, y in zip(values, head)):
        return "completion head differs"
    if abs(sum(values) + tail[0] / (1 - tail[1]) - 1.0) > 1e-12:
        return "completion is not normalized"
    return None


def _truncations(a, b, m):
    """(a_m, b_m, swapped): the larger top keeps m entries, the other m-1."""
    if a[0] > b[0]:
        return _normalized(a[:m]), _normalized(b[: m - 1]), False
    return _normalized(a[: m - 1]), _normalized(b[:m]), True


def _cli_truncate(spec, stdout):
    if stdout.lstrip().startswith("{"):
        got = json.loads(stdout)
        a_m, b_m = _spectrum_json(got["a_m"])[0], _spectrum_json(got["b_m"])[0]
        m, swapped = got["m"], got["swapped"]
    else:
        f = _fields(stdout)
        a_m, b_m = _spectrum_text(f["a_m"])[0], _spectrum_text(f["b_m"])[0]
        m, swapped = int(f["m"]), f["swapped"] == "true"
    want = _truncations(spec["a"], spec["b"], spec["m"])
    return None if (a_m, b_m, swapped) == want and m == spec["m"] else "truncation differs"


def _distance(x, y):
    length = max(len(x), len(y))
    x = list(x) + [0.0] * (length - len(x))
    y = list(y) + [0.0] * (length - len(y))
    return math.sqrt(max(0.0, 2.0 - 2.0 * sum(math.sqrt(p * q) for p, q in zip(x, y))))


def _cli_audit(spec, stdout):
    if stdout.lstrip().startswith("["):
        rows = [(r["m"], r["dist_a"], r["dist_b"], r["condition_C"], r["incomparable"])
                for r in json.loads(stdout)]
    else:
        lines = stdout.strip().splitlines()
        if lines[0] != "m,dist_a,dist_b,condition_C,incomparable":
            return "bad audit header"
        rows = []
        for line in lines[1:]:
            m, da, db, cc, inc = line.split(",")
            rows.append((int(m), float(da), float(db), cc == "true", inc == "true"))
    if [row[0] for row in rows] != spec["m_list"]:
        return "audit rows are not the requested indices"
    a, b = spec["a"], spec["b"]
    for m, da, db, cc, inc in rows:
        a_m, b_m, _ = _truncations(a, b, m)
        if abs(da - _distance(a_m, a)) > 1e-9 or abs(db - _distance(b_m, b)) > 1e-9:
            return f"audit distances differ at m={m}"
        if cc != _condition_c(a_m, b_m):
            return f"audit condition_C differs at m={m}"
        if inc != (O.brute_relation(a_m, b_m) == "incomparable"):
            return f"audit incomparable flag differs at m={m}"
    return None


_CLI = {
    "compare-text": _cli_compare,
    "compare-json": _cli_compare,
    "compare-tail": _cli_compare,
    "power": _cli_power,
    "catalyze": _cli_catalyze,
    "complete": _cli_complete,
    "truncate": _cli_truncate,
    "audit": _cli_audit,
}


def _check_cli(spec, out):
    if out["exit"] != 0:
        return f"exit {out['exit']}: {out['stderr'].strip()}"
    try:
        return _CLI[spec["kind"]](spec, out["stdout"])
    except (KeyError, ValueError, IndexError) as exc:
        return f"unparsable output for {spec['kind']}: {exc!r}"
