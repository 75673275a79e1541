"""Integer bounds at any magnitude.

Every integer CLI flag and config key, and the integer bounds of the library
calls behind them, take values drawn log-uniformly by decade up to 10**400,
and 2**53, 2**63 and 2**1024 besides: where a float would overflow, where a
count leaves int64, and past every cap.  Each run either answers or is
refused with a message (exit 2 or 3, an EntOrderError in the library), never
with a traceback, and within a wall budget.  One value per draw is large;
the other bounds stay small, so a run costs what that one value costs.  No
flag or argument here sets a count of threads or processes.
"""

import contextlib
import io
import os
import signal
import tempfile

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from entorder import (
    EntOrderError,
    InternalInconsistency,
    catalyst_search,
    incomparability_fraction,
    multicopy_convertible,
    parse_spectrum,
    strong_verdict,
    top_k_tensor_power,
    truncation_pair,
)
from entorder.cli import run

MAGNITUDES = st.one_of(
    st.integers(0, 399).flatmap(lambda d: st.integers(10**d, 10 ** (d + 1) - 1)),
    st.sampled_from([10**400, 2**53, 2**63, 2**1024]),
)

# Seconds of wall time one run may take; a refusal takes milliseconds.
BUDGET = 10.0


@contextlib.contextmanager
def budget():
    """Interrupt the block, a hang included, once it has run BUDGET seconds."""

    def stop(signum, frame):
        raise TimeoutError(f"still running after {BUDGET} s")

    previous = signal.signal(signal.SIGALRM, stop)
    signal.setitimer(signal.ITIMER_REAL, BUDGET)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


# Values that are accepted and then worked through in proportion: dimensions
# up to 1581 draw 4 n**2 Gaussians a sample, sample counts up to the cap draw
# that many pairs, and a top-k power runs m copy passes up to the cap.  They
# measure the machine, not a refusal, so the draws leave them out.
WORK = {
    "dims": range(100, 1582),
    "samples": range(10**4, 10**7 + 1),
    "top_k m": range(10**4, 10**7 + 1),
}

# Equal-length pairs that stop at different stages of `strong`; the last one
# reaches the catalyst scan.
STRONG_PAIRS = [
    ("0.6,0.25,0.15", "0.5,0.4,0.1"),
    ("0.5,0.2,0.2,0.1", "0.48,0.46,0.03,0.03"),
    ("0.532,0.394,0.053,0.021", "0.681,0.213,0.093,0.013"),
]
TAILED = ("0.6,0.2...geom(0.1,0.5)", "0.4,0.3...geom(0.15,0.5)")
SMALL = {"m-max": (1, 3), "catalyst-dim": (2, 4), "grid": (2, 30)}
CONFIG_KEYS = {
    "size_cap": None, "m_max": "m-max", "catalyst_dim": "catalyst-dim",
    "grid_steps": "grid",
}


def _strong(draw, large=None):
    """A `strong` argv with every bound small but the flag `large`, left out."""
    a, b = draw(st.sampled_from(STRONG_PAIRS))
    argv = ["strong", "--a", a, "--b", b]
    for flag, (low, high) in SMALL.items():
        if flag != large and draw(st.booleans()):
            argv += [f"--{flag}", str(draw(st.integers(low, high)))]
    return argv


CLI_SLOTS = [
    "m-max", "catalyst-dim", "grid", *CONFIG_KEYS,
    "power m", "complete m", "truncate m", "m-list", "dims", "samples", "seed",
]


@st.composite
def magnitude_runs(draw, slot):
    """(argv, config text or None) with the integer at `slot` at a magnitude."""
    value = draw(MAGNITUDES)
    assume(value not in WORK.get(slot, ()))
    if slot in SMALL:
        return [*_strong(draw, slot), f"--{slot}", str(value)], None
    if slot in CONFIG_KEYS:
        return _strong(draw, CONFIG_KEYS[slot]), f"{slot} = {value}\n"
    a = draw(st.sampled_from(["0.7,0.3", "1"]))
    tailed = ["--a", TAILED[0], "--b", TAILED[1]]
    argv = {
        "power m": ["power", "--a", a, "--m", value],
        "complete m": ["construct", "complete", "--base", "0.5,0.3,0.2", "--m", value],
        "truncate m": ["construct", "truncate", *tailed, "--m", value],
        "m-list": ["construct", "audit", *tailed, "--m-list", f"2,{value}"],
        "dims": ["sweep", "--dims", f"2,{value}", "--samples", "2", "--seed", "1"],
        "samples": ["sweep", "--dims", "2", "--samples", value, "--seed", "1"],
        "seed": ["sweep", "--dims", "2,3", "--samples", "2", "--seed", value],
    }[slot]
    return [str(word) for word in argv], None


@pytest.mark.parametrize("slot", CLI_SLOTS)
@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_any_integer_flag_or_config_key_exits_cleanly_within_budget(slot, data):
    argv, config = data.draw(magnitude_runs(slot))
    with tempfile.TemporaryDirectory() as directory:
        if config is not None:
            path = os.path.join(directory, "entorder.cfg")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(config)
            argv = ["--config", path, *argv]
        out, err = io.StringIO(), io.StringIO()
        with budget():
            code = run(argv, out=out, err=err)
    assert code in (0, 2, 3)
    assert "Traceback" not in err.getvalue()
    if code:
        assert out.getvalue() == ""
        assert err.getvalue().startswith("error: ") and err.getvalue().endswith("\n")
    else:
        assert out.getvalue()


PAIRS = [tuple(map(parse_spectrum, pair)) for pair in STRONG_PAIRS]
TA, TB = map(parse_spectrum, TAILED)

# The library calls behind the flags, one integer argument at a magnitude.
API = {
    "strong_verdict m_max": lambda a, b, x: strong_verdict(
        a, b, m_max=x, grid_steps=20
    ),
    "strong_verdict catalyst_dim_max": lambda a, b, x: strong_verdict(
        a, b, catalyst_dim_max=x, grid_steps=20
    ),
    "strong_verdict grid_steps": lambda a, b, x: strong_verdict(a, b, grid_steps=x),
    "strong_verdict size_cap": lambda a, b, x: strong_verdict(a, b, size_cap=x),
    "catalyst_search dim_max": lambda a, b, x: catalyst_search(a, b, x, 20),
    "catalyst_search grid_steps": lambda a, b, x: catalyst_search(a, b, 3, x),
    "catalyst_search size_cap": lambda a, b, x: catalyst_search(
        a, b, 3, 20, size_cap=x
    ),
    "multicopy_convertible m_max": lambda a, b, x: multicopy_convertible(a, b, x),
    "multicopy_convertible size_cap": lambda a, b, x: multicopy_convertible(
        a, b, 3, size_cap=x
    ),
    "top_k m": lambda a, b, x: top_k_tensor_power(a, x, 5),
    "top_k k": lambda a, b, x: top_k_tensor_power(a, 3, x),
    "dims": lambda a, b, x: incomparability_fraction(x, 2, 1),
    "samples": lambda a, b, x: incomparability_fraction(3, x, 1),
    "seed": lambda a, b, x: incomparability_fraction(3, 2, x),
    "truncation_pair m": lambda a, b, x: truncation_pair(TA, TB, x),
}


@pytest.mark.parametrize("call", list(API))
@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(pair=st.sampled_from(PAIRS), value=MAGNITUDES)
def test_any_integer_bound_of_the_library_answers_or_refuses_within_budget(
    call, pair, value
):
    assume(value not in WORK.get(call, ()))
    try:
        with budget():
            API[call](*pair, value)
    except EntOrderError as exc:
        assert not isinstance(exc, InternalInconsistency)
        assert str(exc)
