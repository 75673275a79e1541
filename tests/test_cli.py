import hashlib
import io
import json
import os
import resource
import shlex
import string
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entorder import InvalidInput, cli
from entorder.cli import run

SRC = Path(__file__).resolve().parent.parent / "src"


def invoke(*argv):
    out, err = io.StringIO(), io.StringIO()
    code = run(list(argv), out=out, err=err)
    return code, out.getvalue(), err.getvalue()


def shell(*argv, module="entorder.cli", **env):
    """`python -m module argv` in a subprocess, with `env` added; a
    RuntimeWarning, such as numpy's overflow warnings, fails the run."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", module, *argv],
        env=dict(os.environ, PYTHONPATH=path, **env),
        capture_output=True,
        text=True,
        timeout=30,
    )


# --- compare ----------------------------------------------------------------


def test_compare_json_worked_example():
    code, out, err = invoke(
        "compare", "--a", "0.5,0.25,0.25", "--b", "0.4,0.4,0.2", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload == {
        "relation": "incomparable",
        "forward_violations": [1],
        "backward_violations": [2],
        "near_tie": False,
    }


def test_compare_text_output():
    code, out, _ = invoke("compare", "--a", "0.5,0.5", "--b", "0.7,0.3")
    assert code == 0
    assert "relation: forward-convertible" in out


def test_compare_rejects_unnormalized_input():
    code, out, err = invoke("compare", "--a", "0.5,0.6", "--b", "0.5,0.5")
    assert code == 2
    assert out == ""
    assert "error" in err


# Ingestion refusals whose check meets an overflow or a numpy scalar: one
# `error:` line each, with no numpy warning before it and a plain float in it.
REFUSALS = {
    "compare --a 1e308,1e308 --b 0.5,0.5": (
        "error: total mass inf deviates from 1 beyond tau_norm\n"
    ),
    'compare --a {"values":[1e308,1e308]} --b 0.5,0.5': (
        "error: total mass inf deviates from 1 beyond tau_norm\n"
    ),
    "spectrum --matrix [[1e200,0],[0,1e200]]": (
        "error: Frobenius norm inf deviates from 1\n"
    ),
    "compare --a 0.6,0.5,-0.1 --b 0.5,0.5": (
        "error: negative entry -0.1 in spectrum\n"
    ),
}


@pytest.mark.parametrize("line", list(REFUSALS))
def test_ingestion_refusals_print_one_error_line(line):
    assert invoke(*line.split()) == (2, "", REFUSALS[line])
    proc = shell(*line.split())
    assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", REFUSALS[line])


@pytest.mark.parametrize(
    "values",
    [
        '{"values": "abc"}',
        '{"values": {"a": 1}}',
        '{"values": [0.5, "x"]}',
        '{"values": [[0.5, 0.5], [0.1]]}',
        '{"values": [1' + "0" * 400 + "]}",
        # JSON booleans and strings are not numbers, though numpy converts them
        '{"values": "1"}',
        '{"values": [true]}',
        '{"values": ["0.5", "0.5"]}',
        # a bare number is not an array of them
        '{"values": 1}',
        '{"values": 0.5, "tail": {"first": 0.25, "ratio": 0.5}}',
    ],
)
def test_compare_rejects_non_numeric_json_values(values):
    code, out, err = invoke("compare", "--a", values, "--b", "1")
    assert code == 2
    assert out == ""
    assert "spectrum entries must be numbers" in err
    assert "Traceback" not in err


TAILED = '{"values": [0.5], "tail": {"first": %s, "ratio": %s}}'


@pytest.mark.parametrize(
    "argv, message",
    [
        (("compare", "--a", TAILED % ('"0.25"', 0.5)), "tail first and ratio"),
        (("compare", "--a", TAILED % (0.25, "false")), "tail first and ratio"),
        (("compare", "--a", TAILED % ("1" + "0" * 400, 0.5)), "bad tail object"),
        (("spectrum", "--matrix", "[[true,0],[0,false]]"), "bad matrix entry True"),
        (("spectrum", "--matrix", '[["0.6",0],[0,0.8]]'), "bad matrix entry '0.6'"),
        (("spectrum", "--matrix", "[[[0.6,true],0],[0,0.8]]"), "bad matrix entry"),
        (("spectrum", "--matrix", "[[1" + "0" * 400 + ",0],[0,0]]"), "bad matrix entry"),
    ],
)
def test_json_tails_and_matrices_must_be_numbers(argv, message):
    # JSON booleans and strings are not numbers, though float() and complex()
    # would convert some of them
    if argv[0] == "compare":
        argv += ("--b", "0.5,0.5")
    code, out, err = invoke(*argv)
    assert code == 2
    assert out == ""
    assert message in err
    assert "Traceback" not in err


def test_compare_tol_flag_controls_comparison_slack():
    # with a huge slack everything within it collapses to equivalence
    code, out, _ = invoke(
        "compare", "--a", "0.5,0.5", "--b", "0.7,0.3", "--tol", "0.5",
        "--format", "json",
    )
    assert code == 0
    assert json.loads(out)["relation"] == "equivalent"


# --- spectrum ----------------------------------------------------------------


def test_spectrum_from_matrix_json():
    code, out, _ = invoke(
        "spectrum",
        "--matrix",
        "[[0.7071067811865476, 0], [0, 0.7071067811865476]]",
    )
    assert code == 0
    values = [float(x) for x in out.strip().split(",")]
    assert values == pytest.approx([0.5, 0.5])


def test_spectrum_with_complex_entries():
    code, out, _ = invoke(
        "spectrum",
        "--matrix",
        "[[[0, 0.8366600265340756], 0], [0, 0.5477225575051661]]",
        "--format",
        "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["values"] == pytest.approx([0.7, 0.3])
    assert payload["tail"] is None


def test_spectrum_rejects_bad_matrix():
    code, _, err = invoke("spectrum", "--matrix", "[[1, 0], [0]]")
    assert code == 2


# --- strong / power / catalyze -------------------------------------------------


def test_strong_json_condition_path():
    code, out, _ = invoke(
        "strong", "--a", "0.6,0.2,0.1,0.1", "--b", "0.5,0.5", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["outcome"] == "strong-by-c"
    assert payload["witness"] is None
    assert payload["checked_bounds"]["m_max"] == 3
    assert payload["a"]["values"] == pytest.approx([0.6, 0.2, 0.1, 0.1])


def test_strong_catalyst_witness_round_trips_through_compare():
    code, out, _ = invoke(
        "strong",
        "--a", "0.4,0.4,0.1,0.1",
        "--b", "0.5,0.25,0.25",
        "--catalyst-dim", "2",
        "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["outcome"] == "convertible-witness"
    witness = payload["witness"]
    assert witness["kind"] == "catalyst"
    assert witness["direction"] == "forward-convertible"
    catalyst = ",".join(repr(v) for v in witness["catalyst"]["values"])
    code2, out2, _ = invoke(
        "catalyze",
        "--a", "0.4,0.4,0.1,0.1",
        "--b", "0.5,0.25,0.25",
        "--c", catalyst,
        "--format", "json",
    )
    assert code2 == 0
    assert json.loads(out2)["direction"] == "forward-convertible"


def test_power_command():
    code, out, _ = invoke("power", "--a", "0.7,0.3", "--m", "2")
    assert code == 0
    values = [float(x) for x in out.strip().split(",")]
    assert values == pytest.approx([0.49, 0.21, 0.21, 0.09])


def test_power_size_cap_exit_code():
    code, _, err = invoke("power", "--a", "0.5,0.5", "--m", "40")
    assert code == 3
    assert "cap" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["power", "--a", "0.5,0.5", "--m", "0"],
        ["strong", "--a", "0.6,0.3,0.1", "--b", "0.5,0.5", "--catalyst-dim", "1"],
        ["strong", "--a", "0.6,0.3,0.1", "--b", "0.5,0.5", "--grid", "1"],
        ["strong", "--a", "0.5,0.5", "--b", "0.7,0.3", "--m-max", "0"],
        ["strong", "--a", "0.5,0.5", "--b", "0.7,0.3", "--grid", "0"],
        ["spectrum", "--matrix", "[1,2]"],
        ["sweep", "--dims", "2", "--samples", "5", "--seed", "1",
         "--out", "/nonexistent/x.csv"],
        ["sweep", "--dims", "2", "--samples", "5", "--seed", "-1"],
        ["sweep", "--dims=-1", "--samples", "5", "--seed", "1"],
        ["spectrum", "--matrix", "[[NaN, 0], [0, 1]]"],
        ["spectrum", "--matrix", '[[[null, 1], 0], [0, 1]]'],
        ["compare", "--a", "0.9,0.1", "--b", "0.2,0.2,0.2,0.2,0.2", "--tol", "inf"],
    ],
)
def test_out_of_range_search_bounds_are_input_errors(argv):
    code, out, err = invoke(*argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")
    assert "Traceback" not in err


def test_strong_audit_cap_does_not_overturn_condition_c():
    a = ",".join(["0.5"] + [repr(0.5 / 299)] * 299)
    b = ",".join([repr(1 / 299)] * 299)
    code, out, err = invoke("strong", "--a", a, "--b", b)
    assert (code, err) == (0, "")
    assert out == (
        "outcome: strong-by-c\n"
        "checked bounds: m_max=3 catalyst_dim=3 grid_steps=100\n"
    )


@pytest.mark.parametrize(
    "size_cap, cap", [(None, 10**7), (20, 10**7), (10**8, 10**8)]
)
def test_strong_grid_over_the_cap_exits_3(size_cap, cap, tmp_path):
    # a small size_cap leaves the grid bound at its default; a larger one
    # raises it.  The pair is one the end screen leaves to the searches
    cfg = tmp_path / "entorder.cfg"
    cfg.write_text("" if size_cap is None else f"size_cap = {size_cap}\n")
    code, out, err = invoke(
        "--config", str(cfg),
        "strong", "--a", "0.5,0.25,0.2,0.05", "--b", "0.4,0.4,0.1,0.1",
        "--m-max", "1", "--catalyst-dim", "4", "--grid", "2000",
    )
    assert (code, out) == (3, "")
    assert err == (
        "error: the catalyst grid of dimension 4 at 2000 steps needs more "
        f"than {cap} entries\n"
    )


def test_a_screened_strong_pair_is_not_refused_by_the_grid_cap():
    # the end screen covers the requested bounds without building a grid
    code, out, err = invoke(
        "strong", "--a", "0.5,0.2,0.2,0.1", "--b", "0.48,0.46,0.03,0.03",
        "--m-max", "1", "--catalyst-dim", "4", "--grid", "2000",
    )
    assert (code, err) == (0, "")
    assert out == (
        "outcome: inconclusive\n"
        "checked bounds: m_max=1 catalyst_dim=4 grid_steps=2000\n"
    )


@pytest.mark.parametrize(
    "argv, size",
    [
        (["power", "--a", "0.5,0.5", "--m", "20000"], "2**20000"),
        (["power", "--a", "0.5,0.5", "--m", "10000000000"], "2**10000000000"),
        (["strong", "--a", "0.5,0.2,0.2,0.1", "--b", "0.48,0.46,0.03,0.03",
          "--m-max", "20000"], "4**20000"),
    ],
)
def test_huge_copy_counts_exit_3_with_a_message(argv, size):
    # the power's size is never built as a huge integer, so the refusal is
    # immediate and its message formats
    code, out, err = invoke(*argv)
    assert (code, out) == (3, "")
    assert err == f"error: operation needs {size} entries; cap is 10000000\n"


HUGE = str(10**400)
TAILED_A, TAILED_B = "0.45,0.45...geom(0.05,0.5)", "0.6,0.3...geom(0.05,0.5)"


@pytest.mark.parametrize(
    "argv, code, out, err",
    [
        (["strong", "--a", "0.5,0.2,0.2,0.1", "--b", "0.48,0.46,0.03,0.03",
          "--grid", steps], 0,
         "outcome: inconclusive\n"
         f"checked bounds: m_max=3 catalyst_dim=3 grid_steps={steps}\n", "")
        for steps in (HUGE, str(2**1024))
    ] + [
        (["construct", "truncate", "--a", TAILED_A, "--b", TAILED_B, "--m", HUGE],
         2, "", "error: spectrum has fewer than 9.9e+399 positive entries; "
         "the construction needs a complete input\n"),
        (["construct", "audit", "--a", TAILED_A, "--b", TAILED_B, "--m-list",
          f"2,{HUGE}"],
         2, "", "error: spectrum has fewer than 9.9e+399 positive entries; "
         "the construction needs a complete input\n"),
        (["construct", "complete", "--base", "0.5,0.5", "--m", HUGE], 2, "",
         "error: approximation index too large: its tail starts at 0.0\n"),
    ],
    ids=["strong-10**400", "strong-2**1024", "truncate", "audit", "complete"],
)
def test_huge_integer_bounds_exit_with_a_message(argv, code, out, err):
    # each integer is clipped before it meets a float, so none overflows
    assert invoke(*argv) == (code, out, err)


@pytest.mark.parametrize(
    "argv, opening",
    [
        (["strong", "--a", "0.5,0.25,0.25", "--b", "0.4,0.4,0.2", "--m-max", HUGE],
         "error: operation needs 3**1.0e+400 entries; "),
        (["power", "--a", "0.5,0.5", "--m", HUGE],
         "error: operation needs 2**1.0e+400 entries; "),
        (["power", "--a", "1", "--m", HUGE],
         "error: operation needs 1.0e+400 products (1.0e+400 copies "),
    ],
    ids=["strong", "power", "one-entry-power"],
)
def test_huge_copy_counts_print_a_short_count(argv, opening):
    code, out, err = invoke(*argv)
    assert (code, out) == (3, "")
    assert err.startswith(opening)
    assert all(len(line) < 200 for line in err.splitlines())


def test_one_entry_power_with_a_huge_copy_count_exits_3_at_once():
    # the copy loop used to run m - 1 passes on a one-entry spectrum, whose
    # power always fits the size cap; the timeout turns a hang into a failure
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    proc = shell("power", "--a", "1", "--m", "10000000000")
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    assert (proc.returncode, proc.stdout) == (3, "")
    assert proc.stderr == (
        "error: operation needs 10000000000 products (10000000000 copies of a "
        "1-entry spectrum); cap is 10000000\n"
    )
    assert after.ru_utime + after.ru_stime - before.ru_utime - before.ru_stime < 1


def test_sweep_dimension_over_the_cap_exits_3(monkeypatch):
    import entorder.sampling

    monkeypatch.setattr(entorder.sampling, "DEFAULT_SIZE_CAP", 100)
    code, out, err = invoke("sweep", "--dims", "2,3,6", "--samples", "5", "--seed", "1")
    assert (code, out) == (3, "")
    assert err == (
        "error: a sample at dimension 6 draws 144 Gaussian entries; cap is 100\n"
    )


@pytest.mark.parametrize("samples", [2**63, 10**400], ids=["2**63", "10**400"])
def test_a_sample_count_over_the_cap_exits_3_at_once(samples):
    start = time.process_time()
    argv = ("sweep", "--dims", "3", "--samples", str(samples), "--seed", "1")
    assert invoke(*argv) == (
        3, "", "error: too many samples per dimension; cap is 10000000\n"
    )
    assert time.process_time() - start < 1


def test_ingestion_warnings_follow_all_parsing():
    a, b = "0.25,0.5,0.25", "0.4,0.2,0.4"
    code, _, err = invoke("catalyze", "--a", a, "--b", b, "--c", "0.4,0.6")
    assert code == 0
    assert err == "".join(
        f"warning: spectrum {name!r} was reordered or renormalized on ingestion\n"
        for name in "abc"
    )
    # `c` is parsed before any warning is printed
    code, _, err = invoke("catalyze", "--a", a, "--b", b, "--c", "0.5,0.6")
    assert (code, err) == (2, "error: total mass 1.1 deviates from 1 beyond tau_norm\n")


# --- construct -----------------------------------------------------------------


def test_construct_complete_text_tail_syntax():
    code, out, _ = invoke("construct", "complete", "--base", "1.0", "--m", "1")
    assert code == 0
    assert out.strip() == "0.5...geom(0.25,0.5)"


def test_construct_truncate():
    code, out, _ = invoke(
        "construct", "truncate",
        "--a", "0.6,0.2,0.1,0.05,0.05",
        "--b", "0.4,0.3,0.2,0.05,0.05",
        "--m", "3",
        "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["m"] == 3
    assert not payload["swapped"]
    assert payload["a_m"]["values"] == pytest.approx([2 / 3, 2 / 9, 1 / 9])
    assert payload["b_m"]["values"] == pytest.approx([4 / 7, 3 / 7])


def test_construct_truncate_tied_tops_is_input_error():
    code, _, err = invoke(
        "construct", "truncate", "--a", "0.5,0.5", "--b", "0.5,0.25,0.25", "--m", "2"
    )
    assert code == 2


def test_construct_truncate_huge_index_is_input_error():
    # rejected from the entry count alone: the 10**10 kept entries (80 GB)
    # are never allocated
    code, out, err = invoke(
        "construct", "truncate", "--a", "0.6,0.3,0.1", "--b", "0.5,0.5",
        "--m", "10000000000",
    )
    assert code == 2
    assert out == ""
    assert err == (
        "error: spectrum has fewer than 10000000000 positive entries; "
        "the construction needs a complete input\n"
    )


def test_construct_audit_csv():
    code, out, _ = invoke(
        "construct", "audit",
        "--a", "0.6,0.2,0.1,0.05,0.05",
        "--b", "0.4,0.3,0.2,0.05,0.05",
        "--m-list", "3,4,5",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "m,dist_a,dist_b,condition_C,incomparable"
    assert len(lines) == 4
    first = lines[1].split(",")
    assert first[0] == "3"
    assert first[3] == "true"
    assert first[4] == "true"
    # 17-significant-digit fields parse back to exact doubles
    assert float(first[1]) == float(first[1])


def test_construct_audit_with_no_index_still_prints_its_header():
    # the CSV columns are fixed: an empty table keeps its header line
    argv = ("construct", "audit", "--a", "0.6,0.4", "--b", "0.5,0.5", "--m-list", ",")
    assert invoke(*argv) == (0, "m,dist_a,dist_b,condition_C,incomparable\n", "")
    assert invoke(*argv, "--format", "json") == (0, "[]\n", "")


# a head whose last entry lies in the window where peeling one entry per
# multiplication stopped one entry short of first * ratio**count
WINDOW_TAIL = (
    "0.9870147999897549,2.5467880399645532e-08"
    "...geom(0.0027884442025675844,0.7852593976715402)"
)


def test_construct_truncate_of_a_peeled_tail_is_non_increasing():
    code, out, _ = invoke(
        "construct", "truncate", "--a", WINDOW_TAIL, "--b", "0.5...geom(0.05,0.9)",
        "--m", "52", "--format", "json",
    )
    assert code == 0
    values = json.loads(out)["a_m"]["values"]
    assert len(values) == 52
    assert all(x >= y for x, y in zip(values, values[1:]))


def test_a_tail_whose_kept_first_entry_underflows_names_the_underflow():
    # peeling 0.25 leaves a tail that resumes at 0.25 * 5e-324, which is 0
    got = invoke("compare", "--a", "0.75,2e-12...geom(0.25,5e-324)", "--b", "0.5,0.5")
    assert got == (2, "", "error: tail entry first*ratio**1 underflows to 0\n")


def test_a_tail_that_shrinks_too_slowly_exits_3_without_peeling_one_by_one():
    # about 9e5 tail entries sit above the head: they are counted in closed
    # form, and the horizon then refuses the spectrum
    start = time.process_time()
    got = invoke(
        "compare", "--a",
        "0.9983793832124775,2e-12...geom(1.620616785515077e-08,0.99999)",
        "--b", "0.6,0.4",
    )
    assert time.process_time() - start < 0.2
    assert got == (3, "", "error: tail residual shrinks too slowly\n")


@pytest.mark.parametrize(
    "argv",
    [
        ("construct", "audit", "--a", "0.6,0.2,0.1,0.05,0.05",
         "--b", "0.4,0.3,0.2,0.05,0.05", "--m-list", "2,3,4,5"),
        ("construct", "audit", "--a", WINDOW_TAIL, "--b", "0.5...geom(0.05,0.9)",
         "--m-list", "3,20,52"),
        ("sweep", "--dims", "2,3,4", "--samples", "40", "--seed", "5"),
    ],
)
def test_csv_cells_are_the_json_values_under_their_column_keys(argv):
    code, out, _ = invoke(*argv, "--format", "csv")
    assert code == 0
    header, *lines = out.splitlines()
    code, out, _ = invoke(*argv, "--format", "json")
    records = json.loads(out)
    assert len(lines) == len(records) > 0
    for line, record in zip(lines, records):
        for key, cell in zip(header.split(","), line.split(",")):
            value = json.loads(cell)
            assert value == record[key]
            assert isinstance(value, bool) == isinstance(record[key], bool)


# text labels that are not their JSON key with spaces for underscores
TEXT_KEYS = {"a (x) c": "a_product", "b (x) c": "b_product"}


@pytest.mark.parametrize(
    "argv",
    [
        ("compare", "--a", "0.5,0.25,0.25", "--b", "0.4,0.4,0.2"),
        ("compare", "--a", "0.5,0.3,0.2", "--b", "0.5,0.3,0.2"),
        ("compare", "--a", "0.5,0.5", "--b", "0.7,0.3"),
        ("compare", "--a", "0.45,0.45...geom(0.05,0.5)", "--b", "0.5,0.5"),
        ("catalyze", "--a", "0.4,0.4,0.1,0.1", "--b", "0.5,0.25,0.25",
         "--c", "0.6,0.4"),
        ("catalyze", "--a", "0.5,0.25,0.25", "--b", "0.4,0.4,0.2", "--c", "0.5,0.5"),
        ("construct", "truncate", "--a", "0.6,0.2,0.1,0.05,0.05",
         "--b", "0.4,0.3,0.2,0.05,0.05", "--m", "3"),
        ("construct", "truncate", "--a", "0.4,0.3,0.2,0.05,0.05",
         "--b", "0.6,0.2,0.1,0.05,0.05", "--m", "3"),
    ],
)
def test_text_lines_are_the_json_values_under_their_keys(argv):
    code, out, _ = invoke(*argv, "--format", "text")
    assert code == 0
    code, payload, _ = invoke(*argv, "--format", "json")
    record = json.loads(payload)
    keys = []
    for line in out.splitlines():
        label, cell = line.split(": ")
        keys.append(TEXT_KEYS.get(label, label.replace(" ", "_")))
        value = record[keys[-1]]
        if isinstance(value, dict):  # a finite spectrum, by its parsed floats
            assert value["tail"] is None
            assert [float(x) for x in cell.split(",")] == value["values"]
        else:
            assert cell == cli._cell(value)
    assert keys == list(record)


# --- sweep -----------------------------------------------------------------------


def test_sweep_dimension_two_is_zero():
    code, out, _ = invoke("sweep", "--dims", "2", "--samples", "100", "--seed", "7")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,samples,incomparable,fraction,ci95,seed"
    n, samples, incomparable, fraction, ci95, seed = lines[1].split(",")
    assert (n, samples, incomparable, seed) == ("2", "100", "0", "7")
    assert float(fraction) == 0.0


def test_sweep_json_includes_tolerance_snapshot():
    code, out, _ = invoke(
        "sweep", "--dims", "2,3", "--samples", "50", "--seed", "1",
        "--format", "json",
    )
    assert code == 0
    records = json.loads(out)
    assert [r["n"] for r in records] == [2, 3]
    assert records[0]["tol"]["tau_cmp"] == 1e-12
    total = sum(
        records[1][key] for key in ("incomparable", "forward", "backward", "equivalent")
    )
    assert total == 50


def test_sweep_out_file(tmp_path):
    target = tmp_path / "sweep.csv"
    code, out, err = invoke(
        "sweep", "--dims", "2", "--samples", "20", "--seed", "3",
        "--out", str(target),
    )
    assert code == 0
    assert out == ""
    assert target.read_text().startswith("n,samples,incomparable")


# --- determinism, indirection, config ----------------------------------------------


def test_byte_identical_repeats():
    argv = ("sweep", "--dims", "2,3,4", "--samples", "60", "--seed", "11")
    first = invoke(*argv)
    second = invoke(*argv)
    assert first == second
    argv = ("strong", "--a", "0.5,0.5", "--b", "0.7,0.3", "--format", "json")
    assert invoke(*argv) == invoke(*argv)


def test_at_file_indirection(tmp_path):
    path = tmp_path / "spectrum.txt"
    path.write_text("0.5,0.25,0.25\n")
    code, out, _ = invoke(
        "compare", "--a", f"@{path}", "--b", "0.4,0.4,0.2", "--format", "json"
    )
    assert code == 0
    assert json.loads(out)["relation"] == "incomparable"


def test_ingestion_warning_goes_to_stderr():
    code, out, err = invoke(
        "compare", "--a", "0.25,0.5,0.25", "--b", "0.4,0.4,0.2", "--format", "json"
    )
    assert code == 0
    assert "reordered or renormalized" in err
    assert "warning" not in out


def test_config_file_sets_defaults(tmp_path):
    cfg = tmp_path / "entorder.cfg"
    cfg.write_text("# defaults for a coarse run\nformat = json\ntau_cmp = 0.5\n")
    code, out, _ = invoke(
        "--config", str(cfg), "compare", "--a", "0.5,0.5", "--b", "0.7,0.3"
    )
    assert code == 0
    assert json.loads(out)["relation"] == "equivalent"


def test_config_flag_overrides_file(tmp_path):
    cfg = tmp_path / "entorder.cfg"
    cfg.write_text("format = json\n")
    code, out, _ = invoke(
        "--config", str(cfg),
        "compare", "--a", "0.5,0.5", "--b", "0.7,0.3", "--format", "text",
    )
    assert code == 0
    assert out.startswith("relation:")


FORMAT_ARGV = {
    "compare": ["compare", "--a", "0.5,0.5", "--b", "0.7,0.3"],
    "audit": ["construct", "audit", "--a", "0.6,0.2,0.1,0.05,0.05",
              "--b", "0.4,0.3,0.2,0.05,0.05", "--m-list", "3,4"],
    "sweep": ["sweep", "--dims", "2,3", "--samples", "4", "--seed", "1"],
}
# The opening of each command's text or CSV form; JSON opens with [ or {.
PLAIN_FORM = {"compare": "relation: ", "audit": "m,dist_a,", "sweep": "n,samples,"}


@pytest.mark.parametrize(
    "command, in_file, flag, shown",
    [
        ("compare", None, None, "plain"),
        ("compare", "json", None, "json"),
        ("compare", "json", "text", "plain"),
        ("compare", "text", "json", "json"),
        ("compare", "csv", None, "plain"),  # a format compare lacks: its text
        ("audit", None, None, "plain"),
        ("audit", "json", None, "json"),
        ("audit", "json", "csv", "plain"),
        ("audit", "json", "text", "plain"),
        ("audit", "csv", "json", "json"),
        ("sweep", None, None, "plain"),
        ("sweep", "json", None, "json"),
        ("sweep", "json", "csv", "plain"),
        ("sweep", "text", None, "plain"),
        ("sweep", "csv", "json", "json"),
    ],
)
def test_format_flag_wins_over_the_file_over_the_default(
    command, in_file, flag, shown, tmp_path, monkeypatch
):
    monkeypatch.delenv("ENTORDER_CONFIG", raising=False)
    argv = list(FORMAT_ARGV[command])
    if in_file is not None:
        cfg = tmp_path / "entorder.cfg"
        cfg.write_text(f"format = {in_file}\n")
        argv = ["--config", str(cfg), *argv]
    if flag is not None:
        argv += ["--format", flag]
    code, out, err = invoke(*argv)
    assert (code, err) == (0, "")
    if shown == "json":
        assert out[0] in "[{"
        json.loads(out)
    else:
        assert out.startswith(PLAIN_FORM[command])
    # the same bytes as the winning format given alone
    alone = list(FORMAT_ARGV[command])
    if shown == "json":
        alone += ["--format", "json"]
    assert invoke(*alone) == (code, out, err)


def test_config_env_var(tmp_path, monkeypatch):
    cfg = tmp_path / "env.cfg"
    cfg.write_text("format = json\n")
    monkeypatch.setenv("ENTORDER_CONFIG", str(cfg))
    code, out, _ = invoke("compare", "--a", "0.5,0.5", "--b", "0.7,0.3")
    assert code == 0
    json.loads(out)


def test_settings_copy_only_what_a_flag_sets(monkeypatch):
    monkeypatch.delenv("ENTORDER_CONFIG", raising=False)
    default = cli.load_config(None)
    assert cli.load_config(None) is default  # one default, built once
    none_set = {"tau_cmp": None, "m_max": None, "output_format": None}
    assert cli._settings(default, none_set) is default
    formatted = cli._settings(default, {**none_set, "output_format": "json"})
    assert formatted.output_format == "json"
    assert formatted.tolerances is default.tolerances
    tightened = cli._settings(default, {**none_set, "tau_cmp": 1e-6})
    assert tightened.tolerances.tau_cmp == 1e-6
    assert default.tolerances.tau_cmp == 1e-12
    # a copy is still checked like a config file's value
    with pytest.raises(InvalidInput, match="m_max must be at least 1"):
        cli._settings(default, {**none_set, "m_max": 0})
    with pytest.raises(InvalidInput, match="tolerances must be strictly positive"):
        cli._settings(default, {**none_set, "tau_cmp": -1.0})
    # a count is checked as an integer where the Config is built
    with pytest.raises(InvalidInput, match=r"^m_max must be an integer, got 2\.5$"):
        cli.Config(m_max=2.5)


def test_config_rejects_unknown_key(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("tau_fancy = 1\n")
    code, _, err = invoke("--config", str(cfg), "compare", "--a", "1.0", "--b", "1.0")
    assert code == 2
    assert "unknown key" in err


@pytest.mark.parametrize(
    "text, message",
    [
        ("tau_fancy = 1\n", "{path}:1: unknown key 'tau_fancy'"),
        ("\nm_max = two\n", "{path}:2: invalid literal for int() with base 10: 'two'"),
        ("grid_steps = 1\n", "grid_steps must be at least 2"),
        ("size_cap = 0\n", "size_cap must be at least 1"),
    ],
)
def test_config_errors_name_the_line_or_key_once(text, message, tmp_path):
    cfg = tmp_path / "c.cfg"
    cfg.write_text(text)
    code, out, err = invoke("--config", str(cfg), "compare", "--a", "1.0", "--b", "1.0")
    assert (code, out) == (2, "")
    assert err == "error: " + message.format(path=cfg) + "\n"


def test_console_entry_point_subprocess():
    proc = shell(
        "compare", "--a", "0.5,0.25,0.25", "--b", "0.4,0.4,0.2", "--format", "json"
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["relation"] == "incomparable"


def test_the_package_runs_as_a_module():
    argv = ("compare", "--a", "0.5,0.5", "--b", "0.6,0.4")
    package, module = shell(*argv, module="entorder"), shell(*argv)
    assert (package.returncode, package.stdout, package.stderr) == (
        module.returncode, module.stdout, module.stderr
    )
    assert package.returncode == 0
    assert package.stdout.startswith("relation: forward-convertible\n")


# Usage errors as the shell prints them at 80 columns, long lines wrapped.
USAGE_ERRORS = {
    "compare --a 1": (
        "usage: entorder compare [-h] --a A --b B [--tol TOL] [--format {json,text}]\n"
        "entorder compare: error: the following arguments are required: --b\n"
    ),
    "power --a 1 --m x": (
        "usage: entorder power [-h] --a A --m M [--format {json,text}]\n"
        "entorder power: error: argument --m: invalid int value: 'x'\n"
    ),
    "compare --a 1 --b 1 --zzz 3": (
        "usage: entorder [-h] [--config CONFIG]\n"
        "                {spectrum,compare,strong,power,catalyze,construct,sweep} ...\n"
        "entorder: error: unrecognized arguments: --zzz 3\n"
    ),
    "construct audit --a 1": (
        "usage: entorder construct audit [-h] --a A --b B --m-list M_LIST\n"
        "                                [--format {json,csv,text}]\n"
        "entorder construct audit: error: the following arguments are required: "
        "--b, --m-list\n"
    ),
}


@pytest.mark.parametrize("line", list(USAGE_ERRORS))
def test_usage_errors_return_through_run_with_the_shell_bytes(line, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    assert invoke(*line.split()) == (2, "", USAGE_ERRORS[line])
    proc = shell(*line.split(), COLUMNS="80")
    assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", USAGE_ERRORS[line])


# --- JSON renderer -----------------------------------------------------------------

EDGE_FLOATS = [-0.0, 5e-324, 1.7976931348623157e308,
               float("nan"), float("inf"), float("-inf")]
finite_floats = st.one_of(st.sampled_from(EDGE_FLOATS[:3]), st.floats(allow_nan=False,
                                                                      allow_infinity=False))
any_floats = st.one_of(st.sampled_from(EDGE_FLOATS), st.floats())
json_text = st.text(st.one_of(st.sampled_from('"\\/\x00\x08\x1f\x7f\u2028'),
                              st.characters()), max_size=8)
big_ints = st.one_of(st.integers(), st.integers(2**64, 2**200), st.integers(-(2**200), -(2**64)))


def json_payloads(floats, scalars, keys):
    """Nested dicts, lists and tuples of `scalars`, with lists of `floats`
    (mixed with the other scalars or not) among them."""
    float_lists = st.one_of(st.lists(floats), st.lists(st.one_of(floats, scalars)))
    return st.recursive(
        st.one_of(scalars, float_lists),
        lambda inner: st.one_of(
            st.lists(inner, max_size=4),
            st.lists(inner, max_size=4).map(tuple),
            st.dictionaries(keys, inner, max_size=4),
        ),
        max_leaves=12,
    )


plain_payloads = json_payloads(
    finite_floats,
    st.one_of(finite_floats, big_ints, st.booleans(), st.none(), json_text),
    json_text,
)
any_payloads = json_payloads(
    st.one_of(any_floats, any_floats.map(np.float64)),
    st.one_of(any_floats, any_floats.map(np.float64), big_ints, st.booleans(),
              st.none(), json_text, st.sampled_from([np.int64(3), np.bool_(True)])),
    st.one_of(json_text, st.integers(), any_floats, st.booleans(), st.none()),
)


def dumped(render, payload):
    try:
        return render(payload)
    except TypeError as exc:  # what json.dumps cannot encode
        return f"TypeError: {exc}"


@settings(max_examples=150, deadline=None)
@given(plain_payloads)
def test_json_renderer_writes_the_stdlib_indent_bytes_itself(payload):
    assert cli._json(payload) == json.dumps(payload, indent=2)


@settings(max_examples=150, deadline=None)
@given(any_payloads)
def test_json_output_is_the_stdlib_indent_bytes_for_any_payload(payload):
    # non-finite floats, numpy scalars and non-str keys go to json.dumps
    assert dumped(cli._dumps, payload) == dumped(
        lambda p: json.dumps(p, indent=2), payload
    )


# --- golden bytes ------------------------------------------------------------------

# Exact stdout and exit code of each invocation, recorded before the handlers
# shared one output path; stdout is pinned by the first 16 hex digits of its
# SHA-256.  `$name` stands for GOLDEN_ARGS[name].  A config text, when given,
# is written to a file and passed with --config.
GOLDEN_ARGS = {
    "trunc": "--a 0.6,0.2,0.1,0.05,0.05 --b 0.4,0.3,0.2,0.05,0.05",
    "tail": "0.45,0.45...geom(0.05,0.5)",
    "json": """'{"values": [0.5, 0.25], "tail": {"first": 0.125, "ratio": 0.5}}'""",
    # the frozen two-copy pair of test_catalysis
    "two_a": "0.34496799342011342,0.32050013695177559,"
    "0.19305555610992023,0.14147631351819076",
    "two_b": "0.44453598181443021,0.22062739893430541,"
    "0.20716460313794391,0.12767201611332063",
}

GOLDEN = [
    ("spectrum --matrix '[[0.6, 0], [0, 0.8]]'", None, 0, "b23722900ff704a2"),
    ("compare --a 0.5,0.25,0.25 --b 0.4,0.4,0.2", None, 0, "adf78acea2e5dcb7"),
    ("strong --a 0.6,0.2,0.1,0.1 --b 0.5,0.5", None, 0, "ae80cf83f1e10abe"),
    ("power --a 0.7,0.3 --m 2", None, 0, "d7f6eb221e98ff3b"),
    (
        "catalyze --a 0.4,0.4,0.1,0.1 --b 0.5,0.25,0.25 --c 0.6,0.4",
        None, 0, "7d522ce4149c2312",
    ),
    ("construct complete --base 1.0 --m 1", None, 0, "7414c0d178576148"),
    ("construct truncate $trunc --m 3", None, 0, "a3012bdc34b2fd53"),
    (
        "spectrum --matrix '[[0.6, 0], [0, 0.8]]' --format json",
        None, 0, "6c8614e3d18a3e89",
    ),
    (
        "compare --a 0.5,0.25,0.25 --b 0.4,0.4,0.2 --format json",
        None, 0, "f0020356e6546f5f",
    ),
    (
        "strong --a 0.6,0.2,0.1,0.1 --b 0.5,0.5 --format json",
        None, 0, "e923dde158ed9487",
    ),
    ("power --a 0.7,0.3 --m 2 --format json", None, 0, "b8b33bf8a6bc01cb"),
    (
        "catalyze --a 0.4,0.4,0.1,0.1 --b 0.5,0.25,0.25 --c 0.6,0.4 --format json",
        None, 0, "aa57bf5ffb58bc8d",
    ),
    ("construct complete --base 1.0 --m 1 --format json", None, 0, "40bc6b6ec4adbbbe"),
    ("construct truncate $trunc --m 3 --format json", None, 0, "ff7050a9d3858486"),
    (
        "spectrum --matrix '[[0.6, 0], [0, 0.8]]' --format text",
        None, 0, "b23722900ff704a2",
    ),
    (
        "compare --a 0.5,0.25,0.25 --b 0.4,0.4,0.2 --format text",
        None, 0, "adf78acea2e5dcb7",
    ),
    (
        "strong --a 0.6,0.2,0.1,0.1 --b 0.5,0.5 --format text",
        None, 0, "ae80cf83f1e10abe",
    ),
    ("power --a 0.7,0.3 --m 2 --format text", None, 0, "d7f6eb221e98ff3b"),
    (
        "catalyze --a 0.4,0.4,0.1,0.1 --b 0.5,0.25,0.25 --c 0.6,0.4 --format text",
        None, 0, "7d522ce4149c2312",
    ),
    ("construct complete --base 1.0 --m 1 --format text", None, 0, "7414c0d178576148"),
    ("construct truncate $trunc --m 3 --format text", None, 0, "a3012bdc34b2fd53"),
    ("construct audit $trunc --m-list 3,4,5", None, 0, "a70c55f925a8df3c"),
    (
        "construct audit $trunc --m-list 3,4,5 --format json",
        None, 0, "282231bd91a1b446",
    ),
    ("construct audit $trunc --m-list 3,4,5 --format csv", None, 0, "a70c55f925a8df3c"),
    (
        "construct audit $trunc --m-list 3,4,5 --format text",
        None, 0, "a70c55f925a8df3c",
    ),
    ("sweep --dims 2,3 --samples 20 --seed 1", None, 0, "1a90feaaf5ad86ec"),
    (
        "sweep --dims 2,3 --samples 20 --seed 1 --format json",
        None, 0, "55785b456578294d",
    ),
    (
        "sweep --dims 2,3 --samples 20 --seed 1 --format csv",
        None, 0, "1a90feaaf5ad86ec",
    ),
    (
        "spectrum --matrix '[[[0, 0.8366600265340756], 0], [0, 0.5477225575051661]]'",
        None, 0, "7c00ebe284d1fcf2",
    ),
    (
        "compare --a 0.5,0.5 --b 0.7,0.3 --tol 0.5 --format json",
        None, 0, "dbf1234755ec6bb3",
    ),
    ("compare --a 0.25,0.5,0.25 --b 0.4,0.4,0.2", None, 0, "adf78acea2e5dcb7"),
    (
        "strong --a 0.4,0.4,0.1,0.1 --b 0.5,0.25,0.25 --catalyst-dim 2",
        None, 0, "95bf9fd5c2a7e9ca",
    ),
    ("strong --a $two_a --b $two_b", None, 0, "9f462012f921e8cd"),
    (
        "strong --a 0.5,0.3,0.2 --b 0.6,0.2,0.2 --m-max 1 --grid 10",
        None, 0, "6afc0e0e55df44a4",
    ),
    ("strong --a 0.5,0.5 --b 0.7,0.3", None, 0, "2b26b193eb3f9eae"),
    (
        "catalyze --a 0.5,0.25,0.25 --b 0.4,0.4,0.2 --c 0.5,0.5",
        None, 0, "19af5199df8dc95e",
    ),
    ("catalyze --a 0.7,0.3 --b 0.5,0.5 --c 0.9,0.1", None, 0, "574171852a8641c5"),
    (
        "strong --a 0.4,0.4,0.1,0.1 --b 0.5,0.25,0.25 --catalyst-dim 2 --format json",
        None, 0, "bd7f1a1e409ef3da",
    ),
    ("strong --a $two_a --b $two_b --format json", None, 0, "3cf7418c19a3a39e"),
    (
        "strong --a 0.5,0.3,0.2 --b 0.6,0.2,0.2 --m-max 1 --grid 10 --format json",
        None, 0, "8d7bad714695512d",
    ),
    ("strong --a 0.5,0.5 --b 0.7,0.3 --format json", None, 0, "696b42854d0112cd"),
    (
        "catalyze --a 0.5,0.25,0.25 --b 0.4,0.4,0.2 --c 0.5,0.5 --format json",
        None, 0, "e83cc655bb0d70af",
    ),
    (
        "catalyze --a 0.7,0.3 --b 0.5,0.5 --c 0.9,0.1 --format json",
        None, 0, "67fd449366df271a",
    ),
    (
        "construct complete --base 0.5,0.5 --m 9 --format json",
        None, 0, "74f5176c53cf55e8",
    ),
    ("sweep --dims 2,3,4 --samples 60 --seed 11", None, 0, "4e325ec44e9baa0b"),
    ("compare --a $tail --b 0.5,0.5", None, 0, "ceea5c709bfc2326"),
    ("compare --a 0.6,0.4 --b $tail", None, 0, "31688d0ed1b00911"),
    ("construct complete --base 0.6,0.4 --m 3", None, 0, "42943fcb2dedc66f"),
    ("compare --a $tail --b 0.5,0.5 --format json", None, 0, "aca42fb4e947eeb0"),
    ("compare --a 0.6,0.4 --b $tail --format json", None, 0, "9011657648516ab4"),
    (
        "construct complete --base 0.6,0.4 --m 3 --format json",
        None, 0, "a48937c1edb717a6",
    ),
    ("compare --a $json --b 0.7,0.3", None, 0, "d52c6059747cb206"),
    ("strong --a $tail --b 0.5,0.5", None, 2, "e3b0c44298fc1c14"),
    ("power --a $tail --m 2", None, 2, "e3b0c44298fc1c14"),
    ("catalyze --a 0.5,0.5 --b 0.6,0.4 --c $tail", None, 2, "e3b0c44298fc1c14"),
    ("compare --a 0.5,0.5 --b 0.7,0.3", "format = json\n", 0, "938092e6d994c93d"),
    ("construct audit $trunc --m-list 3,5", "format = json\n", 0, "3e303cae225214e7"),
    (
        "sweep --dims 2,3 --samples 10 --seed 5",
        "format = json\n", 0, "7f6a1fe6b94ee32e",
    ),
    ("strong --a $two_a --b $two_b", "format = json\n", 0, "3cf7418c19a3a39e"),
    ("power --a 0.7,0.3 --m 2", "format = json\n", 0, "b8b33bf8a6bc01cb"),
    (
        "spectrum --matrix '[[0.6, 0], [0, 0.8]]'",
        "format = json\n", 0, "6c8614e3d18a3e89",
    ),
    ("compare --a 0.5,0.5 --b 0.7,0.3", "format = csv\n", 0, "8f815fe1b8b73e01"),
    ("construct audit $trunc --m-list 3,5", "format = csv\n", 0, "22cd3646e3a7766e"),
    ("sweep --dims 2,3 --samples 10 --seed 5", "format = csv\n", 0, "6170d9c6911dc577"),
    ("strong --a $two_a --b $two_b", "format = csv\n", 0, "9f462012f921e8cd"),
    ("power --a 0.7,0.3 --m 2", "format = csv\n", 0, "d7f6eb221e98ff3b"),
    (
        "spectrum --matrix '[[0.6, 0], [0, 0.8]]'",
        "format = csv\n", 0, "b23722900ff704a2",
    ),
    ("compare --a 0.5,0.5 --b 0.7,0.3", "format = text\n", 0, "8f815fe1b8b73e01"),
    ("construct audit $trunc --m-list 3,5", "format = text\n", 0, "22cd3646e3a7766e"),
    (
        "sweep --dims 2,3 --samples 10 --seed 5",
        "format = text\n", 0, "6170d9c6911dc577",
    ),
    ("strong --a $two_a --b $two_b", "format = text\n", 0, "9f462012f921e8cd"),
    ("power --a 0.7,0.3 --m 2", "format = text\n", 0, "d7f6eb221e98ff3b"),
    (
        "spectrum --matrix '[[0.6, 0], [0, 0.8]]'",
        "format = text\n", 0, "b23722900ff704a2",
    ),
    (
        "compare --a 0.5,0.5 --b 0.7,0.3 --format text",
        "format = json\n", 0, "8f815fe1b8b73e01",
    ),
    (
        "construct audit $trunc --m-list 3,5 --format json",
        "format = text\n", 0, "3e303cae225214e7",
    ),
    (
        "sweep --dims 2,3 --samples 10 --seed 5 --format csv",
        "format = json\n", 0, "6170d9c6911dc577",
    ),
    (
        "sweep --dims 2,3 --samples 10 --seed 5 --format json",
        "format = csv\n", 0, "7f6a1fe6b94ee32e",
    ),
    (
        "compare --a 0.5,0.5 --b 0.7,0.3",
        "# coarse\ntau_cmp = 0.5\n", 0, "3bb715f64b0591c5",
    ),
    (
        "compare --a 0.5,0.5 --b 0.7,0.3 --tol 1e-12",
        "tau_cmp = 0.5\n", 0, "8f815fe1b8b73e01",
    ),
    ("strong --a $two_a --b $two_b", "m_max = 1\n", 0, "e767e8adf9a55cc2"),
    ("strong --a $two_a --b $two_b --m-max 2", "m_max = 1\n", 0, "57f7572e7caf9be3"),
    (
        "strong --a 0.4,0.4,0.1,0.1 --b 0.5,0.25,0.25",
        "catalyst_dim = 2\ngrid_steps = 20\n", 0, "aa667ee3bbccae6f",
    ),
    (
        "strong --a 0.4,0.4,0.1,0.1 --b 0.5,0.25,0.25 --catalyst-dim 2 --grid 50",
        "catalyst_dim = 3\ngrid_steps = 20\n", 0, "345f33abb1ba95c5",
    ),
    ("power --a 0.5,0.5 --m 4", "size_cap = 8\n", 3, "e3b0c44298fc1c14"),
    ("compare --a 0.5,0.5 --b 0.7,0.3", "tau_fancy = 1\n", 2, "e3b0c44298fc1c14"),
    ("compare --a 0.5,0.5 --b 0.7,0.3", "tau_cmp = x\n", 2, "e3b0c44298fc1c14"),
    ("compare --a 0.5,0.5 --b 0.7,0.3", "grid_steps = 1\n", 2, "e3b0c44298fc1c14"),
    ("compare --a 0.5,0.5 --b 0.7,0.3", "format = yaml\n", 2, "e3b0c44298fc1c14"),
    ("compare --a 0.5,0.5 --b 0.7,0.3", "no equals sign\n", 2, "e3b0c44298fc1c14"),
    ("compare --a 0.5,0.6 --b 0.5,0.5", None, 2, "e3b0c44298fc1c14"),
    ("compare --a 0.5,0.5 --b 0.5,0.5 --tol 0", None, 2, "e3b0c44298fc1c14"),
    ("spectrum --matrix '[[1, 0], [0]]'", None, 2, "e3b0c44298fc1c14"),
    ("spectrum --matrix 'not json'", None, 2, "e3b0c44298fc1c14"),
    ("spectrum --matrix '[[1]]'", None, 2, "e3b0c44298fc1c14"),
    ("power --a 0.5,0.5 --m 40", None, 3, "e3b0c44298fc1c14"),
    ("power --a 0.5,0.5 --m 0", None, 2, "e3b0c44298fc1c14"),
    (
        "strong --a 0.6,0.3,0.1 --b 0.5,0.5 --catalyst-dim 1",
        None, 2, "e3b0c44298fc1c14",
    ),
    ("strong --a 0.6,0.3,0.1 --b 0.5,0.5 --grid 1", None, 2, "e3b0c44298fc1c14"),
    (
        "construct truncate --a 0.5,0.5 --b 0.5,0.25,0.25 --m 2",
        None, 2, "e3b0c44298fc1c14",
    ),
    (
        "construct truncate --a 0.6,0.3,0.1 --b 0.5,0.5 --m 10000000000",
        None, 2, "e3b0c44298fc1c14",
    ),
    ("construct audit $trunc --m-list 3,x", None, 2, "e3b0c44298fc1c14"),
    ("sweep --dims 3,2 --samples 5 --seed 1", None, 2, "e3b0c44298fc1c14"),
    ("sweep --dims 1 --samples 5 --seed 1", None, 2, "e3b0c44298fc1c14"),
    ("sweep --dims 2 --samples 0 --seed 1", None, 2, "e3b0c44298fc1c14"),
    ("catalyze --a 0.25,0.75 --b 0.5,0.6 --c 0.5,0.5", None, 2, "e3b0c44298fc1c14"),
    ("compare --a @/nonexistent/spectrum.txt --b 0.5,0.5", None, 2, "e3b0c44298fc1c14"),
    ("catalyze --a 0.5,0.5 --b 0.5,0.5 --c 0.6,0.4", None, 0, "4b7a4018130fddac"),
    (
        "strong --a 0.5,0.25,0.25 --b 0.4,0.4,0.2 --m-max 1 --catalyst-dim 2 --grid 2",
        None, 0, "0842711fc02cc725",
    ),
    (
        "strong --a 0.5,0.25,0.25 --b 0.4,0.4,0.2 --m-max 1 --catalyst-dim 2"
        " --grid 2 --format json",
        None, 0, "2ceaad4438e25966",
    ),
    (
        "construct truncate --a 0.4,0.3,0.2,0.05,0.05 --b 0.6,0.2,0.1,0.05,0.05"
        " --m 3",
        None, 0, "ce84c922aacb9139",
    ),
    ("compare --a 0.5,0.3,0.2 --b 0.5,0.3,0.2", None, 0, "062c6ab995f0d274"),
    (
        "strong --a 0.5,0.25,0.25 --b 0.4,0.4,0.1,0.1 --catalyst-dim 2",
        None, 0, "57e75069607fa668",
    ),
    # a -0.0 entry is ingested as 0.0, so no output prints a "-0"
    ("power --a 0.5,0.5,-0.0 --m 2", None, 0, "85c083e93e666a1d"),
    ("power --a 0.5,0.5,-0.0 --m 2 --format json", None, 0, "0232d4da33a70fd6"),
    ("catalyze --a 0.6,0.4,-0.0 --b 0.5,0.5 --c 0.5,0.5", None, 0, "167018bc93d7935e"),
]

GOLDEN_USAGE = {
    "": "usage: entorder [-h] [--config CONFIG] "
    "{spectrum,compare,strong,power,catalyze,construct,sweep} ...",
    "spectrum": "usage: entorder spectrum [-h] --matrix MATRIX [--format {json,text}]",
    "compare": "usage: entorder compare [-h] --a A --b B [--tol TOL] "
    "[--format {json,text}]",
    "strong": "usage: entorder strong [-h] --a A --b B [--m-max M_MAX] "
    "[--catalyst-dim CATALYST_DIM] [--grid GRID] [--format {json,text}]",
    "power": "usage: entorder power [-h] --a A --m M [--format {json,text}]",
    "catalyze": "usage: entorder catalyze [-h] --a A --b B --c C "
    "[--format {json,text}]",
    "construct": "usage: entorder construct [-h] {complete,truncate,audit} ...",
    "construct complete": "usage: entorder construct complete [-h] --base BASE --m M "
    "[--format {json,text}]",
    "construct truncate": "usage: entorder construct truncate [-h] --a A --b B --m M "
    "[--format {json,text}]",
    "construct audit": "usage: entorder construct audit [-h] --a A --b B "
    "--m-list M_LIST [--format {json,csv,text}]",
    "sweep": "usage: entorder sweep [-h] --dims DIMS --samples SAMPLES --seed SEED "
    "[--out OUT] [--format {json,csv}]",
}


def _digest(text):
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _golden_argv(line, config, directory):
    argv = shlex.split(string.Template(line).substitute(GOLDEN_ARGS))
    if config is None:
        return argv
    path = directory / "entorder.cfg"
    path.write_text(config)
    return ["--config", str(path)] + argv


@pytest.mark.parametrize("line, config, code, digest", GOLDEN)
def test_golden_stdout_and_exit_code(line, config, code, digest, tmp_path, monkeypatch):
    monkeypatch.delenv("ENTORDER_CONFIG", raising=False)
    got_code, out, _ = invoke(*_golden_argv(line, config, tmp_path))
    assert (got_code, _digest(out)) == (code, digest)


def test_golden_table_in_reverse_order_in_one_process(tmp_path, monkeypatch):
    # one cached parser serves every call, so no order of calls may matter
    monkeypatch.delenv("ENTORDER_CONFIG", raising=False)
    got = []
    for line, config, _, _ in reversed(GOLDEN):
        code, out, _ = invoke(*_golden_argv(line, config, tmp_path))
        got.append((code, _digest(out)))
    assert got == [(code, digest) for _, _, code, digest in reversed(GOLDEN)]


def test_the_parser_is_built_once_per_process(monkeypatch):
    built, compiled = [], []

    def counting():
        built.append(1)
        return build_parser()

    def compiling(parser):
        compiled.append(parser.prog)
        return node(parser)

    build_parser, node = cli.build_parser, cli._node
    monkeypatch.setattr(cli, "build_parser", counting)
    monkeypatch.setattr(cli, "_node", compiling)
    cli._parser.cache_clear()
    cli._table.cache_clear()
    try:
        for _ in range(5):
            invoke("compare", "--a", "0.5,0.5", "--b", "0.7,0.3")
            invoke("power", "--a", "0.7,0.3", "--m", "x")
            invoke("construct", "complete", "--base", "1.0", "--m", "1")
            invoke("compare", "--a=0.5,0.5", "--b=0.7,0.3")
        assert len(built) == 1
        # the table is read back once, one node per parser of the grammar
        assert compiled.count("entorder") == 1
        assert len(compiled) == len(set(compiled))
        assert cli.build_parser() is not cli._parser()  # still a fresh one
    finally:
        cli._parser.cache_clear()
        cli._table.cache_clear()


@pytest.mark.parametrize("argv, table", [
    (["compare", "--a", "0.5,0.25,0.25", "--b", "0.4,0.4,0.2", "--format", "json"], True),
    (["compare", "--a=0.5,0.25,0.25", "--b=0.4,0.4,0.2", "--format=json"], False),
])
def test_run_without_argv_reads_sys_argv_on_both_paths(argv, table, monkeypatch):
    monkeypatch.delenv("ENTORDER_CONFIG", raising=False)
    monkeypatch.setattr(sys, "argv", ["entorder", *argv])
    table_parse, parsed = cli._table_parse, []

    def spying(argv):
        parsed.append(table_parse(argv))
        return parsed[-1]

    def outcome():
        out, err = io.StringIO(), io.StringIO()
        return run(None, out=out, err=err), out.getvalue(), err.getvalue()

    monkeypatch.setattr(cli, "_table_parse", spying)
    got = outcome()
    assert got[0] == 0 and (parsed[0] is not None) == table
    assert got == invoke(*argv)
    monkeypatch.setattr(cli, "_table_parse", lambda argv: None)
    assert outcome() == got


@pytest.mark.parametrize("config", [None, "format = json\n", "format = csv\n"])
def test_golden_sweep_out_file_holds_the_stdout_bytes(config, tmp_path, monkeypatch):
    monkeypatch.delenv("ENTORDER_CONFIG", raising=False)
    argv = _golden_argv("sweep --dims 2,3 --samples 10 --seed 5", config, tmp_path)
    target = tmp_path / "sweep.out"
    _, expected, _ = invoke(*argv)
    assert invoke(*argv, "--out", str(target)) == (0, "", f"wrote {target}\n")
    assert target.read_text() == expected


def test_catalyze_help_keeps_its_bytes(capsys, monkeypatch):
    # --c is parsed as a spectrum like --a and --b, and keeps its help line
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exit_:
        run(["catalyze", "--help"])
    assert exit_.value.code == 0
    assert capsys.readouterr().out == (
        "usage: entorder catalyze [-h] --a A --b B --c C [--format {json,text}]\n"
        "\n"
        "options:\n"
        "  -h, --help            show this help message and exit\n"
        "  --a A\n"
        "  --b B\n"
        "  --c C                 catalyst spectrum\n"
        "  --format {json,text}\n"
    )


# Argv the table leaves to argparse (False) or decides itself (True); `$cfg`
# stands for a config file that sets `format = json`.
OFF_TABLE = [
    ("compare --help", False),
    ("-h", False),
    ("strong --a 0.5,0.5 --b 0.6,0.4 --catalyst 2", False),
    ("compare --a=0.5,0.5 --b 0.6,0.4", False),
    ("compare --a 0.5,0.5 --b 0.6,0.4 --tol -1", False),
    ("power --a 0.5,0.5 --m 2 --m 3", True),
    ("--config $cfg compare --a 0.5,0.5 --b 0.6,0.4", True),
    ("compare --a 0.5,0.5 --b", False),
]


@pytest.mark.parametrize("line, table", OFF_TABLE)
def test_argparse_alone_gives_the_same_outcome(line, table, tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.delenv("ENTORDER_CONFIG", raising=False)
    cfg = tmp_path / "entorder.cfg"
    cfg.write_text("format = json\n")
    argv = [str(cfg) if part == "$cfg" else part for part in line.split()]

    def outcome():
        try:
            result = invoke(*argv)
        except SystemExit as exc:
            result = f"SystemExit({exc.code})"
        return result, capsys.readouterr().out

    assert (cli._table_parse(argv) is not None) == table
    got = outcome()
    monkeypatch.setattr(cli, "_table_parse", lambda argv: None)
    assert outcome() == got


@pytest.mark.parametrize("command", list(GOLDEN_USAGE))
def test_golden_usage_lists_every_flag(command, capsys):
    with pytest.raises(SystemExit) as exit_:
        run(command.split() + ["--help"])
    assert exit_.value.code == 0
    usage = capsys.readouterr().out.split("\n\n")[0]
    assert " ".join(usage.split()) == GOLDEN_USAGE[command]


# --- grammar fuzz --------------------------------------------------------------------


def _spectrum_text(counts, unsorted):
    """Normalized spectrum text from positive integer weights."""
    total = sum(counts)
    values = [count / total for count in counts]
    return ",".join(repr(v) for v in (values if unsorted else sorted(values)[::-1]))


def _tailed_text(counts, ratio):
    # head mass 3/4; a geometric tail of mass 1/4 when the ratio is valid
    total = sum(counts)
    head = ",".join(repr(0.75 * c / total) for c in counts)
    first = 0.25 * (1 - float(ratio)) if 0 < float(ratio) < 1 else 0.1
    return f"{head}...geom({first!r},{ratio})"


_WEIGHTS = st.lists(st.integers(1, 8), min_size=1, max_size=5)
SPECTRA = st.one_of(
    st.builds(_spectrum_text, _WEIGHTS, st.booleans()),
    st.builds(_tailed_text, _WEIGHTS, st.sampled_from(["0.5", "0.9", "1", "0"])),
    st.lists(
        st.sampled_from(["0", "0.5", "0.25", "1", "-0.1", "1e-13", "nan", "inf", "x"]),
        min_size=1,
        max_size=4,
    ).map(",".join),
    st.sampled_from(["", "{", '{"values": [0.5, 0.5]}', "{}", "0.5...geom(", "@"]),
)
_ENTRIES = st.sampled_from(
    [0, 1, 0.5, 0.6, 0.8, [0, 0.6], [0.8, 0], [1], ["x", 1], [None, 0], "x", None]
)
MATRICES = st.one_of(
    st.sampled_from(
        ["[[0.6, 0], [0, 0.8]]", "[[0.5, 0.5], [0.5, 0.5]]", "[[0, 0.6], [0.8, 0]]"]
    ),
    st.lists(st.lists(_ENTRIES, max_size=3), max_size=3).map(json.dumps),
    _ENTRIES.map(json.dumps),
    st.sampled_from(["", "[", "not json", "[1,2]", "[[NaN, 0], [0, 1]]"]),
)
INT_LISTS = st.lists(st.integers(-1, 6), max_size=4).map(
    lambda xs: ",".join(map(str, xs))
)
TOLS = st.sampled_from(["0", "-1", "1e-12", "1e-3", "0.5", "nan", "inf"])
TEXT_FORMATS = st.sampled_from(["json", "text"])

# Per subcommand: flag -> values; None leaves an optional flag out.  Values
# are kept small so each run stays cheap.
GRAMMAR = {
    "spectrum": {"matrix": MATRICES, "format": st.none() | TEXT_FORMATS},
    "compare": {
        "a": SPECTRA,
        "b": SPECTRA,
        "tol": st.none() | TOLS,
        "format": st.none() | TEXT_FORMATS,
    },
    "strong": {
        "a": SPECTRA,
        "b": SPECTRA,
        "m-max": st.none() | st.integers(-1, 4),
        "catalyst-dim": st.none() | st.integers(0, 4),
        "grid": st.none() | st.integers(-1, 30),
        "format": st.none() | TEXT_FORMATS,
    },
    "power": {
        "a": SPECTRA,
        "m": st.integers(-1, 4),
        "format": st.none() | TEXT_FORMATS,
    },
    "catalyze": {
        "a": SPECTRA,
        "b": SPECTRA,
        "c": SPECTRA,
        "format": st.none() | TEXT_FORMATS,
    },
    "construct complete": {
        "base": SPECTRA,
        "m": st.integers(-1, 4),
        "format": st.none() | TEXT_FORMATS,
    },
    "construct truncate": {
        "a": SPECTRA,
        "b": SPECTRA,
        "m": st.integers(-1, 4),
        "format": st.none() | TEXT_FORMATS,
    },
    "construct audit": {
        "a": SPECTRA,
        "b": SPECTRA,
        "m-list": INT_LISTS,
        "format": st.none() | st.sampled_from(["json", "csv", "text"]),
    },
    "sweep": {
        "dims": INT_LISTS,
        "samples": st.integers(-1, 20),
        "seed": st.integers(-2, 50),
        "format": st.none() | st.sampled_from(["json", "csv"]),
    },
}


def _command_argv(command, flags, spaced):
    """`command`, then each flag given a value: `--flag value` when `spaced`,
    the table's spelling, else `--flag=value`, argparse's alone.  A value
    that starts with `-` always takes `=`, so it never reads as a flag."""
    argv = command.split()
    for flag, value in flags.items():
        if value is None:
            continue
        value = str(value)
        if spaced and not value.startswith("-"):
            argv += [f"--{flag}", value]
        else:
            argv.append(f"--{flag}={value}")
    return argv


def _flags(command):
    """(flags, spaced) drawn for `command`."""
    return st.tuples(st.fixed_dictionaries(GRAMMAR[command]), st.booleans())


def _argv(command):
    return _flags(command).map(lambda f: _command_argv(command, *f))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(sorted(GRAMMAR)).flatmap(_argv))
def test_grammar_fuzz_exits_cleanly_and_reruns_byte_identically(argv):
    first = invoke(*argv)
    assert first[0] in (0, 2, 3)
    assert "Traceback" not in first[2]
    assert invoke(*argv) == first


# Argv that argparse must refuse, made from a valid draw for the command.
_OPTIONAL_FLAGS = {"format", "tol", "m-max", "catalyst-dim", "grid"}
_COUNT_FLAGS = {"m", "m-max", "catalyst-dim", "grid", "samples", "seed"}


def _malformed_argv(command):
    flags = _flags(command)
    required = [flag for flag in GRAMMAR[command] if flag not in _OPTIONAL_FLAGS]
    counts = [flag for flag in GRAMMAR[command] if flag in _COUNT_FLAGS]
    kinds = [
        # unknown subcommand
        flags.map(
            lambda f: ["no-such-command"] + _command_argv(command, *f)[len(command.split()):]
        ),
        # a required flag left out
        st.tuples(flags, st.sampled_from(required)).map(
            lambda t: _command_argv(
                command, {k: v for k, v in t[0][0].items() if k != t[1]}, t[0][1]
            )
        ),
        # unknown flag
        flags.map(lambda f: _command_argv(command, *f) + ["--no-such-flag=1"]),
    ]
    if counts:  # a count that is not an integer
        kinds.append(
            st.tuples(flags, st.sampled_from(counts), st.sampled_from(["x", "1.5", ""]))
            .map(lambda t: _command_argv(command, {**t[0][0], t[1]: t[2]}, t[0][1]))
        )
    return st.one_of(kinds)


def _invocation(command):
    """(malformed, argv) for `command`."""
    return st.one_of(
        _argv(command).map(lambda argv: (False, argv)),
        _malformed_argv(command).map(lambda argv: (True, argv)),
    )


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(st.lists(st.sampled_from(sorted(GRAMMAR)).flatmap(_invocation), min_size=2, max_size=5))
def test_grammar_fuzz_usage_errors_leave_the_parser_as_it_was(invocations):
    def once(argv):
        # a SystemExit escaping run() keeps Hypothesis running for minutes;
        # returned as a result, it fails the assertions below
        try:
            return invoke(*argv)
        except SystemExit as exc:
            return f"SystemExit({exc.code})", "", ""

    results = [once(argv) for _, argv in invocations]
    for (malformed, _), (code, out, err) in zip(invocations, results):
        if malformed:
            assert (code, out) == (2, "")
            assert err.startswith("usage: ")
        else:
            assert code in (0, 2, 3)
        assert "Traceback" not in err
    assert [once(argv) for _, argv in invocations] == results


# Values that read as flags; argparse alone decides what they mean.
_FLAG_LIKE = st.sampled_from(["-x", "-1", "-0.5,1.5", "--", "-h", "--format", "--a"])
# Values that fail a flag's `type` or `choices`, or neither for a spectrum.
_BAD_VALUE = st.sampled_from(["x", "1.5", "", "yaml"])


@st.composite
def _parity_argv(draw):
    """(canonical, argv): a grammar draw with its flags in any order and in
    either spelling, then at most one mutation.  Canonical means spaced, with
    no value that starts with `-`, and mutated at most by a repeated flag or
    a leading `--config`."""
    command = draw(st.sampled_from(sorted(GRAMMAR)))
    values = draw(st.fixed_dictionaries(GRAMMAR[command]))
    pairs = draw(st.permutations(
        [(f"--{flag}", str(value)) for flag, value in values.items() if value is not None]
    ))
    words, spaced = command.split(), draw(st.booleans())
    mutation = draw(st.none() | st.sampled_from([
        "repeat", "leading config", "unknown", "dangling", "late config",
        "help", "command twice", "empty", "flag-like value", "left out",
        "bad value",
    ]))
    if mutation == "repeat":
        flag = draw(st.sampled_from(sorted(GRAMMAR[command])))
        value = draw(GRAMMAR[command][flag].filter(lambda v: v is not None))
        pairs.append((f"--{flag}", str(value)))
    elif mutation == "left out" and pairs:
        del pairs[draw(st.integers(0, len(pairs) - 1))]
    elif mutation in ("flag-like value", "bad value") and pairs:
        index = draw(st.integers(0, len(pairs) - 1))
        bad = _FLAG_LIKE if mutation == "flag-like value" else _BAD_VALUE
        pairs[index] = (pairs[index][0], draw(bad))
    tail = [part for flag, value in pairs
            for part in ((flag, value) if spaced else (f"{flag}={value}",))]
    if mutation == "unknown":
        tail += ["--no-such-flag", "1"]
    elif mutation == "dangling":
        tail.append("--" + draw(st.sampled_from(sorted(GRAMMAR[command]))))
    elif mutation == "late config":
        tail = ["--config", "entorder.cfg"] + tail
    elif mutation == "help":
        tail.insert(draw(st.integers(0, len(tail))), draw(st.sampled_from(["-h", "--help"])))
    elif mutation == "command twice":
        words = words + words[-1:]
    argv = [] if mutation == "empty" else words + tail
    if mutation == "leading config":
        argv = ["--config", "entorder.cfg"] + argv
    canonical = (
        spaced
        and mutation in (None, "repeat", "leading config")
        and not any(value.startswith("-") for _, value in pairs)
    )
    return canonical, argv


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(_parity_argv())
def test_the_table_gives_argparse_namespace_or_leaves_the_argv_to_it(case):
    canonical, argv = case
    got = cli._table_parse(argv)
    if got is None and not canonical:
        return  # argparse's alone; it is not called, since -h would print

    def entries(namespace):  # by repr, so that a nan value equals itself
        return {key: repr(value) for key, value in vars(namespace).items()}

    try:
        expected = entries(cli._parser().parse_args(argv))
    except (cli._UsageError, SystemExit) as exc:
        expected = repr(exc)
    assert got is None or entries(got) == expected
    # every canonical argv that argparse accepts is decided by the table
    assert got is not None or not isinstance(expected, dict)
