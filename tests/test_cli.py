import io
import json
import subprocess
import sys

import pytest

from entorder.cli import run


def invoke(*argv):
    out, err = io.StringIO(), io.StringIO()
    code = run(list(argv), out=out, err=err)
    return code, out.getvalue(), err.getvalue()


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
    ],
)
def test_out_of_range_search_bounds_are_input_errors(argv):
    code, out, err = invoke(*argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")
    assert "Traceback" not in err


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


def test_config_env_var(tmp_path, monkeypatch):
    cfg = tmp_path / "env.cfg"
    cfg.write_text("format = json\n")
    monkeypatch.setenv("ENTORDER_CONFIG", str(cfg))
    code, out, _ = invoke("compare", "--a", "0.5,0.5", "--b", "0.7,0.3")
    assert code == 0
    json.loads(out)


def test_config_rejects_unknown_key(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("tau_fancy = 1\n")
    code, _, err = invoke("--config", str(cfg), "compare", "--a", "1.0", "--b", "1.0")
    assert code == 2
    assert "unknown key" in err


def test_console_entry_point_subprocess():
    proc = subprocess.run(
        [
            sys.executable, "-m", "entorder.cli",
            "compare", "--a", "0.5,0.25,0.25", "--b", "0.4,0.4,0.2",
            "--format", "json",
        ],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["relation"] == "incomparable"
