import csv
import json

import numpy as np
import pytest

from scma_ntn import export_codebook_set
from scma_ntn.cli import EXIT_CODEBOOK, EXIT_CONFIG, main

from conftest import make_codebook_set, make_oversized_set

# Stands for a file holding conftest.make_oversized_set(), too large for the exact bound.
BIG = "<6x20 codebook>"

# Each bad value must end in exit 3 with a one-line message; None is no config file.
BAD_VALUES = {
    "design-population-1": (["design", "--population", "1"], None),
    "design-threads-0": (["design", "--threads", "0"], None),
    "design-nan-snr": (["design", "--population", "3", "--generations", "1", "--design-snr-db", "nan"], None),
    "simulate-threads-0": (["simulate", "--threads", "0"], None),
    "simulate-descending-grid": (["simulate", "--snr-grid", "12,8"], None),
    "simulate-negative-iterations": (["simulate", "--iterations", "-1"], None),
    "simulate-max-symbols-0": (["simulate"], "[simulate]\nmax_symbols = 0\n"),
    "analyze-truncation-0": (["analyze", "--truncation", "0"], None),
    "analyze-truncation-word": (["analyze"], "[analysis]\ntruncation = several\n"),
    "analyze-truncation-flag-word": (["analyze", "--truncation", "abc"], None),
    "analyze-negative-kappa": (["analyze", "--kappa", "-1"], None),
    "analyze-kappa-word": (["analyze"], "[link]\nkappa = strong\n"),
    "analyze-inf-kappa": (["analyze", "--kappa", "inf"], None),
    "analyze-nan-snr": (["analyze", "--snr-grid", "nan,3"], None),
    "analyze-nan-c1": (["analyze", "--c1", "nan"], None),
    "compare-target-ber-0": (["compare", "--target-ber", "0"], None),
    "analyze-exact-6x20": (["analyze", "--exact-bep", "--codebook", BIG], None),
    "compare-exact-6x20": (["compare", "--exact-bep", "--codebook", BIG, "--codebook", BIG], None),
}


@pytest.fixture(scope="module")
def codebook_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cb") / "ref.txt"
    export_codebook_set(make_codebook_set(1.5, (0.3, 0.6, 1.0), (0.0, np.pi / 3, 2 * np.pi / 3)), path)
    return str(path)


@pytest.fixture(scope="module")
def big_codebook_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cb_big") / "big.txt"
    export_codebook_set(make_oversized_set(), path)
    return str(path)


@pytest.fixture(scope="module")
def second_codebook_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cb2") / "other.txt"
    export_codebook_set(make_codebook_set(2.0, (0.5, 0.7, 1.0), (0.2, 1.2, 2.2)), path)
    return str(path)


def test_assign_prints_signature_pattern(capsys):
    assert main(["assign", "--k-resources", "4", "--j-users", "6", "--n-nonzero", "2"]) == 0
    out = capsys.readouterr().out
    rows = [ln for ln in out.splitlines() if ln.strip().startswith(("q", "."))]
    assert len(rows) == 4
    for row in rows:
        cells = row.split()
        assert len(cells) == 6
        assert sorted(c for c in cells if c != ".") == ["q1", "q2", "q3"]
    assert "row_balance=True" in out


def test_design_is_reproducible(tmp_path, capsys):
    args = [
        "design",
        "--population", "6",
        "--generations", "2",
        "--truncation", "2",
        "--seed", "11",
    ]
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert main(args + ["--out", str(out_a)]) == 0
    assert main(args + ["--out", str(out_b)]) == 0
    cb_a = (out_a / "designed_codebook.txt").read_bytes()
    cb_b = (out_b / "designed_codebook.txt").read_bytes()
    assert cb_a == cb_b
    manifest = json.loads((out_a / "design_manifest.json").read_text())
    assert manifest["command"] == "design" and manifest["seed"] == 11
    assert set(manifest["environment"]) == {"python", "numpy", "scipy", "cpu_count"}
    assert (out_a / "design_history.csv").exists()


def test_analyze_and_simulate_share_keys(tmp_path, codebook_file, capsys):
    grid = "6,12"
    out_a = tmp_path / "analyze"
    out_s = tmp_path / "simulate"
    cfg = tmp_path / "sim.ini"
    cfg.write_text("[simulate]\nmax_symbols = 2000\ntarget_errors = 20\nbatch_size = 1000\n")
    assert main(["analyze", "--codebook", codebook_file, "--snr-grid", grid, "--out", str(out_a)]) == 0
    assert (
        main(
            [
                "simulate",
                "--codebook", codebook_file,
                "--snr-grid", grid,
                "--config", str(cfg),
                "--out", str(out_s),
            ]
        )
        == 0
    )
    with open(out_a / "bep.csv") as fh:
        bep_keys = {(row["snr_db"], row["user_rank"]) for row in csv.DictReader(fh)}
    with open(out_s / "ber.csv") as fh:
        ber_keys = {(row["snr_db"], row["user_rank"]) for row in csv.DictReader(fh)}
    assert bep_keys == ber_keys
    assert len(bep_keys) == 12
    manifest = json.loads((out_s / "simulate_manifest.json").read_text())
    assert manifest["config"]["simulate"]["max_symbols"] == "2000"


def test_compare_reports_gain(tmp_path, codebook_file, second_codebook_file, capsys):
    out = tmp_path / "cmp"
    rc = main(
        [
            "compare",
            "--codebook", codebook_file,
            "--codebook", second_codebook_file,
            "--snr-grid", "8,14,20,26",
            "--out", str(out),
        ]
    )
    assert rc == 0
    text = capsys.readouterr().out
    assert "worst-user gain" in text
    summary = json.loads((out / "compare_summary.json").read_text())
    assert "gains_db" in summary and len(summary["gains_db"]) == 1
    lines = (out / "compare_bep.csv").read_text().strip().splitlines()
    assert lines[0] == "codebook,snr_db,user_rank,bep"
    assert len(lines) == 1 + 2 * 4 * 6


def test_unknown_command_exits_with_usage_error():
    with pytest.raises(SystemExit) as err:
        main(["frobnicate"])
    assert err.value.code == 2


def test_invalid_config_exit_code(tmp_path, capsys):
    cfg = tmp_path / "bad.ini"
    cfg.write_text("[system]\nwarp_factor = 9\n")
    assert main(["assign", "--config", str(cfg)]) == EXIT_CONFIG
    assert "config error" in capsys.readouterr().err


def test_missing_config_file_exit_code(tmp_path, capsys):
    assert main(["assign", "--config", str(tmp_path / "nope.ini")]) == EXIT_CONFIG


def test_unreadable_codebook_exit_code(tmp_path, capsys):
    assert main(["analyze", "--codebook", str(tmp_path / "missing.txt")]) == EXIT_CODEBOOK
    assert "codebook file error" in capsys.readouterr().err


def test_malformed_codebook_exit_code(tmp_path, capsys):
    path = tmp_path / "mangled.txt"
    path.write_text("format scma-codebook-set 1\ndims 4 6 4 2\ncodeword 1 2\n")
    assert main(["analyze", "--codebook", str(path)]) == EXIT_CODEBOOK


def test_infeasible_dims_exit_code(capsys):
    assert main(["assign", "--k-resources", "4", "--j-users", "5", "--n-nonzero", "2"]) == EXIT_CONFIG


@pytest.mark.parametrize("case", sorted(BAD_VALUES))
def test_bad_value_exits_3_with_one_line(case, tmp_path, codebook_file, big_codebook_file, capsys):
    argv, ini = BAD_VALUES[case]
    argv = [big_codebook_file if a == BIG else a for a in argv] + ["--out", str(tmp_path / "out")]
    if argv[0] in ("analyze", "simulate", "compare") and "--codebook" not in argv:
        argv += ["--codebook", codebook_file] * (2 if argv[0] == "compare" else 1)
    if ini is not None:
        cfg = tmp_path / "bad.ini"
        cfg.write_text(ini)
        argv += ["--config", str(cfg)]
    assert main(argv) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1
    assert err.startswith("config error: ") and "Traceback" not in err


def test_truncation_none_is_exact(tmp_path, reduced_cbs, capsys):
    path = tmp_path / "reduced.txt"
    export_codebook_set(reduced_cbs, path)
    cfg = tmp_path / "none.ini"
    cfg.write_text("[analysis]\ntruncation = none\n")
    common = ["analyze", "--codebook", str(path), "--snr-grid", "6,12"]
    runs = {
        "none": ["--config", str(cfg)],
        "none-flag": ["--truncation", "none"],
        "exact": ["--exact-bep"],
        "one": ["--truncation", "1"],
    }
    for name, extra in runs.items():
        assert main(common + extra + ["--out", str(tmp_path / name)]) == 0
    tables = {name: (tmp_path / name / "bep.csv").read_bytes() for name in runs}
    assert tables["none"] == tables["exact"]
    assert tables["none-flag"] == tables["exact"]
    assert tables["none"] != tables["one"]
