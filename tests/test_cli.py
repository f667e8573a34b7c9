import contextlib
import csv
import io
import json
import os
import shutil
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scma_ntn import CodebookSet, assign_layers_and_power, cli, export_codebook_set, optimizer
from scma_ntn.cli import EXIT_CODEBOOK, EXIT_CONFIG, EXIT_OK, EXIT_USAGE, main

from conftest import make_codebook_set, make_oversized_set

# Stands for a file holding conftest.make_oversized_set(), too large for the exact bound and both detectors.
BIG = "<6x20 codebook>"

# Each bad value must end in exit 3 with a one-line message; None is no config file.
BAD_VALUES = {
    "design-population-1": (["design", "--population", "1"], None),
    "design-population-2": (["design", "--population", "2"], None),  # no room for a child beside the 2 elite
    "design-threads-0": (["design", "--threads", "0"], None),
    "design-nan-snr": (["design", "--population", "3", "--generations", "1", "--design-snr-db", "nan"], None),
    "simulate-threads-0": (["simulate", "--threads", "0"], None),
    "simulate-descending-grid": (["simulate", "--snr-grid", "12,8"], None),
    "simulate-negative-iterations": (["simulate", "--iterations", "-1"], None),
    "simulate-iterations-0": (["simulate", "--iterations", "0"], None),
    "compare-unsorted-grid": (["compare", "--snr-grid", "24,0,18,6,12"], None),
    "simulate-max-symbols-0": (["simulate"], "[simulate]\nmax_symbols = 0\n"),
    "simulate-batch-size-0": (["simulate"], "[simulate]\nbatch_size = 0\n"),
    "analyze-truncation-0": (["analyze", "--truncation", "0"], None),
    "analyze-truncation-word": (["analyze"], "[analysis]\ntruncation = several\n"),
    "analyze-truncation-flag-word": (["analyze", "--truncation", "abc"], None),
    "analyze-exact-bep-typo": (["analyze"], "[analysis]\nexact_bep = ture\n"),
    "analyze-negative-kappa": (["analyze", "--kappa", "-1"], None),
    "analyze-kappa-word": (["analyze"], "[link]\nkappa = strong\n"),
    "analyze-inf-kappa": (["analyze", "--kappa", "inf"], None),
    "analyze-nan-snr": (["analyze", "--snr-grid", "nan,3"], None),
    "analyze-nan-c1": (["analyze", "--c1", "nan"], None),
    "compare-target-ber-0": (["compare", "--target-ber", "0"], None),
    "analyze-exact-6x20": (["analyze", "--truncation", "none", "--codebook", BIG], None),
    "compare-exact-6x20": (["compare", "--truncation", "none", "--codebook", BIG, "--codebook", BIG], None),
    "simulate-ml-6x20": (["simulate", "--detector", "ml", "--codebook", BIG], None),
    "simulate-mpa-6x20": (["simulate", "--detector", "mpa", "--codebook", BIG], None),
    "design-negative-seed": (["design", "--seed", "-1"], None),
    "simulate-negative-seed": (["simulate", "--seed", "-1"], None),
    "config-no-section-header": (["analyze"], "truncation = 2\n"),
    "config-duplicate-key": (["design"], "[design]\npopulation = 4\npopulation = 6\n"),
    "config-duplicate-section": (["design"], "[design]\npopulation = 4\n[design]\ngenerations = 2\n"),
    "config-percent-sign": (["analyze"], "[analysis]\nsnr_grid = 5%\n"),
    "config-default-section": (["assign"], "[DEFAULT]\nkappa = 5\n"),
    "config-default-section-and-link": (["assign"], "[DEFAULT]\nkappa = 5\n[link]\n"),
    # SNRs whose noise level N0 = J / (K 10^(snr/10)) is 0 or infinite.
    "analyze-snr-4000": (["analyze", "--snr-grid", "4000"], None),
    "analyze-snr-minus-4000": (["analyze", "--snr-grid=-4000"], None),
    "simulate-snr-4000": (["simulate", "--snr-grid", "4000"], None),
    "design-snr-4000": (["design", "--population", "3", "--generations", "1", "--design-snr-db", "4000"], None),
    # Path losses (c1^2 + c2^2)^(alpha/2) that overflow at the cell edge.
    "analyze-alpha-5000": (["analyze", "--alpha", "5000"], None),
    "analyze-c1-1e200": (["analyze", "--c1", "1e200"], None),
    "simulate-alpha-5000": (["simulate", "--alpha", "5000"], None),
    "simulate-c1-1e200": (["simulate", "--c1", "1e200"], None),
    # Arrays of 10**15 rows, which no 64-bit host can map, so the test touches no memory.
    "design-population-1e15": (["design", "--population", str(10**15)], None),
    "simulate-batch-1e15": (["simulate"], f"[simulate]\nmax_symbols = {10**15}\nbatch_size = {10**15}\n"),
}

# What the message of each of these BAD_VALUES cases must say.
NAMED = {
    "design-population-2": "population must be an integer >= 3, got 2",
    "simulate-max-symbols-0": "max_symbols must be an integer >= 1, got 0",
    "simulate-batch-size-0": "batch_size must be an integer >= 1, got 0",
    "design-population-1e15": "more memory than the host has",
    "simulate-batch-1e15": "more memory than the host has",
    "simulate-mpa-6x20": "table entries per reception",
}


def assert_csv(data: bytes, header: str, rows: int, end: str):
    """data is the header line and then rows lines, each ending in end and holding no other line break."""
    lines = data.decode().split(end)
    assert lines[0] == header and lines[-1] == "" and len(lines) == 1 + rows + 1
    assert not any("\r" in line or "\n" in line for line in lines)


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


@pytest.mark.parametrize("flag", ["--kappa", "--alpha", "--c1", "--threads"])
def test_assign_takes_no_flag_it_does_not_read(flag, capsys):
    with pytest.raises(SystemExit) as err:
        main(["assign", flag, "-1"])
    assert err.value.code == EXIT_USAGE
    assert "unrecognized arguments" in capsys.readouterr().err


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
    # One line per generation; the benchmark's cli_ref46 reference pins this file's CRLF bytes.
    assert_csv((out_a / "design_history.csv").read_bytes(), "generation,best_worst_bep", 2, "\r\n")


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
    # bep.csv ends its lines in CRLF and ber.csv in LF; the cli_ref46 reference pins both files' bytes.
    bep = (out_a / "bep.csv").read_bytes()
    assert_csv(bep, "snr_db,user_rank,bep", 12, "\r\n")
    assert bep.split(b"\r\n")[1].startswith(b"6.0,1,")
    assert_csv((out_s / "ber.csv").read_bytes(), "snr_db,user_rank,bits,errors,ber,ber_avg,ber_worst", 12, "\n")
    manifest = json.loads((out_s / "simulate_manifest.json").read_text())
    assert manifest["config"]["simulate"]["max_symbols"] == 2000


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
    # Each codebook's rows are the bytes analyze writes to bep.csv, led by its name.
    want = b"codebook,snr_db,user_rank,bep\r\n"
    for i, book in enumerate((codebook_file, second_codebook_file)):
        argv = ["analyze", "--codebook", book, "--snr-grid", "8,14,20,26", "--out", str(tmp_path / str(i))]
        assert main(argv) == 0
        rows = (tmp_path / str(i) / "bep.csv").read_bytes().split(b"\r\n")[1:-1]
        want += b"".join(os.path.basename(book).encode() + b"," + row + b"\r\n" for row in rows)
    assert (out / "compare_bep.csv").read_bytes() == want


def test_compare_ber_rows_are_simulate_rows_by_name(tmp_path, codebook_file, second_codebook_file, capsys):
    cfg = tmp_path / "sim.ini"
    cfg.write_text("[simulate]\nmax_symbols = 2000\ntarget_errors = 20\nbatch_size = 1000\n")
    common = ["--snr-grid", "6,12", "--config", str(cfg), "--seed", "5"]
    books = [codebook_file, second_codebook_file]
    argv = ["compare", "--codebook", books[0], "--codebook", books[1], "--run-simulation"]
    assert main(argv + common + ["--out", str(tmp_path / "cmp")]) == 0
    header, *rows = (tmp_path / "cmp" / "compare_ber.csv").read_text().splitlines()
    want = []
    for i, book in enumerate(books):
        assert main(["simulate", "--codebook", book] + common + ["--out", str(tmp_path / str(i))]) == 0
        sim_header, *sim_rows = (tmp_path / str(i) / "ber.csv").read_text().splitlines()
        want += [f"{os.path.basename(book)},{row}" for row in sim_rows]
    assert header == "codebook," + sim_header
    assert rows == want and len(rows) == 2 * 2 * 6


def test_compare_rejects_distinct_files_with_one_name(tmp_path, codebook_file, second_codebook_file, capsys):
    argv = ["compare"]
    for folder, book in zip("abc", (codebook_file, second_codebook_file, codebook_file)):
        (tmp_path / folder).mkdir()
        argv += ["--codebook", str(shutil.copy(book, tmp_path / folder / "x.txt"))]
    assert main(argv + ["--out", str(tmp_path / "out")]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1 and "x.txt" in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()
    # File names go into CSV rows unquoted, so one that would split a row is refused.
    for name in ("a,b.txt", 'a"b.txt', "a\rb.txt", "a\nb.txt"):
        argv = ["compare", "--codebook", codebook_file, "--codebook", str(shutil.copy(codebook_file, tmp_path / name))]
        assert main(argv + ["--out", str(tmp_path / "out")]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1 and repr(name) in err and "Traceback" not in err
        assert not (tmp_path / "out").exists()


def test_snr_at_ber_interpolates_only_between_points_with_errors():
    # A point with no errors seen puts the crossing anywhere beyond the last point with errors.
    assert cli._snr_at_ber((12, 16, 20), np.array([1e-2, 1e-3, 0.0]), 1e-4) is None
    assert cli._snr_at_ber((12, 16, 20), np.array([1e-2, 1e-3, 1e-6]), 1e-4) == pytest.approx(16 + 4 / 3)


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


def test_binary_config_file_exit_code(tmp_path, capsys):
    path = tmp_path / "bad.ini"
    path.write_bytes(b"[design]\npopulation = \xff\xfe\x00\x9c\n")
    assert main(["assign", "--config", str(path)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1 and err.startswith("config error: ")
    assert "bad.ini: not a text file" in err and "Traceback" not in err


@pytest.mark.parametrize(
    "flag, section, value",
    [("population", "design", "abc"), ("kappa", "link", "strong"), ("truncation", "analysis", "several")],
)
def test_bad_value_reads_the_same_from_flag_and_file(flag, section, value, tmp_path, codebook_file, capsys):
    argv = ["design" if section == "design" else "analyze", "--out", str(tmp_path / "out")]
    if argv[0] == "analyze":
        argv += ["--codebook", codebook_file]
    cfg = tmp_path / "bad.ini"
    cfg.write_text(f"[{section}]\n{flag} = {value}\n")
    assert main(argv + [f"--{flag}", value]) == EXIT_CONFIG
    from_flag = capsys.readouterr().err
    assert main(argv + ["--config", str(cfg)]) == EXIT_CONFIG
    from_file = capsys.readouterr().err
    assert from_flag == from_file
    assert from_flag.startswith(f"config error: [{section}] {flag}: ") and value in from_flag


def test_unreadable_codebook_exit_code(tmp_path, capsys):
    assert main(["analyze", "--codebook", str(tmp_path / "missing.txt")]) == EXIT_CODEBOOK
    assert "codebook file error" in capsys.readouterr().err


def test_malformed_codebook_exit_code(tmp_path, capsys):
    path = tmp_path / "mangled.txt"
    path.write_text("format scma-codebook-set 1\ndims 4 6 4 2\ncodeword 1 2\n")
    assert main(["analyze", "--codebook", str(path)]) == EXIT_CODEBOOK


def test_codebook_missing_a_codeword_exit_code(tmp_path, codebook_file, capsys):
    with open(codebook_file) as fh:
        lines = fh.read().splitlines()
    path = tmp_path / "short.txt"
    path.write_text("\n".join(lines[:-1]) + "\n")
    assert main(["analyze", "--codebook", str(path), "--out", str(tmp_path / "out")]) == EXIT_CODEBOOK
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1 and "codebook 6 has 3 codewords" in err
    assert err.count("short.txt") == 1


def test_codebook_with_huge_dims_exit_code(tmp_path, capsys):
    # Its J x K x M array would take 58 TiB; the importer allocates only for the codewords it reads.
    path = tmp_path / "huge.txt"
    path.write_text("format scma-codebook-set 1\ndims 1000000 1000000 4 2\n")
    assert main(["analyze", "--codebook", str(path), "--out", str(tmp_path / "out")]) == EXIT_CODEBOOK
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1 and "codebook 1 missing" in err and "Traceback" not in err


@pytest.mark.parametrize("command", ["analyze", "simulate"])
def test_binary_codebook_exit_code(command, tmp_path, capsys):
    path = tmp_path / "codebook.bin"
    path.write_bytes(b"format scma-codebook-set 1\n\xff\xfe\x00\x9c")
    assert main([command, "--codebook", str(path), "--out", str(tmp_path / "out")]) == EXIT_CODEBOOK
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1 and "not a text file" in err
    assert err.count("codebook.bin") == 1


def test_infeasible_dims_exit_code(capsys):
    assert main(["assign", "--k-resources", "4", "--j-users", "5", "--n-nonzero", "2"]) == EXIT_CONFIG


def must_not_run(*args, **kwargs):
    raise AssertionError("the command ran before its output directory was made")


@pytest.mark.parametrize("under", [False, True], ids=["out-is-a-file", "out-under-a-file"])
@pytest.mark.parametrize("command", ["assign", "design", "analyze", "simulate", "compare"])
def test_bad_out_exits_2_before_the_command_runs(
    command, under, tmp_path, codebook_file, second_codebook_file, monkeypatch, capsys
):
    blocker = tmp_path / "afile"
    blocker.write_text("")
    argv = [command, "--out", str(blocker / "sub" if under else blocker)]
    books = {"analyze": [codebook_file], "simulate": [codebook_file], "compare": [codebook_file, second_codebook_file]}
    for book in books.get(command, []):
        argv += ["--codebook", book]
    for name in ("assign_layers_and_power", "run_ga", "set_bep", "run_ber_sweep", "import_codebook_set"):
        monkeypatch.setattr(cli, name, must_not_run)
    assert main(argv) == EXIT_USAGE
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1 and err.startswith("output error: ") and "Traceback" not in err


def test_unwritable_output_file_exits_2(tmp_path, codebook_file, capsys):
    (tmp_path / "bep.csv").mkdir()
    assert main(["analyze", "--codebook", codebook_file, "--snr-grid", "6", "--out", str(tmp_path)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1 and err.startswith("output error: ") and "bep.csv" in err


def test_design_on_dims_with_no_packing_builds_once(tmp_path, monkeypatch, capsys):
    # 4x8 with N = 2 asks for 8 layers of the C(4,2) = 6 patterns; the first candidate finds out.
    calls = []

    def counted(*args):
        calls.append(args)
        return assign_layers_and_power(*args)

    monkeypatch.setattr(optimizer, "assign_layers_and_power", counted)
    argv = ["design", "--k-resources", "4", "--j-users", "8", "--n-nonzero", "2"]
    assert main(argv + ["--population", "6", "--generations", "2", "--out", str(tmp_path)]) == EXIT_CONFIG
    assert len(calls) == 1
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1 and "J = 8 exceeds" in err


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
    assert NAMED.get(case, "") in err


def test_simulate_with_a_user_on_no_rn_exits_0(tmp_path, small_run_dir, capsys):
    # Zeroing user 2's codebook takes it off every RN; both detectors then decide 0 for it.
    cbs = make_codebook_set(1.5, (0.3, 0.6, 1.0), (0.0, np.pi / 3, 2 * np.pi / 3))
    books = cbs.codebooks.copy()
    books[2] = 0.0
    path = tmp_path / "zeroed.txt"
    export_codebook_set(CodebookSet(codebooks=books, dims=cbs.dims), path)
    argv = ["simulate", "--codebook", str(path), "--snr-grid", "10", "--config", str(small_run_dir / "small.ini")]
    for detector in ("mpa", "ml"):
        out = tmp_path / detector
        with pytest.warns(UserWarning, match="total power"):
            assert main(argv + ["--detector", detector, "--out", str(out)]) == EXIT_OK
        assert (out / "ber.csv").is_file()


def test_truncation_none_is_exact(tmp_path, reduced_cbs, capsys):
    path = tmp_path / "reduced.txt"
    export_codebook_set(reduced_cbs, path)
    cfg = tmp_path / "none.ini"
    cfg.write_text("[analysis]\ntruncation = none\n")
    common = ["analyze", "--codebook", str(path), "--snr-grid", "6,12"]
    runs = {
        "none": ["--config", str(cfg)],
        "none-flag": ["--truncation", "none"],
        "e-star-j": ["--truncation", "3"],  # E* = J, the exact bound on this 3-user set
        "one": ["--truncation", "1"],
    }
    for name, extra in runs.items():
        assert main(common + extra + ["--out", str(tmp_path / name)]) == 0
    tables = {name: (tmp_path / name / "bep.csv").read_bytes() for name in runs}
    assert tables["none"] == tables["e-star-j"]
    assert tables["none-flag"] == tables["e-star-j"]
    assert tables["none"] != tables["one"]


# Float setting texts beside the valid ones: huge, tiny, zero, negative, non-finite or no number.
ODD_FLOATS = ("4000", "-4000", "1e300", "-1e300", "0", "-1", "nan", "inf", "-inf", "strong")


def float_text(lo, hi):
    """A float setting as text: a valid value in [lo, hi] or an odd one."""
    return st.one_of(st.floats(lo, hi).map(repr), st.sampled_from(ODD_FLOATS))


@pytest.fixture(scope="module")
def small_run_dir(tmp_path_factory):
    """An output directory and a config that caps a simulation at 64 codewords per SNR point."""
    path = tmp_path_factory.mktemp("small_run")
    (path / "small.ini").write_text("[simulate]\nmax_symbols = 64\nbatch_size = 64\n")
    return path


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    command=st.sampled_from(["analyze", "simulate"]),
    kappa=float_text(0.0, 20.0),
    alpha=float_text(1.0, 6.0),
    c1=float_text(0.1, 10.0),
    snr_grid=st.lists(float_text(-10.0, 30.0), min_size=1, max_size=3).map(",".join),
    iterations=st.integers(1, 8),
    threads=st.integers(1, 2),
    detector=st.sampled_from(["mpa", "ml"]),
)
def test_float_settings_exit_0_or_3_with_one_line(
    small_run_dir, codebook_file, command, kappa, alpha, c1, snr_grid, iterations, threads, detector
):
    # The "--flag=value" form passes values such as "-1e300" through argparse verbatim.
    argv = [command, "--codebook", codebook_file, "--config", str(small_run_dir / "small.ini")]
    argv += ["--out", str(small_run_dir / "out"), f"--threads={threads}"]
    argv += [f"--kappa={kappa}", f"--alpha={alpha}", f"--c1={c1}", f"--snr-grid={snr_grid}"]
    if command == "simulate":
        argv += [f"--iterations={iterations}", f"--detector={detector}"]
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (EXIT_OK, EXIT_CONFIG), (argv, code, err.getvalue())
    if code == EXIT_CONFIG:
        assert len(err.getvalue().strip().splitlines()) == 1 and "Traceback" not in err.getvalue(), argv


# Valid texts of each config key, within caps that keep a run cheap: J <= 6, M <= 8,
# population <= 4, generations <= 1 and max_symbols <= 256.
VALID_TEXTS = {
    "k_resources": st.integers(1, 6).map(str),
    "j_users": st.integers(1, 6).map(str),
    "m_order": st.sampled_from(["2", "4", "8"]),
    "n_nonzero": st.integers(1, 4).map(str),
    "kappa": st.floats(0.0, 20.0).map(repr),
    "alpha": st.floats(1.0, 6.0).map(repr),
    "c1": st.floats(0.1, 10.0).map(repr),
    "snr_grid": st.lists(st.integers(-10, 30), min_size=1, max_size=3, unique=True).map(
        lambda grid: ",".join(map(str, sorted(grid)))
    ),
    "truncation": st.sampled_from(["1", "2", "3", "none"]),
    "max_symbols": st.integers(1, 256).map(str),
    "target_errors": st.integers(1, 200).map(str),
    "detector": st.sampled_from(["mpa", "ml"]),
    "iterations": st.integers(1, 8).map(str),
    "batch_size": st.integers(1, 256).map(str),
    "population": st.integers(3, 4).map(str),
    "generations": st.just("1"),
    "design_snr_db": st.floats(-10.0, 30.0).map(repr),
}
# Texts that are malformed, out of range or non-finite for a key; none raises a cap.
ODD_TEXTS = ("", "x", "1.5", "1,2", "0", "-1", "1e300", "-1e300", "nan", "inf", "-inf")
# Keys a section always sets, so that no default above the caps runs.
CAPPED = {"design": ("population", "generations"), "simulate": ("max_symbols",)}


@st.composite
def config_text(draw):
    """An INI text of every section of cli._DEFAULTS with valid values and at most one fault.

    The fault is an odd value, a duplicate section or key, an unknown section or a [DEFAULT] one.
    """
    assert set(VALID_TEXTS) == set(cli._KEYS)
    sections = []
    for sec, defaults in cli._DEFAULTS.items():
        keys = [key for key in defaults if key in CAPPED.get(sec, ()) or draw(st.booleans())]
        sections.append([f"[{sec}]"] + [f"{key} = {draw(VALID_TEXTS[key])}" for key in keys])
    sections = draw(st.permutations(sections))
    # About half the texts have no fault.
    faults = ["odd-value", "duplicate-section", "duplicate-key", "unknown-section", "DEFAULT"]
    fault = draw(st.sampled_from(["none"] * len(faults) + faults))
    lines = draw(st.sampled_from(sections))  # the section the fault falls in or beside
    if fault == "odd-value" and len(lines) > 1:
        at = draw(st.integers(1, len(lines) - 1))
        lines[at] = lines[at].split("=")[0] + "= " + draw(st.sampled_from(ODD_TEXTS))
    elif fault == "duplicate-section":
        sections.append([lines[0], "kappa = 5"])
    elif fault == "duplicate-key":
        lines += lines[1:2]
    elif fault in ("unknown-section", "DEFAULT"):
        header = "[extra]" if fault == "unknown-section" else "[DEFAULT]"
        sections.insert(draw(st.integers(0, len(sections))), [header, "kappa = 5"])
    return "".join(line + "\n" for lines in sections for line in lines)


@pytest.mark.filterwarnings("ignore::UserWarning", "ignore::RuntimeWarning")
@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(
    command=st.sampled_from(["assign", "analyze", "design", "simulate"]),
    text=config_text(),
    threads=st.integers(1, 2),
)
def test_config_texts_exit_0_2_3_or_4_with_one_line(small_run_dir, codebook_file, command, text, threads):
    path = small_run_dir / "drawn.ini"
    path.write_text(text)
    argv = [command, "--config", str(path), "--out", str(small_run_dir / "out")]
    if command != "assign":
        argv += ["--threads", str(threads)]
    if command in ("analyze", "simulate"):
        argv += ["--codebook", codebook_file]
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    assert code in (EXIT_OK, EXIT_USAGE, EXIT_CONFIG, EXIT_CODEBOOK), (argv, text, code, err.getvalue())
    if code != EXIT_OK:
        assert len(err.getvalue().strip().splitlines()) == 1 and "Traceback" not in err.getvalue(), (text, err)


# Values a mutation writes over or after a token of a codebook file.
ODD_TOKENS = ("nan", "inf", "0", "-1", "1e300")


def mutated_codebook_text(data, text: str) -> bytes:
    """text with one token dropped, repeated, replaced by or followed by an odd value, or one undecodable byte."""
    kind = data.draw(st.sampled_from(["drop", "repeat", "append", "replace", "byte"]))
    if kind == "byte":
        raw = text.encode()
        at = data.draw(st.integers(0, len(raw)))
        return raw[:at] + data.draw(st.sampled_from([b"\x80", b"\xc3", b"\xff"])) + raw[at:]
    lines = [ln.split() for ln in text.splitlines()]
    # The first 12 lines hold every kind of record, so they are drawn more often than codeword lines.
    row = lines[data.draw(st.one_of(st.integers(0, 11), st.integers(0, len(lines) - 1)))]
    at = data.draw(st.integers(0, len(row) - 1))
    if kind == "drop":
        del row[at]
    elif kind == "repeat":
        row.insert(at, row[at])
    elif kind == "append":
        row.append(data.draw(st.sampled_from(ODD_TOKENS)))
    else:
        row[at] = data.draw(st.sampled_from(ODD_TOKENS))
    return "".join(" ".join(r) + "\n" for r in lines).encode()


@pytest.mark.filterwarnings("ignore::UserWarning", "ignore::RuntimeWarning")
@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_mutated_codebook_files_exit_0_3_or_4_with_one_line(small_run_dir, codebook_file, data):
    # Every file analyze accepts also runs through a tiny simulate with each detector.
    path = small_run_dir / "mutated.txt"
    path.write_bytes(mutated_codebook_text(data, Path(codebook_file).read_text()))
    common = ["--codebook", str(path), "--out", str(small_run_dir / "out"), "--threads", "1"]
    sim = ["simulate", "--config", str(small_run_dir / "small.ini")]
    for argv in (["analyze"], sim + ["--detector", "mpa"], sim + ["--detector", "ml"]):
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main(argv + common)
        assert code in (EXIT_OK, EXIT_CONFIG, EXIT_CODEBOOK), (argv, code, err.getvalue())
        if code != EXIT_OK:
            assert len(err.getvalue().strip().splitlines()) == 1 and "Traceback" not in err.getvalue(), argv
            break
        if argv == ["analyze"]:  # an accepted file has a bound
            assert "nan" not in (small_run_dir / "out" / "bep.csv").read_text()
