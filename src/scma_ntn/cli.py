"""Command-line front end: assign, design, analyze, simulate, compare.

Settings come from an INI-style config file with one section per module
([system], [link], [analysis], [simulate], [design]); command-line flags
override file values.  A flag is named after its config key and sets that
key in every section that has it.  Flag and file values go through the same
parser, and the library types they land in check them.  Every
artifact-producing run writes a JSON manifest echoing the merged
configuration and seed, sufficient for replay.
"""

import argparse
import configparser
import json
import os
import platform
import sys
from pathlib import Path

import numpy as np
import scipy

from . import __version__
from .analysis import set_bep, snr_db_to_n0
from .codebook import CodebookFormatError, export_codebook_set, import_codebook_set
from .geometry import CellGeometry
from .layering import ConstellationOperator, SystemDims, assign_layers_and_power, validate_signature
from .optimizer import DesignSpace, GaConfig, run_ga
from .simulator import SimConfig, run_ber_sweep

EXIT_OK = 0
EXIT_USAGE = 2  # also an output path that cannot be created or written
EXIT_CONFIG = 3
EXIT_CODEBOOK = 4

_DEFAULTS = {
    "system": {"k_resources": 4, "j_users": 6, "m_order": 4, "n_nonzero": 2},
    "link": {"kappa": 10.0, "alpha": 3.0, "c1": 1.0},
    "analysis": {"snr_grid": "0,3,6,9,12,15,18", "truncation": 3},
    "simulate": {
        "snr_grid": "0,4,8,12,16",
        "max_symbols": 200000,
        "target_errors": 100,
        "detector": "mpa",
        "iterations": 8,
        "batch_size": 2048,
    },
    "design": {
        "population": 50,
        "generations": 20,
        "design_snr_db": 12.0,
        "truncation": 3,
    },
}


def _snr_grid(text) -> tuple:
    grid = tuple(float(t) for t in str(text).replace(" ", "").split(",") if t)
    if not grid:
        raise ValueError("no values")
    if not np.all(np.isfinite(grid)):
        raise ValueError(f"non-finite value in {text!r}")
    if list(grid) != sorted(grid):
        raise ValueError(f"values must ascend, got {text!r}")
    return grid


def _truncation(text):
    """E* as an int, or None (exact) for 'none'."""
    return None if str(text).strip().lower() == "none" else int(text)


# Each config key's parser, for file and flag text alike, and its flag's help.
_KEYS = {
    "k_resources": (int, None),
    "j_users": (int, None),
    "m_order": (int, None),
    "n_nonzero": (int, None),
    "kappa": (float, "Rician factor (linear)"),
    "alpha": (float, "path-loss exponent"),
    "c1": (float, "altitude/cell-radius ratio"),
    "snr_grid": (_snr_grid, "comma-separated dB values"),
    "truncation": (_truncation, "max users in error (E*), or none for exact"),
    "max_symbols": (int, None),
    "target_errors": (int, None),
    "detector": (str, "mpa or ml"),
    "iterations": (int, None),
    "batch_size": (int, None),
    "population": (int, None),
    "generations": (int, None),
    "design_snr_db": (float, None),
}


def _load_config(path, args) -> dict:
    """The defaults, overridden by the file at path (if any), then by the flags in args."""
    merged = {sec: dict(vals) for sec, vals in _DEFAULTS.items()}
    if path is not None:
        # No section name matches "", so a [DEFAULT] section is an unknown section like any other.
        parser = configparser.ConfigParser(interpolation=None, default_section="")
        try:
            read = parser.read(path, encoding="utf-8")
        except configparser.Error as exc:  # its message names the file, over several lines
            raise ValueError(" ".join(str(exc).split())) from exc
        except UnicodeDecodeError as exc:
            raise ValueError(f"{path}: not a text file (undecodable byte at offset {exc.start})") from exc
        if not read:
            raise ValueError(f"cannot read config file {path}")
        for sec in parser.sections():
            if sec not in merged:
                raise ValueError(f"unknown config section [{sec}]")
            for key, val in parser[sec].items():
                if key not in merged[sec]:
                    raise ValueError(f"unknown config key [{sec}] {key}")
                merged[sec][key] = val
    for vals in merged.values():
        for key in vals:
            if getattr(args, key, None) is not None:
                vals[key] = getattr(args, key)
    return merged


def _geometry(cfg) -> CellGeometry:
    return CellGeometry(radius_ratio_c1=cfg["link"]["c1"], pathloss_alpha=cfg["link"]["alpha"])


def _write_csv(path, header: str, rows, end: str) -> None:
    """The header line, then one line per row, each ending in end."""
    with open(path, "w", newline="") as fh:
        fh.write("".join(line + end for line in [header, *rows]))


def _write_json(path, payload) -> None:
    """payload as indented JSON, keys sorted so identical runs write identical files."""
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, default=str)
        fh.write("\n")


def _manifest(out: Path, command: str, args, cfg: dict, outputs) -> None:
    """The JSON run manifest: the command, seed, merged config, outputs and environment."""
    payload = {
        "command": command,
        "version": __version__,
        "seed": args.seed,
        "config": cfg,
        "outputs": [str(p) for p in outputs],
        "environment": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "cpu_count": os.cpu_count(),
        },
    }
    _write_json(out / f"{command}_manifest.json", payload)


def _cmd_assign(args, cfg, out: Path) -> int:
    dims = SystemDims(**cfg["system"])
    rhos = np.linspace(0.5, 1.0, dims.df_collisions)
    ops = tuple(ConstellationOperator(rho=float(r), theta=0.0) for r in rhos)
    sig = assign_layers_and_power(ops, dims)
    for row in sig.entries:
        print("  ".join(f"q{v}" if v else "." for v in row))
    report = validate_signature(sig)
    print(
        f"checks: row_balance={report.row_balance} group_orthogonality={report.group_orthogonality} "
        f"power_sorted={report.power_sorted} support_regular={report.support_regular}"
    )
    if args.out:
        _manifest(out, "assign", args, cfg, [])
    return EXIT_OK if report.ok else 1


def _cmd_design(args, cfg, out: Path) -> int:
    design = cfg["design"]
    ga_cfg = GaConfig(
        population=design["population"],
        generations=design["generations"],
        design_snr_db=design["design_snr_db"],
        kappa=cfg["link"]["kappa"],
        geometry=_geometry(cfg),
        truncation=design["truncation"],
        seed=args.seed,
        workers=args.threads,
    )
    result = run_ga(DesignSpace(dims=SystemDims(**cfg["system"])), ga_cfg)
    cb_path = out / "designed_codebook.txt"
    hist_path = out / "design_history.csv"
    export_codebook_set(result.codebooks, cb_path)
    _write_csv(hist_path, "generation,best_worst_bep", _history_rows(result.history), "\r\n")
    _manifest(out, "design", args, cfg, [cb_path, hist_path])
    print(
        f"designed worst-user BEP {result.best.fitness:.6g} at {ga_cfg.design_snr_db} dB "
        f"(delta={result.best.delta:.4f})"
    )
    print(f"wrote {cb_path} and {hist_path}")
    return EXIT_OK


def _history_rows(history) -> list:
    """The rows under generation,best_worst_bep: one per generation, counted from 1."""
    return [f"{g},{v:.12g}" for g, v in enumerate(history, 1)]


def _bep_rows(grid, table) -> list:
    """The rows under snr_db,user_rank,bep: one per (SNR point, user rank)."""
    return [f"{snr},{j + 1},{bep:.12g}" for snr, row in zip(grid, table, strict=True) for j, bep in enumerate(row)]


def _ber_rows(result) -> list:
    """The rows under snr_db,user_rank,bits,errors,ber,ber_avg,ber_worst: one per (SNR point, user rank)."""
    return [
        f"{snr},{j + 1},{int(result.bits[si, j])},{int(result.errors[si, j])},"
        f"{result.ber[si, j]:.12g},{result.ber_avg[si]:.12g},{result.ber_worst[si]:.12g}"
        for si, snr in enumerate(result.snr_db)
        for j in range(result.errors.shape[1])
    ]


def _analyze_one(cbs, cfg):
    """Per-user BEP bounds (SNR point, user rank) over the [analysis] grid."""
    geom, kappa, trunc = _geometry(cfg), cfg["link"]["kappa"], cfg["analysis"]["truncation"]
    rows = []
    for snr in cfg["analysis"]["snr_grid"]:
        n0 = snr_db_to_n0(snr, cbs.dims)
        rows.append(set_bep(cbs, geom, kappa, n0, truncation=trunc).per_user)
    return np.array(rows)


def _cmd_analyze(args, cfg, out: Path) -> int:
    cbs = import_codebook_set(args.codebook)
    table = _analyze_one(cbs, cfg)
    path = out / "bep.csv"
    _write_csv(path, "snr_db,user_rank,bep", _bep_rows(cfg["analysis"]["snr_grid"], table), "\r\n")
    _manifest(out, "analyze", args, cfg, [path])
    print(f"wrote {path}")
    return EXIT_OK


def _sim_config(args, cfg) -> SimConfig:
    sim = cfg["simulate"]
    return SimConfig(
        kappa=cfg["link"]["kappa"],
        geometry=_geometry(cfg),
        snr_grid_db=sim["snr_grid"],
        max_symbols=sim["max_symbols"],
        target_errors=sim["target_errors"],
        detector=sim["detector"],
        iterations=sim["iterations"],
        seed=args.seed,
        batch_size=sim["batch_size"],
        threads=args.threads,
    )


def _cmd_simulate(args, cfg, out: Path) -> int:
    cbs = import_codebook_set(args.codebook)
    sim_cfg = _sim_config(args, cfg)
    result = run_ber_sweep(sim_cfg, cbs)
    path = out / "ber.csv"
    _write_csv(path, "snr_db,user_rank,bits,errors,ber,ber_avg,ber_worst", _ber_rows(result), "\n")
    _manifest(out, "simulate", args, cfg, [path])
    print(f"wrote {path}")
    return EXIT_OK


def _snr_at_ber(snr_grid, worst_curve, target: float):
    """Log-linear interpolation of the SNR where the worst-user curve hits target, or None.

    Only neighbouring points of positive BER bound a crossing: beyond a point
    with no errors seen, the curve may reach target anywhere.
    """
    snr = np.asarray(snr_grid, dtype=float)
    logt = np.log10(target)
    for i in range(len(snr) - 1):
        if min(worst_curve[i], worst_curve[i + 1]) <= 0:
            continue
        lo, hi = np.log10(worst_curve[i]), np.log10(worst_curve[i + 1])
        if (lo - logt) * (hi - logt) <= 0 and lo != hi:
            return float(snr[i] + (snr[i + 1] - snr[i]) * (logt - lo) / (hi - lo))
    return None


def _compare_usage(paths):
    """Why compare cannot run on these --codebook files, or None."""
    if len(paths) < 2:
        return "compare needs at least two --codebook files"
    # Every output names a codebook by its file name, unquoted in CSV rows, so distinct
    # files under one name would merge, and a comma, quote or line break would split a row.
    files = {}
    for p in paths:
        files.setdefault(Path(p).name, set()).add(Path(p).resolve())
    for name in files:
        if any(c in name for c in ',"\r\n'):
            return f"compare writes file names into CSV rows; {name!r} holds a comma, quote or line break"
    shared = [name for name, found in files.items() if len(found) > 1]
    if shared:
        return f"compare names codebooks by file name; distinct files are named {', '.join(shared)}"
    return None


def _cmd_compare(args, cfg, out: Path) -> int:
    names = [Path(p).name for p in args.codebook]
    if not 0 < args.target_ber < 1:
        raise ValueError(f"target BER must be in (0, 1), got {args.target_ber:g}")
    sets = [import_codebook_set(p) for p in args.codebook]
    grid = cfg["analysis"]["snr_grid"]
    tables = [_analyze_one(cbs, cfg) for cbs in sets]
    bep_rows = [f"{name},{row}" for name, table in zip(names, tables) for row in _bep_rows(grid, table)]
    worst_curves = [table.max(axis=1) for table in tables]
    if args.run_simulation:
        sim_cfg = _sim_config(args, cfg)
        results = [run_ber_sweep(sim_cfg, cbs) for cbs in sets]
        ber_rows = [f"{name},{row}" for name, res in zip(names, results) for row in _ber_rows(res)]
        grid, worst_curves = cfg["simulate"]["snr_grid"], [res.ber_worst for res in results]
    ref = names[0]
    ref_snr = _snr_at_ber(grid, worst_curves[0], args.target_ber)
    gains = {}
    for name, curve in zip(names[1:], worst_curves[1:]):
        other_snr = _snr_at_ber(grid, curve, args.target_ber)
        gains[name] = None if ref_snr is None or other_snr is None else other_snr - ref_snr
        shown = "n/a" if gains[name] is None else f"{gains[name]:+.2f} dB"
        print(f"worst-user gain of {ref} over {name} at BER {args.target_ber:g}: {shown}")
    outputs = [out / "compare_bep.csv"]
    _write_csv(outputs[0], "codebook,snr_db,user_rank,bep", bep_rows, "\r\n")
    if args.run_simulation:
        outputs.append(out / "compare_ber.csv")
        _write_csv(outputs[-1], "codebook,snr_db,user_rank,bits,errors,ber,ber_avg,ber_worst", ber_rows, "\n")
    outputs.append(out / "compare_summary.json")
    _write_json(outputs[-1], {"reference": ref, "target_ber": args.target_ber, "gains_db": gains})
    _manifest(out, "compare", args, cfg, outputs)
    return EXIT_OK


_SYSTEM_KEYS = ("k_resources", "j_users", "m_order", "n_nonzero")

# Each subcommand: what runs it, its help, and the config keys it takes as
# flags besides the [link] keys and --threads, which every subcommand but assign takes.
_COMMANDS = {
    "assign": (_cmd_assign, "print and validate the signature matrix for dims", _SYSTEM_KEYS),
    "design": (
        _cmd_design,
        "run the GA and export the designed codebook",
        _SYSTEM_KEYS + ("population", "generations", "design_snr_db", "truncation"),
    ),
    "analyze": (_cmd_analyze, "analytical per-user BEP table for a codebook file", ("snr_grid", "truncation")),
    "simulate": (_cmd_simulate, "Monte Carlo BER sweep for a codebook file", ("snr_grid", "detector", "iterations")),
    "compare": (
        _cmd_compare,
        "analyze (and optionally simulate) several codebooks",
        ("snr_grid", "truncation", "detector", "iterations"),
    ),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="scma-ntn",
        description="Sparse-code multiple access codebook design and link-level evaluation.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, help_text, keys) in _COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        p.add_argument("--config", default=None, help="INI config file")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", default=None, help="output directory (default: cwd)")
        if command != "assign":  # assign reads no [link] key and runs no threads
            threads_help = "threads of the BER sweep, the calling one included (>= 1; no effect on design or analyze)"
            p.add_argument("--threads", type=int, default=1, help=threads_help)
            keys = tuple(_DEFAULTS["link"]) + keys
        if command in ("analyze", "simulate"):
            p.add_argument("--codebook", required=True, help="codebook interchange file")
        for key in keys:
            p.add_argument(f"--{key.replace('_', '-')}", dest=key, default=None, help=_KEYS[key][1])
    p_cmp = sub.choices["compare"]
    p_cmp.add_argument(
        "--codebook", required=True, action="append", help="codebook interchange file (repeat for several)"
    )
    p_cmp.add_argument("--run-simulation", action="store_true")
    p_cmp.add_argument("--target-ber", dest="target_ber", type=float, default=1e-4)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    usage = _compare_usage(args.codebook) if args.command == "compare" else None
    if usage:
        print(usage, file=sys.stderr)
        return EXIT_USAGE
    setting = ""  # the [section] key being parsed, named in its parse error
    try:
        cfg = _load_config(args.config, args)
        for sec, vals in cfg.items():
            for key, text in vals.items():
                setting = f"[{sec}] {key}: "
                vals[key] = _KEYS[key][0](text)
        setting = ""
        # Made before the command runs, so a bad --out fails before any work.
        out = Path(args.out or ".")
        out.mkdir(parents=True, exist_ok=True)
        return _COMMANDS[args.command][0](args, cfg, out)
    except CodebookFormatError as exc:
        print(f"codebook file error: {exc}", file=sys.stderr)
        return EXIT_CODEBOOK
    except OSError as exc:  # the importer turns its own into CodebookFormatError, so this is an output
        print(f"output error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ValueError as exc:
        print(f"config error: {setting}{exc}", file=sys.stderr)
        return EXIT_CONFIG
    except MemoryError as exc:  # settings such as --population whose arrays the host cannot hold
        print(f"config error: the settings need more memory than the host has ({exc})", file=sys.stderr)
        return EXIT_CONFIG


def app() -> None:
    sys.exit(main())


if __name__ == "__main__":
    app()
