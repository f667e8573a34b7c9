"""Command-line front end: assign, design, analyze, simulate, compare.

Settings come from an INI-style config file with one section per module
([system], [link], [analysis], [simulate], [design]); command-line flags
override file values.  Every artifact-producing run writes a JSON manifest
echoing the merged configuration and seed, sufficient for replay.
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
from .analysis import set_bep, snr_db_to_n0, write_bep_csv
from .codebook import CodebookFormatError, export_codebook_set, import_codebook_set
from .geometry import CellGeometry
from .layering import (
    ConstellationOperator,
    LayeringError,
    SystemDims,
    assign_layers_and_power,
    validate_signature,
)
from .optimizer import DesignSpace, GaConfig, run_ga
from .simulator import SimConfig, run_ber_sweep

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_CONFIG = 3
EXIT_CODEBOOK = 4

_DEFAULTS = {
    "system": {"k_resources": 4, "j_users": 6, "m_order": 4, "n_nonzero": 2},
    "link": {"kappa": 10.0, "alpha": 3.0, "c1": 1.0},
    "analysis": {"snr_grid": "0,3,6,9,12,15,18", "truncation": 3, "exact_bep": False},
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


class ConfigError(ValueError):
    pass


def _load_config(path) -> dict:
    merged = {sec: dict(vals) for sec, vals in _DEFAULTS.items()}
    if path is None:
        return merged
    parser = configparser.ConfigParser()
    read = parser.read(path)
    if not read:
        raise ConfigError(f"cannot read config file {path}")
    for sec in parser.sections():
        if sec not in merged:
            raise ConfigError(f"unknown config section [{sec}]")
        for key, val in parser[sec].items():
            if key not in merged[sec]:
                raise ConfigError(f"unknown config key [{sec}] {key}")
            merged[sec][key] = val
    return merged


def _parse_snr_grid(text) -> tuple:
    try:
        grid = tuple(float(t) for t in str(text).replace(" ", "").split(",") if t)
    except ValueError as exc:
        raise ConfigError(f"bad SNR grid {text!r}") from exc
    if not grid:
        raise ConfigError("empty SNR grid")
    if not np.all(np.isfinite(grid)):
        raise ConfigError(f"SNR grid {text!r} has a non-finite value")
    return grid


def _apply_overrides(cfg: dict, args) -> dict:
    link = cfg["link"]
    if args.kappa is not None:
        link["kappa"] = args.kappa
    if args.alpha is not None:
        link["alpha"] = args.alpha
    if args.c1 is not None:
        link["c1"] = args.c1
    if getattr(args, "snr_grid", None) is not None:
        cfg["analysis"]["snr_grid"] = args.snr_grid
        cfg["simulate"]["snr_grid"] = args.snr_grid
    if getattr(args, "truncation", None) is not None:
        cfg["analysis"]["truncation"] = args.truncation
        cfg["design"]["truncation"] = args.truncation
    if getattr(args, "exact_bep", False):
        cfg["analysis"]["exact_bep"] = True
    if getattr(args, "detector", None) is not None:
        cfg["simulate"]["detector"] = args.detector
    if getattr(args, "iterations", None) is not None:
        cfg["simulate"]["iterations"] = args.iterations
    for key in ("k_resources", "j_users", "m_order", "n_nonzero"):
        val = getattr(args, key, None)
        if val is not None:
            cfg["system"][key] = val
    for key in ("population", "generations", "design_snr_db"):
        val = getattr(args, key, None)
        if val is not None:
            cfg["design"][key] = val
    return cfg


def _dims(cfg) -> SystemDims:
    sysc = cfg["system"]
    try:
        return SystemDims(
            k_resources=int(sysc["k_resources"]),
            j_users=int(sysc["j_users"]),
            m_order=int(sysc["m_order"]),
            n_nonzero=int(sysc["n_nonzero"]),
        )
    except (ValueError, LayeringError) as exc:
        raise ConfigError(str(exc)) from exc


def _geometry(cfg) -> CellGeometry:
    link = cfg["link"]
    try:
        return CellGeometry(radius_ratio_c1=float(link["c1"]), pathloss_alpha=float(link["alpha"]))
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _kappa(cfg) -> float:
    try:
        kappa = float(cfg["link"]["kappa"])
    except ValueError as exc:
        raise ConfigError(f"bad kappa {cfg['link']['kappa']!r}") from exc
    if not (np.isfinite(kappa) and kappa >= 0):
        raise ConfigError(f"kappa must be finite and >= 0, got {kappa:g}")
    return kappa


def _truncation(value):
    """E* as int, or None (exact) for 'none'; must be >= 1."""
    if str(value).strip().lower() == "none":
        return None
    try:
        e_star = int(value)
    except ValueError as exc:
        raise ConfigError(f"bad truncation {value!r}") from exc
    if e_star < 1:
        raise ConfigError(f"truncation must be >= 1 or none, got {e_star}")
    return e_star


def _bool(v) -> bool:
    return v if isinstance(v, bool) else str(v).strip().lower() in ("1", "true", "yes", "on")


def _out_dir(args) -> Path:
    out = Path(args.out or ".")
    out.mkdir(parents=True, exist_ok=True)
    return out


def write_manifest(path, payload: dict) -> None:
    """JSON run manifest; keys sorted so identical runs write identical files."""
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, default=str)
        fh.write("\n")


def _manifest(out: Path, command: str, args, cfg: dict, outputs) -> None:
    write_manifest(
        out / f"{command}_manifest.json",
        {
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
        },
    )


def _cmd_assign(args, cfg) -> int:
    dims = _dims(cfg)
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
        out = _out_dir(args)
        _manifest(out, "assign", args, cfg, [])
    return EXIT_OK if report.ok else 1


def _cmd_design(args, cfg) -> int:
    dims = _dims(cfg)
    design = cfg["design"]
    try:
        ga_cfg = GaConfig(
            population=int(design["population"]),
            generations=int(design["generations"]),
            design_snr_db=float(design["design_snr_db"]),
            kappa=_kappa(cfg),
            geometry=_geometry(cfg),
            truncation=_truncation(design["truncation"]),
            seed=args.seed,
            workers=args.threads,
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    result = run_ga(DesignSpace(dims=dims), ga_cfg)
    out = _out_dir(args)
    cb_path = out / "designed_codebook.txt"
    hist_path = out / "design_history.csv"
    export_codebook_set(result.codebooks, cb_path)
    result.write_history_csv(hist_path)
    _manifest(out, "design", args, cfg, [cb_path, hist_path])
    print(
        f"designed worst-user BEP {result.best.fitness:.6g} at {ga_cfg.design_snr_db} dB "
        f"(delta={result.best.delta:.4f})"
    )
    print(f"wrote {cb_path} and {hist_path}")
    return EXIT_OK


def _load_codebooks(paths):
    sets = []
    for p in paths:
        try:
            sets.append(import_codebook_set(p))
        except (OSError, CodebookFormatError) as exc:
            raise CodebookFormatError(f"{p}: {exc}") from exc
    return sets


def _analyze_one(cbs, cfg, snr_grid, geom):
    kappa = _kappa(cfg)
    trunc = None if _bool(cfg["analysis"]["exact_bep"]) else _truncation(cfg["analysis"]["truncation"])
    rows = []
    for snr in snr_grid:
        n0 = snr_db_to_n0(snr, cbs.dims)
        try:
            rows.append(set_bep(cbs, geom, kappa, n0, truncation=trunc).per_user)
        except ValueError as exc:  # e.g. an exact bound too large for the graph
            raise ConfigError(str(exc)) from exc
    return np.array(rows)


def _cmd_analyze(args, cfg) -> int:
    cbs = _load_codebooks([args.codebook])[0]
    snr_grid = _parse_snr_grid(cfg["analysis"]["snr_grid"])
    table = _analyze_one(cbs, cfg, snr_grid, _geometry(cfg))
    out = _out_dir(args)
    path = out / "bep.csv"
    write_bep_csv(path, snr_grid, table)
    _manifest(out, "analyze", args, cfg, [path])
    print(f"wrote {path}")
    return EXIT_OK


def _sim_config(args, cfg, snr_grid) -> SimConfig:
    sim = cfg["simulate"]
    try:
        return SimConfig(
            kappa=_kappa(cfg),
            geometry=_geometry(cfg),
            snr_grid_db=snr_grid,
            max_symbols=int(sim["max_symbols"]),
            target_errors=int(sim["target_errors"]),
            detector=str(sim["detector"]),
            iterations=int(sim["iterations"]),
            seed=args.seed,
            batch_size=int(sim["batch_size"]),
            threads=args.threads,
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _cmd_simulate(args, cfg) -> int:
    cbs = _load_codebooks([args.codebook])[0]
    snr_grid = _parse_snr_grid(cfg["simulate"]["snr_grid"])
    sim_cfg = _sim_config(args, cfg, snr_grid)
    result = run_ber_sweep(sim_cfg, cbs)
    out = _out_dir(args)
    path = out / "ber.csv"
    result.write_csv(path)
    _manifest(out, "simulate", args, cfg, [path])
    print(f"wrote {path}")
    return EXIT_OK


def _snr_at_ber(snr_grid, worst_curve, target: float):
    """Log-linear interpolation of the SNR where the worst-user curve hits target."""
    snr = np.asarray(snr_grid, dtype=float)
    logc = np.log10(np.maximum(worst_curve, 1e-300))
    logt = np.log10(target)
    for i in range(len(snr) - 1):
        lo, hi = logc[i], logc[i + 1]
        if (lo - logt) * (hi - logt) <= 0 and lo != hi:
            return float(snr[i] + (snr[i + 1] - snr[i]) * (logt - lo) / (hi - lo))
    return None


def _cmd_compare(args, cfg) -> int:
    paths = args.codebook
    if len(paths) < 2:
        print("compare needs at least two --codebook files", file=sys.stderr)
        return EXIT_USAGE
    if not 0 < args.target_ber < 1:
        raise ConfigError(f"target BER must be in (0, 1), got {args.target_ber:g}")
    sets = _load_codebooks(paths)
    snr_grid = _parse_snr_grid(cfg["analysis"]["snr_grid"])
    geom = _geometry(cfg)
    out = _out_dir(args)
    outputs = []
    worst_curves = {}
    csv_path = out / "compare_bep.csv"
    with open(csv_path, "w") as fh:
        fh.write("codebook,snr_db,user_rank,bep\n")
        for p, cbs in zip(paths, sets):
            table = _analyze_one(cbs, cfg, snr_grid, geom)
            worst_curves[p] = table.max(axis=1)
            for si, snr in enumerate(snr_grid):
                for j in range(table.shape[1]):
                    fh.write(f"{Path(p).name},{snr},{j + 1},{table[si, j]:.12g}\n")
    outputs.append(csv_path)
    if args.run_simulation:
        sim_cfg = _sim_config(args, cfg, _parse_snr_grid(cfg["simulate"]["snr_grid"]))
        ber_path = out / "compare_ber.csv"
        with open(ber_path, "w") as fh:
            fh.write("codebook,snr_db,user_rank,bits,errors,ber,ber_avg,ber_worst\n")
            for p, cbs in zip(paths, sets):
                res = run_ber_sweep(sim_cfg, cbs)
                worst_curves[p] = res.ber_worst
                for si, snr in enumerate(res.snr_db):
                    for j in range(res.errors.shape[1]):
                        fh.write(
                            f"{Path(p).name},{snr},{j + 1},{int(res.bits[si, j])},"
                            f"{int(res.errors[si, j])},{res.ber[si, j]:.12g},"
                            f"{res.ber_avg[si]:.12g},{res.ber_worst[si]:.12g}\n"
                        )
        outputs.append(ber_path)
    ref = paths[0]
    grid = _parse_snr_grid(cfg["simulate"]["snr_grid"]) if args.run_simulation else snr_grid
    ref_snr = _snr_at_ber(grid, worst_curves[ref], args.target_ber)
    gains = {}
    for p in paths[1:]:
        other_snr = _snr_at_ber(grid, worst_curves[p], args.target_ber)
        gains[Path(p).name] = (
            None if ref_snr is None or other_snr is None else other_snr - ref_snr
        )
        shown = "n/a" if gains[Path(p).name] is None else f"{gains[Path(p).name]:+.2f} dB"
        print(f"worst-user gain of {Path(ref).name} over {Path(p).name} at BER {args.target_ber:g}: {shown}")
    summary = out / "compare_summary.json"
    with open(summary, "w") as fh:
        json.dump({"reference": Path(ref).name, "target_ber": args.target_ber, "gains_db": gains}, fh, indent=2)
        fh.write("\n")
    outputs.append(summary)
    _manifest(out, "compare", args, cfg, outputs)
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="scma-ntn",
        description="Sparse-code multiple access codebook design and link-level evaluation.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, codebook=False, many=False):
        p.add_argument("--config", default=None, help="INI config file")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", default=None, help="output directory (default: cwd)")
        p.add_argument("--threads", type=int, default=1)
        p.add_argument("--kappa", type=float, default=None, help="Rician factor (linear)")
        p.add_argument("--alpha", type=float, default=None, help="path-loss exponent")
        p.add_argument("--c1", type=float, default=None, help="altitude/cell-radius ratio")
        if codebook:
            p.add_argument(
                "--codebook",
                required=True,
                action="append" if many else "store",
                help="codebook interchange file" + (" (repeat for several)" if many else ""),
            )

    p_assign = sub.add_parser("assign", help="print and validate the signature matrix for dims")
    common(p_assign)
    for key in ("k_resources", "j_users", "m_order", "n_nonzero"):
        p_assign.add_argument(f"--{key.replace('_', '-')}", dest=key, type=int, default=None)

    p_design = sub.add_parser("design", help="run the GA and export the designed codebook")
    common(p_design)
    for key in ("k_resources", "j_users", "m_order", "n_nonzero"):
        p_design.add_argument(f"--{key.replace('_', '-')}", dest=key, type=int, default=None)
    p_design.add_argument("--population", type=int, default=None)
    p_design.add_argument("--generations", type=int, default=None)
    p_design.add_argument("--design-snr-db", dest="design_snr_db", type=float, default=None)
    p_design.add_argument("--truncation", default=None, help="max users in error (E*), or none for exact")

    p_analyze = sub.add_parser("analyze", help="analytical per-user BEP table for a codebook file")
    common(p_analyze, codebook=True)
    p_analyze.add_argument("--snr-grid", dest="snr_grid", default=None, help="comma-separated dB values")
    p_analyze.add_argument("--truncation", default=None, help="max users in error (E*), or none for exact")
    p_analyze.add_argument("--exact-bep", dest="exact_bep", action="store_true")

    p_sim = sub.add_parser("simulate", help="Monte Carlo BER sweep for a codebook file")
    common(p_sim, codebook=True)
    p_sim.add_argument("--snr-grid", dest="snr_grid", default=None)
    p_sim.add_argument("--detector", choices=("mpa", "ml"), default=None)
    p_sim.add_argument("--iterations", type=int, default=None)

    p_cmp = sub.add_parser("compare", help="analyze (and optionally simulate) several codebooks")
    common(p_cmp, codebook=True, many=True)
    p_cmp.add_argument("--snr-grid", dest="snr_grid", default=None)
    p_cmp.add_argument("--truncation", default=None, help="max users in error (E*), or none for exact")
    p_cmp.add_argument("--exact-bep", dest="exact_bep", action="store_true")
    p_cmp.add_argument("--run-simulation", action="store_true")
    p_cmp.add_argument("--detector", choices=("mpa", "ml"), default=None)
    p_cmp.add_argument("--iterations", type=int, default=None)
    p_cmp.add_argument("--target-ber", dest="target_ber", type=float, default=1e-4)
    return parser


_COMMANDS = {
    "assign": _cmd_assign,
    "design": _cmd_design,
    "analyze": _cmd_analyze,
    "simulate": _cmd_simulate,
    "compare": _cmd_compare,
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _apply_overrides(_load_config(args.config), args)
        return _COMMANDS[args.command](args, cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (CodebookFormatError, OSError) as exc:
        print(f"codebook file error: {exc}", file=sys.stderr)
        return EXIT_CODEBOOK
    except LayeringError as exc:
        print(f"layering error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


def app() -> None:
    sys.exit(main())


if __name__ == "__main__":
    app()
