"""Scenario runner: `bnslab <command> --config <file> [--seed N]
[--threads N] [--out DIR]`.

Commands: norms, solve, expand, iterate, profiles, verify-estimates,
generate-field.  Configuration is INI-style key/value sections, every
value parsed once before any command runs; flags override config keys.
Exit codes: 0 success, 2 configuration error (found before the first
numerical step), 3 numerical failure (required convergence not reached).
"""

from __future__ import annotations

import argparse
import configparser
import difflib
import math
import os
import sys
from pathlib import Path

import numpy as np

from .errors import ConfigError, GridError, InversionError, ResolutionError
from .field import (SpectralField, dyadic_shift, random_band_limited, set_threads,
                    shell_bump, taylor_green_like)
from .grid import GridSpec
from .littlewood_paley import besov_norm, critical_index
from .paraproduct import (bilinear_kato_check, bony_reconstruction_defect,
                          heat_block_decay_rates,
                          heat_characterization_norm, product_estimate_check)
from .profiles import (ProfileSet, ScaleCore, evolve_decomposition,
                       extract_profiles, max_cross_term, pythagorean_gap,
                       scale_op, synthesize)
from .snapshots import read_field, write_field, write_manifest, write_trajectory
from .solver import SolverConfig, heat_trajectory, picard_solve, solve
from .spacetime import (chemin_lerner_norm, embedding_chain_check,
                        kato_interpolation_constant, kato_norm,
                        lebesgue_besov_norm, script_norm)
from .expansion import (_check_duhamel_order, duhamel_expand, expand_solution,
                        simple_iteration)

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="bnslab",
                                     description=__doc__.splitlines()[0])
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", required=True)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--threads", type=int, default=None)
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)

    threads = args.threads
    if threads is None:
        raw = os.environ.get("BNSLAB_THREADS", "") or "0"
        try:
            threads = int(raw)
        except ValueError:
            print(f"config error: BNSLAB_THREADS must be an integer, got {raw!r}",
                  file=sys.stderr)
            return 2
    set_threads(threads)

    ini = configparser.ConfigParser()
    try:
        config_text = Path(args.config).read_text()
        ini.read_string(config_text)
        cfg = _settings(ini)
    except (OSError, configparser.Error, ConfigError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    out_dir = Path(args.out or cfg["output"].get("dir", "bnslab-out"))
    seed = args.seed if args.seed is not None else cfg["field"].get("seed", 0)
    try:
        extra = _HANDLERS[args.command](cfg, seed, out_dir)
    except (ConfigError, GridError, ResolutionError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (InversionError, ArithmeticError) as exc:
        _error_report(out_dir, str(exc))
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    if extra.pop("_numerical_failure", None):
        _error_report(out_dir, extra.get("classification", "diverged"))
        write_manifest(out_dir, args.command, config_text, seed, extra)
        return 3
    write_manifest(out_dir, args.command, config_text, seed, extra)
    return 0


def _error_report(out_dir: Path, message: str) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "error.csv").write_text(f"error\n{message}\n")


def _int_list(text: str) -> list[int]:
    return [int(v) for v in text.split()]


_FIELD_KEYS = {"path": str, "kind": str, "amplitude": float, "j_lo": int, "j_hi": int,
               "j": int}
# The keys each section is read for, each with the type its value is parsed as (bool as a
# configparser boolean); any other section or key is a config error.
_KEYS = {
    "grid": {"n_points": int, "period": float},
    "output": {"dir": str, "write_trajectory": bool},
    "field": _FIELD_KEYS | {"seed": int}, "profile1": _FIELD_KEYS, "profile2": _FIELD_KEYS,
    "solver": {"dt": float, "n_steps": int, "picard_tol": float, "max_picard_iters": int,
               "monitor_p": float, "require_convergence": bool},
    "norms": {"p": float, "q": float, "t_final": float, "n_steps": int},
    "iterate": {"j_steps": int}, "verify": {"n_fields": int},
    "expand": {"mode": str, "k": int, "n_terms": int, "p": float, "residual_tol": float},
    "profiles": {"m_sweep": _int_list, "sep_sweep": _int_list, "p": float,
                 "evolve": bool, "extract": bool, "threshold": float},
}


def _settings(ini: configparser.ConfigParser) -> dict[str, dict]:
    """{section: {key: value}} for every `_KEYS` section, each value the file sets parsed
    once as its key's type, after rejecting any other section or key (naming the nearest)."""
    if ini.has_option("solver", "dealias"):
        raise ConfigError("[solver] dealias is not a setting: products are "
                          "always dealiased")
    names = [(s, _KEYS, "section") for s in ini.sections()]
    names += [(k, _KEYS.get(s, ()), f"key in [{s}]")
              for s in ini.sections() for k in ini[s]]
    for name, known, what in names:
        if name not in known:
            near = difflib.get_close_matches(name, known, n=1)
            raise ConfigError(f"unknown {what}: {name!r}"
                              + (f"; did you mean {near[0]!r}?" if near else ""))
    cfg = {section: {} for section in _KEYS}
    for section in ini.sections():
        for key, text in ini[section].items():
            kind = _KEYS[section][key]
            try:
                cfg[section][key] = ini.getboolean(section, key) if kind is bool else kind(text)
            except ValueError as exc:
                raise ConfigError(f"[{section}] {key}: {exc}") from None
    return cfg


def _grid(cfg) -> GridSpec:
    if "n_points" not in cfg["grid"]:
        raise ConfigError("missing [grid] n_points")
    return GridSpec(n_points=cfg["grid"]["n_points"],
                    period=cfg["grid"].get("period", 2.0 * math.pi))


def _field(cfg, grid: GridSpec, seed: int, section: str = "field") -> SpectralField:
    if "path" in cfg[section]:
        path = cfg[section]["path"]
        u = read_field(path)
        if u.grid != grid:
            raise ConfigError(f"{path}: snapshot grid {u.grid} differs from the "
                              f"[grid] section's {grid}")
        defect = u.divergence_defect()
        if defect > 1e-10:
            raise ConfigError(f"{path}: the field is not divergence-free "
                              f"(defect {defect:.3g})")
        return u
    kind = cfg[section].get("kind", "random_bandlimited")
    amplitude = cfg[section].get("amplitude", 1.0)
    if not math.isfinite(amplitude):
        raise ConfigError(f"[{section}] amplitude must be finite, got {amplitude}")
    if kind == "random_bandlimited":
        return random_band_limited(
            grid, seed=seed,
            j_lo=cfg[section].get("j_lo", grid.j_min),
            j_hi=cfg[section].get("j_hi", max(grid.j_min, grid.j_max - 1)),
            amplitude=amplitude, solenoidal=True)
    if kind == "taylor_green_like":
        return taylor_green_like(grid, amplitude=amplitude, j=cfg[section].get("j", 1))
    if kind == "shell_bump":
        return shell_bump(grid, j=cfg[section].get("j", 1), seed=seed, amplitude=amplitude)
    raise ConfigError(f"unknown field kind {kind!r}")


def _solver_config(cfg) -> SolverConfig:
    return SolverConfig(
        dt=cfg["solver"].get("dt", 0.005),
        n_steps=cfg["solver"].get("n_steps", 32),
        picard_tol=cfg["solver"].get("picard_tol", 1e-8),
        max_picard_iters=cfg["solver"].get("max_picard_iters", 40),
    )


def _exponent(cfg, section: str, key: str, fallback: float, lo: float = 1.0) -> float:
    """The integrability exponent [section] key: finite and at least lo."""
    p = cfg[section].get(key, fallback)
    if not (math.isfinite(p) and p >= lo):
        raise ConfigError(f"[{section}] {key}={p} must be finite and >= {lo:g}")
    return p


def _write_report(out_dir: Path, text: str) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "report.csv").write_text(text + "\n")


# -- command handlers -----------------------------------------------------------

def _cmd_generate_field(cfg, seed, out_dir) -> dict:
    grid = _grid(cfg)
    u = _field(cfg, grid, seed)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_field(out_dir / "field.bnsf", u)
    return {"besov_s3_33": besov_norm(u, critical_index(3, 3)),
            "divergence_defect": u.divergence_defect()}


def _cmd_norms(cfg, seed, out_dir) -> dict:
    grid = _grid(cfg)
    u = _field(cfg, grid, seed)
    p = _exponent(cfg, "norms", "p", 3.0)
    q = _exponent(cfg, "norms", "q", 6.0)
    if q <= 3:
        raise ConfigError(f"[norms] q={q} must be > 3 for the Kato norms")
    t_final = cfg["norms"].get("t_final", 0.5)
    n_steps = cfg["norms"].get("n_steps", 32)
    if not (math.isfinite(t_final) and t_final > 0):
        raise ConfigError(f"[norms] t_final must be finite and positive, got {t_final}")
    if n_steps < 1:
        raise ConfigError(f"[norms] n_steps must be >= 1, got {n_steps}")
    times = np.linspace(0.0, t_final, n_steps + 1)
    traj = heat_trajectory(u, times)
    idx, kato_idx = critical_index(p, p), critical_index(q, q)
    rows = ["norm_kind,a,b,s,p,q,t1,t2,value",
            f"besov,,,{idx.s},{p},{p},0,0,{besov_norm(u, idx)}"]
    for kind, a, b, ix, value in (
        ("chemin_lerner", 1.0, "", idx, chemin_lerner_norm(traj, idx, 1.0)),
        ("chemin_lerner", math.inf, "", idx, chemin_lerner_norm(traj, idx, math.inf)),
        ("script", 1.0, math.inf, critical_index(p, math.inf),
         script_norm(traj, 1.0, math.inf, p, math.inf)),
        ("kato", "", "", kato_idx, kato_norm(traj, q)),
        ("kato1", "", "", kato_idx, kato_norm(traj, q, order=1)),
        ("lebesgue", 2.0, "", idx, lebesgue_besov_norm(traj, idx, 2.0)),
    ):
        cells = (kind, a, b, ix.s, ix.p, ix.q, 0.0, traj.t_final, value)
        rows.append(",".join(str(c) for c in cells))
    _write_report(out_dir, "\n".join(rows))
    return {"n_rows": len(rows) - 1}


def _cmd_solve(cfg, seed, out_dir) -> dict:
    grid = _grid(cfg)
    u0 = _field(cfg, grid, seed)
    scfg = _solver_config(cfg)
    p = _exponent(cfg, "solver", "monitor_p", 3.0)
    traj, report = picard_solve(u0, scfg, critical_index(p, p))
    _write_report(out_dir, report.rows())
    if cfg["output"].get("write_trajectory", False):
        write_trajectory(out_dir / "trajectory", traj)
    extra = {"classification": report.classification,
             "final_besov": float(report.besov_norms[-1])}
    required = cfg["solver"].get("require_convergence", True)
    if required and report.classification == "picard_diverged":
        extra["_numerical_failure"] = True
    return extra


def _cmd_expand(cfg, seed, out_dir) -> dict:
    grid = _grid(cfg)
    u0 = _field(cfg, grid, seed)
    scfg = _solver_config(cfg)
    mode = cfg["expand"].get("mode", "staged")
    tol = cfg["expand"].get("residual_tol", math.inf)
    if not tol >= 0:
        raise ConfigError(f"[expand] residual_tol must be >= 0, got {tol}")
    if mode == "staged":
        k = cfg["expand"].get("k", 2)
        if k < 0:
            raise ConfigError(f"[expand] k must be >= 0, got {k}")
        result = expand_solution(u0, k, scfg)
    elif mode == "duhamel":
        n_terms = cfg["expand"].get("n_terms", 2)
        p = _exponent(cfg, "expand", "p", 10.0)
        _check_duhamel_order(n_terms, p)
        traj, _, converged = solve(u0, scfg, p)
        if not converged:
            return {"_numerical_failure": True, "classification": "picard_diverged"}
        result = duhamel_expand(traj, u0, n_terms, p=p)
    else:
        raise ConfigError(f"unknown expand mode {mode!r}")
    _write_report(out_dir, result.manifest_rows())
    extra = {"residual": result.residual, "mode": mode}
    if result.residual > tol:
        extra["_numerical_failure"] = True
    return extra


def _cmd_iterate(cfg, seed, out_dir) -> dict:
    grid = _grid(cfg)
    u0 = _field(cfg, grid, seed)
    scfg = _solver_config(cfg)
    j_steps = cfg["iterate"].get("j_steps", 4)
    if j_steps < 1:
        raise ConfigError(f"[iterate] j_steps must be >= 1, got {j_steps}")
    traj, _, converged = solve(u0, scfg)
    if not converged:
        return {"_numerical_failure": True, "classification": "picard_diverged"}
    records = simple_iteration(traj, u0, j_steps)
    rows = ["j,defect,v_sup_l3,w_l3"]
    rows += [f"{r['j']},{r['defect']},{r['v_sup_l3']},{r['w_l3']}" for r in records]
    _write_report(out_dir, "\n".join(rows))
    return {"final_defect": records[-1]["defect"]}


def _cmd_profiles(cfg, seed, out_dir) -> dict:
    grid = _grid(cfg)
    phi1 = _field(cfg, grid, seed, section="profile1")
    phi2 = _field(cfg, grid, seed + 1, section="profile2")
    ms = cfg["profiles"].get("m_sweep", [-1, -2, -3])
    seps = cfg["profiles"].get("sep_sweep", [0] * len(ms))
    if len(seps) != len(ms):
        raise ConfigError("m_sweep and sep_sweep must have equal length")
    p = _exponent(cfg, "profiles", "p", 3.0, lo=2.0)  # the cross terms need 1 <= r < p
    threshold = cfg["profiles"].get("threshold", 0.02)
    if not 0 <= threshold < math.inf:
        raise ConfigError(f"[profiles] threshold must be finite and >= 0, got {threshold}")
    for m in ms:  # profile2 at scale 2^m is a strict dyadic shift by -m
        try:
            dyadic_shift(phi2, -m)
        except ResolutionError as exc:
            raise ConfigError(f"[profiles] m_sweep entry {m} leaves the grid: {exc}") from None
    idx = critical_index(p, p)
    scheds2 = tuple(ScaleCore(m, (s, s, s)) for m, s in zip(ms, seps))
    ps = ProfileSet(profiles=(phi1, phi2), schedules=((ScaleCore(0),) * len(ms), scheds2),
                    remainders=None)
    r_norms = [""] * len(ms)
    if cfg["profiles"].get("evolve", False):
        r_norms = [rec["r_norm"] for rec in evolve_decomposition(ps, _solver_config(cfg), p)]
    rows = ["n,J,epsilon,cross_term_max,r_norm"]
    for n, r_norm in enumerate(r_norms):
        eps = pythagorean_gap(ps, n, idx)
        cross = max_cross_term(phi1, scale_op(scheds2[n], phi2, p=p), int(p)) \
            if float(p).is_integer() else float("nan")
        rows.append(f"{n},2,{eps},{cross},{r_norm}")
    _write_report(out_dir, "\n".join(rows))
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "profileset.txt").write_text(ps.manifest_rows() + "\n")
    write_field(out_dir / "profile_0.bnsf", phi1)
    write_field(out_dir / "profile_1.bnsf", phi2)
    extra = {"n_indices": len(ms)}
    if cfg["profiles"].get("extract", False):
        seq = [synthesize(ps, n, 2, p=p) for n in range(len(ms))]
        rec = extract_profiles(seq, threshold=threshold, p=p)
        extra["extracted"] = rec.n_profiles()
        extra["extracted_norms"] = [besov_norm(f, idx) for f in rec.profiles]
    return extra


def _cmd_verify_estimates(cfg, seed, out_dir) -> dict:
    grid = _grid(cfg)
    n_fields = cfg["verify"].get("n_fields", 6)
    rows = ["check_id,s1,t1,p,p2,lhs,rhs,ratio"]
    rng_seeds = range(seed, seed + n_fields)
    j_hi = max(grid.j_min, grid.j_max - 1)
    for i, sd in enumerate(rng_seeds):
        f = random_band_limited(grid, seed=sd, j_lo=grid.j_min, j_hi=j_hi)
        g = random_band_limited(grid, seed=sd + 1000, j_lo=grid.j_min, j_hi=j_hi)
        rep = product_estimate_check(f, g, -0.5, 1.0, 4.0, 4.0)
        rows.append(f"prodT{i},-0.5,1.0,4,4,{rep['t_lhs']},{rep['rhs']},"
                    f"{rep['t_constant']}")
        if "r_constant" in rep:
            rows.append(f"prodR{i},-0.5,1.0,4,4,{rep['r_lhs']},{rep['rhs']},"
                        f"{rep['r_constant']}")
        rows.append(f"bony{i},,,,,{bony_reconstruction_defect(f, g)},1e-10,")
        idx6 = critical_index(6.0, math.inf)
        b6, heat6 = besov_norm(f, idx6), heat_characterization_norm(f, idx6)
        rows.append(f"heatchar{i},{idx6.s},,6,,{b6},,{b6 / heat6}")
        for j, fit, ref in heat_block_decay_rates(f):
            rows.append(f"heatdecay{i}_j{j},,,,,{fit},{ref},{fit / ref}")
    # space-time checks on one heat trajectory
    u = random_band_limited(grid, seed=seed, j_lo=grid.j_min, j_hi=j_hi)
    times = np.linspace(0.0, 0.25, 17)
    traj = heat_trajectory(u, times)
    chain = embedding_chain_check(traj, 1.0, 5.0, math.inf, critical_index(3, 5))
    for key, val in chain.items():
        rows.append(f"chain_{key},,,,,{val},,")
    c_interp = kato_interpolation_constant(traj, 6.0)
    rows.append(f"kato_interp,,,6,,{c_interp},,")
    kato_rep = bilinear_kato_check(traj, traj, 6.0, 6.0, 6.0)
    rows.append(f"kato_bilinear,,,6,6,{kato_rep['lhs']},"
                f"{kato_rep['factor'] * kato_rep['f_norm'] * kato_rep['g_norm']},"
                f"{kato_rep['constant']}")
    _write_report(out_dir, "\n".join(rows))
    return {"n_rows": len(rows) - 1}


_HANDLERS = {
    "norms": _cmd_norms,
    "solve": _cmd_solve,
    "expand": _cmd_expand,
    "iterate": _cmd_iterate,
    "profiles": _cmd_profiles,
    "verify-estimates": _cmd_verify_estimates,
    "generate-field": _cmd_generate_field,
}
COMMANDS = tuple(_HANDLERS)


if __name__ == "__main__":
    sys.exit(main())
