"""Scenario runner: `bnslab <command> --config <file> [--seed N]
[--threads N] [--out DIR]`.

Commands: norms, solve, expand, iterate, profiles, verify-estimates,
generate-field.  Configuration is INI-style key/value sections; flags
override config keys.  Exit codes: 0 success, 2 configuration error,
3 numerical failure (required convergence not reached).
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
from .field import (SpectralField, random_band_limited, set_threads,
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
from .solver import SolverConfig, heat_trajectory, bilinear_B, picard_solve, solve
from .spacetime import (REPORT_HEADER, SpaceTimeNormSpec,
                        embedding_chain_check, kato_interpolation_constant,
                        report_row)
from .expansion import duhamel_expand, expand_solution, simple_iteration

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

    try:
        config_text = Path(args.config).read_text()
    except OSError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    cfg = configparser.ConfigParser()
    try:
        cfg.read_string(config_text)
    except configparser.Error as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    out_dir = Path(args.out or cfg.get("output", "dir", fallback="bnslab-out"))
    handler = _HANDLERS[args.command]
    try:
        _check_keys(cfg)
        seed = args.seed if args.seed is not None else cfg.getint(
            "field", "seed", fallback=0)
        extra = handler(cfg, seed, out_dir)
    except (ConfigError, GridError, ResolutionError, ValueError,
            configparser.Error) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (InversionError, FloatingPointError) as exc:
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


_FIELD_KEYS = {"path", "kind", "amplitude", "j_lo", "j_hi", "j"}
# The keys each section is read for; any other section or key is a config error.
_KEYS = {
    "grid": {"n_points", "period"}, "output": {"dir", "write_trajectory"},
    "field": _FIELD_KEYS | {"seed"}, "profile1": _FIELD_KEYS, "profile2": _FIELD_KEYS,
    "solver": {"dt", "n_steps", "picard_tol", "max_picard_iters", "monitor_p",
               "require_convergence"},
    "norms": {"p", "q", "t_final", "n_steps"}, "iterate": {"j_steps"},
    "expand": {"mode", "k", "n_terms", "p", "residual_tol"}, "verify": {"n_fields"},
    "profiles": {"m_sweep", "sep_sweep", "p", "evolve", "extract", "threshold"},
}


def _check_keys(cfg) -> None:
    """Reject any section or key outside `_KEYS`, naming the nearest known one."""
    if cfg.has_option("solver", "dealias"):
        raise ConfigError("[solver] dealias is not a setting: products are "
                          "always dealiased")
    names = [(s, _KEYS, "section") for s in cfg.sections()]
    names += [(k, _KEYS.get(s, ()), f"key in [{s}]")
              for s in cfg.sections() for k in cfg[s]]
    for name, known, what in names:
        if name not in known:
            near = difflib.get_close_matches(name, known, n=1)
            raise ConfigError(f"unknown {what}: {name!r}"
                              + (f"; did you mean {near[0]!r}?" if near else ""))


def _grid(cfg) -> GridSpec:
    if not cfg.has_section("grid"):
        raise ConfigError("missing [grid] section")
    return GridSpec(
        n_points=cfg.getint("grid", "n_points"),
        period=cfg.getfloat("grid", "period", fallback=2.0 * math.pi),
    )


def _field(cfg, grid: GridSpec, seed: int, section: str = "field") -> SpectralField:
    if cfg.has_option(section, "path"):
        path = cfg.get(section, "path")
        u = read_field(path)
        defect = u.divergence_defect()
        if defect > 1e-10:
            raise ConfigError(f"{path}: the field is not divergence-free "
                              f"(defect {defect:.3g})")
        return u
    kind = cfg.get(section, "kind", fallback="random_bandlimited")
    amplitude = cfg.getfloat(section, "amplitude", fallback=1.0)
    if not math.isfinite(amplitude):
        raise ConfigError(f"[{section}] amplitude must be finite, got {amplitude}")
    if kind == "random_bandlimited":
        return random_band_limited(
            grid, seed=seed,
            j_lo=cfg.getint(section, "j_lo", fallback=grid.j_min),
            j_hi=cfg.getint(section, "j_hi", fallback=max(grid.j_min, grid.j_max - 1)),
            amplitude=amplitude, solenoidal=True)
    if kind == "taylor_green_like":
        return taylor_green_like(grid, amplitude=amplitude,
                                 j=cfg.getint(section, "j", fallback=1))
    if kind == "shell_bump":
        return shell_bump(grid, j=cfg.getint(section, "j", fallback=1),
                          seed=seed, amplitude=amplitude)
    raise ConfigError(f"unknown field kind {kind!r}")


def _solver_config(cfg) -> SolverConfig:
    return SolverConfig(
        dt=cfg.getfloat("solver", "dt", fallback=0.005),
        n_steps=cfg.getint("solver", "n_steps", fallback=32),
        picard_tol=cfg.getfloat("solver", "picard_tol", fallback=1e-8),
        max_picard_iters=cfg.getint("solver", "max_picard_iters", fallback=40),
    )


def _exponent(cfg, section: str, key: str, fallback: float) -> float:
    """The integrability exponent [section] key: finite and at least 1."""
    p = cfg.getfloat(section, key, fallback=fallback)
    if not (math.isfinite(p) and p >= 1):
        raise ConfigError(f"[{section}] {key}={p} must be finite and >= 1")
    return p


def _write_report(out_dir: Path, text: str, name: str = "report.csv") -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / name).write_text(text + "\n")


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
    t_final = cfg.getfloat("norms", "t_final", fallback=0.5)
    n_steps = cfg.getint("norms", "n_steps", fallback=32)
    if not (math.isfinite(t_final) and t_final > 0):
        raise ConfigError(f"[norms] t_final must be finite and positive, got {t_final}")
    if n_steps < 1:
        raise ConfigError(f"[norms] n_steps must be >= 1, got {n_steps}")
    times = np.linspace(0.0, t_final, n_steps + 1)
    traj = heat_trajectory(u, times)
    idx = critical_index(p, p)
    rows = [REPORT_HEADER,
            f"besov,,,{idx.s},{p},{p},0,0,{besov_norm(u, idx)}"]
    for spec in (
        SpaceTimeNormSpec("chemin_lerner", idx, rho=1.0),
        SpaceTimeNormSpec("chemin_lerner", idx, rho=math.inf),
        SpaceTimeNormSpec("script", critical_index(p, math.inf), a=1.0, b=math.inf),
        SpaceTimeNormSpec("kato", critical_index(q, q)),
        SpaceTimeNormSpec("kato1", critical_index(q, q)),
        SpaceTimeNormSpec("lebesgue", idx, rho=2.0),
    ):
        rows.append(report_row(traj, spec))
    _write_report(out_dir, "\n".join(rows))
    return {"n_rows": len(rows) - 1}


def _cmd_solve(cfg, seed, out_dir) -> dict:
    grid = _grid(cfg)
    u0 = _field(cfg, grid, seed)
    scfg = _solver_config(cfg)
    p = _exponent(cfg, "solver", "monitor_p", 3.0)
    traj, report = picard_solve(u0, scfg, critical_index(p, p))
    _write_report(out_dir, report.rows())
    if cfg.getboolean("output", "write_trajectory", fallback=False):
        write_trajectory(out_dir / "trajectory", traj)
    extra = {"classification": report.classification,
             "final_besov": float(report.besov_norms[-1])}
    required = cfg.getboolean("solver", "require_convergence", fallback=True)
    if required and report.classification == "picard_diverged":
        extra["_numerical_failure"] = True
    return extra


def _cmd_expand(cfg, seed, out_dir) -> dict:
    grid = _grid(cfg)
    u0 = _field(cfg, grid, seed)
    scfg = _solver_config(cfg)
    mode = cfg.get("expand", "mode", fallback="staged")
    if mode == "staged":
        k = cfg.getint("expand", "k", fallback=2)
        result = expand_solution(u0, k, scfg)
    elif mode == "duhamel":
        n_terms = cfg.getint("expand", "n_terms", fallback=2)
        p = _exponent(cfg, "expand", "p", 10.0)
        traj, _, converged = solve(u0, scfg, p)
        if not converged:
            return {"_numerical_failure": True, "classification": "picard_diverged"}
        result = duhamel_expand(traj, u0, n_terms, p=p)
    else:
        raise ConfigError(f"unknown expand mode {mode!r}")
    _write_report(out_dir, result.manifest_rows())
    tol = cfg.getfloat("expand", "residual_tol", fallback=math.inf)
    extra = {"residual": result.residual, "mode": mode}
    if result.residual > tol:
        extra["_numerical_failure"] = True
    return extra


def _cmd_iterate(cfg, seed, out_dir) -> dict:
    grid = _grid(cfg)
    u0 = _field(cfg, grid, seed)
    scfg = _solver_config(cfg)
    traj, _, converged = solve(u0, scfg)
    if not converged:
        return {"_numerical_failure": True, "classification": "picard_diverged"}
    v0 = heat_trajectory(u0, traj.times)
    w0 = bilinear_B(traj, traj)
    j_steps = cfg.getint("iterate", "j_steps", fallback=4)
    records = simple_iteration(u0, v0, w0, j_steps)
    rows = ["j,defect,v_sup_l3,w_l3"]
    rows += [f"{r['j']},{r['defect']},{r['v_sup_l3']},{r['w_l3']}" for r in records]
    _write_report(out_dir, "\n".join(rows))
    return {"final_defect": records[-1]["defect"]}


def _cmd_profiles(cfg, seed, out_dir) -> dict:
    grid = _grid(cfg)
    phi1 = _field(cfg, grid, seed, section="profile1")
    phi2 = _field(cfg, grid, seed + 1, section="profile2")
    ms = [int(v) for v in cfg.get("profiles", "m_sweep", fallback="-1 -2 -3").split()]
    seps = [int(v) for v in cfg.get("profiles", "sep_sweep",
                                    fallback=" ".join("0" for _ in ms)).split()]
    if len(seps) != len(ms):
        raise ConfigError("m_sweep and sep_sweep must have equal length")
    p = _exponent(cfg, "profiles", "p", 3.0)
    idx = critical_index(p, p)
    scheds2 = tuple(ScaleCore(m, (s, s, s)) for m, s in zip(ms, seps))
    ps = ProfileSet(profiles=(phi1, phi2),
                    schedules=(tuple(ScaleCore(0) for _ in ms), scheds2),
                    remainders=None, complete=True)
    evolve = cfg.getboolean("profiles", "evolve", fallback=False)
    rows = ["n,J,epsilon,cross_term_max,r_norm"]
    for n in range(len(ms)):
        eps = pythagorean_gap(ps, n, idx, 2)
        cross = max_cross_term(phi1, scale_op(scheds2[n], phi2, p=p), int(p)) \
            if float(p).is_integer() else float("nan")
        r_norm = ""
        if evolve:
            rep = evolve_decomposition(ps, _solver_config(cfg), n, 2, p=p)
            r_norm = rep["r_norm"]
        rows.append(f"{n},2,{eps},{cross},{r_norm}")
    _write_report(out_dir, "\n".join(rows))
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "profileset.txt").write_text(ps.manifest_rows() + "\n")
    write_field(out_dir / "profile_0.bnsf", phi1)
    write_field(out_dir / "profile_1.bnsf", phi2)
    extra = {"n_indices": len(ms)}
    if cfg.getboolean("profiles", "extract", fallback=False):
        seq = [synthesize(ps, n, 2, p=p) for n in range(len(ms))]
        rec = extract_profiles(seq, threshold=cfg.getfloat(
            "profiles", "threshold", fallback=0.02), p=p)
        extra["extracted"] = rec.n_profiles()
        extra["extracted_norms"] = [besov_norm(f, idx) for f in rec.profiles]
    return extra


def _cmd_verify_estimates(cfg, seed, out_dir) -> dict:
    grid = _grid(cfg)
    n_fields = cfg.getint("verify", "n_fields", fallback=6)
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
        ratio = besov_norm(f, idx6) / heat_characterization_norm(f, idx6)
        rows.append(f"heatchar{i},{idx6.s},,6,,{besov_norm(f, idx6)},,{ratio}")
        for j, fit, ref in heat_block_decay_rates(f):
            rows.append(f"heatdecay{i}_j{j},,,,,{fit},{ref},{fit / ref}")
    # space-time checks on one heat trajectory
    u = random_band_limited(grid, seed=seed, j_lo=grid.j_min, j_hi=j_hi)
    times = np.linspace(0.0, 0.25, 17)
    traj = heat_trajectory(u, times)
    chain = embedding_chain_check(traj, 1.0, 5.0, math.inf, critical_index(3, 5))
    for key, val in chain.items():
        rows.append(f"chain_{key},,,,,{val},,")
    c_interp = kato_interpolation_constant(traj, 6.0, T=0.25)
    rows.append(f"kato_interp,,,6,,{c_interp},,")
    kato_rep = bilinear_kato_check(traj, traj, 6.0, 6.0, 6.0, T=0.25)
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
