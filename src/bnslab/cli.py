"""Scenario runner: `bnslab <command> --config <file> [--seed N]
[--threads N] [--out DIR]`.

Commands: norms, solve, expand, iterate, profiles, verify-estimates,
generate-field.  Configuration is INI-style key/value sections; flags override
config keys.  Exit codes: 0 success, 2 configuration error (every key's type
and own range checked before any command runs, cross-key checks before the
first numerical step), 3 numerical failure (a required convergence not reached,
or a float overflow), which writes error.csv, naming the cause, and manifest.json.
"""

from __future__ import annotations

import argparse
import configparser
import difflib
import math
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
    parser = argparse.ArgumentParser(prog="bnslab", description=__doc__.splitlines()[0])
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", required=True)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--threads", type=int, default=0)
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)
    set_threads(args.threads)

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
    except (_Unconverged, InversionError, ArithmeticError) as exc:
        write_manifest(out_dir, args.command, config_text, seed, getattr(exc, "extra", None))
        (out_dir / "error.csv").write_text(f"error\n{exc}\n")
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    write_manifest(out_dir, args.command, config_text, seed, extra)
    return 0


class _Unconverged(RuntimeError):
    """A convergence the run requires was not reached; `extra` holds the manifest's fields."""

    def __init__(self, cause: str, extra: dict):
        super().__init__(cause)
        self.extra = extra


def _int_list(text: str) -> list[int]:
    return [int(v) for v in text.split()]


def _ranged(kind, ok, rule: str):
    """A key's parser: its text read as `kind`, rejected unless ok(value) as `rule` says."""
    def parse(text: str):
        value = kind(text)
        if not ok(value):
            raise ValueError(f"must be {rule}")
        return value
    return parse


_EXPONENT = _ranged(float, lambda p: 1 <= p < math.inf, "finite and >= 1")
_COUNT = _ranged(int, lambda n: n >= 1, ">= 1")
_FIELD_KINDS = ("random_bandlimited", "taylor_green_like", "shell_bump")
_FIELD_KEYS = {"path": str, "j_lo": int, "j_hi": int, "j": int,
               "kind": _ranged(str, lambda k: k in _FIELD_KINDS, " or ".join(_FIELD_KINDS)),
               "amplitude": _ranged(float, math.isfinite, "finite")}
# The keys each section is read for, each with its value's parser (bool: a configparser
# boolean), which rejects a value outside the key's own range; any other is a config error.
_KEYS = {
    "grid": {"n_points": int, "period": float},
    "output": {"dir": str, "write_trajectory": bool},
    "field": _FIELD_KEYS | {"seed": int}, "profile1": _FIELD_KEYS, "profile2": _FIELD_KEYS,
    "solver": {"dt": float, "n_steps": int, "picard_tol": float, "max_picard_iters": int,
               "monitor_p": _EXPONENT, "require_convergence": bool},
    "norms": {"p": _EXPONENT, "n_steps": _COUNT,
              "q": _ranged(float, lambda q: 3 < q < math.inf, "finite and > 3 (Kato norms)"),
              "t_final": _ranged(float, lambda t: 0 < t < math.inf, "finite and > 0")},
    "iterate": {"j_steps": _COUNT}, "verify": {"n_fields": _COUNT},
    "expand": {"mode": _ranged(str, lambda mode: mode in ("staged", "duhamel"),
                               "staged or duhamel"),
               "k": _ranged(int, lambda k: k >= 0, ">= 0"), "n_terms": int, "p": _EXPONENT,
               "residual_tol": _ranged(float, lambda t: t >= 0, ">= 0 (inf for no limit)")},
    "profiles": {"m_sweep": _ranged(_int_list, bool, "a non-empty list of integers"),
                 "sep_sweep": _int_list, "evolve": bool, "extract": bool,
                 "p": _ranged(float, lambda p: 2 <= p < math.inf,
                              "finite and >= 2 (the cross terms take 1 <= r < p)"),
                 "threshold": _ranged(float, lambda t: 0 <= t < math.inf, "finite and >= 0")},
}


def _settings(ini: configparser.ConfigParser) -> dict[str, dict]:
    """{section: {key: value}} for every `_KEYS` section, each value the file sets parsed
    once by its key's parser, after rejecting any other section or key (naming the nearest)."""
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
            parse = _KEYS[section][key]
            try:
                cfg[section][key] = ini.getboolean(section, key) if parse is bool else parse(text)
            except ValueError as exc:
                raise ConfigError(f"[{section}] {key}={text}: {exc}") from None
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
    try:
        if kind == "taylor_green_like":
            return taylor_green_like(grid, amplitude=amplitude, j=cfg[section].get("j", 1))
        if kind == "shell_bump":
            return shell_bump(grid, j=cfg[section].get("j", 1), seed=seed, amplitude=amplitude)
        return random_band_limited(
            grid, seed=seed,
            j_lo=cfg[section].get("j_lo", grid.j_min),
            j_hi=cfg[section].get("j_hi", max(grid.j_min, grid.j_max - 1)),
            amplitude=amplitude, solenoidal=True)
    except GridError as exc:
        raise ConfigError(f"[{section}] {exc}") from None


def _solver_config(cfg) -> SolverConfig:
    return SolverConfig(
        dt=cfg["solver"].get("dt", 0.005),
        n_steps=cfg["solver"].get("n_steps", 32),
        picard_tol=cfg["solver"].get("picard_tol", 1e-8),
        max_picard_iters=cfg["solver"].get("max_picard_iters", 40),
    )


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
    p = cfg["norms"].get("p", 3.0)
    q = cfg["norms"].get("q", 6.0)
    t_final = cfg["norms"].get("t_final", 0.5)
    n_steps = cfg["norms"].get("n_steps", 32)
    traj = heat_trajectory(u, np.linspace(0.0, t_final, n_steps + 1))
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
    p = cfg["solver"].get("monitor_p", 3.0)
    traj, report = picard_solve(u0, scfg, critical_index(p, p))
    _write_report(out_dir, report.rows())
    if cfg["output"].get("write_trajectory", False):
        write_trajectory(out_dir / "trajectory", traj)
    extra = {"classification": report.classification,
             "final_besov": float(report.besov_norms[-1])}
    required = cfg["solver"].get("require_convergence", True)
    if required and report.classification == "picard_diverged":
        raise _Unconverged("picard_diverged", extra)
    return extra


def _cmd_expand(cfg, seed, out_dir) -> dict:
    grid = _grid(cfg)
    u0 = _field(cfg, grid, seed)
    scfg = _solver_config(cfg)
    mode = cfg["expand"].get("mode", "staged")
    tol = cfg["expand"].get("residual_tol", math.inf)
    if mode == "staged":
        result = expand_solution(u0, cfg["expand"].get("k", 2), scfg)
    else:
        n_terms = cfg["expand"].get("n_terms", 2)
        p = cfg["expand"].get("p", 10.0)
        _check_duhamel_order(n_terms, p)
        traj, _, converged = solve(u0, scfg, p)
        if not converged:
            raise _Unconverged("picard_diverged", {"classification": "picard_diverged"})
        result = duhamel_expand(traj, u0, n_terms, p=p)
    _write_report(out_dir, result.manifest_rows())
    extra = {"residual": result.residual, "mode": mode}
    if result.residual > tol:
        raise _Unconverged(f"residual {result.residual} > [expand] residual_tol {tol}", extra)
    return extra


def _cmd_iterate(cfg, seed, out_dir) -> dict:
    grid = _grid(cfg)
    u0 = _field(cfg, grid, seed)
    scfg = _solver_config(cfg)
    traj, _, converged = solve(u0, scfg)
    if not converged:
        raise _Unconverged("picard_diverged", {"classification": "picard_diverged"})
    records = simple_iteration(traj, u0, cfg["iterate"].get("j_steps", 4))
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
    p = cfg["profiles"].get("p", 3.0)
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
        rec = extract_profiles(seq, threshold=cfg["profiles"].get("threshold", 0.02), p=p)
        extra["extracted"] = rec.n_profiles()
        extra["extracted_norms"] = [besov_norm(f, idx) for f in rec.profiles]
    return extra


def _cmd_verify_estimates(cfg, seed, out_dir) -> dict:
    grid = _grid(cfg)
    n_fields = cfg["verify"].get("n_fields", 6)
    rows = ["check_id,s1,t1,p,p2,lhs,rhs,ratio"]
    j_hi = max(grid.j_min, grid.j_max - 1)
    for i, sd in enumerate(range(seed, seed + n_fields)):
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
