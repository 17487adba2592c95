"""Configuration-driven command line: eval, check, residual, solve, morrey.

The configuration is one INI-style file (flat key-value pairs grouped in
sections); large field data lives in separate CSV/JSON files referenced by
path.  Artifact filenames are fixed:

    eval     -> breakdown.json
    check    -> check_report.json
    residual -> residuals.json (+ fields_rphi.csv, fields_rpsi.csv)
    solve    -> flow_report.jsonl, fields_phi.csv, fields_psi.csv, fields_chi.csv
    morrey   -> decay_profile.csv

Identical configuration and seed produce bit-identical artifacts.  Errors are
reported as machine-readable JSON on stderr with a nonzero exit status.
"""

from __future__ import annotations

import argparse
import configparser
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .action import total_action
from .analysis import (
    DiscGrid,
    MorreyParams,
    check_radii,
    decay_profile,
    morrey_norm,
    write_decay_profile,
)
from .checks import run_all_checks
from .errors import ConfigError, ConstraintError, SolverError
from .euler_lagrange import residual_norms, residuals
from .fieldio import load_field, save_field
from .geometry import Grid, SphereTarget, TargetManifold, ellipsoid_target
from .presets import (
    equator_map,
    perturbed_equator_map,
    random_gravitino,
    random_vector_spinor,
    smooth_gravitino,
    smooth_map_field,
    smooth_scalar_field,
    smooth_vector_spinor,
)
from .solver import SolverConfig, solve

__all__ = ["RunConfig", "main", "run"]


@dataclass
class RunConfig:
    """Everything a command needs: grid, target, field specs, solver settings."""

    grid: Grid
    target: TargetManifold
    phi: np.ndarray
    psi: np.ndarray
    chi: np.ndarray
    u: np.ndarray
    solver: SolverConfig
    seed: int
    morrey: dict


def _seeded(seed: int, salt: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, salt]))


def _get(section, key, default=None, cast=str):
    if section is None or key not in section:
        if default is None:
            raise ConfigError(f"missing configuration key {key!r}")
        return cast(default)
    try:
        return cast(section[key])
    except ValueError as exc:
        raise ConfigError(f"bad value for {key!r}: {section[key]!r}") from exc


def _finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"not a finite number: {text!r}")
    return value


def _float_list(text: str) -> list[float]:
    return [_finite(v) for v in text.split(",")]


def _load_named_field(section, base: Path, kind: str, shape_check) -> np.ndarray:
    path = base / _get(section, "path")
    if not path.exists():
        raise ConfigError(f"referenced field file does not exist: {path}")
    try:
        array, file_kind = load_field(path)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    if file_kind != kind:
        raise ConfigError(f"{path}: expected kind {kind!r}, found {file_kind!r}")
    if not np.all(np.isfinite(array)):
        raise ConfigError(f"{path}: field values must be finite")
    shape_check(array, path)
    return array


def parse_config(path, seed_override: int | None = None) -> RunConfig:
    """Read and validate a run configuration; every bad value is a ConfigError."""
    try:
        return _parse_config(Path(path), seed_override)
    except (ConfigError, ConstraintError):
        raise
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _parse_config(path: Path, seed_override: int | None) -> RunConfig:
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    ini = configparser.ConfigParser()
    ini.read(path)
    base = path.parent

    gsec = ini["grid"] if "grid" in ini else None
    grid = Grid(_get(gsec, "n1", cast=int), _get(gsec, "n2", cast=int))

    tsec = ini["target"] if "target" in ini else {}
    tkind = _get(tsec, "kind", "sphere")
    if tkind == "sphere":
        target = SphereTarget(
            ambient_dim=_get(tsec, "ambient_dim", "3", int),
            radius=_get(tsec, "radius", "1.0", _finite),
        )
    elif tkind == "ellipsoid":
        target = ellipsoid_target(_get(tsec, "semi_axes", "1.0,1.0,1.0", _float_list))
    else:
        raise ConfigError(f"unknown target kind {tkind!r}")
    K = target.ambient_dim

    seed = seed_override if seed_override is not None else _get(
        ini["run"] if "run" in ini else {}, "seed", "0", int
    )
    if seed < 0:
        raise ConfigError(f"seed must be non-negative, got {seed}")

    def check_sites(array, p, expected_tail):
        if array.shape[:2] != grid.shape or array.shape[2:] != expected_tail:
            raise ConfigError(
                f"{p}: shape {array.shape} inconsistent with grid {grid.shape} and K={K}"
            )

    msec = ini["metric"] if "metric" in ini else {}
    mkind = _get(msec, "kind", "zero")
    if mkind == "zero":
        u = np.zeros(grid.shape)
    elif mkind == "constant":
        u = np.full(grid.shape, _get(msec, "value", None, _finite))
    elif mkind == "smooth":
        u = smooth_scalar_field(grid, seed + 11, _get(msec, "amplitude", "0.3", _finite))
    elif mkind == "file":
        u = _load_named_field(msec, base, "scalar", lambda a, p: check_sites(a, p, ()))
    else:
        raise ConfigError(f"unknown metric kind {mkind!r}")

    psec = ini["phi"] if "phi" in ini else {}
    pkind = _get(psec, "kind", "equator")
    if pkind == "equator":
        phi = equator_map(grid, K)
    elif pkind == "perturbed-equator":
        phi = perturbed_equator_map(
            grid, _get(psec, "amplitude", "0.05", _finite), seed + 21, K
        )
    elif pkind == "smooth":
        phi = smooth_map_field(grid, target, seed + 21,
                               _get(psec, "amplitude", "0.4", _finite))
    elif pkind == "constant":
        point = np.array(_get(psec, "point", cast=_float_list))
        if point.shape != (K,):
            raise ConfigError(f"constant map point needs {K} components")
        phi = np.broadcast_to(target.project(point), grid.shape + (K,)).copy()
    elif pkind == "file":
        phi = _load_named_field(psec, base, "map", lambda a, p: check_sites(a, p, (K,)))
    else:
        raise ConfigError(f"unknown phi kind {pkind!r}")
    phi = target.project(phi)

    ssec = ini["psi"] if "psi" in ini else {}
    skind = _get(ssec, "kind", "zero")
    if skind == "zero":
        psi = np.zeros(grid.shape + (K, 4))
    elif skind == "smooth":
        psi = smooth_vector_spinor(grid, phi, target, seed + 31,
                                   _get(ssec, "amplitude", "0.5", _finite))
    elif skind == "random":
        psi = random_vector_spinor(grid, phi, target, _seeded(seed, 31),
                                   _get(ssec, "amplitude", "1.0", _finite))
    elif skind == "file":
        psi = _load_named_field(ssec, base, "vectorspinor",
                                lambda a, p: check_sites(a, p, (K, 4)))
    else:
        raise ConfigError(f"unknown psi kind {skind!r}")

    csec = ini["gravitino"] if "gravitino" in ini else {}
    ckind = _get(csec, "kind", "zero")
    if ckind == "zero":
        chi = np.zeros(grid.shape + (2, 4))
    elif ckind == "smooth":
        chi = smooth_gravitino(grid, seed + 41, _get(csec, "amplitude", "0.5", _finite))
    elif ckind == "random":
        chi = random_gravitino(grid, _seeded(seed, 41),
                               _get(csec, "amplitude", "1.0", _finite))
    elif ckind == "file":
        chi = _load_named_field(csec, base, "gravitino",
                                lambda a, p: check_sites(a, p, (2, 4)))
    else:
        raise ConfigError(f"unknown gravitino kind {ckind!r}")

    osec = ini["solver"] if "solver" in ini else {}
    solver = SolverConfig(
        max_iterations=_get(osec, "max_iterations", "10000", int),
        tolerance=_get(osec, "tolerance", "1e-6", _finite),
        initial_step=_get(osec, "initial_step", "1e-5", _finite),
        shrink=_get(osec, "shrink", "0.5", _finite),
        grow=_get(osec, "grow", "1.1", _finite),
        mode=_get(osec, "mode", "joint"),
    )

    qsec = ini["morrey"] if "morrey" in ini else {}
    morrey = {
        "grid": DiscGrid(_get(qsec, "resolution", "32", int)),
        "params": MorreyParams(p=_get(qsec, "p", "4.0", _finite),
                               lam=_get(qsec, "lambda", "2.0", _finite)),
        "radii": check_radii(_get(qsec, "radii", "0.125,0.25,0.5,1.0", _float_list)),
        "center": _get(qsec, "center", "0.0,0.0", _float_list),
        "field": _get(qsec, "field", "gaussian"),
        "width": _get(qsec, "width", "0.4", _finite),
        "exponent": _get(qsec, "exponent", "-0.5", _finite),
    }
    if len(morrey["center"]) != 2:
        raise ConfigError("morrey center needs 2 components")
    if morrey["field"] not in ("gaussian", "power"):
        raise ConfigError(f"unknown morrey field kind {morrey['field']!r}")
    return RunConfig(grid=grid, target=target, phi=phi, psi=psi, chi=chi, u=u,
                     solver=solver, seed=seed, morrey=morrey)


def _dump_json(path, payload):
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def _cmd_eval(cfg: RunConfig, out: Path) -> int:
    breakdown = total_action(cfg.phi, cfg.psi, cfg.u, cfg.chi, cfg.grid, cfg.target)
    _dump_json(out / "breakdown.json", breakdown.to_dict())
    return 0


def _cmd_check(cfg: RunConfig, out: Path) -> int:
    results = run_all_checks(cfg.phi, cfg.psi, cfg.chi, cfg.u, cfg.grid, cfg.target,
                             seed=cfg.seed)
    payload = {
        "all_passed": all(r.passed for r in results),
        "results": [r.to_dict() for r in results],
    }
    _dump_json(out / "check_report.json", payload)
    return 0 if payload["all_passed"] else 1


def _cmd_residual(cfg: RunConfig, out: Path) -> int:
    res = residuals(cfg.phi, cfg.psi, cfg.chi, cfg.u, cfg.grid, cfg.target)
    _dump_json(out / "residuals.json", residual_norms(res, cfg.grid, cfg.target, cfg.phi))
    save_field(out / "fields_rphi.csv", res.r_phi, "map")
    save_field(out / "fields_rpsi.csv", res.r_psi, "vectorspinor")
    return 0


def _cmd_solve(cfg: RunConfig, out: Path) -> int:
    state, report = solve(cfg.phi, cfg.psi, cfg.chi, cfg.u, cfg.grid, cfg.target,
                          cfg.solver)
    with open(out / "flow_report.jsonl", "w") as fh:
        for rec in report.records:
            fh.write(json.dumps(rec) + "\n")
        fh.write(json.dumps({"converged": report.converged,
                             "iterations": report.iterations}) + "\n")
    save_field(out / "fields_phi.csv", state.phi, "map")
    save_field(out / "fields_psi.csv", state.psi, "vectorspinor")
    save_field(out / "fields_chi.csv", cfg.chi, "gravitino")
    return 0


def _cmd_morrey(cfg: RunConfig, out: Path) -> int:
    spec = cfg.morrey
    dgrid, params = spec["grid"], spec["params"]
    x, y = dgrid.centers()
    r = np.hypot(x, y)
    if spec["field"] == "gaussian":
        values = np.exp(-(r / spec["width"]) ** 2)
    else:
        values = np.where(r > dgrid.h / 2, r, dgrid.h / 2) ** spec["exponent"]
    rows = decay_profile(values, dgrid, spec["center"], params, spec["radii"])
    write_decay_profile(out / "decay_profile.csv", rows)
    norm = morrey_norm(values, params, spec["radii"], dgrid)
    _dump_json(out / "morrey_summary.json",
               {"morrey_norm": norm, "p": params.p, "lambda": params.lam})
    return 0


_COMMANDS = {
    "eval": _cmd_eval,
    "check": _cmd_check,
    "residual": _cmd_residual,
    "solve": _cmd_solve,
    "morrey": _cmd_morrey,
}


def run(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="sigmalab",
        description="Evaluate, check, and flow the discrete gravitino sigma model.",
    )
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("--config", required=True, help="INI run configuration")
    parser.add_argument("--out", required=True, help="output directory")
    parser.add_argument("--seed", type=int, default=None, help="override the run seed")
    args = parser.parse_args(argv)

    try:
        cfg = parse_config(args.config, seed_override=args.seed)
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        return _COMMANDS[args.command](cfg, out)
    except (ConfigError, ConstraintError, SolverError, OSError) as exc:
        json.dump({"error": type(exc).__name__, "detail": str(exc)}, sys.stderr)
        sys.stderr.write("\n")
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
