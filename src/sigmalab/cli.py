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

from .action import checked_target_data, total_action
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
from .euler_lagrange import residuals, tangent_residual_norms
from .fieldio import load_field, save_field, site_shape
from .geometry import (Grid, SphereTarget, TargetData, TargetManifold, ellipsoid_target,
                       tangent_part)
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
    tdata: TargetData      # of phi, with phi checked on N and psi tangent along it
    solver: SolverConfig
    seed: int
    morrey: dict


def _seeded(seed: int, salt: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, salt]))


def _get(section, key, default=None, cast=str):
    if key not in section:
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


def _constant_map(section, grid: Grid, target: TargetManifold) -> np.ndarray:
    point = np.array(_get(section, "point", cast=_float_list))
    if point.shape != (target.ambient_dim,):
        raise ConfigError(f"constant map point needs {target.ambient_dim} components")
    return np.broadcast_to(target.project(point), grid.shape + point.shape)


# the keys each section accepts, over all of its kinds; configparser copies the
# keys of [DEFAULT] into every section, so they are checked there too
_SECTION_KEYS = {
    "grid": {"n1", "n2"},
    "target": {"kind", "ambient_dim", "radius", "semi_axes"},
    "run": {"seed"},
    "metric": {"kind", "path", "value", "amplitude"},
    "phi": {"kind", "path", "amplitude", "point"},
    "psi": {"kind", "path", "amplitude"},
    "gravitino": {"kind", "path", "amplitude"},
    "solver": {"max_iterations", "tolerance", "initial_step", "shrink", "grow", "mode"},
    "morrey": {"resolution", "p", "lambda", "radii", "center", "field", "width", "exponent"},
}


def _check_keys(ini: configparser.ConfigParser):
    for name in ini.sections():
        if name not in _SECTION_KEYS:
            raise ConfigError(f"unknown configuration section [{name}]")
        unknown = sorted(set(ini[name]) - _SECTION_KEYS[name])
        if unknown:
            raise ConfigError(f"unknown key {unknown[0]!r} in [{name}]")


def parse_config(path, seed_override: int | None = None) -> RunConfig:
    """Read and validate a run configuration; bad values and malformed INI are ConfigErrors."""
    try:
        return _parse_config(Path(path), seed_override)
    except (ConfigError, ConstraintError):
        raise
    except (ValueError, configparser.Error) as exc:
        raise ConfigError(str(exc)) from exc


def _parse_config(path: Path, seed_override: int | None) -> RunConfig:
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    ini = configparser.ConfigParser()
    ini.read(path)
    _check_keys(ini)

    def section(name):
        return ini[name] if name in ini else {}

    def build(name, default, builders, field=None, key="kind"):
        """builders[kind](section) for the kind that ``key`` names in [name].

        When ``field`` names a fieldio kind, kind = file reads that field from
        the section's ``path`` and checks it against the grid and K (the field
        sections are read after the target, so K is known by then).
        """
        sec = section(name)
        kind = _get(sec, key, default)
        if field is not None and kind == "file":
            file = path.parent / _get(sec, "path")
            if not file.exists():
                raise ConfigError(f"referenced field file does not exist: {file}")
            array, file_kind = load_field(file)
            if file_kind != field:
                raise ConfigError(f"{file}: expected kind {field!r}, found {file_kind!r}")
            if not np.all(np.isfinite(array)):
                raise ConfigError(f"{file}: field values must be finite")
            if array.shape != grid.shape + site_shape(field, K):
                raise ConfigError(f"{file}: shape {array.shape} inconsistent with grid "
                                  f"{grid.shape} and K={K}")
            return array
        if kind not in builders:
            label = name if key == "kind" else f"{name} {key}"
            raise ConfigError(f"unknown {label} kind {kind!r}")
        return builders[kind](sec)

    grid = Grid(_get(section("grid"), "n1", cast=int), _get(section("grid"), "n2", cast=int))
    target = build("target", "sphere", {
        "sphere": lambda s: SphereTarget(ambient_dim=_get(s, "ambient_dim", "3", int),
                                         radius=_get(s, "radius", "1.0", _finite)),
        "ellipsoid": lambda s: ellipsoid_target(
            _get(s, "semi_axes", "1.0,1.0,1.0", _float_list)),
    })
    K = target.ambient_dim

    seed = _get(section("run"), "seed", "0", int) if seed_override is None else seed_override
    if seed < 0:
        raise ConfigError(f"seed must be non-negative, got {seed}")

    u = build("metric", "zero", {
        "zero": lambda s: np.zeros(grid.shape),
        "constant": lambda s: np.full(grid.shape, _get(s, "value", None, _finite)),
        "smooth": lambda s: smooth_scalar_field(grid, seed + 11,
                                                _get(s, "amplitude", "0.3", _finite)),
    }, field="scalar")
    # phi from every source is projected onto N (ConstraintError where that fails)
    phi = target.project(build("phi", "equator", {
        "equator": lambda s: equator_map(grid, K),
        "perturbed-equator": lambda s: perturbed_equator_map(
            grid, _get(s, "amplitude", "0.05", _finite), seed + 21, K),
        "smooth": lambda s: smooth_map_field(grid, target, seed + 21,
                                             _get(s, "amplitude", "0.4", _finite)),
        "constant": lambda s: _constant_map(s, grid, target),
    }, field="map"))
    psi = build("psi", "zero", {
        "zero": lambda s: np.zeros(grid.shape + (K, 4)),
        "smooth": lambda s: smooth_vector_spinor(grid, phi, target, seed + 31,
                                                 _get(s, "amplitude", "0.5", _finite)),
        "random": lambda s: random_vector_spinor(grid, phi, target, _seeded(seed, 31),
                                                 _get(s, "amplitude", "1.0", _finite)),
    }, field="vectorspinor")
    chi = build("gravitino", "zero", {
        "zero": lambda s: np.zeros(grid.shape + (2, 4)),
        "smooth": lambda s: smooth_gravitino(grid, seed + 41,
                                             _get(s, "amplitude", "0.5", _finite)),
        "random": lambda s: random_gravitino(grid, _seeded(seed, 41),
                                             _get(s, "amplitude", "1.0", _finite)),
    }, field="gravitino")

    osec = section("solver")
    solver = SolverConfig(
        max_iterations=_get(osec, "max_iterations", "10000", int),
        tolerance=_get(osec, "tolerance", "1e-6", _finite),
        initial_step=_get(osec, "initial_step", "1e-5", _finite),
        shrink=_get(osec, "shrink", "0.5", _finite),
        grow=_get(osec, "grow", "1.1", _finite),
        mode=_get(osec, "mode", "joint"),
    )

    qsec = section("morrey")
    dgrid = DiscGrid(_get(qsec, "resolution", "32", int))
    morrey = {
        "grid": dgrid,
        "params": MorreyParams(p=_get(qsec, "p", "4.0", _finite),
                               lam=_get(qsec, "lambda", "2.0", _finite)),
        "radii": check_radii(_get(qsec, "radii", "0.125,0.25,0.5,1.0", _float_list)),
        "center": _get(qsec, "center", "0.0,0.0", _float_list),
    }
    if len(morrey["center"]) != 2:
        raise ConfigError("morrey center needs 2 components")
    width = _get(qsec, "width", "0.4", _finite)
    if width <= 0.0:
        raise ConfigError(f"morrey width must be positive, got {width}")
    exponent = _get(qsec, "exponent", "-0.5", _finite)
    r = np.hypot(*dgrid.centers())
    morrey["values"] = build("morrey", "gaussian", {
        "gaussian": lambda s: np.exp(-(r / width) ** 2),
        "power": lambda s: np.where(r > dgrid.h / 2, r, dgrid.h / 2) ** exponent,
    }, key="field")
    # the presets are tangent by construction; a psi file must be tangent along phi
    tdata = checked_target_data(target, phi, psi)
    return RunConfig(grid=grid, target=target, phi=phi, psi=psi, chi=chi, u=u, tdata=tdata,
                     solver=solver, seed=seed, morrey=morrey)


def _dump_json(path, payload):
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def _cmd_eval(cfg: RunConfig, out: Path) -> int:
    breakdown = total_action(cfg.phi, cfg.psi, cfg.u, cfg.chi, cfg.grid, cfg.target,
                             tdata=cfg.tdata)
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
    res = residuals(cfg.phi, cfg.psi, cfg.chi, cfg.u, cfg.grid, cfg.target, tdata=cfg.tdata)
    norms = tangent_residual_norms(tangent_part(cfg.tdata.nu, res.r_phi), res.r_psi, cfg.grid)
    _dump_json(out / "residuals.json", norms)
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
                             "iterations": report.iterations,
                             "stop_reason": report.stop_reason}) + "\n")
    save_field(out / "fields_phi.csv", state.phi, "map")
    save_field(out / "fields_psi.csv", state.psi, "vectorspinor")
    save_field(out / "fields_chi.csv", cfg.chi, "gravitino")
    return 0


def _cmd_morrey(cfg: RunConfig, out: Path) -> int:
    spec = cfg.morrey
    dgrid, params = spec["grid"], spec["params"]
    rows = decay_profile(spec["values"], dgrid, spec["center"], params, spec["radii"])
    write_decay_profile(out / "decay_profile.csv", rows)
    norm = morrey_norm(spec["values"], params, spec["radii"], dgrid)
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
        # an overflow or NaN would otherwise reach the artifacts as non-JSON Infinity/NaN
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            cfg = parse_config(args.config, seed_override=args.seed)
            out = Path(args.out)
            out.mkdir(parents=True, exist_ok=True)
            return _COMMANDS[args.command](cfg, out)
    except (ConfigError, ConstraintError, SolverError, FloatingPointError, MemoryError,
            OSError) as exc:
        json.dump({"error": type(exc).__name__, "detail": str(exc)}, sys.stderr)
        sys.stderr.write("\n")
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
