"""Command-line surface: artifacts, determinism, error reporting."""

import ast
import contextlib
import dataclasses
import io
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sigmalab
from sigmalab import checks
from sigmalab.action import total_action
from sigmalab.cli import parse_config, run
from sigmalab.fieldio import load_field, save_field


def write_config(path, body):
    path.write_text(body)
    return str(path)


BASE = """
[grid]
n1 = 8
n2 = 8

[target]
kind = sphere
ambient_dim = 3

[phi]
kind = {phi_kind}
{phi_extra}

[psi]
kind = {psi_kind}
amplitude = 0.3

[gravitino]
kind = {chi_kind}
amplitude = 0.3

[metric]
kind = zero

[solver]
max_iterations = 3000
tolerance = 1e-5
initial_step = 1e-5
"""


def config_text(phi_kind="equator", phi_extra="", psi_kind="zero", chi_kind="zero"):
    return BASE.format(
        phi_kind=phi_kind, phi_extra=phi_extra, psi_kind=psi_kind, chi_kind=chi_kind
    )


def test_eval_constant_map_all_zero(tmp_path):
    cfg = write_config(
        tmp_path / "run.ini",
        config_text(phi_kind="constant", phi_extra="point = 0,0,1"),
    )
    out = tmp_path / "out"
    assert run(["eval", "--config", cfg, "--out", str(out)]) == 0
    breakdown = json.loads((out / "breakdown.json").read_text())
    assert all(v == 0.0 for v in breakdown.values())


def test_eval_equator_on_a_sphere_of_radius_2_in_r4(tmp_path):
    # the equator of the sphere of radius r: I = r^2 (sin(2 pi h) / h)^2 = 4 * 32 at 8^2
    text = config_text().replace("ambient_dim = 3", "ambient_dim = 4\nradius = 2.0")
    cfg = write_config(tmp_path / "run.ini", text)
    assert parse_config(cfg).target.radius == 2.0
    out = tmp_path / "out"
    assert run(["eval", "--config", cfg, "--out", str(out)]) == 0
    breakdown = json.loads((out / "breakdown.json").read_text())
    assert abs(breakdown["I_dirichlet"] - 128.0) <= 1e-12


CHECK_ROWS = ("on_manifold", "tangency", "super_weyl_shift", "sign_flip", "conformal_total")


def test_check_command_passes_on_seeded_fields(tmp_path):
    cfg = write_config(
        tmp_path / "run.ini",
        config_text(phi_kind="smooth", psi_kind="smooth", chi_kind="smooth"),
    )
    out = tmp_path / "out"
    assert run(["check", "--config", cfg, "--out", str(out), "--seed", "7"]) == 0
    report = json.loads((out / "check_report.json").read_text())
    assert report["all_passed"]
    assert {r["suite"] for r in report["results"]} == {"constraints", "symmetry"}
    assert sorted(r["name"] for r in report["results"]) == sorted(CHECK_ROWS)


def test_check_command_fails_on_an_action_that_breaks_its_symmetries(monkeypatch, tmp_path):
    # the gravitino term gains eps * sum(chi): the super-Weyl shift and the sign flip
    # change sum(chi), so both rows fail and check exits 1 (a random chi, as a smooth
    # one sums to zero over the periodic grid and the sign flip would not see it)
    def broken(phi, psi, u, chi, *args, **kwargs):
        b = total_action(phi, psi, u, chi, *args, **kwargs)
        extra = 1e-6 * float(np.sum(chi))
        return dataclasses.replace(b, III_gravitino=b.III_gravitino + extra,
                                   total=b.total + extra)

    monkeypatch.setattr(checks, "total_action", broken)
    cfg = write_config(
        tmp_path / "run.ini",
        config_text(phi_kind="smooth", psi_kind="smooth", chi_kind="random"),
    )
    out = tmp_path / "out"
    assert run(["check", "--config", cfg, "--out", str(out), "--seed", "7"]) == 1
    report = json.loads((out / "check_report.json").read_text())
    failed = {r["name"] for r in report["results"] if not r["passed"]}
    assert {"super_weyl_shift", "sign_flip"} <= failed
    assert report["all_passed"] is False


def test_residual_command_writes_norms_and_fields(tmp_path):
    cfg = write_config(tmp_path / "run.ini", config_text())
    out = tmp_path / "out"
    assert run(["residual", "--config", cfg, "--out", str(out)]) == 0
    norms = json.loads((out / "residuals.json").read_text())
    assert set(norms) == {"phi", "psi", "combined"}
    rphi, kind = load_field(out / "fields_rphi.csv")
    assert kind == "map" and rphi.shape == (8, 8, 3)


def test_solve_command_artifacts_and_determinism(tmp_path):
    cfg = write_config(
        tmp_path / "run.ini",
        config_text(phi_kind="perturbed-equator", phi_extra="amplitude = 0.05"),
    )
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    assert run(["solve", "--config", cfg, "--out", str(out1), "--seed", "3"]) == 0
    assert run(["solve", "--config", cfg, "--out", str(out2), "--seed", "3"]) == 0
    for name in ("flow_report.jsonl", "fields_phi.csv", "fields_psi.csv", "fields_chi.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    lines = (out1 / "flow_report.jsonl").read_text().splitlines()
    assert json.loads(lines[0])["iteration"] == 0
    final = json.loads(lines[-1])
    assert final["converged"] is True


@pytest.mark.parametrize("command, names", [
    ("eval", ("breakdown.json",)),
    ("check", ("check_report.json",)),
    ("residual", ("residuals.json", "fields_rphi.csv", "fields_rpsi.csv")),
    ("morrey", ("decay_profile.csv", "morrey_summary.json")),
])
def test_command_artifacts_are_deterministic(tmp_path, command, names):
    # solve's determinism is asserted above
    cfg = write_config(
        tmp_path / "run.ini",
        config_text(phi_kind="smooth", psi_kind="smooth", chi_kind="smooth")
        + "\n[morrey]\nresolution = 24\n",
    )
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    assert run([command, "--config", cfg, "--out", str(out1), "--seed", "3"]) == 0
    assert run([command, "--config", cfg, "--out", str(out2), "--seed", "3"]) == 0
    for name in names:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_morrey_command(tmp_path):
    cfg = write_config(
        tmp_path / "run.ini",
        config_text() + "\n[morrey]\nresolution = 24\nradii = 0.25,0.5,1.0\n",
    )
    out = tmp_path / "out"
    assert run(["morrey", "--config", cfg, "--out", str(out)]) == 0
    lines = (out / "decay_profile.csv").read_text().splitlines()
    assert lines[0] == "radius,scaled_norm"
    assert len(lines) == 4


def test_field_file_round_trip_through_config(tmp_path):
    r = np.random.default_rng(0)
    phi = r.standard_normal((8, 8, 3))
    phi /= np.linalg.norm(phi, axis=-1, keepdims=True)
    save_field(tmp_path / "phi.csv", phi, "map")
    cfg = write_config(
        tmp_path / "run.ini",
        config_text(phi_kind="file", phi_extra="path = phi.csv"),
    )
    out = tmp_path / "out"
    assert run(["eval", "--config", cfg, "--out", str(out)]) == 0


def test_missing_config_is_machine_readable_error(tmp_path, capsys):
    rc = run(["eval", "--config", str(tmp_path / "nope.ini"), "--out", str(tmp_path)])
    assert rc == 2
    err = capsys.readouterr().err
    payload = json.loads(err)
    assert payload["error"] == "ConfigError"


def test_inconsistent_field_shape_rejected(tmp_path, capsys):
    save_field(tmp_path / "phi.csv", np.zeros((4, 4, 3)), "map")
    cfg = write_config(
        tmp_path / "run.ini",
        config_text(phi_kind="file", phi_extra="path = phi.csv"),
    )
    rc = run(["eval", "--config", cfg, "--out", str(tmp_path / "out")])
    assert rc == 2
    assert json.loads(capsys.readouterr().err)["error"] == "ConfigError"


def test_bad_target_kind_rejected(tmp_path, capsys):
    text = config_text().replace("kind = sphere", "kind = torus")
    cfg = write_config(tmp_path / "run.ini", text)
    rc = run(["eval", "--config", cfg, "--out", str(tmp_path / "out")])
    assert rc == 2
    assert json.loads(capsys.readouterr().err)["error"] == "ConfigError"


def _morrey(line):
    return ("[solver]", f"[morrey]\n{line}\n\n[solver]")


@pytest.mark.parametrize("old, new", [
    pytest.param("n1 = 8", "n1 = 3", id="grid-too-small"),
    pytest.param("ambient_dim = 3", "ambient_dim = 1", id="sphere-ambient-dim"),
    pytest.param("ambient_dim = 3", "ambient_dim = 3\nradius = -1", id="sphere-negative-radius"),
    pytest.param("kind = sphere\nambient_dim = 3", "kind = ellipsoid\nsemi_axes = 1,x,1",
                 id="ellipsoid-axes"),
    pytest.param("kind = sphere\nambient_dim = 3", "kind = ellipsoid\nsemi_axes = 0,1,1",
                 id="ellipsoid-zero-axis"),
    pytest.param("max_iterations = 3000", "max_iterations = -5", id="negative-iterations"),
    pytest.param("initial_step = 1e-5", "initial_step = -1", id="negative-step"),
    pytest.param(*_morrey("p = 0.5"), id="morrey-p"),
    pytest.param(*_morrey("resolution = 2"), id="morrey-resolution"),
    pytest.param(*_morrey("radii = 0.5,abc"), id="morrey-radii-text"),
    pytest.param(*_morrey("radii = 0.5,2.0"), id="morrey-radii-range"),
    pytest.param(*_morrey("center = 0.0"), id="morrey-center"),
    pytest.param("initial_step = 1e-5", "initial_step = nan", id="nan-step"),
    pytest.param("tolerance = 1e-5", "tolerance = nan", id="nan-tolerance"),
    pytest.param("[metric]\nkind = zero", "[metric]\nkind = constant\nvalue = nan",
                 id="metric-nan"),
    pytest.param(*_morrey("field = foo"), id="morrey-field-kind"),
    pytest.param(*_morrey("width = 0"), id="morrey-zero-width"),
    pytest.param(*_morrey("width = -0.4"), id="morrey-negative-width"),
    pytest.param("[solver]", "[run]\nseed = -1\n\n[solver]", id="negative-seed"),
])
def test_bad_config_value_rejected(tmp_path, capsys, old, new):
    text = config_text()
    assert old in text
    cfg = write_config(tmp_path / "run.ini", text.replace(old, new))
    out = tmp_path / "out"
    assert run(["morrey", "--config", cfg, "--out", str(out)]) == 2
    assert json.loads(capsys.readouterr().err)["error"] == "ConfigError"
    assert not out.exists()


@pytest.mark.parametrize("command", ["eval", "residual", "check", "solve"])
def test_floating_point_overflow_exits_2_without_artifacts(tmp_path, capsys, command):
    # e^{4u} overflows at u = 200; the artifacts would otherwise hold Infinity or NaN
    text = config_text(phi_kind="smooth", psi_kind="smooth", chi_kind="smooth").replace(
        "[metric]\nkind = zero", "[metric]\nkind = constant\nvalue = 200")
    cfg = write_config(tmp_path / "run.ini", text)
    out = tmp_path / "out"
    assert run([command, "--config", cfg, "--out", str(out)]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"] == "FloatingPointError"
    assert list(out.glob("*")) == []


@pytest.mark.parametrize("command", ["eval", "residual", "check", "solve"])
def test_overflow_inside_a_contraction_exits_2_without_artifacts(tmp_path, capsys, command):
    # a finite, tangent psi of size 1e80: the quartic curvature density (psi^4 ~ 1e320)
    # overflows inside a contraction, which must signal instead of writing NaN
    smooth = config_text(phi_kind="smooth", psi_kind="smooth", chi_kind="smooth")
    psi = parse_config(write_config(tmp_path / "smooth.ini", smooth)).psi
    save_field(tmp_path / "psi.csv", 1e80 * psi, "vectorspinor")
    cfg = write_config(tmp_path / "run.ini", config_text(
        phi_kind="smooth", psi_kind="file\npath = psi.csv", chi_kind="smooth"))
    out = tmp_path / "out"
    assert run([command, "--config", cfg, "--out", str(out)]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"] == "FloatingPointError"
    assert list(out.glob("*")) == []


def test_readme_complete_configuration_runs(tmp_path):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("A complete configuration", 1)[1].split("```ini\n", 1)[1]
    cfg = write_config(tmp_path / "run.ini", block.split("```", 1)[0])
    parsed = parse_config(cfg)
    assert parsed.grid.shape == (32, 32) and parsed.solver.max_iterations == 10000
    out = tmp_path / "out"
    assert run(["eval", "--config", cfg, "--out", str(out)]) == 0
    breakdown = json.loads((out / "breakdown.json").read_text())
    assert breakdown["I_dirichlet"] > 0.0


def _run_python(args, tmp_path):
    src = str(Path(sigmalab.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": src + (os.pathsep + path if path else "")}
    return subprocess.run([sys.executable, *args], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)


def test_module_entry_point_reports_errors(tmp_path):
    proc = _run_python(["-m", "sigmalab.cli", "eval", "--config", "missing.ini",
                        "--out", "x"], tmp_path)
    assert proc.returncode == 2
    lines = proc.stderr.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"] == "ConfigError"


def test_cli_import_loads_no_scipy(tmp_path):
    code = ("import sys, sigmalab.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    proc = _run_python(["-c", code], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def _assert_cli_rejects(tmp_path, cfg, error, *extra):
    """One JSON error line on stderr, exit 2 and no output directory."""
    proc = _run_python(["-m", "sigmalab.cli", "eval", "--config", cfg,
                        "--out", "out", *extra], tmp_path)
    assert proc.returncode == 2, proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1, proc.stderr
    assert json.loads(lines[0])["error"] == error
    assert not (tmp_path / "out").exists()


def test_negative_seed_option_rejected(tmp_path):
    cfg = write_config(tmp_path / "run.ini", config_text())
    _assert_cli_rejects(tmp_path, cfg, "ConfigError", "--seed", "-1")


def test_non_finite_map_file_rejected(tmp_path):
    phi = np.zeros((8, 8, 3))
    phi[..., 2] = 1.0
    phi[3, 4] = np.nan
    save_field(tmp_path / "phi.csv", phi, "map")
    cfg = write_config(
        tmp_path / "run.ini",
        config_text(phi_kind="file", phi_extra="path = phi.csv"),
    )
    _assert_cli_rejects(tmp_path, cfg, "ConfigError")


def test_map_file_with_null_metadata_rejected(tmp_path):
    phi = np.zeros((8, 8, 3))
    phi[..., 2] = 1.0
    save_field(tmp_path / "phi.json", phi, "map")
    payload = json.loads((tmp_path / "phi.json").read_text())
    (tmp_path / "phi.json").write_text(json.dumps({**payload, "n1": None}))
    cfg = write_config(
        tmp_path / "run.ini",
        config_text(phi_kind="file", phi_extra="path = phi.json"),
    )
    _assert_cli_rejects(tmp_path, cfg, "ConfigError")


def test_oversized_csv_cell_in_field_file_rejected(tmp_path):
    (tmp_path / "u.csv").write_text(
        "# sigmalab-field kind=scalar n1=8 n2=8 K=1\nvalue\n" + "1" * 140_000 + "\n")
    text = config_text().replace("[metric]\nkind = zero", "[metric]\nkind = file\npath = u.csv")
    cfg = write_config(tmp_path / "run.ini", text)
    _assert_cli_rejects(tmp_path, cfg, "ConfigError")


def test_ellipsoid_center_point_rejected(tmp_path):
    text = config_text(phi_kind="constant", phi_extra="point = 0,0,0").replace(
        "kind = sphere\nambient_dim = 3", "kind = ellipsoid\nsemi_axes = 1.0,1.3,0.8"
    )
    cfg = write_config(tmp_path / "run.ini", text)
    _assert_cli_rejects(tmp_path, cfg, "ConstraintError")


def _assert_field_commands_reject(tmp_path, capsys, cfg, error):
    """eval, residual, check and solve: exit 2, one JSON line, no output directory."""
    for command in ("eval", "residual", "check", "solve"):
        out = tmp_path / f"out-{command}"
        assert run([command, "--config", cfg, "--out", str(out)]) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["error"] == error
        assert not out.exists()


def test_non_tangent_psi_file_rejected(tmp_path, capsys):
    psi = np.random.default_rng(0).standard_normal((8, 8, 3, 4))
    save_field(tmp_path / "psi.csv", psi, "vectorspinor")
    cfg = write_config(tmp_path / "run.ini", config_text(psi_kind="file\npath = psi.csv"))
    _assert_field_commands_reject(tmp_path, capsys, cfg, "ConstraintError")


def test_huge_normal_psi_file_rejected(tmp_path, capsys):
    # |psi|^2 of a psi file of size 1e160 overflows; the tangency check must still
    # see its normal part instead of letting a later contraction overflow
    phi = parse_config(write_config(tmp_path / "base.ini", config_text())).phi
    psi = 1e160 * np.repeat(phi[..., None], 4, axis=-1)   # the unit sphere's normal is phi
    save_field(tmp_path / "psi.csv", psi, "vectorspinor")
    cfg = write_config(tmp_path / "run.ini", config_text(psi_kind="file\npath = psi.csv"))
    _assert_field_commands_reject(tmp_path, capsys, cfg, "ConstraintError")


def test_unconverged_ellipsoid_projection_rejected(tmp_path, capsys):
    text = config_text(phi_kind="constant", phi_extra="point = 1e-150,0,0").replace(
        "kind = sphere\nambient_dim = 3", "kind = ellipsoid\nsemi_axes = 1.0,1.3,0.8"
    )
    cfg = write_config(tmp_path / "run.ini", text)
    _assert_field_commands_reject(tmp_path, capsys, cfg, "ConstraintError")


@pytest.mark.parametrize("old, new", [
    pytest.param("\n[grid]", "seed = 1\n[grid]", id="no-section-header"),
    pytest.param("n2 = 8", "n2 = 8\nn3", id="line-without-equals"),
    pytest.param("n2 = 8", "n2 = 8\nn2 = 9", id="duplicate-option"),
    pytest.param("[metric]", "[grid]\nn1 = 8\n\n[metric]", id="duplicate-section"),
    pytest.param("kind = sphere", "kind = %(x)s", id="missing-interpolation"),
    pytest.param("kind = sphere", "kind = 50%", id="bare-percent"),
])
def test_malformed_ini_rejected(tmp_path, old, new):
    text = config_text()
    assert old in text
    _assert_cli_rejects(tmp_path, write_config(tmp_path / "run.ini", text.replace(old, new, 1)),
                        "ConfigError")


def test_map_file_with_overflowing_integer_rejected(tmp_path):
    phi = np.zeros((8, 8, 3))
    phi[..., 2] = 1.0
    save_field(tmp_path / "phi.json", phi, "map")
    text = (tmp_path / "phi.json").read_text().replace("1.0", "1" + "0" * 400, 1)
    (tmp_path / "phi.json").write_text(text)
    cfg = write_config(
        tmp_path / "run.ini",
        config_text(phi_kind="file", phi_extra="path = phi.json"),
    )
    _assert_cli_rejects(tmp_path, cfg, "ConfigError")


def test_package_imports_numpy_alone(tmp_path):
    # every sigmalab module may add only numpy and sigmalab to the non-stdlib
    # top-level modules; compared with sys.modules before the import, since
    # site hooks may preload third-party modules
    code = ("import pkgutil, sys\n"
            "before = {m.split('.')[0] for m in sys.modules}\n"
            "import sigmalab\n"
            "for info in pkgutil.walk_packages(sigmalab.__path__, 'sigmalab.'):\n"
            "    __import__(info.name)\n"
            "new = {m.split('.')[0] for m in sys.modules} - before\n"
            "print(sorted(new - set(sys.stdlib_module_names)))\n")
    proc = _run_python(["-c", code], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "['numpy', 'sigmalab']"


_VALID_CONFIGS = ("""
[grid]
n1 = 8
n2 = 8

[target]
kind = sphere
ambient_dim = 3
radius = 1.0

[phi]
kind = smooth
amplitude = 0.4

[psi]
kind = random
amplitude = 0.5

[gravitino]
kind = smooth
amplitude = 0.5

[metric]
kind = file
path = u.csv

[solver]
max_iterations = 2
tolerance = 1e-6
initial_step = 1e-5
shrink = 0.5
grow = 1.1
mode = joint

[morrey]
resolution = 12
p = 4.0
lambda = 2.0
radii = 0.25,0.5
center = 0.0,0.0
field = gaussian
width = 0.4

[run]
seed = 0
""", """
[grid]
n1 = 8
n2 = 6

[target]
kind = ellipsoid
semi_axes = 1.0,1.3,0.8

[phi]
kind = constant
point = 0.3,0.2,0.9

[psi]
kind = smooth
amplitude = 0.5

[gravitino]
kind = random
amplitude = 1.0

[metric]
kind = constant
value = 0.2

[solver]
max_iterations = 2

[morrey]
resolution = 12
radii = 0.5,1.0
field = power
exponent = -0.5
""")

# (config, line) for every value line of the valid configs
_VALUE_LINES = [(text, i) for text in _VALID_CONFIGS
                for i, line in enumerate(text.splitlines()) if " = " in line]

# text, non-finite, negative, zero, out of range (a radius), unknown kind, missing file
_BAD_TOKENS = ["abc", "nan", "inf", "-inf", "-1", "-0.5", "0", "2.0", "torus", "missing.csv"]


@settings(max_examples=200, deadline=None)
@given(site=st.sampled_from(_VALUE_LINES), token=st.sampled_from(_BAD_TOKENS),
       command=st.sampled_from(["eval", "residual", "check", "solve", "morrey"]))
def test_bad_value_exits_2_before_output_property(site, token, command):
    text, index = site
    lines = text.splitlines()
    lines[index] = f"{lines[index].split(' = ')[0]} = {token}"
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        save_field(tmp / "u.csv", np.zeros((8, 8)), "scalar")
        cfg = write_config(tmp / "run.ini", "\n".join(lines) + "\n")
        out = tmp / "out"
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = run([command, "--config", cfg, "--out", str(out)])
        assert code in (0, 1, 2)
        if code == 2:
            errors = err.getvalue().splitlines()
            assert len(errors) == 1, errors
            assert set(json.loads(errors[0])) == {"error", "detail"}
            assert not out.exists()


def test_grid_above_the_site_limit_exits_2(tmp_path):
    # 40000^2 sites: Grid rejects it before any field array is built
    text = config_text().replace("n1 = 8\nn2 = 8", "n1 = 40000\nn2 = 40000")
    _assert_cli_rejects(tmp_path, write_config(tmp_path / "run.ini", text), "ConfigError")


def _eval_under_3_gib(tmp_path, n, ambient_dim):
    """cli eval on an n^2 grid, target S^{K-1} in R^K and a smooth psi, in a child
    process whose address space is capped at 3 GiB, so that an oversized
    allocation fails whatever the host's overcommit setting."""
    import resource

    cap = 3 << 30
    hard = resource.getrlimit(resource.RLIMIT_AS)[1]
    if hard != resource.RLIM_INFINITY:
        cap = min(cap, hard)

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (cap, hard))

    text = config_text(psi_kind="smooth").replace("n1 = 8\nn2 = 8", f"n1 = {n}\nn2 = {n}")
    text = text.replace("ambient_dim = 3", f"ambient_dim = {ambient_dim}")
    cfg = write_config(tmp_path / "run.ini", text)
    src = str(Path(sigmalab.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1"}
    return subprocess.run([sys.executable, "-m", "sigmalab.cli", "eval", "--config", cfg,
                           "--out", "out"], cwd=tmp_path, env=env, preexec_fn=limit,
                          capture_output=True, text=True, timeout=120)


def test_memory_error_exits_2(tmp_path):
    # K = 200 at 64^2 needs per-site K x K arrays (Pi, A, M_ac = <psi^a, psi^c>) of
    # 1.2 GiB each, (64, 64, 200, 200): more than the cap leaves room for
    proc = _eval_under_3_gib(tmp_path, 64, 200)
    assert proc.returncode == 2, proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1, proc.stderr
    assert json.loads(lines[0])["error"] == "MemoryError"
    assert list((tmp_path / "out").glob("*")) == []


def test_curvature_memory_is_bounded_by_k_squared(tmp_path):
    # memory per site grows as K^2, not K^4: K = 80 on 4^2 sites fits the cap with
    # room to spare, where a K^4-entry Gauss tensor alone would take 4.9 GiB
    proc = _eval_under_3_gib(tmp_path, 4, 80)
    assert proc.returncode == 0, proc.stderr
    breakdown = json.loads((tmp_path / "out" / "breakdown.json").read_text())
    assert np.isfinite(breakdown["V_curvature"])


@pytest.mark.parametrize("old, new, name", [
    pytest.param("tolerance = 1e-5", "tolerence = 1e-12", "'tolerence'", id="misspelled-key"),
    pytest.param("[solver]", "[sphere]\nradius = 2.0\n\n[solver]", "[sphere]",
                 id="unknown-section"),
    # configparser copies [DEFAULT] keys into every section, here [grid]
    pytest.param("\n[grid]", "\n[DEFAULT]\namplitude = 0.3\n\n[grid]", "'amplitude'",
                 id="default-key"),
])
def test_unknown_section_or_key_rejected(tmp_path, capsys, old, new, name):
    text = config_text()
    assert old in text
    cfg = write_config(tmp_path / "run.ini", text.replace(old, new, 1))
    out = tmp_path / "out"
    assert run(["eval", "--config", cfg, "--out", str(out)]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    payload = json.loads(lines[0])
    assert payload["error"] == "ConfigError" and name in payload["detail"]
    assert not out.exists()


def test_benchmark_cli_configuration_parses(tmp_path):
    # perfbench runs this configuration with --seed and without a [run] section
    source = (Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py").read_text()
    text = next(node.value.value for node in ast.parse(source).body
                if isinstance(node, ast.Assign)
                and [t.id for t in node.targets if isinstance(t, ast.Name)] == ["CLI_CONFIG"])
    parsed = parse_config(write_config(tmp_path / "cli.ini", text), seed_override=3)
    assert parsed.grid.shape == (64, 64) and parsed.seed == 3
    assert parsed.solver.max_iterations == 20


def test_solve_on_the_benchmark_config_stalls_after_few_evaluations(monkeypatch, tmp_path):
    # the benchmark's ellipsoid config at 16^2: the stall floor ends the joint flow where
    # shrinking dt to underflow did not (the explicit flow ran all 60 iterations, 61
    # evaluations); the final line names the stop and the stall record its trials
    from sigmalab import solver

    source = (Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py").read_text()
    text = next(node.value.value for node in ast.parse(source).body
                if isinstance(node, ast.Assign)
                and [t.id for t in node.targets if isinstance(t, ast.Name)] == ["CLI_CONFIG"])
    text = text.replace("n1 = 64\nn2 = 64", "n1 = 16\nn2 = 16")
    text = text.replace("max_iterations = 20", "max_iterations = 60")
    evaluations = []
    evaluate = solver._evaluate

    def counted(*args, **kwargs):
        evaluations.append(1)
        return evaluate(*args, **kwargs)

    monkeypatch.setattr(solver, "_evaluate", counted)
    out = tmp_path / "out"
    cfg = write_config(tmp_path / "cli.ini", text)
    assert run(["solve", "--config", cfg, "--out", str(out), "--seed", "0"]) == 0
    assert len(evaluations) <= 20
    lines = [json.loads(x) for x in (out / "flow_report.jsonl").read_text().splitlines()]
    assert lines[0]["iteration"] == 0
    assert lines[-1]["stop_reason"] == "stalled" and lines[-1]["converged"] is False
    assert lines[-2]["stalled"] is True and lines[-2]["rejected"] >= 1


# (section, key, value) for every number or list key that the section's default kind
# does not read
_DEFAULT_KINDS = {"target": "sphere", "metric": "zero", "phi": "equator", "psi": "zero",
                  "gravitino": "zero"}
_UNREAD_KEY_VALUES = [
    ("target", "semi_axes", "abc"), ("target", "semi_axes", "1,nan,1"),
    ("metric", "value", "abc"), ("metric", "value", "nan"),
    ("metric", "amplitude", "abc"), ("metric", "amplitude", "nan"),
    ("phi", "amplitude", "abc"), ("phi", "amplitude", "nan"), ("phi", "amplitude", "50%"),
    ("phi", "point", "abc"), ("phi", "point", "0,nan,1"),
    ("psi", "amplitude", "abc"), ("psi", "amplitude", "nan"),
    ("gravitino", "amplitude", "abc"), ("gravitino", "amplitude", "nan"),
]


@pytest.mark.parametrize("section, key, value", _UNREAD_KEY_VALUES)
def test_malformed_key_the_default_kind_does_not_read_exits_2(tmp_path, capsys, section,
                                                              key, value):
    text = (f"[grid]\nn1 = 8\nn2 = 8\n\n"
            f"[{section}]\nkind = {_DEFAULT_KINDS[section]}\n{key} = {value}\n")
    cfg = write_config(tmp_path / "run.ini", text)
    for command in ["eval", "residual", "check", "solve", "morrey"]:
        out = tmp_path / f"out-{command}"
        assert run([command, "--config", cfg, "--out", str(out)]) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["error"] == "ConfigError"
        assert not out.exists()


def test_readme_complete_configuration_names_every_accepted_key():
    from sigmalab.cli import _KEYS

    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("A complete configuration", 1)[1].split("```ini\n", 1)[1]
    documented, section = {}, None
    for line in block.split("```", 1)[0].splitlines():
        header = re.fullmatch(r"\[(\w+)\]", line)
        if header:
            section = documented.setdefault(header.group(1), set())
        key = re.match(r";? *(\w+) = ", line)
        if key:
            section.add(key.group(1))
    assert documented == {name: set(keys) for name, keys in _KEYS.items()}
