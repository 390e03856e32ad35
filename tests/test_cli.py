import json
import os
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest

from coagkit import cli


def write_config(tmp_path, name, cfg):
    path = tmp_path / name
    path.write_text(json.dumps(cfg), encoding="utf-8")
    return path


def base_config(out_dir, **overrides):
    cfg = {
        "kernel": {"family": "constant", "params": {"c": 2.0}},
        "grid": {"kind": "discrete", "n": 128},
        "init": {"family": "monodisperse", "params": {"size": 1.0}},
        "solver": {"scheme": "rk45", "rel_tol": 1e-9, "abs_tol": 1e-13,
                   "boundary": "conservative", "t_end": 1.0,
                   "snapshots": [0.5, 1.0]},
        "output": {"directory": str(out_dir), "formats": ["csv", "json"]},
    }
    cfg.update(overrides)
    return cfg


def test_simulate_artifacts_and_exit_zero(tmp_path):
    out = tmp_path / "out"
    path = write_config(tmp_path, "c.json", base_config(out))
    assert cli.cmd_simulate(path) == 0
    moments = (out / "moments.csv").read_text()
    assert moments.splitlines()[0] == "t,M0,M05,M1,M2,gel_mass"
    assert (out / "snapshots.csv").exists()
    run = json.loads((out / "run.json").read_text())
    assert run["config_sha256"] == cli.config_hash(json.loads(path.read_text()))
    assert run["step_log"]["flag"] is None
    assert run["step_log"]["rate_path"] == "separable"


def test_simulate_missing_kernel_exits_2(tmp_path):
    cfg = base_config(tmp_path / "o")
    del cfg["kernel"]
    path = write_config(tmp_path, "bad.json", cfg)
    assert cli.cmd_simulate(path) == 2


def test_simulate_unknown_key_exits_2(tmp_path):
    cfg = base_config(tmp_path / "o")
    cfg["mystery"] = 1
    path = write_config(tmp_path, "bad.json", cfg)
    assert cli.cmd_simulate(path) == 2


def test_simulate_malformed_json_exits_2(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    assert cli.cmd_simulate(path) == 2


def test_simulate_non_finite_density_exits_2(tmp_path):
    cfg = base_config(tmp_path / "o")
    cfg["grid"]["n"] = 4
    cfg["init"] = {"family": "tabulated",
                   "params": {"density": [1.0, float("nan"), 0.0, 0.0]}}
    path = write_config(tmp_path, "nan.json", cfg)
    assert cli.cmd_simulate(path) == 2


def test_simulate_determinism_byte_identical(tmp_path):
    path = write_config(tmp_path, "c.json", base_config(tmp_path / "ignored"))
    assert cli.cmd_simulate(path, out=str(tmp_path / "a")) == 0
    assert cli.cmd_simulate(path, out=str(tmp_path / "b")) == 0
    for name in ("moments.csv", "snapshots.csv"):
        assert (tmp_path / "a" / name).read_bytes() \
            == (tmp_path / "b" / name).read_bytes()


def test_validate_pass_and_tolerance_fail(tmp_path):
    cfg = base_config(tmp_path / "ok", **{
        "validate": {"sizes": 10,
                      "tolerances": {"distribution_rel": 1e-6, "m0_rel": 1e-6,
                                     "m1_rel": 1e-8, "m2_rel": 1e-3}},
    })
    cfg["grid"]["n"] = 256
    cfg["solver"]["rel_tol"] = 1e-10
    path = write_config(tmp_path, "v.json", cfg)
    assert cli.cmd_validate(path) == 0
    report = json.loads((tmp_path / "ok" / "validate.json").read_text())
    assert report["verdict"] == "pass"

    # deliberately coarse: a loose integrator cannot meet 1e-10
    coarse = base_config(tmp_path / "bad", **{
        "validate": {"tolerances": {"m0_rel": 1e-12, "distribution_rel": 1e-12}},
    })
    coarse["solver"]["rel_tol"] = 1e-4
    path2 = write_config(tmp_path, "v2.json", coarse)
    assert cli.cmd_validate(path2) == 1
    rep = json.loads((tmp_path / "bad" / "validate.json").read_text())
    assert any(c["verdict"] == "fail" for c in rep["checks"])


def test_validate_unsupported_family_exits_4(tmp_path):
    cfg = base_config(tmp_path / "o")
    cfg["kernel"] = {"family": "brownian"}
    path = write_config(tmp_path, "v.json", cfg)
    assert cli.cmd_validate(path) == 4


def test_validate_past_oracle_window_exits_4(tmp_path):
    # the multiplicative oracle holds only before gelation at t = 1
    cfg = base_config(tmp_path / "o")
    cfg["kernel"] = {"family": "multiplicative"}
    cfg["solver"].update({"boundary": "absorbing", "t_end": 1.5,
                          "snapshots": [0.5, 1.5]})
    path = write_config(tmp_path, "v.json", cfg)
    assert cli.cmd_validate(path) == 4


DEMO_CONFIGS = Path(__file__).resolve().parents[1] / "demos" / "configs"


@pytest.mark.parametrize("truncation_n, code", [(1.0, 4), (3.0, 0)])
def test_validate_judges_the_integrated_kernel(tmp_path, truncation_n, code):
    # min(2, 1) is not the rate-2 kernel of the oracle and is refused before
    # the run; min(2, 3) is, and validates as the uncapped kernel does
    cfg = json.loads((DEMO_CONFIGS / "constant_validate.json").read_text())
    cfg["solver"]["truncation_n"] = truncation_n
    cfg["output"]["directory"] = str(tmp_path / "o")
    path = write_config(tmp_path, "v.json", cfg)
    assert cli.cmd_validate(path) == code
    assert (tmp_path / "o" / "validate.json").exists() == (code == 0)


def test_validate_reads_the_initial_data(tmp_path):
    # the oracle's one particle of size 1, given as a table, validates
    cfg = json.loads((DEMO_CONFIGS / "constant_validate.json").read_text())
    density = [1.0] + [0.0] * (cfg["grid"]["n"] - 1)
    cfg["init"] = {"family": "tabulated", "params": {"density": density}}
    cfg["output"]["directory"] = str(tmp_path / "o")
    path = write_config(tmp_path, "v.json", cfg)
    assert cli.cmd_validate(path) == 0


def test_compactness_synthetic_and_dlvp(tmp_path):
    cfg = base_config(tmp_path / "o", **{
        "compactness": {
            "source": "singular",
            "thresholds": [1, 2, 4, 8, 16, 64, 256, 1024],
            "eps": [2.0**-k for k in range(24, 10, -1)],
            "dlvp": {"terms": 6, "tail": "inverse", "inverse_coeff": 2,
                      "samples": 200},
        },
    })
    path = write_config(tmp_path, "c.json", cfg)
    assert cli.cmd_compactness(path) == 0
    rep = json.loads((tmp_path / "o" / "compactness.json").read_text())
    assert rep["dlvp"]["function"]["breakpoints"] == [1, 8, 32, 128, 512, 2048, 8192]
    assert rep["dlvp"]["checks"]["passed"]
    assert rep["eta"]["tails"] == sorted(rep["eta"]["tails"], reverse=True)


def test_compactness_concentrating_eta_one(tmp_path):
    cfg = base_config(tmp_path / "o", **{
        "compactness": {"source": "concentrating",
                         "thresholds": [1, 2, 4, 8, 16, 32]},
    })
    path = write_config(tmp_path, "c.json", cfg)
    assert cli.cmd_compactness(path) == 0
    rep = json.loads((tmp_path / "o" / "compactness.json").read_text())
    assert rep["eta"]["estimate"] == pytest.approx(1.0)


def test_compactness_constructive_failure_exits_5(tmp_path):
    cfg = base_config(tmp_path / "o", **{
        "compactness": {
            "source": "bounded",
            "dlvp": {"terms": 3, "tail": "table",
                      "tail_table": {"1": 1.0, "100": 1.0, "10000": 1.0}},
        },
    })
    path = write_config(tmp_path, "c.json", cfg)
    assert cli.cmd_compactness(path) == 5
    rep = json.loads((tmp_path / "o" / "compactness.json").read_text())
    assert rep["dlvp"]["first_unmet_index"] == 1


def test_gelation_command(tmp_path):
    cfg = base_config(tmp_path / "o", **{
        "kernel": {"family": "multiplicative"},
        "gelation": {"policy": "m2_extrapolation",
                      "xi": {"kind": "power_shifted", "lam": 2.0}},
    })
    cfg["grid"]["n"] = 1024
    cfg["solver"].update({"boundary": "absorbing", "t_end": 0.9,
                           "snapshots": [0.3, 0.5, 0.6, 0.7, 0.75, 0.8, 0.85, 0.9],
                           "rel_tol": 1e-8})
    path = write_config(tmp_path, "g.json", cfg)
    assert cli.cmd_gelation(path) == 0
    rep = json.loads((tmp_path / "o" / "gelation.json").read_text())
    assert 0.95 <= rep["t_gel_detected"] <= 1.05
    assert rep["functional"]["margin"] > 0


def test_simulate_diagnostics_rows(tmp_path):
    cfg = base_config(tmp_path / "o", **{
        "diagnostics": {"checks": [{"name": "phi_gronwall", "R": 10.0},
                                     {"name": "weak_form_identity",
                                      "theta": "identity"},
                                     {"name": "comparison_ode"}]},
    })
    path = write_config(tmp_path, "d.json", cfg)
    assert cli.cmd_simulate(path) == 0
    rows = json.loads((tmp_path / "o" / "diagnostics.json").read_text())
    names = {r["check"] for r in rows}
    assert "phi_gronwall" in names and "weak_form_identity" in names
    # the constant kernel has no product form r(x) r(y): refused, not a crash
    ode = next(r for r in rows if r["check"] == "comparison_ode")
    assert ode["verdict"].startswith("refused")
    csv = (tmp_path / "o" / "diagnostics.csv").read_text()
    assert csv.splitlines()[0] == "check,lhs,rhs,margin,verdict"


def test_diagnostics_use_the_integrated_kernel(tmp_path):
    # with a binding truncation the run integrates min(xy, 8); the number
    # identity holds for that kernel up to quadrature error, not for raw xy
    cfg = base_config(tmp_path / "o", **{
        "kernel": {"family": "multiplicative"},
        "diagnostics": {"checks": [{"name": "weak_form_identity",
                                      "theta": "one"}]},
    })
    cfg["grid"]["n"] = 64
    cfg["solver"].update({"boundary": "absorbing", "truncation_n": 8.0,
                          "snapshots": [0.05 * k for k in range(1, 21)]})
    path = write_config(tmp_path, "w.json", cfg)
    assert cli.cmd_simulate(path) == 0
    run = json.loads((tmp_path / "o" / "run.json").read_text())
    assert run["step_log"]["rate_path"] == "capped"
    rows = json.loads((tmp_path / "o" / "diagnostics.json").read_text())
    assert rows[0]["check"] == "weak_form_identity"
    assert rows[0]["lhs"] <= 1e-4


def test_sweep_isolated_outputs(tmp_path):
    cfg = base_config(tmp_path / "o")
    cfg["sweep"] = [{"grid.n": 32}, {"grid.n": 64}]
    path = write_config(tmp_path, "s.json", cfg)
    assert cli.cmd_simulate(path, jobs=2) == 0
    for i in (0, 1):
        assert (tmp_path / "o" / f"sweep_{i:03d}" / "moments.csv").exists()
    m32 = (tmp_path / "o" / "sweep_000" / "snapshots.csv").read_text()
    assert len(m32.splitlines()) == 1 + 3 * 32  # header + 3 snapshots x 32 cells


def test_failing_sweep_entry_names_itself(tmp_path, capsys):
    cfg = base_config(tmp_path / "o")
    cfg["sweep"] = [{"grid.n": 32}, {"mystery": 1}]
    path = write_config(tmp_path, "s.json", cfg)
    assert cli.cmd_simulate(path) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("sweep_001: config error:")


def test_main_entry_point(tmp_path, capsys):
    out = tmp_path / "out"
    path = write_config(tmp_path, "c.json", base_config(out))
    assert cli.main(["simulate", str(path)]) == 0
    assert cli.main(["validate", str(path), "--out", str(tmp_path / "v")]) == 0


def _cli_env():
    src = str(Path(cli.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))


def test_cli_import_leaves_out_unused_scipy():
    # scipy.signal and scipy.integrate were most of the start-up time of every
    # command; scipy.fft, which the rate operator uses, is still imported
    code = ("import sys, coagkit.cli; print(any(m in sys.modules for m in "
            "('scipy.signal', 'scipy.integrate')))")
    out = subprocess.run([sys.executable, "-c", code], env=_cli_env(),
                         capture_output=True, text=True, check=True, timeout=120)
    assert out.stdout.strip() == "False"


def test_config_schema_is_valid():
    # load_config builds its validator once and does not re-check the schema
    jsonschema.validators.validator_for(cli.CONFIG_SCHEMA).check_schema(cli.CONFIG_SCHEMA)


def _run_cli(*argv):
    return subprocess.run([sys.executable, "-m", "coagkit.cli", *map(str, argv)],
                          env=_cli_env(), capture_output=True, text=True,
                          timeout=120)


def _product_cap_on_multiplicative(cfg):
    # t_end inside the oracle's window, so validate reaches the kernel
    cfg["kernel"] = {"family": "multiplicative"}
    cfg["solver"].update({"t_end": 0.5, "snapshots": [0.25, 0.5],
                          "truncation_n": 8.0, "truncation_mode": "product_cap"})


def _pointwise_cap_on_product_cap(cfg):
    cfg["kernel"] = {"family": "product", "params": {"rate": {"form": "identity"}},
                     "cap": 4.0, "cap_mode": "product_cap"}
    cfg["solver"]["truncation_n"] = 8.0


def _tabulated_kernel_on(grid):
    # 4097 cells: one past the dense pair table's limit
    def edit(cfg):
        nodes = [1.0, 10.0, 100.0, 1e4]
        cfg["kernel"] = {"family": "tabulated",
                         "params": {"x_nodes": nodes,
                                    "matrix": [[a + b for b in nodes] for a in nodes]}}
        cfg["grid"] = grid
        cfg["init"] = {"family": "exponential", "params": {"mean": 2.0}}
    return edit


def _compactness(**sec):
    def edit(cfg):
        cfg["compactness"] = {"source": "bounded", **sec}
    return edit


# (command, config edit, documented exit code): each of these once escaped
# the CLI as a traceback, or wrote a NaN and exited 0
BAD_CONFIGS = {
    "simulate-product-cap-on-multiplicative":
        ("simulate", _product_cap_on_multiplicative, 2),
    "gelation-product-cap-on-multiplicative":
        ("gelation", _product_cap_on_multiplicative, 2),
    "validate-product-cap-on-multiplicative":
        ("validate", _product_cap_on_multiplicative, 2),
    "simulate-pointwise-cap-on-product-cap":
        ("simulate", _pointwise_cap_on_product_cap, 2),
    "simulate-unknown-truncation-mode":
        ("simulate", lambda cfg: cfg["solver"].update(
            {"truncation_n": 8.0, "truncation_mode": "product"}), 2),
    "simulate-sweep-override-through-non-object":
        ("simulate", lambda cfg: cfg.update(sweep=[{"grid.n.x": 3}]), 2),
    "simulate-tabulated-kernel-on-4097-cells":
        ("simulate", _tabulated_kernel_on({"kind": "discrete", "n": 4097}), 4),
    "simulate-tabulated-kernel-on-4097-bins":
        ("simulate", _tabulated_kernel_on({"kind": "geometric", "span": [1.0, 1e4],
                                           "bins": 4097}), 4),
    "compactness-decreasing-thresholds":
        ("compactness", _compactness(thresholds=[4, 2, 1]), 4),
    "compactness-fewer-alphas-than-terms":
        ("compactness", _compactness(dlvp={"terms": 4, "alphas": [1, 1],
                                           "tail": "inverse"}), 4),
    "compactness-increasing-tail-table":
        ("compactness", _compactness(dlvp={"terms": 2, "tail": "table",
                                           "tail_table": {"1": 0.5, "10": 1.0}}), 4),
    "compactness-non-numeric-tail-table-key":
        ("compactness", _compactness(dlvp={"terms": 2, "tail": "table",
                                           "tail_table": {"one": 1.0}}), 2),
    "compactness-duplicate-smallest-eps":
        ("compactness", _compactness(eps=[0.01, 0.01, 0.1]), 4),
    # 1e13 fixed steps: the step-size floor ends the run
    "simulate-rk4-dt-below-the-step-floor":
        ("simulate", lambda cfg: cfg["solver"].update({"scheme": "rk4", "dt": 1e-13}), 3),
    # the oracle is for one particle of size 1
    "validate-exponential-init":
        ("validate", lambda cfg: cfg.update(
            init={"family": "exponential", "params": {"mean": 2.0}}), 4),
    "validate-monodisperse-size-2":
        ("validate", lambda cfg: cfg["init"]["params"].update(size=2.0), 4),
}


@pytest.mark.parametrize("case", sorted(BAD_CONFIGS))
def test_bad_config_exits_with_documented_code(tmp_path, case):
    command, edit, code = BAD_CONFIGS[case]
    cfg = base_config(tmp_path / "o")
    cfg["grid"]["n"] = 16
    edit(cfg)
    path = write_config(tmp_path, "bad.json", cfg)
    proc = _run_cli(command, path)
    assert proc.returncode == code, proc.stderr
    assert "Traceback" not in proc.stderr
    assert len(proc.stderr.strip().splitlines()) == 1


def test_jobs_is_a_simulate_option_only(tmp_path):
    path = write_config(tmp_path, "c.json", base_config(tmp_path / "o"))
    proc = _run_cli("validate", path, "--jobs", "2")
    assert proc.returncode == 2
    assert "--jobs" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not (tmp_path / "o").exists()


def test_sweep_entries_run_in_process(tmp_path, monkeypatch):
    # the entries are checked and simulated from the merged dict: the config
    # file is read once, and each entry's config.json is what run.json hashes
    reads = []
    load = cli.load_config
    monkeypatch.setattr(cli, "load_config", lambda p: reads.append(p) or load(p))
    cfg = base_config(tmp_path / "o")
    cfg["sweep"] = [{"grid.n": 32}, {"mystery": 1}, {"solver.t_end": 0.5,
                                                     "solver.snapshots": [0.5]}]
    path = write_config(tmp_path, "s.json", cfg)
    assert cli.cmd_simulate(path) == 2
    assert reads == [path]
    for i in (0, 2):
        entry = tmp_path / "o" / f"sweep_{i:03d}"
        run = json.loads((entry / "run.json").read_text())
        written = json.loads((entry / "config.json").read_text())
        assert run["config_sha256"] == cli.config_hash(written)
        assert written["output"]["directory"] == str(entry)
    assert not (tmp_path / "o" / "sweep_001").exists()
