import copy
import importlib.util
import inspect
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from coagkit import (KernelSpec, RadialRate, SizeGrid, SolverConfig, cli, compactness,
                     diagnostics, grids, reference)
from coagkit.errors import ConfigError


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
        "output": {"directory": str(out_dir)},
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


def test_kernel_cap_and_truncation_n_build_one_kernel(tmp_path):
    # both spellings of min(xy, 64) become config.kernel when the run is built
    cfgs = []
    for name, edit in (("cap", lambda c: c["kernel"].update(cap=64.0)),
                       ("trunc", lambda c: c["solver"].update(truncation_n=64.0))):
        cfg = base_config(tmp_path / name, kernel={"family": "multiplicative"})
        cfg["solver"].update(boundary="absorbing", t_end=2.0)
        edit(cfg)
        cfgs.append(cfg)
        assert cli.cmd_simulate(write_config(tmp_path, f"{name}.json", cfg)) == 0
    kernels = [cli.build_run(cfg)[1].kernel for cfg in cfgs]
    assert kernels[0] == kernels[1] == KernelSpec.multiplicative().truncate(64.0)
    assert (tmp_path / "cap" / "moments.csv").read_bytes() \
        == (tmp_path / "trunc" / "moments.csv").read_bytes()


def test_sweep_truncation_entries_build_capped_kernels(tmp_path):
    cfg = json.loads((DEMO_CONFIGS / "grid_convergence_sweep.json").read_text())
    entries = [e for e in cfg["sweep"] if "solver.truncation_n" in e]
    caps = [cli.build_run(cli._entry_config(cfg, entry, tmp_path / str(i)))[1].kernel.cap
            for i, entry in enumerate(entries)]
    assert caps == [64.0, 128.0, 256.0]


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


def test_inverse_tail_is_exact_for_a_whole_coefficient(tmp_path):
    # 2, 2.0 and the default build one exact function, with rational tail
    # values; 2.5 builds against float tail values
    functions = {}
    for coeff in (2, 2.0, None, 2.5):
        dlvp = {"terms": 3, "tail": "inverse", "samples": 10}
        if coeff is not None:
            dlvp["inverse_coeff"] = coeff
        out = tmp_path / str(coeff)
        cfg = base_config(out, compactness={"source": "bounded", "dlvp": dlvp})
        assert cli.cmd_compactness(write_config(tmp_path, "c.json", cfg)) == 0
        functions[coeff] = json.loads((out / "compactness.json").read_text())["dlvp"]["function"]
    assert functions[2] == functions[2.0] == functions[None]
    assert functions[2]["tail_table"] == {"8": "1/4", "32": "1/16", "128": "1/64"}
    assert functions[2.5]["tail_table"] == {"10": "0.25", "40": "0.0625", "160": "0.015625"}


def test_whole_floats_run_as_the_integers_the_schema_takes_them_for(tmp_path):
    # JSON Schema counts 3.0 as an integer; each of these once raised a
    # TypeError traceback (exit 1)
    runs = {}
    for kind, number in (("int", 3), ("float", 3.0)):
        out = tmp_path / kind
        cfg = base_config(out / "c", compactness={"source": "bounded", "dlvp": {
            "terms": number, "tail": "inverse", "samples": 10 * number}})
        assert cli.cmd_compactness(write_config(tmp_path, "c.json", cfg)) == 0
        cfg = base_config(out / "s", grid={"kind": "geometric", "span": [1.0, 16.0],
                                           "bins": 4 * number},
                          init={"family": "exponential", "params": {"mean": 2.0}})
        assert cli.cmd_simulate(write_config(tmp_path, "s.json", cfg)) == 0
        runs[kind] = [(out / p).read_text() for p in ("c/compactness.json", "s/moments.csv")]
    assert runs["int"] == runs["float"]


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


def test_capped_gelling_kernel_is_not_treated_as_gelling(tmp_path, capsys):
    # min(xy, 4) is bounded: no sparse-snapshot warning, no gelation-time bound
    cfg = base_config(tmp_path / "o", kernel={"family": "multiplicative"},
                      gelation={"policy": "m2_extrapolation"})
    cfg["grid"]["n"] = 64
    cfg["solver"] = {"boundary": "absorbing", "t_end": 2.0, "snapshots": [1.0, 2.0],
                     "truncation_n": 4.0}
    path = write_config(tmp_path, "g.json", cfg)
    assert cli.cmd_simulate(path) == 0
    assert cli.cmd_gelation(path) == 0
    assert capsys.readouterr().err == ""
    rep = json.loads((tmp_path / "o" / "gelation.json").read_text())
    assert rep["t_gel_upper_bound"] is None


def test_validate_default_sizes_fit_a_small_grid(tmp_path):
    # the default of 10 compared sizes once overran an 8-cell grid
    cfg = json.loads((DEMO_CONFIGS / "constant_validate.json").read_text())
    cfg["grid"]["n"] = 8
    cfg["validate"].pop("sizes", None)
    cfg["output"]["directory"] = str(tmp_path / "o")
    assert cli.cmd_validate(write_config(tmp_path, "v.json", cfg)) == 1
    checks = json.loads((tmp_path / "o" / "validate.json").read_text())["checks"]
    assert checks[-1]["quantity"] == "f_1..f_8"


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


# (kernel, n, solver keys) -> the rate path and step_log.live_cells
LIVE_CELLS_RUNS = {
    # the capped path integrates the whole grid from the start
    "capped": ({"family": "multiplicative"}, 512,
               {"boundary": "absorbing", "t_end": 0.1, "truncation_n": 64.0,
                "snapshots": [0.1]}, "capped", 512),
    # early on, the FFT's round-off floor holds the support to 64 cells
    "short": ({"family": "multiplicative"}, 1024,
              {"boundary": "absorbing", "t_end": 0.1, "snapshots": [0.1]}, "separable", 128),
}


@pytest.mark.parametrize("name", ["gelation", *LIVE_CELLS_RUNS])
def test_run_json_reports_the_live_cells(tmp_path, name):
    if name == "gelation":   # the demo's gelation study reaches every cell
        path, want = DEMO_CONFIGS / "gelation_multiplicative.json", ("separable", 4096)
    else:
        kernel, n, solver_keys, *want = LIVE_CELLS_RUNS[name]
        cfg = base_config(tmp_path / "o", kernel=kernel, solver=solver_keys)
        cfg["grid"]["n"] = n
        path = write_config(tmp_path, "c.json", cfg)
    assert cli.cmd_simulate(path, str(tmp_path / "o")) == 0
    log = json.loads((tmp_path / "o" / "run.json").read_text())["step_log"]
    assert (log["rate_path"], log["live_cells"]) == tuple(want)


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


@pytest.mark.parametrize("name, counts", [("constant_validate.json", [(60, 0, 362)]),
                                          ("grid_convergence_sweep.json", [(57, 0, 344)] * 6)])
def test_demo_runs_keep_their_steps_under_the_stability_cap(tmp_path, name, counts):
    # none of these runs is stiff: the cap h <= 3.3 / lambda_max never binds.
    # constant_validate took 62/0/374 while each of its snapshots cut a step
    assert cli.cmd_simulate(DEMO_CONFIGS / name, str(tmp_path / "o")) == 0
    logs = [json.loads(p.read_text())["step_log"]
            for p in sorted((tmp_path / "o").rglob("run.json"))]
    assert [(g["accepted"], g["rejected"], g["rhs_evals"]) for g in logs] == counts
    assert all(0.0 < g["max_h_lambda"] < 3.3 and g["stiff_steps"] == 0 for g in logs)


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


def test_diverging_run_prints_only_its_flag(tmp_path, capsys):
    # K = xy under rk4 at dt 0.5 is unstable and overflows; the flag reports
    # it, and numpy's overflow warnings stay off stderr
    cfg = base_config(tmp_path / "o", kernel={"family": "multiplicative", "params": {}},
                      grid={"kind": "discrete", "n": 64})
    cfg["solver"] = {"scheme": "rk4", "dt": 0.5, "boundary": "conservative", "t_end": 5.0}
    assert cli.main(["simulate", str(write_config(tmp_path, "d.json", cfg))]) == 3
    assert capsys.readouterr().err == "trajectory flagged: non_finite\n"


def test_main_entry_point(tmp_path, capsys):
    out = tmp_path / "out"
    path = write_config(tmp_path, "c.json", base_config(out))
    assert cli.main(["simulate", str(path)]) == 0
    assert cli.main(["validate", str(path), "--out", str(tmp_path / "v")]) == 0


def _cli_env():
    src = str(Path(cli.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))


_UNLOADED = ("scipy", "jsonschema", "concurrent.futures", "logging", "numpy.random")


def _loaded(code):
    """The modules of ``_UNLOADED`` that a fresh interpreter holds after
    running ``code``."""
    code += f"; print(sorted(m for m in sys.modules if m.startswith({_UNLOADED!r})))"
    out = subprocess.run([sys.executable, "-c", "import sys, coagkit.cli; " + code],
                         env=_cli_env(), capture_output=True, text=True, check=True,
                         timeout=120)
    return out.stdout.strip()


def test_cli_import_loads_no_scipy_or_jsonschema():
    # scipy was most of the start-up time of every command, and jsonschema
    # much of the rest; only the two quadrature cross-checks of the gelation
    # functionals import scipy, and only the tests import jsonschema.  A
    # sweep with --jobs above 1 alone imports concurrent.futures, which
    # loads logging, and nothing imports numpy.random
    assert _loaded("pass") == "[]"


def test_compactness_run_never_imports_numpy_random(tmp_path):
    # the samples come from the standard library's generator
    path, out = DEMO_CONFIGS / "compactness_singular.json", tmp_path / "o"
    assert _loaded(f"assert coagkit.cli.main(['compactness', {str(path)!r}, "
                   f"'--out', {str(out)!r}]) == 0") == "[]"
    assert (out / "compactness.json").exists()


def test_config_schema_is_valid():
    # the owned checker reads the schema as data and does not check it
    jsonschema.validators.validator_for(cli.CONFIG_SCHEMA).check_schema(cli.CONFIG_SCHEMA)


# the keywords check_config implements; "$schema" is read by no one
CHECKED_KEYWORDS = {"$schema", "type", "enum", "required", "properties",
                    "additionalProperties", "items", "minItems", "maxItems",
                    "minimum", "exclusiveMinimum", "propertyNames", "pattern"}


def test_config_schema_uses_only_checked_keywords():
    # a keyword the checker does not know would be silently ignored
    def walk(schema, where):
        assert schema.keys() <= CHECKED_KEYWORDS, (where, schema.keys() - CHECKED_KEYWORDS)
        assert schema.get("type", "object") in cli._TYPES, where
        assert schema.get("additionalProperties", False) is False \
            or isinstance(schema["additionalProperties"], dict), where
        assert all(isinstance(e, (str, int, float, bool)) for e in schema.get("enum", ())), where
        for name, sub in schema.get("properties", {}).items():
            walk(sub, f"{where}/{name}")
        for key in ("items", "propertyNames", "additionalProperties"):
            if isinstance(schema.get(key), dict):
                walk(schema[key], f"{where}<{key}>")
    walk(cli.CONFIG_SCHEMA, "")


# ---------------------------------------------------------------------------
# check_config against jsonschema, the oracle
# ---------------------------------------------------------------------------

_ORACLE = jsonschema.validators.validator_for(cli.CONFIG_SCHEMA)(cli.CONFIG_SCHEMA)


def _benchmark_configs():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "run.py"
    spec = importlib.util.spec_from_file_location("perfbench_run", path)
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    return [bench.WORKLOADS[name](11, True).cfg for name in sorted(bench.WORKLOADS)]


def _every_section_config():
    # every property of the schema, once, so that mutations reach each keyword
    nodes = [1.0, 10.0, 100.0]
    return base_config("o", **{
        "kernel": {"family": "product", "cap": 8.0, "cap_mode": "cap",
                   "params": {"c": 1.0, "alpha": 0.5, "beta": 0.5,
                              "rate": {"form": "power_law", "exponent": 1.0, "scale": 1.0,
                                       "offset": 2.0, "log_exponent": 0.5},
                              "x_nodes": nodes, "matrix": [nodes, nodes, nodes]}},
        "grid": {"kind": "geometric", "n": 8, "span": [1.0, 100.0], "ratio": 1.5,
                 "bins": 8, "edges": [0.5, 1.5, 2.5]},
        "init": {"family": "tabulated",
                 "params": {"size": 1.0, "mean": 2.0, "density": [1.0, 0.5, 0.0]}},
        "solver": {"scheme": "rk4", "rel_tol": 1e-8, "abs_tol": 1e-12, "dt": 0.01,
                   "boundary": "absorbing", "t_end": 1.0, "snapshots": [0.5, 1.0],
                   "truncation_n": 8.0, "truncation_mode": "cap"},
        "diagnostics": {"checks": [{"name": "phi_gronwall", "R": 10.0, "A": 4.0,
                                    "theta": "identity"}]},
        "validate": {"sizes": 10, "tolerances": {"distribution_rel": 1e-6, "m0_rel": 1e-6,
                                                 "m1_rel": 1e-8, "m2_rel": 1e-3}},
        "compactness": {"source": "bounded", "thresholds": [1.0, 2.0], "eps": [0.1, 0.01],
                        "dlvp": {"alphas": [1.0, 1.0], "beta_ratio": 0.25, "terms": 2,
                                 "tail": "table", "inverse_coeff": 2.0,
                                 "tail_table": {"1": 1.0, "1e2": 0.5, ".5": 2.0},
                                 "samples": 10}},
        "gelation": {"policy": "mass_drop", "threshold": 0.01,
                     "xi": {"kind": "power_shifted", "lam": 2.0}, "baseline": True},
        "sweep": [{"grid.n": 4}],
    })


VALID_CONFIGS = ([json.loads(p.read_text()) for p in sorted(DEMO_CONFIGS.glob("*.json"))]
                 + _benchmark_configs() + [_every_section_config()])


def _verdicts(cfg):
    """check_config's error location and message, and jsonschema's errors."""
    try:
        cli.check_config(cfg)
        ours = None
    except ConfigError as exc:
        ours = re.fullmatch(r"config schema violation at (.*?): (.*)", str(exc), re.S)
        assert ours is not None, str(exc)
    return ours, list(_ORACLE.iter_errors(cfg))


def _loc(error):
    return "/".join(map(str, error.absolute_path)) or "<root>"


def _assert_agrees_with_jsonschema(cfg):
    # the verdicts agree, and the error named is best_match's: with one
    # violation that is the violation; with several it is at one of their
    # paths, chosen by the same rule
    ours, errors = _verdicts(cfg)
    assert (ours is None) == (not errors), (ours, [e.message for e in errors])
    if errors:
        assert ours.group(1) in {_loc(e) for e in errors}
        best = jsonschema.exceptions.best_match(errors)
        assert ours.groups() == (_loc(best), best.message)


@pytest.mark.parametrize("index", range(len(VALID_CONFIGS)))
def test_check_config_accepts_the_demo_and_benchmark_configs(index):
    assert _verdicts(VALID_CONFIGS[index]) == (None, [])


def _nodes(value, path=()):
    yield path, value
    children = value.items() if isinstance(value, dict) else \
        enumerate(value) if isinstance(value, list) else ()
    for key, child in children:
        yield from _nodes(child, path + (key,))


def _mutate(cfg, kind, pick, other):
    """Apply one mutation of ``kind`` to the ``pick``-th node it fits."""
    fits = {
        "delete": lambda path, v: len(path) > 0,
        "unknown_key": lambda path, v: isinstance(v, dict),
        "swap_type": lambda path, v: len(path) > 0,
        "bool_for_number": lambda path, v: isinstance(v, (int, float))
        and not isinstance(v, bool),
        "float_for_integer": lambda path, v: type(v) is int,
        "negative": lambda path, v: type(v) in (int, float),
        "zero": lambda path, v: type(v) in (int, float),
        "empty_array": lambda path, v: isinstance(v, list),
        "long_array": lambda path, v: isinstance(v, list) and len(v) > 0,
        "tail_table_key": lambda path, v: path[-1:] == ("tail_table",),
    }[kind]
    candidates = [path for path, v in _nodes(cfg) if fits(path, v)]
    if not candidates:
        return
    path = candidates[pick % len(candidates)]
    parent = cfg
    for key in path[:-1]:
        parent = parent[key]
    node = parent[path[-1]] if path else cfg
    if kind == "delete":
        del parent[path[-1]]
    elif kind == "unknown_key":
        node[("mystery", "extra", "zz")[pick % 3]] = 1
    elif kind == "swap_type":
        parent[path[-1]] = other
    elif kind == "bool_for_number":
        parent[path[-1]] = pick % 2 == 0
    elif kind == "float_for_integer":
        parent[path[-1]] = float(node) + (0.5 if pick % 2 else 0.0)
    elif kind == "negative":
        parent[path[-1]] = -abs(node) - (pick % 2)
    elif kind == "zero":
        parent[path[-1]] = 0 if pick % 2 else 0.0
    elif kind == "empty_array":
        node.clear()
    elif kind == "long_array":
        node.extend(copy.deepcopy(node[:1]) * (1 + pick % 3))
    else:
        node[("one", "-1", "1e", "1.2.3", "2")[pick % 5]] = 1.0


MUTATION_KINDS = ("delete", "unknown_key", "swap_type", "bool_for_number",
                  "float_for_integer", "negative", "zero", "empty_array",
                  "long_array", "tail_table_key")
OTHER_VALUES = ("x", None, [], {}, True, False, 1, 2.5, [1.0], {"a": 1}, "cap")


@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.integers(0, len(VALID_CONFIGS) - 1),
       st.lists(st.tuples(st.sampled_from(MUTATION_KINDS), st.integers(0, 10**6),
                          st.sampled_from(OTHER_VALUES)), min_size=1, max_size=3))
def test_check_config_agrees_with_jsonschema(index, mutations):
    cfg = copy.deepcopy(VALID_CONFIGS[index])
    for kind, pick, other in mutations:
        _mutate(cfg, kind, pick, copy.deepcopy(other))
    _assert_agrees_with_jsonschema(cfg)


def test_check_config_number_and_enum_semantics():
    # JSON Schema 2020-12: a bool is not a number, 1.0 is an integer, and
    # enum compares JSON values, so true is not 1
    cfg = base_config("o")
    for edit, ok in ((lambda c: c["grid"].update(n=128.0), True),
                     (lambda c: c["grid"].update(n=128.5), False),
                     (lambda c: c["grid"].update(n=True), False),
                     (lambda c: c["solver"].update(t_end=True), False),
                     (lambda c: c["init"]["params"].update(density=[1.0, False]), False),
                     (lambda c: c.update(gelation={"baseline": 1}), False),
                     (lambda c: c.update(gelation={"baseline": True}), True),
                     (lambda c: c["kernel"].update(cap=8, cap_mode="cap"), True),
                     (lambda c: c["kernel"].update(cap_mode=True), False)):
        edited = copy.deepcopy(cfg)
        edit(edited)
        ours, errors = _verdicts(edited)
        assert (ours is None, not errors) == (ok, ok)
    assert cli._json_equal(1, 1.0) and not cli._json_equal(True, 1)
    # unknown keys are named in sorted order, not in the order of the file
    _assert_agrees_with_jsonschema(base_config("o", zz=1, aa=2))


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


def _product_cap_on_pointwise_cap(cfg):
    # once ran min(r, 4)(x) min(r, 4)(y), with K(3, 3) = 9 above the cap 4
    cfg["kernel"] = {"family": "product", "params": {"rate": {"form": "identity"}},
                     "cap": 4.0}
    cfg["solver"].update({"truncation_n": 8.0, "truncation_mode": "product_cap"})


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


def _checks(*checks):
    def edit(cfg):
        cfg["diagnostics"] = {"checks": list(checks)}
    return edit


def _compactness(**sec):
    def edit(cfg):
        cfg["compactness"] = {"source": "bounded", **sec}
    return edit


def _demo_compactness(**dlvp):
    # the compactness section of the demo config with its dlvp section replaced
    def edit(cfg):
        demo = json.loads((DEMO_CONFIGS / "compactness_singular.json").read_text())
        cfg["compactness"] = {**demo["compactness"], "dlvp": dlvp}
    return edit


def _rk4_below_the_step_floor(cfg):
    # rk4 reads neither tolerance of the base config
    for key in ("rel_tol", "abs_tol"):
        del cfg["solver"][key]
    cfg["solver"].update({"scheme": "rk4", "dt": 1e-13})


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
    "simulate-product-cap-on-pointwise-cap":
        ("simulate", _product_cap_on_pointwise_cap, 2),
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
    # json reads NaN and Infinity; a config refuses them before any solve
    "simulate-t-end-nan":
        ("simulate", lambda cfg: cfg["solver"].update(t_end=float("nan")), 2),
    "simulate-t-end-infinity":
        ("simulate", lambda cfg: cfg["solver"].update(t_end=float("inf")), 2),
    "simulate-rel-tol-nan":
        ("simulate", lambda cfg: cfg["solver"].update(rel_tol=float("nan")), 2),
    # 1e13 fixed steps: the step-size floor ends the run
    "simulate-rk4-dt-below-the-step-floor":
        ("simulate", _rk4_below_the_step_floor, 3),
    # the oracle is for one particle of size 1
    "validate-exponential-init":
        ("validate", lambda cfg: cfg.update(
            init={"family": "exponential", "params": {"mean": 2.0}}), 4),
    "validate-monodisperse-size-2":
        ("validate", lambda cfg: cfg["init"]["params"].update(size=2.0), 4),
    # one size past the 16 cells: once a broadcast traceback, exit 1
    "validate-sizes-beyond-the-grid":
        ("validate", lambda cfg: cfg.update(validate={"sizes": 17}), 2),
    # keys the run would not read: each once exited 0 with the key dropped
    "simulate-additive-kernel-with-c":
        ("simulate", lambda cfg: cfg.update(
            kernel={"family": "additive", "params": {"c": 5.0}}), 2),
    "simulate-sqrt-log-rate-with-exponent":
        ("simulate", lambda cfg: cfg.update(kernel={"family": "product", "params": {
            "rate": {"form": "sqrt_log", "exponent": 2.0}}}), 2),
    "simulate-cap-mode-without-cap":
        ("simulate", lambda cfg: cfg["kernel"].update(cap_mode="cap"), 2),
    "simulate-truncation-mode-without-truncation-n":
        ("simulate", lambda cfg: cfg["solver"].update(truncation_mode="cap"), 2),
    "simulate-discrete-grid-with-edges":
        ("simulate", lambda cfg: cfg["grid"].update(edges=[1.0, 2.0, 4.0]), 2),
    "simulate-monodisperse-init-with-mean":
        ("simulate", lambda cfg: cfg["init"]["params"].update(mean=2.0), 2),
    "simulate-rk45-with-dt":
        ("simulate", lambda cfg: cfg["solver"].update(dt=0.01), 2),
    # m2_extrapolation is the default policy; it once ran the baseline too
    "gelation-m2-extrapolation-with-baseline":
        ("gelation", lambda cfg: cfg.update(
            gelation={"policy": "m2_extrapolation", "baseline": True}), 2),
    "gelation-default-policy-with-threshold":
        ("gelation", lambda cfg: cfg.update(gelation={"threshold": 0.05}), 2),
    # the functional's bound needs K >= r(x) r(y): once skipped silently on a
    # kernel with no product form, and reported against it under min(xy, 4)
    "gelation-xi-on-brownian":
        ("gelation", lambda cfg: cfg.update(kernel={"family": "brownian"},
                                            gelation={"xi": {"lam": 2.0}}), 4),
    "gelation-xi-on-binding-pointwise-cap":
        ("gelation", lambda cfg: cfg.update(kernel={"family": "multiplicative", "cap": 4.0},
                                            gelation={"xi": {"lam": 2.0}}), 4),
    # oversized grids: once a numpy ArrayMemoryError traceback, exit 1
    "simulate-discrete-grid-of-1e13-cells":
        ("simulate", lambda cfg: cfg["grid"].update(n=10**13), 2),
    "simulate-geometric-ratio-1-plus-1e-10":
        ("simulate", lambda cfg: cfg.update(grid={"kind": "geometric", "span": [1.0, 1e4],
                                                  "ratio": 1 + 1e-10}), 2),
    # once two numpy RuntimeWarnings, then exit 4 naming a non-finite
    # initial density the config did not give
    "simulate-geometric-edge-squared-overflow":
        ("simulate", lambda cfg: cfg.update(
            grid={"kind": "geometric", "span": [1e-300, 1e300], "bins": 50},
            init={"family": "exponential", "params": {"mean": 1.0}}), 2),
    # pivots below 1e-154 were once 0: two numpy RuntimeWarnings, then this
    # exit; the cells of widths near 1e-300 hold densities past every float
    "simulate-geometric-span-from-1e-300":
        ("simulate", lambda cfg: cfg.update(
            grid={"kind": "geometric", "span": [1e-300, 1e10]},
            init={"family": "exponential", "params": {"mean": 1.0}}), 2),
    # once two numpy RuntimeWarnings, then exit 3 on a non-finite trajectory
    "simulate-tabulated-init-of-infinite-moments":
        ("simulate", lambda cfg: cfg.update(grid={"kind": "discrete", "n": 128}, init={
            "family": "tabulated", "params": {"density": [1e308] * 128}}), 2),
    # once a numpy ValueError traceback, exit 1
    "simulate-ragged-tabulated-kernel-matrix":
        ("simulate", lambda cfg: cfg.update(kernel={"family": "tabulated", "params": {
            "x_nodes": [1.0, 10.0], "matrix": [[1.0, 1.0], [1.0]]}}), 2),
    # keys a check, a kind or a closed form does not read: each once exited 0
    "simulate-psi-moment-with-R":
        ("simulate", _checks({"name": "psi_moment", "R": 3}), 2),
    "simulate-phi-gronwall-with-A":
        ("simulate", _checks({"name": "phi_gronwall"}, {"name": "phi_gronwall", "A": 4.0}), 2),
    "simulate-comparison-ode-with-theta":
        ("simulate", _checks({"name": "comparison_ode", "theta": "one"}), 2),
    "gelation-ratio-shifted-xi-with-lam":
        ("gelation", lambda cfg: cfg.update(gelation={"xi": {"kind": "ratio_shifted",
                                                             "lam": 2.0}}), 2),
    "compactness-inverse-coeff-under-table-tail":
        ("compactness", _compactness(dlvp={"tail": "table", "tail_table": {"1": 1.0},
                                           "inverse_coeff": 2}), 2),
    "compactness-tail-table-under-default-tail":
        ("compactness", _compactness(dlvp={"tail_table": {"1": 1.0}}), 2),
    "validate-sizes-on-additive":
        ("validate", lambda cfg: cfg.update(kernel={"family": "additive"},
                                            validate={"sizes": 5}), 2),
    "simulate-geometric-ratio-beside-bins":
        ("simulate", lambda cfg: cfg.update(
            grid={"kind": "geometric", "span": [1.0, 16.0], "bins": 8, "ratio": 2.0},
            init={"family": "exponential", "params": {"mean": 2.0}}), 2),
    # 10^9 samples once drew 7.7 GB into the OOM killer; refused before any draw
    "compactness-samples-over-the-budget":
        ("compactness", _compactness(dlvp={"samples": compactness.MAX_SAMPLES + 1}), 2),
    # json.dumps writes the 401-digit literal: once an OverflowError traceback
    "compactness-alpha-beyond-every-float":
        ("compactness", _compactness(dlvp={"terms": 2, "alphas": [10**400, 1]}), 2),
    # once rounded to 0 and refused as "alphas and betas must be positive"
    "compactness-alpha-below-the-rational-resolution":
        ("compactness", _compactness(dlvp={"terms": 2, "alphas": [1e-300, 1]}), 2),
    # 10^7 terms once built their betas for 78 s into a MemoryError
    "compactness-terms-over-the-budget":
        ("compactness", _compactness(dlvp={"terms": compactness.MAX_TERMS + 1}), 2),
    # the run's sections were once checked only for source "run"
    "compactness-synthetic-source-additive-kernel-with-c":
        ("compactness", lambda cfg: cfg.update(
            kernel={"family": "additive", "params": {"c": 5.0}},
            compactness={"source": "bounded"}), 2),
    "simulate-rk4-with-tolerances":
        ("simulate", lambda cfg: cfg["solver"].update({"scheme": "rk4", "dt": 0.01}), 2),
    # N_2 of about 1e309 once overflowed family_tail's float comparison, and
    # under the inverse tail draw's float(N_2): both an OverflowError traceback
    "compactness-breakpoint-beyond-every-float":
        ("compactness", _demo_compactness(terms=2, alphas=[1e-9, 1e300]), 4),
    "compactness-breakpoint-beyond-every-float-inverse-tail":
        ("compactness", _demo_compactness(terms=2, alphas=[1e-9, 1e300], tail="inverse"), 4),
}

# what the stderr line of each refusal before the run names
REFUSED_BEFORE_THE_RUN = {
    "simulate-additive-kernel-with-c": "kernel.params.c is not read by KernelSpec.additive",
    "simulate-sqrt-log-rate-with-exponent":
        "kernel.params.rate.exponent is not read by RadialRate.sqrt_log",
    "simulate-cap-mode-without-cap": "kernel.cap is required by KernelSpec.truncate",
    "simulate-truncation-mode-without-truncation-n":
        "solver.truncation_n is required by KernelSpec.truncate",
    "simulate-discrete-grid-with-edges": "grid.edges is not read by SizeGrid.discrete",
    "simulate-monodisperse-init-with-mean": "unexpected keyword argument 'mean'",
    "simulate-rk45-with-dt": "solver.dt is not read by the rk45 scheme",
    "gelation-m2-extrapolation-with-baseline":
        "gelation.baseline is read only by the mass_drop policy",
    "gelation-default-policy-with-threshold":
        "gelation.threshold is read only by the mass_drop policy",
    "gelation-xi-on-brownian": "kernel has no product form r(x) r(y)",
    "gelation-xi-on-binding-pointwise-cap": "gelation.xi needs a product kernel",
    "simulate-ragged-tabulated-kernel-matrix": "tabulated kernel matrix",
    "simulate-geometric-edge-squared-overflow":
        "the largest edge squared, about 1e600, overflows float64",
    "simulate-geometric-span-from-1e-300":
        "exponential initial data has non-finite M0, M1, M2",
    "simulate-tabulated-init-of-infinite-moments":
        "tabulated initial data has non-finite M0, M1, M2",
    "simulate-psi-moment-with-R": "diagnostics.checks[0].R is not read by psi_moment",
    "simulate-phi-gronwall-with-A": "diagnostics.checks[1].A is not read by phi_gronwall",
    "simulate-comparison-ode-with-theta":
        "diagnostics.checks[0].theta is not read by comparison_ode",
    "gelation-ratio-shifted-xi-with-lam": "gelation.xi.lam is not read by ratio_shifted",
    "compactness-inverse-coeff-under-table-tail":
        "compactness.dlvp.inverse_coeff is not read by table",
    "compactness-tail-table-under-default-tail":
        "compactness.dlvp.tail_table is not read by from_family",
    "validate-sizes-on-additive": "validate.sizes is not read by the moments_only oracle",
    "simulate-geometric-ratio-beside-bins": "grid.ratio is not read beside bins",
    "compactness-samples-over-the-budget":
        f"compactness.dlvp.samples {compactness.MAX_SAMPLES + 1} exceeds the budget",
    "compactness-alpha-beyond-every-float":
        "compactness.dlvp.alphas entry exceeds the largest float",
    "compactness-alpha-below-the-rational-resolution":
        "compactness.dlvp.alphas entry 1e-300 rounds to 0",
    "compactness-terms-over-the-budget":
        f"compactness.dlvp.terms {compactness.MAX_TERMS + 1} exceeds the budget",
    "compactness-synthetic-source-additive-kernel-with-c":
        "kernel.params.c is not read by KernelSpec.additive",
    "simulate-rk4-with-tolerances": "solver.rel_tol is not read by the rk4 scheme",
}


@pytest.mark.parametrize("case", sorted(BAD_CONFIGS))
def test_check_config_agrees_with_jsonschema_on_bad_configs(case):
    cfg = base_config("o")
    cfg["grid"]["n"] = 16
    BAD_CONFIGS[case][1](cfg)
    _assert_agrees_with_jsonschema(cfg)


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


def test_geometric_span_from_1e_300_in_50_bins_runs(tmp_path):
    # its first pivot, about 1e-297, was once 0: a numpy RuntimeWarning, then exit 2
    cfg = base_config(tmp_path / "o", grid={"kind": "geometric", "span": [1e-300, 1e10],
                                            "bins": 50},
                      init={"family": "exponential", "params": {"mean": 1.0}})
    proc = _run_cli("simulate", write_config(tmp_path, "c.json", cfg))
    assert (proc.returncode, proc.stderr) == (0, "")
    moments = (tmp_path / "o" / "moments.csv").read_text().splitlines()
    assert len(moments) == 4 and "nan" not in moments[-1] and "inf" not in moments[-1]


@pytest.mark.parametrize("section, key", [("kernel", "c"), ("init", "mean")])
def test_overflowing_number_literal_exits_2(tmp_path, section, key):
    # json reads 1e999 as inf with no NaN or Infinity literal; json.dumps
    # cannot write it, so the literal goes into the text
    cfg = base_config(tmp_path / "o")
    cfg["grid"]["n"] = 16
    if section == "init":
        cfg["init"] = {"family": "exponential", "params": {}}
    cfg[section]["params"][key] = 123.25
    path = tmp_path / "big.json"
    path.write_text(json.dumps(cfg).replace("123.25", "1e999"), encoding="utf-8")
    proc = _run_cli("simulate", path)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.strip().splitlines() == [
        "config error: non-finite number 1e999 in the config"]
    assert not (tmp_path / "o").exists()


def test_integer_literal_past_the_digit_limit_exits_2(tmp_path):
    # json refuses to read an integer of more than 4300 digits with a
    # ValueError that is not a JSONDecodeError: once a traceback, exit 1
    cfg = base_config(tmp_path / "o", compactness={"source": "bounded",
                                                   "dlvp": {"alphas": [7, 1]}})
    path = tmp_path / "big.json"
    path.write_text(json.dumps(cfg).replace("[7,", "[1" + "0" * 5000 + ","), encoding="utf-8")
    proc = _run_cli("compactness", path)
    assert proc.returncode == 2, proc.stderr
    [line] = proc.stderr.strip().splitlines()
    assert line.startswith("config error: cannot read config") and "4300 digits" in line
    assert not (tmp_path / "o").exists()


def test_non_finite_looking_strings_load(tmp_path):
    # the values of {"directory": "NaN"} read as one array give a NaN float;
    # the literal check behind it finds no non-finite number, so it loads
    cfg = base_config("o", output={"directory": "NaN"})
    assert not cli._finite(cfg)
    assert cli.load_config(write_config(tmp_path, "c.json", cfg)) == cfg


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


@pytest.mark.parametrize("case", sorted(REFUSED_BEFORE_THE_RUN))
def test_refusal_names_the_key_before_the_run(tmp_path, monkeypatch, capsys, case):
    # nothing is integrated and no artifact is written
    monkeypatch.setattr(cli, "integrate", lambda *a, **k: pytest.fail("integrated"))
    command, edit, code = BAD_CONFIGS[case]
    cfg = base_config(tmp_path / "o")
    cfg["grid"]["n"] = 16
    edit(cfg)
    assert getattr(cli, f"cmd_{command}")(write_config(tmp_path, "bad.json", cfg)) == code
    [line] = capsys.readouterr().err.strip().splitlines()
    assert REFUSED_BEFORE_THE_RUN[case] in line
    assert not (tmp_path / "o").exists()


def test_config_sections_name_the_library_constructors():
    # each kernel family, rate form and grid kind is a constructor, and each
    # of its parameters is a key of its section (span gives x_min and x_max),
    # as are SolverConfig's, KernelSpec.truncate's and each initial family's:
    # so on a schema-valid config build_run fails only with ConfigError.
    props = cli.CONFIG_SCHEMA["properties"]
    kernel = props["kernel"]["properties"]
    params = kernel["params"]["properties"]
    rate = params["rate"]["properties"]
    grid = props["grid"]["properties"]
    span = {"x_min": "span", "x_max": "span"}
    for cls, names, keys, rename in ((KernelSpec, kernel["family"]["enum"], params, {}),
                                     (RadialRate, rate["form"]["enum"], rate, {}),
                                     (SizeGrid, grid["kind"]["enum"], grid, span)):
        for name in names:
            assert isinstance(vars(cls).get(name), staticmethod), (cls, name)
            for p in inspect.signature(getattr(cls, name)).parameters:
                assert rename.get(p, p) in keys, (cls.__name__, name, p)
    solver = props["solver"]["properties"]
    for p in inspect.signature(SolverConfig).parameters:
        assert p == "kernel" or {"snapshot_times": "snapshots"}.get(p, p) in solver, p
    assert list(inspect.signature(KernelSpec.truncate).parameters) == ["self", "n", "mode"]
    assert {"cap", "cap_mode"} <= kernel.keys()
    assert {"truncation_n", "truncation_mode"} <= solver.keys()
    init = props["init"]["properties"]
    for family in init["family"]["enum"]:
        grid_arg, *rest = inspect.signature(grids._INIT_FAMILIES[family]).parameters
        assert grid_arg == "grid" and set(rest) <= init["params"]["properties"].keys(), family


def test_section_keys_are_the_parameters_of_the_library_functions():
    # diagnostics, validate, gelation and compactness: each key is a
    # parameter of the function the CLI passes it to, and each parameter is
    # a key, besides those the CLI passes itself (the trajectory, the cells
    # of the grid) and the keys that name a kind or hold a section
    props = cli.CONFIG_SCHEMA["properties"]

    def keys(section, *skip):
        return set(section["properties"]) - set(skip)

    def params(fn, *given):
        return set(inspect.signature(fn).parameters) - set(given)

    def kinds(table, *given):
        assert all(params(f, *given) <= params(f) for f in table.values())
        return set().union(*(params(f, *given) for f in table.values()))

    checks = props["diagnostics"]["properties"]["checks"]["items"]
    assert set(checks["properties"]["name"]["enum"]) == diagnostics.CHECKS.keys()
    for name, check in diagnostics.CHECKS.items():
        assert params(check) <= keys(checks, "name"), name
    assert kinds(diagnostics.CHECKS) == keys(checks, "name")

    validate = props["validate"]
    assert params(reference.validation_report, "traj", "oracle") \
        == keys(validate["properties"]["tolerances"])
    assert reference.SIZES.keys() == {"full_distribution", "moments_only"}
    assert kinds(reference.SIZES, "cells") == keys(validate, "tolerances")

    gelation = props["gelation"]
    assert params(diagnostics.gelation_detect, "traj", "kernel") == keys(gelation, "xi")
    xi = gelation["properties"]["xi"]
    assert set(xi["properties"]["kind"]["enum"]) == diagnostics.XI.keys()
    assert diagnostics.XI_DEFAULT in diagnostics.XI
    assert kinds(diagnostics.XI) == keys(xi, "kind")

    section = props["compactness"]
    assert params(compactness.CompactnessConfig) == keys(section, "dlvp")
    dlvp = section["properties"]["dlvp"]
    assert set(dlvp["properties"]["tail"]["enum"]) == compactness.TAILS.keys()
    assert compactness.TAIL_DEFAULT in compactness.TAILS
    own, tails = params(compactness.DlvpConfig), kinds(compactness.TAILS)
    assert not own & tails and own | tails == keys(dlvp, "tail")
