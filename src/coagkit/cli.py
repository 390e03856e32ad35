"""Configuration-driven command line: simulate, validate, compactness, gelation.

One JSON config file drives one command.  The schema is strict (unknown keys
are rejected) and every run writes a ``run.json`` carrying the config hash,
so artifacts are self-describing and reruns are byte-identical.

Each command reads its config, runs one body, and leaves every error to
``_exit_code``, the one place that maps errors to exit codes: 0 ok,
1 tolerance failure, 2 config error (the schema, or building the run and its
kernel), 3 flagged trajectory (e.g. step-size underflow near gelation),
4 any other refused request, 5 constructive failure of the convex-function
builder.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import copy
import hashlib
import json
import os
import sys
from fractions import Fraction
from pathlib import Path

import jsonschema
import numpy as np

from . import __version__
from .compactness import (FunctionFamily, dlvp_construct, eta_limit,
                          eta_modulus, eta_zero_extrapolation, family_tail,
                          limit_denominator, synthetic_family, vp_check)
from .diagnostics import (bound_monitor, comparison_ode, gelation_detect,
                          gelation_functional, weak_form_residual)
from .errors import CoagKitError, ConfigError, ConstructionError, UnsupportedFamilyError
from .grids import SizeGrid, init_distribution
from .kernels import KernelSpec, RadialRate, classify
from .reference import exact_solution
from .solver import SolverConfig, Trajectory, _cap_binds, integrate, resolve_kernel

EXIT_OK = 0
EXIT_TOLERANCE = 1
EXIT_CONFIG = 2
EXIT_FLAGGED = 3
EXIT_UNSUPPORTED = 4
EXIT_CONSTRUCTION = 5

_NUM = {"type": "number"}
_POS = {"type": "number", "exclusiveMinimum": 0}
_DECIMAL = r"^([0-9]+\.?[0-9]*|\.[0-9]+)([eE][+-]?[0-9]+)?$"


def _strict(properties: dict, *required: str) -> dict:
    """Object schema that rejects unknown keys."""
    return {"type": "object", "additionalProperties": False,
            **({"required": list(required)} if required else {}),
            "properties": properties}


CONFIG_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    **_strict({
        "kernel": _strict({
            "family": {"enum": ["constant", "additive", "multiplicative",
                                "power_sum", "product", "brownian", "tabulated"]},
            "params": _strict({
                "c": _POS,
                "alpha": _NUM,
                "beta": _NUM,
                "rate": _strict({
                    "form": {"enum": ["power_law", "sqrt_log", "identity"]},
                    "exponent": _NUM,
                    "scale": _POS,
                    "offset": _POS,
                    "log_exponent": _NUM,
                }, "form"),
                "x_nodes": {"type": "array", "items": _POS, "minItems": 2},
                "matrix": {"type": "array",
                           "items": {"type": "array", "items": {"type": "number"}}},
            }),
            "cap": _POS,
            "cap_mode": {"enum": ["cap", "product_cap"]},
        }, "family"),
        "grid": _strict({
            "kind": {"enum": ["discrete", "geometric", "sectional"]},
            "n": {"type": "integer", "minimum": 1},
            "span": {"type": "array", "items": _POS, "minItems": 2, "maxItems": 2},
            "ratio": {"type": "number", "exclusiveMinimum": 1},
            "bins": {"type": "integer", "minimum": 1},
            "edges": {"type": "array", "items": _POS, "minItems": 2},
        }, "kind"),
        "init": _strict({
            "family": {"enum": ["monodisperse", "exponential", "tabulated"]},
            "params": _strict({
                "size": _POS,
                "mean": _POS,
                "density": {"type": "array", "items": {"type": "number"}},
            }),
        }, "family"),
        "solver": _strict({
            "scheme": {"enum": ["rk45", "rk4"]},
            "rel_tol": _POS,
            "abs_tol": _POS,
            "dt": _POS,
            "boundary": {"enum": ["absorbing", "conservative"]},
            "t_end": _POS,
            "snapshots": {"type": "array", "items": _POS, "minItems": 1},
            "truncation_n": _POS,
            "truncation_mode": {"enum": ["cap", "product_cap"]},
        }, "t_end"),
        "diagnostics": _strict({
            "checks": {"type": "array", "items": _strict({
                "name": {"enum": ["phi_gronwall", "psi_moment", "product_l2",
                                  "equicontinuity", "comparison_ode",
                                  "weak_form_identity"]},
                "R": _POS,
                "A": _POS,
                "theta": {"type": "string"},
            }, "name")},
        }),
        "validate": _strict({
            "sizes": {"type": "integer", "minimum": 1},
            "tolerances": _strict({
                "distribution_rel": _POS,
                "m0_rel": _POS,
                "m1_rel": _POS,
                "m2_rel": _POS,
            }),
        }),
        "compactness": _strict({
            "source": {"enum": ["run", "bounded", "concentrating", "singular"]},
            "thresholds": {"type": "array", "items": _POS, "minItems": 1},
            "eps": {"type": "array", "items": _POS, "minItems": 2},
            "dlvp": _strict({
                "alphas": {"type": "array", "items": _POS},
                "beta_ratio": _POS,
                "terms": {"type": "integer", "minimum": 1},
                "tail": {"enum": ["from_family", "inverse", "table"]},
                "inverse_coeff": _POS,
                "tail_table": {"type": "object",
                               "propertyNames": {"pattern": _DECIMAL},
                               "additionalProperties": {"type": "number"}},
                "samples": {"type": "integer", "minimum": 1},
            }),
        }),
        "gelation": _strict({
            "policy": {"enum": ["mass_drop", "m2_extrapolation"]},
            "threshold": _POS,
            "xi": _strict({
                "kind": {"enum": ["power_shifted", "ratio_shifted"]},
                "lam": _POS,
            }),
            "baseline": {"type": "boolean"},
        }),
        "output": _strict({
            "directory": {"type": "string"},
            "formats": {"type": "array", "items": {"enum": ["csv", "json"]}},
        }),
        "sweep": {"type": "array", "items": {"type": "object"}},
    }, "kernel", "grid", "init", "solver"),
}

# Built once: jsonschema.validate would re-check the schema itself on every call.
_CONFIG_VALIDATOR = jsonschema.validators.validator_for(CONFIG_SCHEMA)(CONFIG_SCHEMA)


# ---------------------------------------------------------------------------
# Config -> objects
# ---------------------------------------------------------------------------

def load_config(path) -> dict:
    try:
        cfg = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return check_config(cfg)


def check_config(cfg: dict) -> dict:
    """``cfg`` itself if it satisfies the schema; ConfigError otherwise."""
    error = jsonschema.exceptions.best_match(_CONFIG_VALIDATOR.iter_errors(cfg))
    if error is not None:
        loc = "/".join(str(p) for p in error.absolute_path) or "<root>"
        raise ConfigError(f"config schema violation at {loc}: {error.message}") from error
    return cfg


def config_hash(cfg: dict) -> str:
    canon = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


def build_kernel(section: dict) -> KernelSpec:
    fam = section["family"]
    params = section.get("params", {})
    if fam == "constant":
        kernel = KernelSpec.constant(params.get("c", 2.0))
    elif fam == "additive":
        kernel = KernelSpec.additive()
    elif fam == "multiplicative":
        kernel = KernelSpec.multiplicative()
    elif fam == "power_sum":
        if "alpha" not in params or "beta" not in params:
            raise ConfigError("power_sum kernel needs alpha and beta")
        kernel = KernelSpec.power_sum(params["alpha"], params["beta"])
    elif fam == "product":
        rspec = params.get("rate")
        if rspec is None:
            raise ConfigError("product kernel needs a rate specification")
        form = rspec["form"]
        if form == "identity":
            rate = RadialRate.identity()
        elif form == "power_law":
            rate = RadialRate.power_law(rspec.get("exponent", 1.0),
                                        rspec.get("scale", 1.0))
        else:
            rate = RadialRate.sqrt_log(rspec.get("offset", 2.0),
                                       rspec.get("log_exponent", 0.5))
        kernel = KernelSpec.product(rate)
    elif fam == "tabulated":
        if "x_nodes" not in params or "matrix" not in params:
            raise ConfigError("tabulated kernel needs x_nodes and matrix")
        kernel = KernelSpec.tabulated(params["x_nodes"], params["matrix"])
    else:  # brownian
        kernel = KernelSpec.brownian()
    if "cap" in section:
        kernel = kernel.truncate(section["cap"], section.get("cap_mode", "cap"))
    return kernel


def build_grid(section: dict) -> SizeGrid:
    kind = section["kind"]
    if kind == "discrete":
        if "n" not in section:
            raise ConfigError("discrete grid needs n")
        return SizeGrid.discrete(section["n"])
    if kind == "geometric":
        if "span" not in section:
            raise ConfigError("geometric grid needs span")
        lo, hi = section["span"]
        return SizeGrid.geometric(lo, hi, ratio=section.get("ratio", 2 ** 0.25),
                                  bins=section.get("bins"))
    if "edges" not in section:
        raise ConfigError("sectional grid needs edges")
    return SizeGrid.sectional(section["edges"])


def _warn_sparse_snapshots(config: SolverConfig, grid: SizeGrid):
    """Trapezoidal time quadrature needs dense snapshots near a gelation
    time; emit a config warning when a gelling kernel runs with few."""
    try:
        labels = classify(config.kernel, grid.span)
    except CoagKitError:
        return
    if any(g.label == "gelling" for g in labels) \
            and len(config.resolved_snapshots()) < 8:
        print("warning: gelling kernel with sparse snapshots; trajectory "
              "time integrals use trapezoidal quadrature on snapshot times",
              file=sys.stderr)


def build_run(cfg: dict):
    kernel = build_kernel(cfg["kernel"])
    grid = build_grid(cfg["grid"])
    init_sec = cfg["init"]
    init = init_distribution(grid, init_sec["family"], **init_sec.get("params", {}))
    s = cfg["solver"]
    config = SolverConfig(
        kernel=kernel,
        t_end=s["t_end"],
        snapshot_times=tuple(s["snapshots"]) if "snapshots" in s else None,
        scheme=s.get("scheme", "rk45"),
        dt=s.get("dt"),
        rel_tol=s.get("rel_tol", 1e-8),
        abs_tol=s.get("abs_tol", 1e-12),
        boundary=s.get("boundary", "absorbing"),
        truncation_n=s.get("truncation_n"),
        truncation_mode=s.get("truncation_mode", "cap"),
    )
    return init, config


def _build(cfg: dict):
    """``build_run`` and the kernel it integrates; any failure is a config error."""
    try:
        init, config = build_run(cfg)
        return init, config, resolve_kernel(config, init.grid)
    except (CoagKitError, KeyError) as exc:
        raise ConfigError(str(exc)) from exc


# ---------------------------------------------------------------------------
# Artifacts
# ---------------------------------------------------------------------------

def _out_dir(cfg: dict, override: str | None) -> Path:
    if override:
        base = Path(override)
    elif "output" in cfg and "directory" in cfg["output"]:
        base = Path(cfg["output"]["directory"])
    else:
        base = Path(os.environ.get("COAGKIT_OUT", "."))
    base.mkdir(parents=True, exist_ok=True)
    return base

def _write(path: Path, text: str):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def _json_text(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _run_json(cfg: dict, traj: Trajectory) -> dict:
    return {
        "config_sha256": config_hash(cfg),
        "package_version": __version__,
        "step_log": traj.step_log,
        "snapshot_count": len(traj.snapshots),
    }


def _run_diagnostics(cfg: dict, traj: Trajectory, kernel: KernelSpec) -> list:
    rows = []
    for check in cfg.get("diagnostics", {}).get("checks", []):
        name = check["name"]
        try:
            if name in ("phi_gronwall", "psi_moment", "product_l2", "equicontinuity"):
                kwargs = {}
                if name == "phi_gronwall":
                    kwargs = {"phi": lambda r: r * r, "R": check.get("R", 10.0)}
                if name == "product_l2":
                    kwargs = {"A": check.get("A", 4.0)}
                for rep in bound_monitor(traj, kernel, name, **kwargs):
                    rows.extend(rep.rows())
            elif name == "comparison_ode":
                rows.extend(comparison_ode(traj, kernel.radial_rate()).rows())
            elif name == "weak_form_identity":
                res = weak_form_residual(traj, kernel, check.get("theta", "identity"))
                rows.append({"check": "weak_form_identity",
                             "lhs": res.max_abs(), "rhs": 0.0,
                             "margin": -res.max_abs(), "verdict": "info"})
        except CoagKitError as exc:
            rows.append({"check": name, "lhs": float("nan"), "rhs": float("nan"),
                         "margin": float("nan"), "verdict": f"refused: {exc}"})
    return rows


def _rows_csv(rows: list) -> str:
    lines = ["check,lhs,rhs,margin,verdict"]
    for r in rows:
        lines.append(f"{r['check']},{float(r['lhs'])!r},{float(r['rhs'])!r},"
                     f"{float(r['margin'])!r},{r['verdict']}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def _exit_code(run, label: str = "") -> int:
    """Call ``run()``, a command body returning its exit code, and map the
    package's errors to theirs.  This is the CLI's only error policy.
    ``label`` (a sweep entry's name) starts the stderr line."""
    try:
        return run()
    except ConfigError as exc:
        print(f"{label}config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ConstructionError as exc:
        print(f"{label}constructive failure: {exc}", file=sys.stderr)
        return EXIT_CONSTRUCTION
    except CoagKitError as exc:
        print(f"{label}unsupported: {exc}", file=sys.stderr)
        return EXIT_UNSUPPORTED


def _verdict(traj: Trajectory, passed: bool = True, label: str = "") -> int:
    if traj.flagged:
        print(f"{label}trajectory flagged: {traj.step_log['flag']}", file=sys.stderr)
        return EXIT_FLAGGED
    return EXIT_OK if passed else EXIT_TOLERANCE


def cmd_simulate(config_path, out: str | None = None, jobs: int = 1) -> int:
    return _exit_code(lambda: _simulate(load_config(config_path), out, jobs))


def cmd_validate(config_path, out: str | None = None) -> int:
    return _exit_code(lambda: _validate(load_config(config_path), out))


def cmd_compactness(config_path, out: str | None = None) -> int:
    return _exit_code(lambda: _compactness(load_config(config_path), out))


def cmd_gelation(config_path, out: str | None = None) -> int:
    return _exit_code(lambda: _gelation(load_config(config_path), out))


def _simulate(cfg: dict, out: str | None, jobs: int = 1, label: str = "") -> int:
    if cfg.get("sweep"):
        return _run_sweep(cfg, out, jobs)
    init, config, kernel = _build(cfg)
    _warn_sparse_snapshots(config, init.grid)
    traj = integrate(init, config)
    out_dir = _out_dir(cfg, out)
    formats = cfg.get("output", {}).get("formats", ["csv", "json"])
    if "csv" in formats:
        _write(out_dir / "moments.csv", traj.moments_csv())
        _write(out_dir / "snapshots.csv", traj.snapshots_csv())
    _write(out_dir / "run.json", _json_text(_run_json(cfg, traj)))
    rows = _run_diagnostics(cfg, traj, kernel)
    if rows:
        _write(out_dir / "diagnostics.json", _json_text(rows))
        if "csv" in formats:
            _write(out_dir / "diagnostics.csv", _rows_csv(rows))
    return _verdict(traj, label=label)


def _sweep_entry(args) -> int:
    label = f"{args[2].name}: "
    return _exit_code(lambda: _simulate(_entry_config(*args), None, label=label), label)


def _entry_config(base_cfg: dict, overrides: dict, out_dir: Path) -> dict:
    """The base config with one sweep entry's dotted overrides, checked by
    the schema and written to ``out_dir/config.json``, the file that
    ``run.json``'s hash refers to."""
    cfg = copy.deepcopy(base_cfg)
    cfg.pop("sweep", None)
    for dotted, value in overrides.items():
        *path, key = dotted.split(".")
        node = cfg
        for k in path:
            node = node.setdefault(k, {})
            if not isinstance(node, dict):
                raise ConfigError(f"sweep override {dotted!r}: {k!r} is not an object")
        node[key] = value
    check_config(cfg)
    cfg.setdefault("output", {})["directory"] = str(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    _write(out_dir / "config.json", _json_text(cfg))
    return cfg


def _run_sweep(cfg: dict, out: str | None, jobs: int) -> int:
    base = _out_dir(cfg, out)
    tasks = [(cfg, entry, base / f"sweep_{i:03d}")
             for i, entry in enumerate(cfg["sweep"])]
    if jobs > 1:
        with concurrent.futures.ProcessPoolExecutor(
                max_workers=min(jobs, len(tasks))) as pool:
            codes = list(pool.map(_sweep_entry, tasks))
    else:
        codes = [_sweep_entry(t) for t in tasks]
    return max(codes)


def _validate(cfg: dict, out: str | None) -> int:
    init, config, kernel = _build(cfg)
    # the run ends at t_end at the latest, so this probes the oracle's
    # family and its window of validity before any work is done; the oracle
    # is for the uncapped kernel, so a cap that binds on the grid is refused,
    # and for one particle of size 1 on the discrete equation
    exact_solution(kernel, config.t_end)
    if _cap_binds(kernel, init.grid):
        raise UnsupportedFamilyError(
            f"the closed-form oracle is for the uncapped {kernel.family} kernel; "
            f"the cap {kernel.cap:g} binds on the grid")
    f = init.density
    if init.grid.kind != "discrete" or f[0] != 1.0 or np.any(f[1:]):
        raise UnsupportedFamilyError(
            "the closed-form oracle is for initial density [1, 0, ...] on a discrete grid")

    traj = integrate(init, config)
    out_dir = _out_dir(cfg, out)
    vcfg = cfg.get("validate", {})
    tols = vcfg.get("tolerances", {})
    t = traj.times[-1]
    sizes = vcfg.get("sizes", 10) if kernel.family == "constant" else 0
    oracle = exact_solution(kernel, float(t), n_sizes=sizes)

    def check(quantity, rel, tol, **values):
        return {"quantity": quantity, **values, "rel_error": rel, "tolerance": tol,
                "verdict": "pass" if rel <= tol else "fail"}

    m = traj.moments
    checks = []
    for name, got, mu, key, tol in (("M0", m[0.0][-1], 0.0, "m0_rel", 1e-6),
                                    ("M1", m[1.0][-1] + m.gel_mass[-1], 1.0, "m1_rel", 1e-8),
                                    ("M2", m[2.0][-1], 2.0, "m2_rel", 1e-3)):
        if mu in oracle.moments:
            got, want = float(got), oracle.moments[mu]
            checks.append(check(name, abs(got - want) / max(abs(want), 1e-300),
                                tols.get(key, tol), computed=got, reference=want))
    if oracle.distribution is not None:
        want = oracle.distribution
        f = traj.snapshots[-1].density[:want.size]
        rel = float(np.max(np.abs(f - want) / np.maximum(np.abs(want), 1e-300)))
        checks.append(check(f"f_1..f_{want.size}", rel, tols.get("distribution_rel", 1e-6)))
    ok = all(c["verdict"] == "pass" for c in checks)
    report = {"t": float(t), "checks": checks, "verdict": "pass" if ok else "fail"}
    _write(out_dir / "validate.json", _json_text(report))
    return _verdict(traj, ok)


def _compactness(cfg: dict, out: str | None) -> int:
    sec = cfg.get("compactness", {})
    source = sec.get("source", "run")
    if source == "run":
        init, config, _ = _build(cfg)
        family = FunctionFamily.from_snapshots(integrate(init, config).snapshots)
    else:
        family = synthetic_family(source)

    thresholds = sec.get("thresholds", [2.0 ** k for k in range(0, 14)])
    eps = sec.get("eps", [2.0 ** -k for k in range(4, 20)])
    estimate, tails = eta_limit(family, thresholds)
    eta_eps = [eta_modulus(family, e) for e in sorted(eps)]
    extrap = eta_zero_extrapolation(family, eps)

    report = {
        "eta": {
            "thresholds": list(thresholds),
            "tails": tails.tolist(),
            "estimate": estimate,
            "eps": sorted(eps),
            "eta_of_eps": eta_eps,
            "zero_extrapolation": extrap,
        },
    }

    dcfg = sec.get("dlvp")
    if dcfg is not None:
        terms = dcfg.get("terms", 6)
        alphas = dcfg.get("alphas", [1] * terms)
        alphas = [limit_denominator(a, 10**9) if not float(a).is_integer()
                  else int(a) for a in alphas]
        ratio = dcfg.get("beta_ratio", 0.25)
        if float(ratio) == 0.25:
            betas = [Fraction(1, 4**m) for m in range(terms + 1)]
        else:
            betas = [float(ratio) ** m for m in range(terms + 1)]
        tail_kind = dcfg.get("tail", "from_family")
        if tail_kind == "inverse":
            coeff = dcfg.get("inverse_coeff", 2.0)
            if float(coeff).is_integer():
                coeff = int(coeff)

                def tail(c):
                    return Fraction(coeff, c)
            else:
                def tail(c):
                    return coeff / c
        elif tail_kind == "table":
            raw = dcfg.get("tail_table", {})
            if not raw:
                raise ConfigError("tail 'table' needs tail_table")
            tail = {float(k): v for k, v in raw.items()}
        else:
            tail = family_tail(family)
        try:
            phi = dlvp_construct(tail, alphas, betas, terms=terms)
        except ConstructionError as exc:
            # the partial report names the first unmet breakpoint index
            report["dlvp"] = {"error": str(exc), "first_unmet_index": exc.index}
            _write(_out_dir(cfg, out) / "compactness.json", _json_text(report))
            raise
        rng = np.random.default_rng(20240211)
        nsamp = dcfg.get("samples", 1000)
        top = float(phi.breakpoints[min(3, len(phi.breakpoints) - 1)])
        samples = [(limit_denominator(r, 10**6), limit_denominator(s, 10**6),
                    limit_denominator(l, 10**6))
                   for r, s, l in zip(rng.uniform(0, top, nsamp),
                                      rng.uniform(0, top, nsamp),
                                      rng.uniform(0, 4, nsamp))]
        check = vp_check(phi, samples)
        report["dlvp"] = {"function": phi.to_json_obj(),
                          "checks": check.to_json_obj()}

    _write(_out_dir(cfg, out) / "compactness.json", _json_text(report))
    return EXIT_OK


def _gelation(cfg: dict, out: str | None) -> int:
    init, config, kernel = _build(cfg)
    sec = cfg.get("gelation", {})
    _warn_sparse_snapshots(config, init.grid)
    traj = integrate(init, config)
    baseline = None
    if sec.get("baseline"):
        base_cfg = SolverConfig(**{**config.__dict__, "boundary": "conservative"})
        baseline = integrate(init, base_cfg)
    policy = sec.get("policy", "m2_extrapolation")
    report = gelation_detect(traj, policy, threshold=sec.get("threshold", 0.01),
                             baseline=baseline, kernel=kernel)
    obj = {
        "policy": policy,
        "t_gel_detected": report.t_gel_detected,
        "t_gel_upper_bound": report.t_gel_upper_bound,
        "flags": report.flags,
    }
    xi_cfg = sec.get("xi")
    if xi_cfg is not None and kernel.family in ("product", "multiplicative"):
        xi = ("power_shifted", xi_cfg.get("lam", 1.5)) \
            if xi_cfg.get("kind", "power_shifted") == "power_shifted" else "ratio_shifted"
        func = gelation_functional(traj, kernel.radial_rate(), xi)
        obj["functional"] = {
            "i_xi": func.i_xi,
            "bound": func.bound,
            "accumulated": func.functional_values.tolist(),
            "margin": func.functional_margin,
            "flags": func.flags,
        }
    out_dir = _out_dir(cfg, out)
    _write(out_dir / "gelation.json", _json_text(obj))
    _write(out_dir / "moments.csv", traj.moments_csv())
    return _verdict(traj)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="coagkit",
        description="coagulation solver, gelation diagnostics, compactness toolkit")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in (("simulate", cmd_simulate), ("validate", cmd_validate),
                     ("compactness", cmd_compactness), ("gelation", cmd_gelation)):
        p = sub.add_parser(name)
        p.add_argument("config_path", metavar="config", help="path to a JSON config file")
        p.add_argument("--out", default=None, help="output directory override")
        if fn is cmd_simulate:
            p.add_argument("--jobs", type=int, default=1,
                           help="worker processes for the entries of a sweep")
        p.set_defaults(func=fn)
    args = vars(parser.parse_args(argv))
    del args["command"]
    return args.pop("func")(**args)


if __name__ == "__main__":
    sys.exit(main())
