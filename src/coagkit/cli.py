"""Configuration-driven command line: simulate, validate, compactness, gelation.

One JSON config file drives one command.  The schema is strict (unknown keys
are rejected) and every run writes a ``run.json`` carrying the config hash,
so artifacts are self-describing and reruns are byte-identical.

Exit codes: 0 ok, 1 tolerance failure, 2 config error, 3 flagged trajectory
(e.g. step-size underflow near gelation), 4 unsupported request,
5 constructive failure of the convex-function builder.
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
from .errors import (CoagKitError, ConfigError, ConstructionError,
                     DomainError, UnsupportedFamilyError)
from .grids import SizeGrid, init_distribution
from .kernels import KernelSpec, RadialRate, classify
from .reference import exact_solution
from .solver import SolverConfig, Trajectory, integrate, resolve_kernel

EXIT_OK = 0
EXIT_TOLERANCE = 1
EXIT_CONFIG = 2
EXIT_FLAGGED = 3
EXIT_UNSUPPORTED = 4
EXIT_CONSTRUCTION = 5

_NUM = {"type": "number"}
_POS = {"type": "number", "exclusiveMinimum": 0}

CONFIG_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "additionalProperties": False,
    "required": ["kernel", "grid", "init", "solver"],
    "properties": {
        "kernel": {
            "type": "object",
            "additionalProperties": False,
            "required": ["family"],
            "properties": {
                "family": {"enum": ["constant", "additive", "multiplicative",
                                     "power_sum", "product", "brownian",
                                     "tabulated"]},
                "params": {
                    "type": "object",
                    "additionalProperties": False,
                    "properties": {
                        "c": _POS,
                        "alpha": _NUM,
                        "beta": _NUM,
                        "rate": {
                            "type": "object",
                            "additionalProperties": False,
                            "required": ["form"],
                            "properties": {
                                "form": {"enum": ["power_law", "sqrt_log", "identity"]},
                                "exponent": _NUM,
                                "scale": _POS,
                                "offset": _POS,
                                "log_exponent": _NUM,
                            },
                        },
                        "x_nodes": {"type": "array", "items": _POS, "minItems": 2},
                        "matrix": {"type": "array",
                                    "items": {"type": "array",
                                              "items": {"type": "number"}}},
                    },
                },
                "cap": _POS,
                "cap_mode": {"enum": ["cap", "product_cap"]},
            },
        },
        "grid": {
            "type": "object",
            "additionalProperties": False,
            "required": ["kind"],
            "properties": {
                "kind": {"enum": ["discrete", "geometric", "sectional"]},
                "n": {"type": "integer", "minimum": 1},
                "span": {"type": "array", "items": _POS,
                          "minItems": 2, "maxItems": 2},
                "ratio": {"type": "number", "exclusiveMinimum": 1},
                "bins": {"type": "integer", "minimum": 1},
                "edges": {"type": "array", "items": _POS, "minItems": 2},
            },
        },
        "init": {
            "type": "object",
            "additionalProperties": False,
            "required": ["family"],
            "properties": {
                "family": {"enum": ["monodisperse", "exponential", "tabulated"]},
                "params": {
                    "type": "object",
                    "additionalProperties": False,
                    "properties": {
                        "size": _POS,
                        "mean": _POS,
                        "density": {"type": "array", "items": {"type": "number"}},
                    },
                },
            },
        },
        "solver": {
            "type": "object",
            "additionalProperties": False,
            "required": ["t_end"],
            "properties": {
                "scheme": {"enum": ["rk45", "rk4"]},
                "rel_tol": _POS,
                "abs_tol": _POS,
                "dt": _POS,
                "boundary": {"enum": ["absorbing", "conservative"]},
                "t_end": _POS,
                "snapshots": {"type": "array", "items": _POS, "minItems": 1},
                "truncation_n": _POS,
                "truncation_mode": {"enum": ["cap", "product_cap"]},
            },
        },
        "diagnostics": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "checks": {
                    "type": "array",
                    "items": {
                        "type": "object",
                        "additionalProperties": False,
                        "required": ["name"],
                        "properties": {
                            "name": {"enum": ["phi_gronwall", "psi_moment",
                                               "product_l2", "equicontinuity",
                                               "comparison_ode",
                                               "weak_form_identity"]},
                            "R": _POS,
                            "A": _POS,
                            "theta": {"type": "string"},
                        },
                    },
                },
            },
        },
        "validate": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "sizes": {"type": "integer", "minimum": 1},
                "tolerances": {
                    "type": "object",
                    "additionalProperties": False,
                    "properties": {
                        "distribution_rel": _POS,
                        "m0_rel": _POS,
                        "m1_rel": _POS,
                        "m2_rel": _POS,
                    },
                },
            },
        },
        "compactness": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "source": {"enum": ["run", "bounded", "concentrating", "singular"]},
                "thresholds": {"type": "array", "items": _POS, "minItems": 1},
                "eps": {"type": "array", "items": _POS, "minItems": 2},
                "dlvp": {
                    "type": "object",
                    "additionalProperties": False,
                    "properties": {
                        "alphas": {"type": "array", "items": _POS},
                        "beta_ratio": _POS,
                        "terms": {"type": "integer", "minimum": 1},
                        "tail": {"enum": ["from_family", "inverse", "table"]},
                        "inverse_coeff": _POS,
                        "tail_table": {"type": "object",
                                        "additionalProperties": {"type": "number"}},
                        "samples": {"type": "integer", "minimum": 1},
                    },
                },
            },
        },
        "gelation": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "policy": {"enum": ["mass_drop", "m2_extrapolation"]},
                "threshold": _POS,
                "xi": {"type": "object",
                        "additionalProperties": False,
                        "properties": {
                            "kind": {"enum": ["power_shifted", "ratio_shifted"]},
                            "lam": _POS,
                        }},
                "baseline": {"type": "boolean"},
            },
        },
        "output": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "directory": {"type": "string"},
                "formats": {"type": "array",
                             "items": {"enum": ["csv", "json"]}},
            },
        },
        "sweep": {
            "type": "array",
            "items": {"type": "object"},
        },
    },
}

# Built once: jsonschema.validate would re-check the schema itself on every call.
_CONFIG_VALIDATOR = jsonschema.validators.validator_for(CONFIG_SCHEMA)(CONFIG_SCHEMA)


# ---------------------------------------------------------------------------
# Config -> objects
# ---------------------------------------------------------------------------

def load_config(path) -> dict:
    try:
        text = Path(path).read_text(encoding="utf-8")
        cfg = json.loads(text)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
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

def cmd_simulate(config_path, out: str | None = None, jobs: int = 1) -> int:
    try:
        cfg = load_config(config_path)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    if "sweep" in cfg and cfg["sweep"]:
        return _run_sweep(cfg, out, jobs)

    try:
        init, config = build_run(cfg)
    except (CoagKitError, KeyError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    _warn_sparse_snapshots(config, init.grid)
    traj = integrate(init, config)
    out_dir = _out_dir(cfg, out)
    formats = cfg.get("output", {}).get("formats", ["csv", "json"])
    if "csv" in formats:
        _write(out_dir / "moments.csv", traj.moments_csv())
        _write(out_dir / "snapshots.csv", traj.snapshots_csv())
    _write(out_dir / "run.json", _json_text(_run_json(cfg, traj)))
    rows = _run_diagnostics(cfg, traj, resolve_kernel(config, traj.grid))
    if rows:
        _write(out_dir / "diagnostics.json", _json_text(rows))
        if "csv" in formats:
            _write(out_dir / "diagnostics.csv", _rows_csv(rows))
    if traj.flagged:
        print(f"trajectory flagged: {traj.step_log['flag']}", file=sys.stderr)
        return EXIT_FLAGGED
    return EXIT_OK


def _sweep_entry(args):
    base_cfg, overrides, out_dir = args
    cfg = copy.deepcopy(base_cfg)
    cfg.pop("sweep", None)
    for dotted, value in overrides.items():
        node = cfg
        keys = dotted.split(".")
        for k in keys[:-1]:
            node = node.setdefault(k, {})
        node[keys[-1]] = value
    cfg.setdefault("output", {})["directory"] = str(out_dir)
    tmp = Path(out_dir) / "config.json"
    Path(out_dir).mkdir(parents=True, exist_ok=True)
    _write(tmp, _json_text(cfg))
    return cmd_simulate(tmp)


def _run_sweep(cfg: dict, out: str | None, jobs: int) -> int:
    base = _out_dir(cfg, out)
    tasks = [(cfg, entry, base / f"sweep_{i:03d}")
             for i, entry in enumerate(cfg["sweep"])]
    if jobs > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=jobs) as pool:
            codes = list(pool.map(_sweep_entry, tasks))
    else:
        codes = [_sweep_entry(t) for t in tasks]
    return max(codes) if codes else EXIT_OK


def cmd_validate(config_path, out: str | None = None, jobs: int = 1) -> int:
    try:
        cfg = load_config(config_path)
        init, config = build_run(cfg)
    except (ConfigError, CoagKitError, KeyError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    fam = config.kernel.family
    try:
        # the run ends at t_end at the latest, so this probes the oracle's
        # family and its window of validity before any work is done
        exact_solution(config.kernel, config.t_end)
    except (UnsupportedFamilyError, DomainError) as exc:
        print(f"unsupported: {exc}", file=sys.stderr)
        return EXIT_UNSUPPORTED

    traj = integrate(init, config)
    out_dir = _out_dir(cfg, out)
    vcfg = cfg.get("validate", {})
    tols = vcfg.get("tolerances", {})
    t = traj.times[-1]
    report = {"t": float(t), "checks": []}
    ok = True

    def add(name, got, want, tol):
        nonlocal ok
        rel = abs(got - want) / max(abs(want), 1e-300)
        good = rel <= tol
        ok = ok and good
        report["checks"].append({"quantity": name, "computed": got,
                                 "reference": want, "rel_error": rel,
                                 "tolerance": tol,
                                 "verdict": "pass" if good else "fail"})

    oracle = exact_solution(config.kernel, float(t),
                            n_sizes=vcfg.get("sizes", 10) if fam == "constant" else 0)
    m = traj.moments
    add("M0", float(m[0.0][-1]), oracle.moments[0.0], tols.get("m0_rel", 1e-6))
    add("M1", float(m[1.0][-1] + m.gel_mass[-1]), oracle.moments[1.0],
        tols.get("m1_rel", 1e-8))
    if 2.0 in oracle.moments:
        add("M2", float(m[2.0][-1]), oracle.moments[2.0], tols.get("m2_rel", 1e-3))
    if oracle.distribution is not None:
        f = traj.snapshots[-1].density[:oracle.distribution.size]
        rel = float(np.max(np.abs(f - oracle.distribution)
                           / np.maximum(np.abs(oracle.distribution), 1e-300)))
        tol = tols.get("distribution_rel", 1e-6)
        good = rel <= tol
        ok = ok and good
        report["checks"].append({"quantity": f"f_1..f_{oracle.distribution.size}",
                                 "rel_error": rel, "tolerance": tol,
                                 "verdict": "pass" if good else "fail"})
    report["verdict"] = "pass" if ok else "fail"
    _write(out_dir / "validate.json", _json_text(report))
    if traj.flagged:
        return EXIT_FLAGGED
    return EXIT_OK if ok else EXIT_TOLERANCE


def cmd_compactness(config_path, out: str | None = None, jobs: int = 1) -> int:
    try:
        cfg = load_config(config_path)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    sec = cfg.get("compactness", {})
    source = sec.get("source", "run")
    try:
        if source == "run":
            init, config = build_run(cfg)
            traj = integrate(init, config)
            family = FunctionFamily.from_snapshots(traj.snapshots)
        else:
            family = synthetic_family(source)
    except (CoagKitError, KeyError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

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
                print("config error: tail 'table' needs tail_table",
                      file=sys.stderr)
                return EXIT_CONFIG
            tail = {float(k): v for k, v in raw.items()}
        else:
            tail = family_tail(family)
        try:
            phi = dlvp_construct(tail, alphas, betas, terms=terms)
        except ConstructionError as exc:
            print(f"constructive failure: {exc}", file=sys.stderr)
            report["dlvp"] = {"error": str(exc), "first_unmet_index": exc.index}
            _write(_out_dir(cfg, out) / "compactness.json", _json_text(report))
            return EXIT_CONSTRUCTION
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


def cmd_gelation(config_path, out: str | None = None, jobs: int = 1) -> int:
    try:
        cfg = load_config(config_path)
        init, config = build_run(cfg)
    except (ConfigError, CoagKitError, KeyError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    sec = cfg.get("gelation", {})
    _warn_sparse_snapshots(config, init.grid)
    traj = integrate(init, config)
    baseline = None
    if sec.get("baseline"):
        base_cfg = SolverConfig(**{**config.__dict__, "boundary": "conservative"})
        baseline = integrate(init, base_cfg)
    policy = sec.get("policy", "m2_extrapolation")
    kernel = resolve_kernel(config, traj.grid)
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
        rate = kernel.radial_rate()
        xi = ("power_shifted", xi_cfg.get("lam", 1.5)) \
            if xi_cfg.get("kind", "power_shifted") == "power_shifted" else "ratio_shifted"
        try:
            func = gelation_functional(traj, rate, xi)
            obj["functional"] = {
                "i_xi": func.i_xi,
                "bound": func.bound,
                "accumulated": func.functional_values.tolist(),
                "margin": func.functional_margin,
                "flags": func.flags,
            }
        except CoagKitError as exc:
            print(f"unsupported: {exc}", file=sys.stderr)
            return EXIT_UNSUPPORTED
    out_dir = _out_dir(cfg, out)
    _write(out_dir / "gelation.json", _json_text(obj))
    _write(out_dir / "moments.csv", traj.moments_csv())
    if traj.flagged:
        return EXIT_FLAGGED
    return EXIT_OK


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="coagkit",
        description="coagulation solver, gelation diagnostics, compactness toolkit")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in (("simulate", cmd_simulate), ("validate", cmd_validate),
                     ("compactness", cmd_compactness), ("gelation", cmd_gelation)):
        p = sub.add_parser(name)
        p.add_argument("config", help="path to a JSON config file")
        p.add_argument("--jobs", type=int, default=1)
        p.add_argument("--out", default=None, help="output directory override")
        p.set_defaults(func=fn)
    args = parser.parse_args(argv)
    return args.func(args.config, out=args.out, jobs=args.jobs)


if __name__ == "__main__":
    sys.exit(main())
