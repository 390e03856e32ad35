"""Configuration-driven command line: simulate, validate, compactness, gelation.

One JSON config file drives one command.  The schema is strict (unknown keys
are rejected) and every run writes a ``run.json`` carrying the config hash,
so artifacts are self-describing and reruns are byte-identical.

Each command reads its config, runs one body, and leaves every error to
``_exit_code``, the one place that maps errors to exit codes: 0 ok,
1 tolerance failure, 2 config error (the schema, a key the run would not
read, or building the run and its kernel), 3 flagged trajectory (e.g.
step-size underflow near gelation), 4 any other refused request,
5 constructive failure of the convex-function builder.
"""

from __future__ import annotations

import argparse
import copy
import dataclasses
import inspect
import json
import math
import numbers
import os
import re
import sys
from pathlib import Path

import numpy as np

from . import __version__, diagnostics
from .compactness import (TAIL_DEFAULT, TAILS, CompactnessConfig, DlvpConfig,
                          FunctionFamily, dlvp_construct, eta_limit, eta_modulus,
                          eta_zero_extrapolation, family_tail, synthetic_family,
                          vp_check)
from .diagnostics import (CHECKS, XI, XI_DEFAULT, bound_monitor, comparison_ode,
                          gelation_detect, gelation_functional, product_rate,
                          weak_form_residual)
from .errors import ArgumentError, CoagKitError, ConfigError, ConstructionError
from .grids import SizeGrid, init_distribution
from .kernels import KernelSpec, RadialRate, classify
from .reference import SIZES, exact_solution, validation_oracle, validation_report
from .solver import SolverConfig, Trajectory, check_fixed_work, integrate

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
        "output": _strict({"directory": {"type": "string"}}),
        "sweep": {"type": "array", "items": {"type": "object"}},
    }, "kernel", "grid", "init", "solver"),
}

# ---------------------------------------------------------------------------
# Schema checker: the keywords CONFIG_SCHEMA uses, under JSON Schema 2020-12
# ---------------------------------------------------------------------------

def _is_number(v) -> bool:
    return isinstance(v, numbers.Number) and not isinstance(v, bool)


_TYPES = {
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "string": lambda v: isinstance(v, str),
    "boolean": lambda v: isinstance(v, bool),
    "number": _is_number,
    "integer": lambda v: not isinstance(v, bool) and (
        isinstance(v, int) or isinstance(v, float) and v.is_integer()),
}


def _json_equal(a, b) -> bool:
    """JSON equality of an enum's scalar and a value: ``true`` is not 1,
    while 1.0 is 1."""
    return isinstance(a, bool) == isinstance(b, bool) and a == b


def _suspects(items: list, schema: dict):
    """Indices of the ``items`` that may violate ``schema``: for a plain
    number schema, those failing one tight loop; otherwise all of them."""
    if schema.get("type") != "number" \
            or not schema.keys() <= {"type", "minimum", "exclusiveMinimum"}:
        return range(len(items))
    lo = schema.get("minimum", -math.inf)
    above = schema.get("exclusiveMinimum", -math.inf)
    return [i for i, v in enumerate(items)
            if not ((type(v) is float or type(v) is int) and v >= lo and v > above)]


def _violations(value, schema: dict, path: tuple):
    """``(path, message)`` for each violation of ``schema`` by ``value``, in
    the order of the schema's keywords; ``$schema`` is ignored."""
    matched = "type" in schema and _TYPES[schema["type"]](value)
    is_obj, is_arr = isinstance(value, dict), isinstance(value, list)
    for key, arg in schema.items():
        msg = None
        if key == "type" and not matched:
            msg = f"{value!r} is not of type {arg!r}"
        elif key == "enum" and not any(_json_equal(e, value) for e in arg):
            msg = f"{value!r} is not one of {arg!r}"
        elif key == "minimum" and _is_number(value) and value < arg:
            msg = f"{value!r} is less than the minimum of {arg!r}"
        elif key == "exclusiveMinimum" and _is_number(value) and value <= arg:
            msg = f"{value!r} is less than or equal to the minimum of {arg!r}"
        elif key == "pattern" and isinstance(value, str) and not re.search(arg, value):
            msg = f"{value!r} does not match {arg!r}"
        elif key == "minItems" and is_arr and len(value) < arg:
            msg = f"{value!r} " + ("should be non-empty" if arg == 1 else "is too short")
        elif key == "maxItems" and is_arr and len(value) > arg:
            msg = f"{value!r} is too long"
        elif key == "items" and is_arr:
            for i in _suspects(value, arg):
                yield from _violations(value[i], arg, path + (i,))
        elif key == "required" and is_obj:
            for name in arg:
                if name not in value:
                    yield path, f"{name!r} is a required property"
        elif key == "properties" and is_obj:
            for name, sub in arg.items():
                if name in value:
                    yield from _violations(value[name], sub, path + (name,))
        elif key == "propertyNames" and is_obj:
            for name in value:
                yield from _violations(name, arg, path)
        elif key == "additionalProperties" and is_obj:
            extras = [k for k in value if k not in schema.get("properties", {})]
            if isinstance(arg, dict):
                for name in extras:
                    yield from _violations(value[name], arg, path + (name,))
            elif not arg and extras:
                names = ", ".join(map(repr, sorted(extras, key=str)))
                verb = "was" if len(extras) == 1 else "were"
                msg = f"Additional properties are not allowed ({names} {verb} unexpected)"
        if msg is not None:
            yield path, msg


def check_config(cfg: dict) -> dict:
    """``cfg`` itself if it satisfies the schema; ConfigError otherwise.

    Of several violations the error names the shallowest, the last in path
    order among those, and the first found at that path: the choice of the
    reference validator's ``best_match`` on this schema."""
    found = list(_violations(cfg, CONFIG_SCHEMA, ()))
    if found:
        path, msg = max(found, key=lambda v: (-len(v[0]), v[0]))
        loc = "/".join(map(str, path)) or "<root>"
        raise ConfigError(f"config schema violation at {loc}: {msg}")
    return cfg


# ---------------------------------------------------------------------------
# Config -> objects
# ---------------------------------------------------------------------------

def _finite_number(text: str) -> float:
    """``float(text)``, or ConfigError when it is not finite: ``NaN``,
    ``Infinity``, or a literal such as ``1e999`` that overflows."""
    value = float(text)
    if not math.isfinite(value):
        raise ConfigError(f"non-finite number {text} in the config")
    return value


def _finite(value) -> bool:
    """Whether every float in a parsed config is finite.  A numeric list is
    tested as one array, which may also turn strings such as "nan" into
    non-finite values: a False is checked again, a True is final."""
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, list):
        try:
            return bool(np.isfinite(np.asarray(value, dtype=float)).all())
        except (TypeError, ValueError, OverflowError):
            return all(map(_finite, value))
    return not isinstance(value, float) or math.isfinite(value)


def load_config(path) -> dict:
    try:
        text = Path(path).read_text(encoding="utf-8")
        cfg = json.loads(text)
        if not _finite(cfg):
            # the float hooks refuse the first non-finite literal by its text
            json.loads(text, parse_float=_finite_number, parse_constant=_finite_number)
    except (OSError, ValueError) as exc:   # ValueError: also an integer of 4301+ digits
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return check_config(cfg)


def config_hash(cfg: dict) -> str:
    # the built-in SHA-256, as the standard library's random takes its
    # sha512: hashlib loads OpenSSL, about 3 ms of each simulate run
    try:
        from _sha256 import sha256
    except ImportError:
        from hashlib import sha256
    canon = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return sha256(canon.encode()).hexdigest()


def _checked(fn, kwargs: dict, where: str, keys: dict | None = None, given=(),
             name: str = ""):
    """``fn``'s parameters, once ``kwargs`` is checked against them: a
    keyword ``fn`` does not take, or a required one not ``given`` by the
    caller left out, is a ConfigError naming the key ``where.param`` and
    ``fn`` (or ``name``); ``keys`` maps a parameter to its key."""
    params = inspect.signature(fn).parameters
    required = [p for p, v in params.items() if v.default is v.empty and p not in given]
    for param in [*kwargs, *required]:
        if param not in params or param not in kwargs:
            verb = "is required by" if param in params else "is not read by"
            raise ConfigError(f"{where}.{(keys or {}).get(param, param)} {verb} "
                              f"{name or fn.__qualname__}")
    return params


def _call(fn, kwargs: dict, where: str, keys: dict | None = None, name: str = ""):
    """``fn(**kwargs)``, with ``kwargs`` first ``_checked``; an argument that
    ``fn`` refuses (ArgumentError) is a ConfigError naming its key too.  So
    each default lives in a library signature and nowhere else."""
    _checked(fn, kwargs, where, keys, name=name)
    try:
        return fn(**kwargs)
    except ArgumentError as exc:
        raise ConfigError(f"{where}.{(keys or {}).get(exc.name, exc.name)} "
                          f"{exc.reason}") from exc


def _kind(kinds: dict, section: dict, where: str, key: str, default=None):
    """The function of ``kinds`` that ``section[key]`` (or ``default``)
    names, through ``_call`` with the rest of ``section``."""
    rest = dict(section)
    kind = rest.pop(key, default)
    return _call(kinds[kind], rest, where, name=kind)


def _truncate(kernel: KernelSpec, section: dict, where: str, n_key: str,
              mode_key: str) -> KernelSpec:
    """``kernel.truncate`` with the section's level and mode, when it gives
    either of them."""
    keys = {"n": n_key, "mode": mode_key}
    args = {name: section[key] for name, key in keys.items() if key in section}
    return _call(kernel.truncate, args, where, keys) if args else kernel


def build_kernel(section: dict) -> KernelSpec:
    params = dict(section.get("params", {}))
    if "rate" in params:
        rate = dict(params["rate"])
        params["rate"] = _call(getattr(RadialRate, rate.pop("form")), rate,
                               "kernel.params.rate")
    kernel = _call(getattr(KernelSpec, section["family"]), params, "kernel.params")
    return _truncate(kernel, section, "kernel", "cap", "cap_mode")


def build_grid(section: dict) -> SizeGrid:
    args = {k: v for k, v in section.items() if k not in ("kind", "span")}
    if "span" in section:
        args["x_min"], args["x_max"] = section["span"]
    return _call(getattr(SizeGrid, section["kind"]), args, "grid",
                 {"x_min": "span", "x_max": "span"})


def _warn_sparse_snapshots(config: SolverConfig, grid: SizeGrid):
    """Trapezoidal time quadrature needs dense snapshots near a gelation
    time; emit a config warning when a gelling kernel runs with few."""
    try:
        labels = classify(config.kernel, grid.span)
    except CoagKitError:
        return
    if any(g.label == "gelling" for g in labels) \
            and len(config.snapshot_times) < 8:
        print("warning: gelling kernel with sparse snapshots; trajectory "
              "time integrals use trapezoidal quadrature on snapshot times",
              file=sys.stderr)


# the solver keys each scheme does not read, and what its step is instead
_UNREAD = {"rk45": (("dt",), "adaptive"), "rk4": (("rel_tol", "abs_tol"), "the fixed dt")}


def build_run(cfg: dict):
    """The initial distribution and the solver config of a run; the
    config's kernel is the one integrated, ``solver.truncation_n`` applied.
    Any failure is a ConfigError."""
    s = cfg["solver"]
    args = {k: v for k, v in s.items()
            if k not in ("truncation_n", "truncation_mode", "snapshots")}
    if "snapshots" in s:
        args["snapshot_times"] = s["snapshots"]
    try:
        kernel = _truncate(build_kernel(cfg["kernel"]), s, "solver",
                           "truncation_n", "truncation_mode")
        grid = build_grid(cfg["grid"])
        init_sec = cfg["init"]
        init = init_distribution(grid, init_sec["family"], **init_sec.get("params", {}))
        config = _call(SolverConfig, {"kernel": kernel, **args}, "solver",
                       {"snapshot_times": "snapshots"})
    except ConfigError:
        raise
    except CoagKitError as exc:
        raise ConfigError(str(exc)) from exc
    keys, step = _UNREAD[config.scheme]
    for key in keys:
        if key in s:
            raise ConfigError(f"solver.{key} is not read by the {config.scheme} scheme, "
                              f"whose step is {step}")
    check_fixed_work(config, grid.size)
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


def _run_diagnostics(checks: list, traj: Trajectory, kernel: KernelSpec) -> list:
    """The rows of each ``(name, monitor keywords)`` in ``checks``."""
    rows = []
    for name, args in checks:
        try:
            if name == "weak_form_identity":
                reports = [weak_form_residual(traj, kernel, **args)]
            elif name == "comparison_ode":
                reports = [comparison_ode(traj, kernel.radial_rate(), **args)]
            else:
                reports = bound_monitor(traj, kernel, name, **args)
            rows.extend(row for rep in reports for row in rep.rows())
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


def _verdict(traj: Trajectory, failed: tuple = (), label: str = "") -> int:
    """The exit code; a flagged run prints only its flag, and a run whose
    checks named ``failed`` failed prints only their names."""
    if traj.flagged:
        print(f"{label}trajectory flagged: {traj.step_log['flag']}", file=sys.stderr)
        return EXIT_FLAGGED
    if failed:
        print(f"{label}tolerance failure: {', '.join(failed)}", file=sys.stderr)
        return EXIT_TOLERANCE
    return EXIT_OK


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
    init, config = build_run(cfg)
    checks = [(check["name"], _kind(CHECKS, check, f"diagnostics.checks[{i}]", "name"))
              for i, check in enumerate(cfg.get("diagnostics", {}).get("checks", []))]
    _warn_sparse_snapshots(config, init.grid)
    traj = integrate(init, config)
    out_dir = _out_dir(cfg, out)
    _write(out_dir / "moments.csv", traj.moments_csv())
    _write(out_dir / "snapshots.csv", traj.snapshots_csv())
    _write(out_dir / "run.json", _json_text(_run_json(cfg, traj)))
    rows = _run_diagnostics(checks, traj, config.kernel)
    if rows:
        _write(out_dir / "diagnostics.json", _json_text(rows))
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
        # imported here: it loads logging, which no other command needs
        import concurrent.futures

        with concurrent.futures.ProcessPoolExecutor(
                max_workers=min(jobs, len(tasks))) as pool:
            codes = list(pool.map(_sweep_entry, tasks))
    else:
        codes = [_sweep_entry(t) for t in tasks]
    return max(codes)


def _validate(cfg: dict, out: str | None) -> int:
    init, config = build_run(cfg)
    kernel = config.kernel
    oracle = validation_oracle(init, kernel, config.t_end)
    vcfg = dict(cfg.get("validate", {}))
    tolerances = vcfg.pop("tolerances", {})
    _checked(validation_report, tolerances, "validate.tolerances", given=("traj", "oracle"))
    sizes = _call(SIZES[oracle.kind], {"cells": init.grid.size, **vcfg}, "validate",
                  name=f"the {oracle.kind} oracle")
    traj = integrate(init, config)
    out_dir = _out_dir(cfg, out)
    oracle = exact_solution(kernel, float(traj.times[-1]), n_sizes=sizes)
    report = validation_report(traj, oracle, **tolerances)
    _write(out_dir / "validate.json", _json_text(report))
    return _verdict(traj, tuple(c["quantity"] for c in report["checks"] if c["verdict"] == "fail"))


def _compactness(cfg: dict, out: str | None) -> int:
    sec = dict(cfg.get("compactness", {}))
    dlvp = sec.pop("dlvp", None)
    spec = _call(CompactnessConfig, sec, "compactness")
    if dlvp is not None:
        own = inspect.signature(DlvpConfig).parameters
        tail = _kind(TAILS, {k: v for k, v in dlvp.items() if k not in own},
                     "compactness.dlvp", "tail", TAIL_DEFAULT)
        dlvp = _call(DlvpConfig, {k: v for k, v in dlvp.items() if k in own},
                     "compactness.dlvp")
    init, config = build_run(cfg)      # every section is checked, whatever the source
    if spec.source == "run":
        family = FunctionFamily.from_snapshots(integrate(init, config).snapshots)
    else:
        family = synthetic_family(spec.source)

    estimate, tails = eta_limit(family, spec.thresholds)
    eps = sorted(spec.eps)
    report = {
        "eta": {
            "thresholds": list(spec.thresholds),
            "tails": tails.tolist(),
            "estimate": estimate,
            "eps": eps,
            "eta_of_eps": [eta_modulus(family, e) for e in eps],
            "zero_extrapolation": eta_zero_extrapolation(family, spec.eps),
        },
    }
    if dlvp is not None:
        try:
            phi = dlvp_construct(family_tail(family) if tail is None else tail,
                                 dlvp.alphas, dlvp.betas, terms=dlvp.terms)
        except ConstructionError as exc:
            # the partial report names the first unmet breakpoint index
            report["dlvp"] = {"error": str(exc), "first_unmet_index": exc.index}
            _write(_out_dir(cfg, out) / "compactness.json", _json_text(report))
            raise
        check = vp_check(phi, dlvp.draw(phi))
        report["dlvp"] = {"function": phi.to_json_obj(),
                          "checks": check.to_json_obj()}

    _write(_out_dir(cfg, out) / "compactness.json", _json_text(report))
    return EXIT_OK


def _gelation(cfg: dict, out: str | None) -> int:
    init, config = build_run(cfg)
    kernel = config.kernel
    sec = dict(cfg.get("gelation", {}))
    xi = _kind(XI, sec.pop("xi"), "gelation.xi", "kind", XI_DEFAULT) if "xi" in sec else None
    # the keys are checked against the library function: the name
    # gelation_detect may be wrapped, as perfbench/op.py does to time it
    params = _checked(diagnostics.gelation_detect, sec, "gelation", given=("traj",))
    policy = sec.get("policy", params["policy"].default)
    for key in ("baseline", "threshold"):
        if key in sec and policy != "mass_drop":
            raise ConfigError(f"gelation.{key} is read only by the mass_drop policy")
    if xi is not None:
        # the bound 2 I_xi^2 M1(0) needs K >= r(x) r(y)
        rate = product_rate(kernel, init.grid, "gelation.xi")
    _warn_sparse_snapshots(config, init.grid)
    traj = integrate(init, config)
    if sec.pop("baseline", False):
        sec["baseline"] = integrate(init, dataclasses.replace(config, boundary="conservative"))
    report = gelation_detect(traj, kernel=kernel, **sec)
    obj = {
        "policy": policy,
        "t_gel_detected": report.t_gel_detected,
        "t_gel_upper_bound": report.t_gel_upper_bound,
        "flags": report.flags,
    }
    if xi is not None:
        func = gelation_functional(traj, rate, xi)
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
