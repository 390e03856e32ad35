"""coagkit benchmark: four workloads through the ``coagkit`` command line.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each operation is one fresh interpreter (``perfbench/op.py``) that imports
``coagkit.cli``, loads and builds the config, and calls ``cli.main`` once, as
a user running the command would.  Operations run one after another (closed
loop, one client) until the next one would overrun ``--seconds``.  Every
operation's artifacts are checked against oracles computed here from the
seeded inputs, without ``coagkit.reference``.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates traced
and untraced operations and prints the per-layer metrics.  The line before
the last one is an ``info`` object (environment, rate path, sample counts,
per-run maxima, failures); the last line is the result object.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_out"

OP_TIMEOUT_S = 100.0
K_SIZES = 4  # the seeded initial density lives on sizes 1..K_SIZES

E2E_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "cpu_s": "s",
    "ok_rate": "ratio",
}

LAYER_UNITS = {
    "cli.import_s": "s",
    "cli.load_config_s": "s",
    "cli.build_run_s": "s",
    "cli.self_s": "s",
    "cli.main_s": "s",
    "cli.bytes_written": "bytes",
    "solver.integrate_s": "s",
    "solver.loop_s": "s",
    "solver.prep_s": "s",
    "solver.rhs_evals": "count",
    "solver.accepted": "count",
    "solver.rejected": "count",
    "solver.clamp_events": "count",
    "solver.ms_per_eval": "ms",
    "solver.evals_per_step": "evals/step",
    "solver.accept_ratio": "ratio",
    "solver.gain_ms": "ms",
    "solver.rates_ms": "ms",
    "diagnostics.gelation_detect_s": "s",
    "diagnostics.gelation_functional_s": "s",
    "diagnostics.weak_form_residual_s": "s",
    "diagnostics.bound_monitor_s": "s",
    "compactness.eta_s": "s",
    "compactness.dlvp_construct_s": "s",
    "compactness.vp_check_s": "s",
    "compactness.vp_samples": "count",
    "oracle.mass_drift": "ratio",
    "oracle.m2_rel_err": "ratio",
    "oracle.t_gel_rel_err": "ratio",
    "trace.overhead_s": "s",
}

# Layer metrics fed by spans; together with cli.self_s they partition cli.main.
SPAN_LAYERS = {
    "load_config": "cli.load_config_s",
    "build_run": "cli.build_run_s",
    "integrate": "solver.integrate_s",
    "gelation_detect": "diagnostics.gelation_detect_s",
    "gelation_functional": "diagnostics.gelation_functional_s",
    "bound_monitor": "diagnostics.bound_monitor_s",
    "weak_form_residual": "diagnostics.weak_form_residual_s",
    "eta_limit": "compactness.eta_s",
    "eta_modulus": "compactness.eta_s",
    "eta_zero_extrapolation": "compactness.eta_s",
    "dlvp_construct": "compactness.dlvp_construct_s",
    "vp_check": "compactness.vp_check_s",
}

MASS_TOL = 1e-8
MONOTONE_SLACK = 1e-9
M2_TOL = 1e-3
T_GEL_TOL = 0.05


# ---------------------------------------------------------------------------
# Workloads: config from the seed, oracle check of the artifacts
# ---------------------------------------------------------------------------

def seeded_density(seed, stream, n):
    """Polydisperse unit-mass density on sizes 1..K_SIZES of an n-cell grid."""
    rng = np.random.default_rng([seed, stream])
    w = rng.uniform(0.5, 1.5, K_SIZES)
    f = w / np.dot(np.arange(1, K_SIZES + 1), w)
    density = np.zeros(n)
    density[:K_SIZES] = f
    return density


def _moment(density, mu):
    return float(np.dot(np.arange(1, density.size + 1) ** mu, density))


def read_moments(path):
    lines = path.read_text(encoding="utf-8").splitlines()
    cols = lines[0].split(",")
    data = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    return {c: data[:, i] for i, c in enumerate(cols)}


def check_trajectory(m, m1_0, gate_mass):
    """Failures and oracle values shared by the three solver workloads."""
    fails = []
    m05, m2 = m["M05"], m["M2"]
    if np.any(m05[1:] > m05[:-1] + MONOTONE_SLACK * np.abs(m05[:-1])):
        fails.append("M_1/2 increased")
    if np.any(m2[1:] < m2[:-1] - MONOTONE_SLACK * np.abs(m2[:-1])):
        fails.append("M_2 decreased")
    drift = float(np.max(np.abs(m["M1"] + m["gel_mass"] - m1_0)))
    if gate_mass and not drift <= MASS_TOL:
        fails.append(f"grid+gel mass drift {drift:.3e}")
    return fails, {"oracle.mass_drift": drift}


class Workload:
    def __init__(self, command, cfg, check):
        self.command = command
        self.cfg = cfg
        self.check = check  # out_dir -> (failures, oracle values)
        self.solves = command != "compactness"


def gelation(seed, tiny):
    n = 2048 if tiny else 2 ** 14
    f = seeded_density(seed, 0, n)
    m1_0, m2_0 = _moment(f, 1.0), _moment(f, 2.0)
    t_gel = 1.0 / m2_0  # d M2/dt = M2^2 for K = xy
    fractions = np.concatenate([np.linspace(0.1, 0.5, 5), np.linspace(0.55, 0.93, 20)])
    snaps = [float(s * t_gel) for s in fractions]
    cfg = {
        "kernel": {"family": "multiplicative"},
        "grid": {"kind": "discrete", "n": n},
        "init": {"family": "tabulated", "params": {"density": f.tolist()}},
        "solver": {"boundary": "absorbing", "t_end": snaps[-1], "rel_tol": 1e-8,
                   "snapshots": snaps},
        "gelation": {"policy": "m2_extrapolation",
                     "xi": {"kind": "power_shifted", "lam": 2.0}},
    }

    def check(out):
        m = read_moments(out / "moments.csv")
        fails, oracle = check_trajectory(m, m1_0, gate_mass=False)
        half = int(np.argmin(np.abs(m["t"] - 0.5 * t_gel)))
        m2_err = abs(m["M2"][half] - 2.0 * m2_0) / (2.0 * m2_0)
        if not m2_err <= M2_TOL:
            fails.append(f"M2(t_gel/2) rel err {m2_err:.3e}")
        detected = json.loads((out / "gelation.json").read_text())["t_gel_detected"]
        t_err = abs(detected - t_gel) / t_gel if detected is not None else float("inf")
        if not t_err <= T_GEL_TOL:
            fails.append(f"t_gel_detected {detected} vs {t_gel}")
        oracle.update({"oracle.m2_rel_err": m2_err, "oracle.t_gel_rel_err": t_err})
        return fails, oracle

    return Workload("gelation", cfg, check)


def _simulate(seed, stream, n, kernel, solver, checks):
    f = seeded_density(seed, stream, n)
    m1_0 = _moment(f, 1.0)
    cfg = {
        "kernel": kernel,
        "grid": {"kind": "discrete", "n": n},
        "init": {"family": "tabulated", "params": {"density": f.tolist()}},
        "solver": solver,
        "diagnostics": {"checks": [{"name": c} for c in checks]},
    }

    def check(out):
        return check_trajectory(read_moments(out / "moments.csv"), m1_0, gate_mass=True)

    return Workload("simulate", cfg, check)


def brownian(seed, tiny):
    return _simulate(seed, 1, 64 if tiny else 512, {"family": "brownian"},
                     {"boundary": "conservative", "t_end": 4.0},
                     ["weak_form_identity", "psi_moment"])


def truncated(seed, tiny):
    return _simulate(seed, 2, 256 if tiny else 512, {"family": "multiplicative"},
                     {"boundary": "absorbing", "t_end": 2.0,
                      "truncation_n": 64.0, "truncation_mode": "cap"},
                     ["weak_form_identity", "product_l2"])


def compactness(seed, tiny):
    # The input is the same for every seed: the command draws its own vp_check
    # samples from a fixed generator, and the synthetic family has no data.
    cfg = {
        "kernel": {"family": "constant", "params": {"c": 2.0}},
        "grid": {"kind": "discrete", "n": 64},
        "init": {"family": "monodisperse", "params": {"size": 1.0}},
        "solver": {"t_end": 1.0, "boundary": "conservative"},
        "compactness": {
            "source": "singular",
            "thresholds": [2.0 ** k for k in range(12)],
            "eps": [2.0 ** -k for k in range(20, 14, -1)],
            "dlvp": {"terms": 6, "tail": "inverse", "inverse_coeff": 2,
                     "samples": 20 if tiny else 8000},
        },
    }

    def check(out):
        dlvp = json.loads((out / "compactness.json").read_text())["dlvp"]
        fails = [] if dlvp["function"]["exact"] else ["builder not exact"]
        fails += [f"{c['name']}: {c['violations']} violations"
                  for c in dlvp["checks"]["checks"] if c["violations"] != 0]
        return fails, {}

    return Workload("compactness", cfg, check)


WORKLOADS = {"gelation": gelation, "brownian": brownian,
             "truncated": truncated, "compactness": compactness}


# ---------------------------------------------------------------------------
# One operation
# ---------------------------------------------------------------------------

def child_env():
    """Environment of every operation: OpenBLAS runs one thread.  On a
    machine of a few shared cores, a second BLAS thread spinning after each
    call competes with the main thread, and the wall time then measures the
    scheduler; none of the workloads spends its time in BLAS."""
    env = dict(os.environ)
    env["OPENBLAS_NUM_THREADS"] = "1"
    return env


def spawn(req, workdir, env):
    """Run op.py on the request ``req``; returns (exit code, report or None, rusage,
    spawn time).  The child is reaped with a blocking wait4, so that its own
    peak RSS and CPU time are read and this process does not wake while it
    runs; a timer kills it if it outlives OP_TIMEOUT_S."""
    req_path = workdir / "request.json"
    req_path.write_text(json.dumps(req))
    report_path = Path(req["report"])
    report_path.unlink(missing_ok=True)
    with open(workdir / "op.log", "wb") as log:
        t_spawn = time.monotonic()
        proc = subprocess.Popen([sys.executable, str(HERE / "op.py"), str(req_path)],
                                stdout=log, stderr=subprocess.STDOUT, env=env, cwd=ROOT)
        killer = threading.Timer(OP_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
            killer.join()
        proc.returncode = os.waitstatus_to_exitcode(status)
    report = json.loads(report_path.read_text()) if report_path.exists() else None
    return proc.returncode, report, usage, t_spawn


def layer_metrics(report, out):
    """Per-layer numbers of one traced operation."""
    m = dict.fromkeys(LAYER_UNITS, 0.0)
    m["cli.import_s"] = report["import_s"]
    spans = report["spans"]
    child_time = [0.0] * len(spans)
    for name, parent, t0, t1 in spans:
        if parent >= 0:
            child_time[parent] += t1 - t0
    for i, (name, parent, t0, t1) in enumerate(spans):
        if name == "cli.main":
            m["cli.main_s"] = t1 - t0
            m["cli.self_s"] = t1 - t0 - child_time[i]
        else:
            m[SPAN_LAYERS[name]] += t1 - t0 - child_time[i]
    m["cli.bytes_written"] = float(sum(p.stat().st_size for p in out.iterdir()))
    log = report.get("step_log")
    if log:
        m["solver.loop_s"] = log["runtime_s"]
        m["solver.prep_s"] = m["solver.integrate_s"] - log["runtime_s"]
        for key in ("rhs_evals", "accepted", "rejected", "clamp_events"):
            m[f"solver.{key}"] = float(log[key])
        m["solver.ms_per_eval"] = 1e3 * log["runtime_s"] / log["rhs_evals"]
        m["solver.evals_per_step"] = log["rhs_evals"] / max(log["accepted"], 1)
        m["solver.accept_ratio"] = log["accepted"] / max(log["accepted"] + log["rejected"], 1)
        m.update(report["probe"])
    m["compactness.vp_samples"] = float(report["vp_samples"])
    return m


def span_sum_error(m):
    """|sum of per-layer self times - cli.main span|."""
    parts = [v for k, v in m.items()
             if k in SPAN_LAYERS.values() or k == "cli.self_s"]
    return abs(sum(parts) - m["cli.main_s"])


def request(wl, workdir, mode):
    return {"src": str(SRC), "command": wl.command, "config": str(workdir / "config.json"),
            "out": str(workdir / "out"), "report": str(workdir / "report.json"),
            "mode": mode}


def run_op(wl, mode, workdir, env):
    out = workdir / "out"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir()
    code, report, usage, t_spawn = spawn(request(wl, workdir, mode), workdir, env)
    rec = {"mode": mode, "code": code, "failures": [], "oracle": {},
           "peak_rss_mb": usage.ru_maxrss / 1024.0,
           "cpu_s": usage.ru_utime + usage.ru_stime}
    if code != 0:
        rec["failures"].append(f"exit {code}")
    if report is None or "wall_s" not in report:
        rec["failures"].append("no report")
        return rec
    rec["setup_s"] = report["setup_done"] - t_spawn
    rec["wall_s"] = report["wall_s"]
    if code == 0:
        try:
            rec["failures"], rec["oracle"] = wl.check(out)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            rec["failures"].append(f"unreadable artifacts: {exc!r}")
    if mode == "trace":
        rec["layers"] = layer_metrics(report, out)
        err = span_sum_error(rec["layers"])
        if err > 1e-6:
            rec["failures"].append(f"layer self times miss cli.main by {err:.3e} s")
    return rec


# ---------------------------------------------------------------------------
# One run
# ---------------------------------------------------------------------------

def git_sha():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        path = ROOT / ".git" / name
        if path.exists():
            return path.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _median(xs):
    return float(statistics.median(xs)) if xs else 0.0


def measure(workload, seed, seconds, trace, tiny=False, mutate=None):
    """Run one benchmark run; returns (result, info).  ``mutate`` edits the
    generated config before it is written (the self-test uses it)."""
    wl = WORKLOADS[workload](seed, tiny)
    if mutate is not None:
        mutate(wl.cfg)
    workdir = WORK / f"{workload}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    env = child_env()
    try:
        (workdir / "config.json").write_text(json.dumps(wl.cfg))
        probe = probe_run(wl, workdir, env)
        nproc = len(os.sched_getaffinity(0))
        blas_threads = [b.get("threads", 0) for b in probe["environment"]["openblas"]]
        ops = []
        t_start = time.monotonic()
        while True:
            mode = "trace" if trace and len(ops) % 2 == 0 else "op"
            t_op = time.monotonic()
            rec = run_op(wl, mode, workdir, env)
            rec["op_s"] = time.monotonic() - t_op
            ops.append(rec)
            elapsed = time.monotonic() - t_start
            if len(ops) >= (2 if trace else 1) and \
                    elapsed + _median([o["op_s"] for o in ops]) > seconds:
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = sum(1 for o in ops if o["failures"])
    timed = [o for o in ops if "wall_s" in o]
    plain = [o for o in timed if o["mode"] == "op"]
    traced = [o for o in timed if o["mode"] == "trace"]
    threads_ok = all(t <= nproc for t in blas_threads)

    if trace:
        metrics = {k: _median([o["layers"][k] for o in traced]) for k in LAYER_UNITS}
        for key in ("oracle.mass_drift", "oracle.m2_rel_err", "oracle.t_gel_rel_err"):
            metrics[key] = max([o["oracle"].get(key, 0.0) for o in ops] or [0.0])
        metrics["trace.overhead_s"] = (_median([o["wall_s"] for o in traced])
                                       - _median([o["wall_s"] for o in plain]))
        units = LAYER_UNITS
    else:
        metrics = {k: _median([o[k] for o in timed])
                   for k in ("wall_s", "setup_s", "peak_rss_mb", "cpu_s")}
        metrics["ok_rate"] = (len(ops) - failed) / len(ops)
        units = E2E_UNITS

    info = {
        "workload": workload, "seed": seed, "trace": int(trace), "tiny": tiny,
        "git_sha": git_sha(),
        "environment": probe["environment"],
        "rate_path": probe.get("rate_path", "unknown") if wl.solves else "none",
        "cap_binds": probe.get("cap_binds") if wl.solves else None,
        "kernel": {k: probe.get(k) for k in ("kernel_family", "kernel_cap", "kernel_cap_mode")},
        "attempted": len(ops), "failed": failed, "fail_rate": failed / len(ops),
        "samples": {"untraced": len(plain), "traced": len(traced)},
        "max": {k: max(o[k] for o in timed) for k in ("wall_s", "setup_s", "cpu_s")}
        if timed else {},
        "wall_s_per_op": [round(o["wall_s"], 4) for o in timed],
        "exit_codes": [o["code"] for o in ops],
        "failures": [o["failures"] for o in ops if o["failures"]],
        "blas_threads_within_nproc": threads_ok,
    }
    result = {
        "correct": failed == 0 and threads_ok,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {k: {"value": float(v), "unit": units[k]} for k, v in metrics.items()},
    }
    return result, info


def probe_run(wl, workdir, env):
    code, report, _, _ = spawn(request(wl, workdir, "probe"), workdir, env)
    if report is None:
        log = (workdir / "op.log").read_text(errors="replace")
        raise SystemExit(f"perfbench: probe process failed (exit {code}):\n{log}")
    return report


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "coagkit" / "cli.py").is_file():
        print(f"perfbench: no coagkit sources under {SRC}", file=sys.stderr)
        return 2
    result, info = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
