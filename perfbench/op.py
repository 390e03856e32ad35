"""One benchmark operation: a fresh interpreter running one coagkit command.

Usage: ``python3 perfbench/op.py REQUEST.json``.  The request names the
source tree, the command, the config file, the output directory, the report
file and the mode:

* ``op``    -- import ``coagkit.cli``, load and build the config (set-up),
  then call ``cli.main`` once and exit with its return code;
* ``trace`` -- the same, with spans recorded around the public functions at
  the names ``coagkit.cli`` calls them by, and a rate-operator probe after
  ``cli.main`` returns;
* ``probe`` -- set-up only, then record which rate path the workload takes
  and the numeric environment.  ``run.py`` runs this once per run, before
  the timed operations, which also warms the page cache and byte-code cache.

The report is a JSON file; timings use ``time.perf_counter`` except
``setup_done``, which is ``time.monotonic`` so that the parent process can
subtract its own spawn time from it.
"""

import json
import os
import statistics
import sys
import time

# Public functions wrapped at the names coagkit.cli calls them by; run.py
# maps each span to its layer metric.
TRACED = ("load_config", "build_run", "integrate", "gelation_detect",
          "gelation_functional", "bound_monitor", "weak_form_residual",
          "eta_limit", "eta_modulus", "eta_zero_extrapolation",
          "dlvp_construct", "vp_check")


class Tracer:
    """In-memory spans: [name, parent index, start, end]."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.captured = {}

    def wrap(self, name, fn):
        def wrapper(*args, **kwargs):
            rec = [name, self.stack[-1] if self.stack else -1, time.perf_counter(), None]
            self.stack.append(len(self.spans))
            self.spans.append(rec)
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[3] = time.perf_counter()
                self.stack.pop()
            if name == "integrate":
                self.captured["integrate"] = (args, kwargs, out)
            elif name == "vp_check":
                self.captured["vp_samples"] = (self.captured.get("vp_samples", 0)
                                               + len(args[1]))
            return out
        return wrapper

    def install(self, cli):
        for name in TRACED:
            setattr(cli, name, self.wrap(name, getattr(cli, name)))


def rate_path(init, config):
    """Which rate path the workload takes, decided from outside the solver:
    public ``fast_gain`` either accepts the resolved kernel on the grid or
    refuses it."""
    from dataclasses import replace

    import numpy as np
    from coagkit.errors import CoagKitError
    from coagkit.solver import fast_gain, resolve_kernel

    kernel = resolve_kernel(config, init.grid)
    try:
        fast_gain(init, kernel, refine=False)
        path = "separable"
    except CoagKitError:
        path = "dense"
    cap_binds = False
    if kernel.cap is not None and kernel.cap_mode != "product":
        p = init.grid.pivots
        idx = np.unique(np.linspace(0, p.size - 1, min(p.size, 257)).astype(int))
        x = p[idx]
        raw = replace(kernel, cap=None).eval(x[:, None], x[None, :])
        cap_binds = bool(kernel.cap < float(np.max(raw)))
    return kernel, {"rate_path": path, "cap_binds": cap_binds,
                    "kernel_family": kernel.family, "kernel_cap": kernel.cap,
                    "kernel_cap_mode": kernel.cap_mode}


def probe_rates(init, config, traj):
    """Median time of one rate evaluation at the final snapshot, on the
    path the workload takes: ``fast_gain`` or the pairwise ``rates``."""
    from coagkit.solver import fast_gain, rates

    kernel, info = rate_path(init, config)
    final = traj.snapshots[-1]
    if info["rate_path"] == "separable":
        def call():
            fast_gain(final, kernel, refine=False)
        key, reps = "solver.gain_ms", 7
    else:
        def call():
            rates(final, kernel, boundary=config.boundary)
        key, reps = "solver.rates_ms", 3
    times = []
    for _ in range(reps):
        t = time.perf_counter()
        call()
        times.append(time.perf_counter() - t)
    return {key: 1e3 * statistics.median(times)}


def blas_info():
    """OpenBLAS builds loaded into this process and their thread counts."""
    import ctypes

    out = []
    with open("/proc/self/maps", encoding="utf-8") as fh:
        paths = sorted({line.split()[-1] for line in fh
                        if "openblas" in line.split()[-1].lower()})
    for path in paths:
        lib = ctypes.CDLL(path)
        entry = {"library": os.path.basename(path)}
        for suffix in ("64_", ""):
            for prefix in ("scipy_openblas", "openblas"):
                get_threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                get_config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                if get_threads is not None and "threads" not in entry:
                    get_threads.restype = ctypes.c_int
                    entry["threads"] = int(get_threads())
                if get_config is not None and "config" not in entry:
                    get_config.restype = ctypes.c_char_p
                    entry["config"] = get_config().decode()
        out.append(entry)
    return out


def environment():
    import platform

    import numpy
    import scipy
    import scipy.linalg  # noqa: F401  (loads scipy's own OpenBLAS, if any)

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "openblas": blas_info(),
    }


def main(request_path):
    with open(request_path, encoding="utf-8") as fh:
        req = json.load(fh)
    sys.path.insert(0, req["src"])
    t0 = time.perf_counter()
    import coagkit.cli as cli
    import_s = time.perf_counter() - t0

    init = config = None
    setup_error = None
    try:
        init, config = cli.build_run(cli.load_config(req["config"]))
    except (cli.CoagKitError, KeyError) as exc:
        setup_error = str(exc)
    report = {"setup_done": time.monotonic(), "import_s": import_s,
              "setup_error": setup_error}

    if req["mode"] == "probe":
        if setup_error is None:
            report.update(rate_path(init, config)[1])
        report["environment"] = environment()
        code = 0 if setup_error is None else 2
    else:
        tracer = Tracer() if req["mode"] == "trace" else None
        if tracer is not None:
            tracer.install(cli)
            run = tracer.wrap("cli.main", cli.main)
        else:
            run = cli.main
        argv = [req["command"], req["config"], "--out", req["out"]]
        t = time.perf_counter()
        code = run(argv)
        report["wall_s"] = time.perf_counter() - t
        if tracer is not None:
            report["spans"] = tracer.spans
            report["vp_samples"] = tracer.captured.get("vp_samples", 0)
            if "integrate" in tracer.captured:
                args, kwargs, traj = tracer.captured["integrate"]
                report["step_log"] = traj.step_log
                report["probe"] = probe_rates(*args, **kwargs, traj=traj)
    report["code"] = code
    with open(req["report"], "w", encoding="utf-8") as fh:
        json.dump(report, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
