"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one pass line when it completes; a failing criterion shows
up as a normal pytest failure.  The heavy runs are shared module-scoped
fixtures so the whole suite stays inside its runtime budgets.
"""

import json
import time
from fractions import Fraction

import numpy as np
import pytest
from scipy.special import beta as beta_fn

import coagkit as ck
from coagkit import cli


def report(num, text):
    print(f"[criterion {num:02d}] PASS - {text}")


def timed_run(init, cfg):
    t0 = time.perf_counter()
    traj = ck.integrate(init, cfg)
    return traj, time.perf_counter() - t0


def mono_init(n):
    return ck.init_distribution(ck.SizeGrid.discrete(n), "monodisperse", size=1)


@pytest.fixture(scope="module")
def run_constant():
    cfg = ck.SolverConfig(kernel=ck.KernelSpec.constant(2.0), t_end=1.0,
                          rel_tol=1e-10, abs_tol=1e-14, boundary="conservative",
                          snapshot_times=tuple(np.linspace(0.1, 1.0, 10)))
    return timed_run(mono_init(256), cfg)


@pytest.fixture(scope="module")
def run_constant_perturbed(run_constant):
    traj, _ = run_constant
    f2 = traj.initial().density.copy()
    f2[1] += 1e-3  # an L1 perturbation of size 1e-3
    init = ck.SizeDistribution(traj.grid, f2)
    return ck.integrate(init, traj.config)


@pytest.fixture(scope="module")
def run_additive_4k():
    cfg = ck.SolverConfig(kernel=ck.KernelSpec.additive(), t_end=1.0,
                          rel_tol=1e-8, boundary="conservative",
                          snapshot_times=tuple(np.linspace(0.1, 1.0, 10)))
    traj, elapsed = timed_run(mono_init(4096), cfg)
    assert traj.step_log["rate_path"] == "separable"
    return traj, elapsed


@pytest.fixture(scope="module")
def run_multiplicative_16k():
    snaps = tuple(np.concatenate([np.linspace(0.1, 0.5, 5),
                                  np.linspace(0.55, 0.93, 20)]))
    cfg = ck.SolverConfig(kernel=ck.KernelSpec.multiplicative(), t_end=0.93,
                          rel_tol=1e-8, boundary="absorbing",
                          snapshot_times=snaps)
    return timed_run(mono_init(2**14), cfg)


@pytest.fixture(scope="module")
def run_multiplicative_pregel():
    cfg = ck.SolverConfig(kernel=ck.KernelSpec.multiplicative(), t_end=0.5,
                          rel_tol=1e-9, boundary="absorbing",
                          snapshot_times=tuple(np.linspace(0.05, 0.5, 10)))
    return timed_run(mono_init(2048), cfg)


@pytest.fixture(scope="module")
def run_conservation_t5():
    out = {}
    snaps = tuple(np.linspace(0.5, 5.0, 10))
    for name, kernel in (("constant", ck.KernelSpec.constant(2.0)),
                         ("additive", ck.KernelSpec.additive())):
        cfg = ck.SolverConfig(kernel=kernel, t_end=5.0, rel_tol=1e-9,
                              boundary="conservative", snapshot_times=snaps)
        out[name] = ck.integrate(mono_init(256), cfg)
    return out


@pytest.fixture(scope="module")
def run_sqrt_product():
    rate = ck.RadialRate.power_law(0.5)
    cfg = ck.SolverConfig(kernel=ck.KernelSpec.product(rate), t_end=1.0,
                          rel_tol=1e-9, boundary="absorbing",
                          snapshot_times=tuple(np.linspace(0.1, 1.0, 10)))
    return ck.integrate(mono_init(512), cfg), rate


@pytest.fixture(scope="module")
def run_gelling_34():
    rate = ck.RadialRate.power_law(0.75)
    cfg = ck.SolverConfig(kernel=ck.KernelSpec.product(rate), t_end=2.0,
                          rel_tol=1e-8, boundary="absorbing",
                          snapshot_times=tuple(np.linspace(0.05, 2.0, 40)))
    return ck.integrate(mono_init(2048), cfg), rate


def test_criterion_01_constant_kernel_distribution(run_constant):
    traj, elapsed = run_constant
    i = np.arange(1, 11)
    exact = 1.0 ** (i - 1) / 2.0 ** (i + 1)
    rel = np.max(np.abs(traj.snapshots[-1].density[:10] - exact) / exact)
    assert rel <= 1e-6
    assert elapsed < 10.0
    report(1, f"constant kernel f_1..f_10 rel err {rel:.2e} (<=1e-6), "
              f"runtime {elapsed:.2f}s (<10s)")


def test_criterion_02_additive_fast_gain(run_additive_4k):
    traj, elapsed = run_additive_4k
    m0_rel = abs(traj.moments[0.0][-1] - np.exp(-1)) / np.exp(-1)
    drift = np.max(np.abs(traj.moments[1.0] - 1.0))
    assert m0_rel <= 1e-4
    assert drift <= 1e-8
    assert elapsed < 60.0
    report(2, f"additive N=4096 fast gain: M0 rel err {m0_rel:.2e} (<=1e-4), "
              f"M1 drift {drift:.2e} (<=1e-8), runtime {elapsed:.1f}s (<60s)")


def test_criterion_03_multiplicative_gelation(run_multiplicative_16k):
    traj, elapsed = run_multiplicative_16k
    k_half = list(traj.times).index(0.5)
    m2_rel = abs(traj.moments[2.0][k_half] - 2.0) / 2.0
    rep = ck.gelation_detect(traj, "m2_extrapolation",
                             kernel=ck.KernelSpec.multiplicative())
    assert m2_rel <= 1e-3
    assert 0.95 <= rep.t_gel_detected <= 1.05
    assert elapsed < 120.0
    report(3, f"multiplicative N=2^14: M2(0.5) rel err {m2_rel:.2e} (<=1e-3), "
              f"T_gel {rep.t_gel_detected:.4f} in [0.95,1.05], "
              f"runtime {elapsed:.1f}s (<120s)")


def test_criterion_04_mass_conservation_to_t5(run_conservation_t5):
    worst = 0.0
    for name, traj in run_conservation_t5.items():
        drift = np.max(np.abs(traj.moments[1.0] - 1.0))
        assert drift <= 1e-8, name
        worst = max(worst, drift)
    report(4, f"conservative mass drift <= {worst:.2e} (<=1e-8) for "
              f"constant and additive kernels up to t=5")


def test_criterion_05_moment_monotonicity(run_constant, run_additive_4k,
                                          run_multiplicative_16k,
                                          run_multiplicative_pregel,
                                          run_conservation_t5,
                                          run_sqrt_product, run_gelling_34):
    suite = {
        "constant": run_constant[0],
        "additive": run_additive_4k[0],
        "multiplicative": run_multiplicative_16k[0],
        "multiplicative_pregel": run_multiplicative_pregel[0],
        "constant_t5": run_conservation_t5["constant"],
        "additive_t5": run_conservation_t5["additive"],
        "sqrt_product": run_sqrt_product[0],
        "gelling_34": run_gelling_34[0],
    }
    for name, traj in suite.items():
        m05 = traj.moments[0.5]
        m2 = traj.moments[2.0]
        assert np.all(np.diff(m05) <= 1e-9 * m05[:-1]), name
        assert np.all(np.diff(m2) >= -1e-9 * m2[:-1]), name
    report(5, f"M_1/2 non-increasing and M_2 non-decreasing within 1e-9 "
              f"relative slack on all {len(suite)} suite runs")


def test_criterion_06_de_la_vallee_poussin_exact():
    tail = lambda c: Fraction(2, int(c))
    betas = [Fraction(1, 4**m) for m in range(7)]
    phi = ck.dlvp_construct(tail, [1] * 6, betas)
    assert phi.exact
    assert phi.breakpoints == [1] + [2 * 4**m for m in range(1, 7)]
    for m in range(1, 7):
        assert phi.deriv_exact(Fraction(2 * 4**m)) == Fraction(7 * m + 1, 7)
    rng = np.random.default_rng(20240211)
    top = float(phi.breakpoints[3])
    samples = [(Fraction(a).limit_denominator(10**6),
                Fraction(b).limit_denominator(10**6),
                Fraction(c).limit_denominator(10**6))
               for a, b, c in zip(rng.uniform(0, top, 1000),
                                  rng.uniform(0, top, 1000),
                                  rng.uniform(0, 4, 1000))]
    m = 64
    member = ([Fraction(2 * m, 2 * j + 1) for j in range(m)],
              [Fraction(2 * j + 1, m * m) for j in range(m)])
    rep = ck.vp_check(phi, samples, member=member)
    assert len(rep.checks) == 8  # seven families; the two-sided bound is split
    assert all(c.violations == 0 for c in rep.checks)
    report(6, "breakpoints 2*4^m and Phi'(N_m) = m + 1/7 exact in rational "
              "mode; all seven inequality families pass on 1000 samples "
              "with zero violations")


def test_criterion_07_eta_lemma_equality():
    thresholds = [2.0**k for k in range(0, 14)]
    eps = [2.0**-k for k in range(30, 10, -1)]
    worst = 0.0
    for kind in ("bounded", "concentrating", "singular"):
        fam = ck.synthetic_family(kind)
        est, _ = ck.eta_limit(fam, thresholds)
        extrap = ck.eta_zero_extrapolation(fam, eps)
        worst = max(worst, abs(est - extrap))
        assert abs(est - extrap) <= 1e-12, kind
    report(7, f"tail-limit and eps->0 extrapolation agree to {worst:.1e} "
              f"(<=1e-12) on bounded, concentrating, singular families")


def test_criterion_08_gelation_functional(run_gelling_34):
    traj, rate = run_gelling_34
    closed, quad_val = ck.power_shifted_ixi(1.5)
    assert abs(closed - 0.25 * beta_fn(0.25, 0.25)) <= 1e-12
    assert abs(quad_val - closed) <= 1e-6
    rep = ck.gelation_functional(traj, rate, ("power_shifted", 1.5))
    assert rep.bound == pytest.approx(2 * closed**2 * 1.0)
    assert rep.functional_margin > 0
    assert np.all(np.diff(rep.functional_values) >= 0)
    report(8, f"(xy)^(3/4) run to t=2: accumulated {rep.functional_values[-1]:.3f} "
              f"<= bound {rep.bound:.3f}, I_xi = {rep.i_xi:.6f} "
              f"(Beta identity within 1e-6), margin {rep.functional_margin:.2f} > 0")


def test_criterion_09_bound_monitors(run_constant, run_additive_4k,
                                     run_multiplicative_pregel,
                                     run_sqrt_product):
    margins = {}
    rep = ck.bound_monitor(run_constant[0], ck.KernelSpec.constant(2.0),
                           "phi_gronwall", phi=lambda r: r * r, R=10.0)[0]
    assert rep.passed and rep.min_margin > 0
    margins["phi_gronwall"] = rep.min_margin
    rep = ck.bound_monitor(run_additive_4k[0], ck.KernelSpec.additive(),
                           "psi_moment")[0]
    assert rep.passed and rep.min_margin > 0
    margins["psi_moment"] = rep.min_margin
    for rep in ck.bound_monitor(run_multiplicative_pregel[0],
                                ck.KernelSpec.multiplicative(),
                                "product_l2", A=4.0):
        assert rep.passed and rep.min_margin > 0
        margins[rep.name] = rep.min_margin
    traj, rate = run_sqrt_product
    crep = ck.comparison_ode(traj, rate)
    assert crep.passed and crep.min_margin > 0
    margins["comparison_ode"] = crep.min_margin
    report(9, "positive margins: " + ", ".join(
        f"{k}={v:.3g}" for k, v in margins.items()))


def test_criterion_10_uniqueness_envelopes(run_constant, run_constant_perturbed):
    a, b = run_constant[0], run_constant_perturbed
    kernel = ck.KernelSpec.constant(2.0)
    wl1 = ck.uniqueness_distance(a, b, ("weighted_l1", lambda x: x))
    assert wl1.passed
    assert np.all(wl1.distance <= wl1.envelope * (1 + 1e-9))
    cdf = ck.uniqueness_distance(a, b, ("cdf", 0.5), kernel=kernel)
    assert cdf.passed
    assert np.all(cdf.distance <= cdf.envelope * (1 + 1e-9))
    report(10, f"weighted-L1 and cdf-weighted distances stay below their "
               f"envelopes at every snapshot (min margins "
               f"{np.min(wl1.margins):.2e}, {np.min(cdf.margins):.2e})")


def test_criterion_11_fast_gain_equivalence():
    from test_fast_gain import direct_gain
    rng = np.random.default_rng(1234)
    kernels = [ck.KernelSpec.constant(2.0), ck.KernelSpec.additive(),
               ck.KernelSpec.multiplicative()]
    worst = 0.0
    states = 0
    for n, count in ((32, 34), (256, 33), (2048, 33)):
        grid = ck.SizeGrid.discrete(n)
        for _ in range(count):
            f = rng.random(n)
            dist = ck.SizeDistribution(grid, f)
            states += 1
            for kernel in kernels:
                fast = ck.fast_gain(dist, kernel)
                ref = direct_gain(f, kernel)
                denom = np.where(ref == 0.0, 1.0, np.abs(ref))
                worst = max(worst, float(np.max(np.abs(fast - ref) / denom)))
    assert states == 100
    assert worst <= 1e-12
    report(11, f"fast transform gain vs direct sum: max rel diff {worst:.2e} "
               f"(<=1e-12) over 100 random states at N in {{32,256,2048}}")


def test_criterion_12_determinism(tmp_path):
    cfg = {
        "kernel": {"family": "additive"},
        "grid": {"kind": "discrete", "n": 512},
        "init": {"family": "monodisperse", "params": {"size": 1.0}},
        "solver": {"rel_tol": 1e-8, "boundary": "conservative", "t_end": 1.0,
                   "snapshots": [0.25, 0.5, 0.75, 1.0]},
    }
    path = tmp_path / "det.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    assert cli.cmd_simulate(path, out=str(tmp_path / "a")) == 0
    assert cli.cmd_simulate(path, out=str(tmp_path / "b")) == 0
    for name in ("moments.csv", "snapshots.csv"):
        ba = (tmp_path / "a" / name).read_bytes()
        bb = (tmp_path / "b" / name).read_bytes()
        assert ba == bb, name
    report(12, "repeated cmd_simulate produces byte-identical moments.csv "
               "and snapshots.csv")
