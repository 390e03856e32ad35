from dataclasses import replace

import numpy as np
import pytest
from scipy.special import beta as beta_fn

import coagkit as ck
from coagkit import solver
from coagkit.errors import DomainError, UnsupportedFamilyError


@pytest.fixture(scope="module")
def constant_run():
    grid = ck.SizeGrid.discrete(256)
    init = ck.init_distribution(grid, "monodisperse", size=1)
    cfg = ck.SolverConfig(kernel=ck.KernelSpec.constant(2.0), t_end=1.0,
                          rel_tol=1e-10, abs_tol=1e-14, boundary="conservative",
                          snapshot_times=tuple(np.linspace(0.01, 1.0, 100)))
    return ck.integrate(init, cfg)


@pytest.fixture(scope="module")
def additive_run():
    grid = ck.SizeGrid.discrete(512)
    init = ck.init_distribution(grid, "monodisperse", size=1)
    cfg = ck.SolverConfig(kernel=ck.KernelSpec.additive(), t_end=1.0,
                          rel_tol=1e-9, boundary="conservative")
    return ck.integrate(init, cfg)


@pytest.fixture(scope="module")
def multiplicative_run():
    grid = ck.SizeGrid.discrete(2048)
    init = ck.init_distribution(grid, "monodisperse", size=1)
    cfg = ck.SolverConfig(kernel=ck.KernelSpec.multiplicative(), t_end=0.5,
                          rel_tol=1e-9, boundary="absorbing")
    return ck.integrate(init, cfg)


# ---------------------------------------------------------------------------
# weak form
# ---------------------------------------------------------------------------

def test_weak_form_identity_conservative(constant_run):
    res = ck.weak_form_residual(constant_run, ck.KernelSpec.constant(2.0),
                                "identity")
    assert res.max_abs() <= 10 * 1e-10


def test_weak_form_one_matches_moment_ode(constant_run):
    # d M0 / dt = -M0^2 for rate 2: the collision term must reproduce it
    res = ck.weak_form_residual(constant_run, ck.KernelSpec.constant(2.0), "one")
    t = constant_run.times
    m0 = constant_run.moments[0.0]
    # residual dominated by trapezoid quadrature: dt^3/12 * |d2(M0^2)/dt2| ~ 5e-7
    assert res.max_abs() <= 1e-6
    mid = len(t) // 2
    dt = t[mid + 1] - t[mid]
    rate = res.collision_terms[mid] / dt
    exact = -((m0[mid] + m0[mid + 1]) / 2) ** 2
    assert rate == pytest.approx(exact, rel=1e-4)


def test_weak_form_zero_distribution():
    grid = ck.SizeGrid.discrete(16)
    zero = ck.SizeDistribution(grid, np.zeros(16))
    cfg = ck.SolverConfig(kernel=ck.KernelSpec.constant(2.0), t_end=0.5,
                          boundary="conservative")
    traj = ck.integrate(zero, cfg)
    res = ck.weak_form_residual(traj, ck.KernelSpec.constant(2.0), "one")
    assert res.max_abs() == 0.0


def test_weak_form_past_dense_table_limit():
    # 8192 cells is past the dense tables' 4096-cell limit; a separable
    # kernel on a discrete grid needs no N x N table, so the check runs
    grid = ck.SizeGrid.discrete(8192)
    init = ck.init_distribution(grid, "monodisperse", size=1)
    cfg = ck.SolverConfig(kernel=ck.KernelSpec.constant(2.0), t_end=0.5,
                          rel_tol=1e-10, boundary="conservative",
                          snapshot_times=tuple(np.linspace(0.01, 0.5, 50)))
    traj = ck.integrate(init, cfg)
    assert traj.step_log["rate_path"] == "separable"
    res = ck.weak_form_residual(traj, ck.KernelSpec.constant(2.0), "one")
    assert res.max_abs() <= 1e-6


def test_weak_form_reuses_the_operator_of_the_run(monkeypatch):
    # Brownian min(K, 5) runs dense; the residual on the integrated kernel
    # and boundary builds no second pair table, and matches a fresh one
    builds = []
    build = solver._PairRows.__init__
    monkeypatch.setattr(solver._PairRows, "__init__",
                        lambda op, *args: builds.append(args) or build(op, *args))
    init = ck.init_distribution(ck.SizeGrid.discrete(64), "monodisperse", size=1)
    kernel = ck.KernelSpec.brownian().truncate(5.0)
    cfg = ck.SolverConfig(kernel=kernel, t_end=0.5, boundary="conservative")
    traj = ck.integrate(init, cfg)
    assert traj.step_log["rate_path"] == "dense" and len(builds) == 1
    reused = ck.weak_form_residual(traj, kernel, "identity")
    assert len(builds) == 1
    fresh = ck.weak_form_residual(replace(traj, operator=None), kernel, "identity")
    assert len(builds) == 2
    np.testing.assert_array_equal(reused.residuals, fresh.residuals)
    ck.weak_form_residual(traj, kernel, "identity", boundary="absorbing")
    ck.weak_form_residual(traj, kernel.truncate(4.0), "identity")
    assert len(builds) == 4


@pytest.mark.parametrize("boundary", ["conservative", "absorbing"])
def test_weak_form_on_the_operator_of_a_live_prefix_run(boundary):
    # the run's separable operator last split a prefix of the grid; its
    # splits of whole snapshots match a fresh operator's bit for bit
    n = 1024
    init = ck.init_distribution(ck.SizeGrid.discrete(n), "monodisperse", size=1)
    kernel = ck.KernelSpec.multiplicative()
    traj = ck.integrate(init, ck.SolverConfig(kernel=kernel, t_end=0.3, boundary=boundary))
    assert traj.step_log["rate_path"] == "separable" and traj.step_log["live_cells"] < n
    for theta in ("identity", "one"):
        reused = ck.weak_form_residual(traj, kernel, theta)
        fresh = ck.weak_form_residual(replace(traj, operator=None), kernel, theta)
        assert reused.residuals.tobytes() == fresh.residuals.tobytes()


@pytest.mark.parametrize("grid", [ck.SizeGrid.discrete(16),
                                  ck.SizeGrid.geometric(0.5, 16.0, bins=12)],
                         ids=["discrete", "sectional"])
def test_unknown_boundary_rejected(grid):
    init = ck.init_distribution(grid, "exponential", mean=2.0)
    kernel = ck.KernelSpec.additive()
    traj = ck.integrate(init, ck.SolverConfig(kernel=kernel, t_end=0.1))
    with pytest.raises(DomainError, match="boundary"):
        ck.weak_form_residual(traj, kernel, "identity", boundary="bogus")
    with pytest.raises(DomainError, match="boundary"):
        ck.rates(init, kernel, "bogus")


def _theta_a_term(dist, kernel, A, boundary="absorbing"):
    """The collision term of theta_A = min(x, A) at ``dist``, minus the mass
    flux across A: on an interval of length 1 with ``dist`` at both ends,
    the weak form's integral is that term."""
    times = np.array([dist.time, dist.time + 1.0])
    later = ck.SizeDistribution(dist.grid, dist.density, times[1])
    traj = ck.Trajectory(snapshots=[dist, later],
                         moments=ck.MomentSeries(times, {0.0: np.zeros(2)}), step_log={})
    res = ck.weak_form_residual(traj, kernel, ("min_with", A), boundary=boundary)
    return res.collision_terms[0]


def _flux_oracle(dist, kernel, A):
    """The three flux integrals across A from the full pair table: I1, pairs
    with both sizes <= A weighted by their excess over A; I2, small-large
    pairs weighted by the small size; I3, large pairs weighted by A/2."""
    p = dist.grid.pivots
    n = dist.number
    kmat = np.asarray(kernel.eval(p[:, None], p[None, :]))
    pair = kmat * np.outer(n, n)
    small = p <= A
    both_small = np.outer(small, small)
    cross = np.add.outer(p, p) > A
    i1 = 0.5 * float(np.sum(np.where(both_small & cross,
                                     (np.add.outer(p, p) - A) * pair, 0.0)))
    i2 = float(np.sum(np.where(np.outer(small, ~small), p[:, None] * pair, 0.0)))
    i3 = 0.5 * A * float(np.sum(np.where(np.outer(~small, ~small), pair, 0.0)))
    return i1, i2, i3


def test_weak_form_min_with_and_flux_consistency(multiplicative_run):
    # the theta_A collision term equals -(I1 + I2 + I3) at each snapshot
    A = 8.0
    kernel = ck.KernelSpec.multiplicative()
    snap = multiplicative_run.snapshots[5]
    # the oracle's pair table covers the support's first 2s cells, which
    # hold every pair of the density
    s = int(np.flatnonzero(snap.density)[-1]) + 1
    head = ck.SizeDistribution(ck.SizeGrid.discrete(2 * s), snap.density[:2 * s])
    flux = sum(_flux_oracle(head, kernel, A))
    # weak_form_residual sums the separable gain by FFT, exact up to a
    # round-off floor of floor_scale * ||x f||_2^2 on each entry of the
    # convolution, whose half is the gain; summed with weights theta_A over
    # the 2s cells the gain reaches, that floor is the tolerance (2.9e-11).
    # Measured here: 2.2e-13, or 1.3e-10 relative
    op = solver._rate_operator(snap.grid, kernel, "absorbing")
    xf = snap.grid.pivots * snap.density
    floor = 0.5 * op.floor_scale * float(np.dot(xf, xf)) \
        * float(np.sum(np.minimum(snap.grid.pivots[:2 * s], A)))
    assert _theta_a_term(snap, kernel, A) == pytest.approx(-flux, rel=0, abs=floor)


# ---------------------------------------------------------------------------
# flux across A: minus the theta_A collision term of the rate operator
# ---------------------------------------------------------------------------

def test_flux_point_mass_example():
    d = ck.init_distribution(ck.SizeGrid.discrete(8), "monodisperse", size=1)
    # one pair of size-1 particles merges at rate 2/2, its product 0.5 past A
    assert _theta_a_term(d, ck.KernelSpec.constant(2.0), 1.5) \
        == pytest.approx(-0.5, rel=1e-15)


def test_flux_support_below_half_a():
    grid = ck.SizeGrid.discrete(64)
    density = np.zeros(64)
    density[:4] = 1.0  # supported on sizes <= 4, so no product passes A
    d = ck.SizeDistribution(grid, density)
    assert _theta_a_term(d, ck.KernelSpec.additive(), 20.0) == pytest.approx(0.0, abs=1e-13)


def test_flux_nonnegative_parts(multiplicative_run):
    # the theta_A moment does not grow; under the absorbing boundary a
    # product leaving the grid takes its theta_A with it
    for snap in multiplicative_run.snapshots[::4]:
        assert _theta_a_term(snap, ck.KernelSpec.multiplicative(), 12.0) <= 1e-12


# separable, capped and dense on the discrete grids; all dense on the
# sectional one
FLUX_KERNELS = {
    "constant": lambda p: ck.KernelSpec.constant(2.0),
    "additive": lambda p: ck.KernelSpec.additive(),
    "multiplicative": lambda p: ck.KernelSpec.multiplicative(),
    "brownian": lambda p: ck.KernelSpec.brownian(),
    "capped_multiplicative": lambda p: ck.KernelSpec.multiplicative().truncate(40.0),
    "capped_brownian": lambda p: ck.KernelSpec.brownian().truncate(5.0),
    "tabulated": lambda p: ck.KernelSpec.tabulated(p, np.add.outer(p, p)),
}


@pytest.mark.parametrize("grid", [ck.SizeGrid.discrete(40), ck.SizeGrid.discrete(300),
                                  ck.SizeGrid.geometric(0.5, 64.0, bins=30)],
                         ids=["discrete40", "discrete300", "sectional30"])
@pytest.mark.parametrize("name", list(FLUX_KERNELS))
def test_flux_against_pair_table(grid, name):
    # the identity is exact when no product leaves the grid, so the density
    # sits at sizes up to half the top pivot, and, on the sectional grid,
    # when A is a pivot, as two-point apportionment then keeps theta_A
    kernel = FLUX_KERNELS[name](grid.pivots)
    rng = np.random.default_rng(41)
    p = grid.pivots
    held = p <= p[-1] / 2
    dist = ck.SizeDistribution(grid, np.where(held, rng.random(grid.size), 0.0))
    for frac in (0.2, 0.5, 0.8):
        A = p[int(frac * np.count_nonzero(held))]
        flux = sum(_flux_oracle(dist, kernel, A))
        assert _theta_a_term(dist, kernel, A) == pytest.approx(-flux, rel=1e-12)


# ---------------------------------------------------------------------------
# bound monitors
# ---------------------------------------------------------------------------

def test_phi_gronwall_positive_margin(constant_run):
    reps = ck.bound_monitor(constant_run, ck.KernelSpec.constant(2.0),
                            "phi_gronwall", phi=lambda r: r * r, R=10.0)
    assert reps[0].passed and reps[0].min_margin > 0


def test_phi_gronwall_refuses_incompatible_class(additive_run):
    with pytest.raises(UnsupportedFamilyError):
        ck.bound_monitor(additive_run, ck.KernelSpec.additive(),
                         "phi_gronwall", phi=lambda r: r * r, R=10.0)


def test_psi_moment_positive_margin(additive_run):
    reps = ck.bound_monitor(additive_run, ck.KernelSpec.additive(), "psi_moment")
    assert reps[0].passed and reps[0].min_margin > 0
    assert reps[0].params["C3"] == pytest.approx(2 * 1.0 * 2.0)  # 2 kappa1 ||f0||


def test_product_l2_bounds(multiplicative_run):
    reps = ck.bound_monitor(multiplicative_run, ck.KernelSpec.multiplicative(),
                            "product_l2", A=4.0)
    by = {r.name: r for r in reps}
    assert by["product_l2_total"].passed
    assert by["product_l2_tail"].passed
    assert by["product_l2_tail"].rhs[0] == pytest.approx(0.5)  # 2 M1 / A


def test_product_l2_requires_product_form(additive_run):
    with pytest.raises(UnsupportedFamilyError):
        ck.bound_monitor(additive_run, ck.KernelSpec.additive(),
                         "product_l2", A=4.0)


def test_product_l2_refuses_binding_pointwise_cap(multiplicative_run):
    # min(xy, 64) has no product form, so the product bound does not apply
    # to it; a cap that never binds and a product cap keep the product form
    with pytest.raises(UnsupportedFamilyError):
        ck.bound_monitor(multiplicative_run, ck.KernelSpec.multiplicative().truncate(64.0),
                         "product_l2", A=4.0)
    n = multiplicative_run.grid.n
    for kernel in (ck.KernelSpec.multiplicative().truncate(float(n) ** 2),
                   ck.KernelSpec.product(ck.RadialRate.identity()).truncate(8.0, "product_cap")):
        reps = ck.bound_monitor(multiplicative_run, kernel, "product_l2", A=4.0)
        assert all(r.passed for r in reps)


def test_equicontinuity_margin(multiplicative_run):
    reps = ck.bound_monitor(multiplicative_run, ck.KernelSpec.multiplicative(),
                            "equicontinuity")
    assert reps[0].passed


# ---------------------------------------------------------------------------
# comparison ODE
# ---------------------------------------------------------------------------

def test_comparison_ode_sqrt_rate():
    rate = ck.RadialRate.power_law(0.5)
    kernel = ck.KernelSpec.product(rate)
    grid = ck.SizeGrid.discrete(512)
    init = ck.init_distribution(grid, "monodisperse", size=1)
    cfg = ck.SolverConfig(kernel=kernel, t_end=1.0, rel_tol=1e-9,
                          boundary="absorbing")
    traj = ck.integrate(init, cfg)
    rep = ck.comparison_ode(traj, rate)
    assert rep.passed and rep.blow_up_time is None
    # Y' = M1 Y for r = sqrt: closed form e^t
    np.testing.assert_allclose(rep.bound, np.exp(traj.times), rtol=1e-8)
    assert np.all(rep.observed[1:] < rep.bound[1:])


def test_comparison_ode_constant_rate():
    rate = ck.RadialRate.power_law(0.0, 2.0)  # r = 2
    kernel = ck.KernelSpec.product(rate)
    grid = ck.SizeGrid.discrete(256)
    init = ck.init_distribution(grid, "monodisperse", size=1)
    cfg = ck.SolverConfig(kernel=kernel, t_end=1.0, rel_tol=1e-9,
                          boundary="conservative")
    traj = ck.integrate(init, cfg)
    rep = ck.comparison_ode(traj, rate)
    # Y(t) = M2(0) + c^2 M1(0)^2 t
    np.testing.assert_allclose(rep.bound, 1.0 + 4.0 * traj.times, rtol=1e-10)
    assert rep.passed


def test_comparison_ode_zero_distribution():
    grid = ck.SizeGrid.discrete(32)
    zero = ck.SizeDistribution(grid, np.zeros(32))
    cfg = ck.SolverConfig(kernel=ck.KernelSpec.product(ck.RadialRate.power_law(0.5)),
                          t_end=0.5, boundary="conservative")
    traj = ck.integrate(zero, cfg)
    rep = ck.comparison_ode(traj, ck.RadialRate.power_law(0.5))
    assert np.all(rep.bound == 0.0) and np.all(rep.observed == 0.0)


def test_comparison_ode_rejects_convergent_hypothesis():
    grid = ck.SizeGrid.discrete(64)
    init = ck.init_distribution(grid, "monodisperse", size=1)
    rate = ck.RadialRate.power_law(0.75)
    cfg = ck.SolverConfig(kernel=ck.KernelSpec.product(rate), t_end=0.2,
                          boundary="conservative")
    traj = ck.integrate(init, cfg)
    with pytest.raises(DomainError):
        ck.comparison_ode(traj, rate)  # integral of 1/r^2 converges


# ---------------------------------------------------------------------------
# gelation
# ---------------------------------------------------------------------------

def test_power_shifted_ixi_beta_identity():
    closed, quad_val = ck.power_shifted_ixi(1.5)
    assert closed == pytest.approx(0.25 * beta_fn(0.25, 0.25), rel=1e-14)
    assert abs(closed - quad_val) <= 1e-6
    assert closed == pytest.approx(1.854, abs=1e-3)
    with pytest.raises(DomainError):
        ck.power_shifted_ixi(1.0)


@pytest.mark.parametrize("lam", np.linspace(1.0, 2.0, 41)[1:-1])
def test_power_shifted_ixi_closed_form_matches_scipy_beta(lam):
    a = (2.0 - lam) / 2.0
    closed, _ = ck.power_shifted_ixi(lam, cross_check=False)
    assert closed == pytest.approx(a * beta_fn(a, (lam - 1.0) / 2.0), rel=1e-13)


def test_ratio_shifted_ixi_matches_closed_form():
    # r(x) = x: I_xi = -1 + 0.5 * integral_1^inf A^(-3/2) dA = -1 + 1 = 0 is
    # degenerate; use r(x) = x^0.75: I_xi = -1 + 0.5 * int A^(-5/4) = -1 + 2 = 1
    assert ck.ratio_shifted_ixi(ck.RadialRate.power_law(0.75)) == pytest.approx(1.0, rel=1e-7)
    with pytest.raises(DomainError):
        ck.ratio_shifted_ixi(ck.RadialRate.power_law(0.5))  # tail diverges


def test_gelation_functional_bound(multiplicative_run):
    rep = ck.gelation_functional(multiplicative_run, ck.RadialRate.identity(),
                                 ("power_shifted", 2.0))
    assert rep.i_xi == 1.0
    assert "lam=2 point-mass convention: I_xi = 1" in rep.flags
    assert rep.functional_margin > 0
    assert np.all(np.diff(rep.functional_values) >= 0)


def test_gelation_functional_zero_distribution():
    grid = ck.SizeGrid.discrete(32)
    zero = ck.SizeDistribution(grid, np.zeros(32))
    cfg = ck.SolverConfig(kernel=ck.KernelSpec.multiplicative(), t_end=0.5,
                          boundary="conservative")
    traj = ck.integrate(zero, cfg)
    rep = ck.gelation_functional(traj, ck.RadialRate.identity(), ("power_shifted", 2.0))
    assert np.all(rep.functional_values == 0.0)
    assert rep.bound == 0.0


def test_gelation_functional_rejects_inadmissible_xi(multiplicative_run):
    with pytest.raises(DomainError):
        ck.gelation_functional(multiplicative_run, ck.RadialRate.identity(),
                               ("power_shifted", 0.9))


def test_gelation_detect_multiplicative():
    grid = ck.SizeGrid.discrete(4096)
    init = ck.init_distribution(grid, "monodisperse", size=1)
    snaps = tuple(np.concatenate([np.linspace(0.1, 0.5, 5),
                                  np.linspace(0.55, 0.9, 15)]))
    cfg = ck.SolverConfig(kernel=ck.KernelSpec.multiplicative(), t_end=0.9,
                          rel_tol=1e-8, boundary="absorbing",
                          snapshot_times=snaps)
    traj = ck.integrate(init, cfg)
    rep = ck.gelation_detect(traj, "m2_extrapolation",
                             kernel=ck.KernelSpec.multiplicative())
    assert 0.95 <= rep.t_gel_detected <= 1.05
    assert rep.t_gel_upper_bound == pytest.approx(8.0)
    assert rep.t_gel_upper_bound > rep.t_gel_detected


def test_gelation_detect_absent_for_non_gelling(constant_run, additive_run):
    for traj in (constant_run, additive_run):
        rep = ck.gelation_detect(traj, "mass_drop", threshold=0.01)
        assert rep.t_gel_detected is None
        rep2 = ck.gelation_detect(traj, "m2_extrapolation")
        # 1/M2 of a non-gelling run extrapolates to a root, if any, far
        # beyond the horizon, or a detection is absent
        assert rep2.t_gel_detected is None or rep2.t_gel_detected > traj.times[-1]


def test_gelation_mass_drop_with_baseline():
    grid = ck.SizeGrid.discrete(256)
    init = ck.init_distribution(grid, "monodisperse", size=1)
    snaps = tuple(np.linspace(0.2, 2.0, 10))
    cfg = ck.SolverConfig(kernel=ck.KernelSpec.multiplicative(), t_end=2.0,
                          rel_tol=1e-8, boundary="absorbing", snapshot_times=snaps)
    traj = ck.integrate(init, cfg)
    base_cfg = ck.SolverConfig(kernel=ck.KernelSpec.multiplicative(), t_end=2.0,
                               rel_tol=1e-8, boundary="conservative",
                               snapshot_times=snaps)
    baseline = ck.integrate(init, base_cfg)
    rep = ck.gelation_detect(traj, "mass_drop", threshold=0.01, baseline=baseline)
    assert rep.t_gel_detected is not None
    assert 0.9 <= rep.t_gel_detected <= 1.6


# ---------------------------------------------------------------------------
# uniqueness distances
# ---------------------------------------------------------------------------

def test_uniqueness_identical_runs(constant_run):
    rep = ck.uniqueness_distance(constant_run, constant_run,
                                 ("weighted_l1", lambda x: x))
    assert np.all(rep.distance == 0.0)


def test_uniqueness_weighted_l1_envelope(constant_run):
    grid = constant_run.grid
    f2 = constant_run.initial().density.copy()
    f2[1] += 1e-3
    init2 = ck.SizeDistribution(grid, f2)
    traj2 = ck.integrate(init2, constant_run.config)
    rep = ck.uniqueness_distance(constant_run, traj2, ("weighted_l1", lambda x: x))
    assert rep.passed
    assert rep.distance[0] == pytest.approx(2e-3)
    assert np.all(rep.envelope >= rep.distance * (1 - 1e-9))


def test_uniqueness_cdf_shifted_monodisperse():
    grid = ck.SizeGrid.discrete(8)
    a = ck.init_distribution(grid, "monodisperse", size=1)
    b = ck.init_distribution(grid, "monodisperse", size=2)
    cfg = ck.SolverConfig(kernel=ck.KernelSpec.constant(2.0), t_end=0.1,
                          boundary="conservative", snapshot_times=(0.1,))
    ta, tb = ck.integrate(a, cfg), ck.integrate(b, cfg)
    rep = ck.uniqueness_distance(ta, tb, ("cdf", 1.0), kernel=ck.KernelSpec.constant(2.0))
    # lam=1: d(0) = integral |F1 - F2| = number * size shift = 1
    assert rep.distance[0] == pytest.approx(1.0)


def test_uniqueness_cdf_envelope(constant_run):
    grid = constant_run.grid
    f2 = constant_run.initial().density.copy()
    f2[1] += 1e-3
    traj2 = ck.integrate(ck.SizeDistribution(grid, f2), constant_run.config)
    rep = ck.uniqueness_distance(constant_run, traj2, ("cdf", 0.5),
                                 kernel=ck.KernelSpec.constant(2.0))
    assert rep.params["C5"] == 0.0
    assert rep.passed
    assert rep.distance[-1] < rep.distance[0]  # the distance contracts


def test_c5_constants():
    c5, note = ck.c5_constant(0.0, 0.0, 0.5)
    assert c5 == 0.0
    c5, _ = ck.c5_constant(0.0, 1.0, 1.0)  # additive exponents
    assert c5 == pytest.approx(2.0, rel=1e-6)
    c5, _ = ck.c5_constant(0.25, 0.5, 0.75)
    assert c5 == pytest.approx(2.0, rel=1e-6)
    with pytest.raises(DomainError):
        ck.c5_constant(0.25, 0.5, 0.5)  # mismatched homogeneity


def test_uniqueness_requires_common_layout(constant_run):
    other_grid = ck.SizeGrid.discrete(128)
    init = ck.init_distribution(other_grid, "monodisperse", size=1)
    traj = ck.integrate(init, constant_run.config)
    with pytest.raises(DomainError):
        ck.uniqueness_distance(constant_run, traj, ("weighted_l1", lambda x: x))
