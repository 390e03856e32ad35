"""Brute-force verification of the closed-form oracles.

The oracles in ``coagkit.reference`` are validated against an independent
integration of the truncated discrete system with ``scipy.solve_ivp`` and a
plain double-loop right-hand side, so the solver module never vouches for
its own reference data.
"""

import mpmath
import numpy as np
import pytest
from scipy.integrate import solve_ivp

import coagkit as ck
from coagkit.errors import DomainError, UnsupportedFamilyError


def brute_force_rhs(kernel_fn, n):
    """Plain pairwise RHS of the conservative truncated discrete system."""
    kmat = np.array([[kernel_fn(i, j) for j in range(1, n + 1)]
                     for i in range(1, n + 1)])

    def rhs(t, f):
        df = np.zeros(n)
        for i in range(1, n + 1):
            gain = 0.0
            for j in range(1, i):
                gain += kmat[j - 1, i - j - 1] * f[j - 1] * f[i - j - 1]
            loss = 0.0
            for j in range(1, n - i + 1):
                loss += kmat[i - 1, j - 1] * f[j - 1]
            df[i - 1] = 0.5 * gain - f[i - 1] * loss
        return df

    return rhs


def brute_force_run(kernel_fn, n, t_end):
    f0 = np.zeros(n)
    f0[0] = 1.0
    sol = solve_ivp(brute_force_rhs(kernel_fn, n), (0.0, t_end), f0,
                    method="RK45", rtol=1e-12, atol=1e-14)
    return sol.y[:, -1]


def test_constant_kernel_distribution_against_brute_force():
    # n = 64 keeps the truncation bias of the finite system below the
    # integrator tolerance for the first ten sizes
    f = brute_force_run(lambda i, j: 2.0, 64, 1.0)
    i = np.arange(1, 11)
    closed = 1.0 ** (i - 1) / 2.0 ** (i + 1)
    np.testing.assert_allclose(f[:10], closed, rtol=2e-9)


def test_additive_m0_against_brute_force():
    f = brute_force_run(lambda i, j: float(i + j), 96, 1.0)
    m0 = float(np.sum(f))
    assert m0 == pytest.approx(np.exp(-1.0), rel=5e-6)  # truncation at n=96


def test_multiplicative_m2_against_brute_force():
    f = brute_force_run(lambda i, j: float(i * j), 64, 0.5)
    sizes = np.arange(1, 65)
    m2 = float(np.sum(sizes**2 * f))
    m0 = float(np.sum(f))
    assert m2 == pytest.approx(2.0, rel=2e-5)
    assert m0 == pytest.approx(0.75, rel=1e-6)


def test_exact_solution_examples():
    k = ck.KernelSpec.constant(2.0)
    r0 = ck.exact_solution(k, 0.0, n_sizes=4)
    assert r0.distribution[0] == 1.0 and np.all(r0.distribution[1:] == 0.0)
    r1 = ck.exact_solution(k, 1.0, n_sizes=1)
    assert r1.distribution[0] == 0.25
    assert r1.moments[0.0] == 0.5
    rm = ck.exact_solution(ck.KernelSpec.multiplicative(), 0.5)
    assert rm.moments[2.0] == pytest.approx(2.0)
    assert rm.gel_time == 1.0


def test_exact_solution_validity_window():
    with pytest.raises(DomainError):
        ck.exact_solution(ck.KernelSpec.multiplicative(), 1.0)
    with pytest.raises(UnsupportedFamilyError):
        ck.exact_solution(ck.KernelSpec.brownian(), 0.5)
    with pytest.raises(UnsupportedFamilyError):
        ck.exact_solution(ck.KernelSpec.constant(3.0), 0.5)


def test_moment_oracle_examples():
    k = ck.KernelSpec.constant(2.0)
    m = ck.moment_oracle(k, {0.0: 1.0, 1.0: 1.0}, 1.0)
    assert m[0.0] == pytest.approx(0.5)
    ka = ck.KernelSpec.additive()
    m = ck.moment_oracle(ka, {0.0: 1.0, 1.0: 1.0, 2.0: 1.0}, 0.0)
    assert m == {0.0: 1.0, 1.0: 1.0, 2.0: 1.0}
    km = ck.KernelSpec.multiplicative()
    assert ck.moment_oracle(km, {0.0: 1, 1.0: 1, 2.0: 1}, 0.9)[2.0] \
        == pytest.approx(10.0)
    with pytest.raises(DomainError):
        ck.moment_oracle(km, {0.0: 1, 1.0: 1, 2.0: 1}, 1.0)


def test_constant_kernel_moments_against_brute_force():
    # K = c from polydisperse data: M0' = -(c/2) M0^2 and M2' = c M1^2, so
    # M2 grows linearly; n = 64 keeps the truncated system's suppressed
    # pairs, whose products pass size 64, below the integrator tolerance
    c, n, t = 1.5, 64, 0.8
    f0 = np.zeros(n)
    f0[:3] = [0.5, 0.3, 0.2]
    sizes = np.arange(1, n + 1)
    sol = solve_ivp(brute_force_rhs(lambda i, j: c, n), (0.0, t), f0,
                    method="RK45", rtol=1e-12, atol=1e-14)
    f = sol.y[:, -1]
    init = {mu: float(np.sum(sizes**mu * f0)) for mu in (0.0, 1.0, 2.0)}
    want = ck.moment_oracle(ck.KernelSpec.constant(c), init, t)
    for mu in (0.0, 1.0, 2.0):
        assert float(np.sum(sizes**mu * f)) == pytest.approx(want[mu], rel=1e-10)


@pytest.mark.parametrize("t", [0.5, 1.0, 2.0])
def test_constant_distribution_sums_high_precision(t):
    # sum f_i = 1/(1+t) and sum i f_i = 1, via mpmath series summation
    tm = mpmath.mpf(t)
    s0 = mpmath.nsum(lambda i: tm ** (i - 1) / (1 + tm) ** (i + 1), [1, mpmath.inf])
    s1 = mpmath.nsum(lambda i: i * tm ** (i - 1) / (1 + tm) ** (i + 1), [1, mpmath.inf])
    assert abs(s0 - 1 / (1 + tm)) < mpmath.mpf("1e-20")
    assert abs(s1 - 1) < mpmath.mpf("1e-20")
    oracle = ck.exact_solution(ck.KernelSpec.constant(2.0), t)
    assert oracle.moments[0.0] == pytest.approx(float(1 / (1 + tm)), rel=1e-14)


def test_multiplicative_post_gel_mass_is_one_over_t():
    # Leyvraz & Tschudi, J. Phys. A 14 (1981) 3389: past t = 1 the
    # monodisperse K = xy solution is c_k(t) = c_k(1) / t with
    # c_k(1) = k^(k-3) e^(-k) / (k-1)!, so M1(t) = M1(1) / t.  Derived here:
    # M1(1) = sum_k k^(k-1) e^(-k) / k! = T(1/e) = -W(-1/e) = 1 (tree function),
    # and the ansatz satisfies the equation size by size.
    with mpmath.workdps(30):
        # W is a square-root branch point at -1/e, so 30 digits give ~15
        assert abs(-mpmath.lambertw(-mpmath.exp(-1)) - 1) < 1e-12

        def c1(k):
            return mpmath.mpf(k) ** (k - 3) * mpmath.exp(-k) / mpmath.factorial(k - 1)

        for t in (mpmath.mpf(2), mpmath.mpf(3)):
            for k in range(1, 31):
                gain = sum(i * (k - i) * c1(i) * c1(k - i) for i in range(1, k)) / (2 * t * t)
                loss = k * (c1(k) / t) * (1 / t)        # loss factor k * M1(t)
                assert abs(gain - loss + c1(k) / t**2) < mpmath.mpf("1e-25")

    # the absorbing boundary moves mass past the grid into the gel, so the
    # grid mass of a large truncated system follows the oracle; measured
    # relative error at n = 1024: 1.0e-9 at t = 2, 2.3e-9 at t = 3
    grid = ck.SizeGrid.discrete(1024)
    init = ck.init_distribution(grid, "monodisperse", size=1)
    cfg = ck.SolverConfig(kernel=ck.KernelSpec.multiplicative(), t_end=3.0,
                          snapshot_times=(2.0, 3.0), boundary="absorbing")
    traj = ck.integrate(init, cfg)
    assert not traj.flagged
    for k, t in ((1, 2.0), (2, 3.0)):
        assert traj.moments[1.0][k] == pytest.approx(1.0 / t, rel=1e-8)
