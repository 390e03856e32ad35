"""Closed-form oracles for the three classical kernels.

These are textbook results; every formula here is re-derived in the test
suite by brute-force integration of a small system at tight tolerance, so
the oracles never enter the codebase unverified.

* ``moment_oracle``: the moments M0, M1 and M2 of the constant, additive and
  multiplicative kernels from any initial moments, by their closed moment
  equations; the multiplicative M2 diverges at the gelation time 1/M2(0).
* ``exact_solution``: one particle of size 1, whose moments are
  ``moment_oracle``'s at M0 = M1 = M2 = 1, and for the constant rate 2 the
  full distribution f_i(t) = t**(i-1) / (1+t)**(i+1).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ArgumentError, DomainError, UnsupportedFamilyError
from .grids import SizeDistribution
from .kernels import KernelSpec
from .solver import Trajectory, _cap_binds

__all__ = ["OracleResult", "exact_solution", "moment_oracle", "validation_oracle",
           "validation_report"]


@dataclass
class OracleResult:
    kind: str                      # "full_distribution" | "moments_only"
    t: float
    moments: dict                  # order -> value
    distribution: np.ndarray | None = None   # f_i for sizes 1..n
    gel_time: float | None = None


def exact_solution(kernel: KernelSpec, t: float, n_sizes: int = 0) -> OracleResult:
    """Closed-form solution for monodisperse unit-mass initial data.

    ``n_sizes`` asks for the first n entries of the size distribution where
    one is known (constant kernel only).
    """
    fam = kernel.family
    if fam == "constant" and abs(kernel.params[0] - 2.0) > 1e-12:
        raise UnsupportedFamilyError("constant-kernel oracle is normalised to rate 2")
    if fam not in ("constant", "additive", "multiplicative"):
        raise UnsupportedFamilyError(f"no closed-form oracle for family {fam!r}")
    moments = moment_oracle(kernel, {0.0: 1.0, 1.0: 1.0, 2.0: 1.0}, t)
    if fam != "constant":   # the multiplicative kernel gels at t = 1
        return OracleResult("moments_only", t, moments,
                            gel_time=1.0 if fam == "multiplicative" else None)
    i = np.arange(1, n_sizes + 1)
    dist = t ** (i - 1.0) / (1.0 + t) ** (i + 1.0) if n_sizes else None
    return OracleResult("full_distribution", t, moments, dist)


def validation_oracle(init: SizeDistribution, kernel: KernelSpec,
                      t_end: float) -> OracleResult:
    """The closed form of ``kernel`` at ``t_end``, probed before a run from
    ``init``: it is for the uncapped kernel, so a cap that binds on the grid
    is refused, and for one particle of size 1 on the discrete equation."""
    oracle = exact_solution(kernel, t_end)
    if _cap_binds(kernel, init.grid):
        raise UnsupportedFamilyError(
            f"the closed-form oracle is for the uncapped {kernel.family} kernel; "
            f"the cap {kernel.cap:g} binds on the grid")
    f = init.density
    if init.grid.kind != "discrete" or f[0] != 1.0 or np.any(f[1:]):
        raise UnsupportedFamilyError(
            "the closed-form oracle is for initial density [1, 0, ...] on a discrete grid")
    return oracle


def _distribution_sizes(cells: int, sizes: int | None = None) -> int:
    if sizes is not None and sizes > cells:
        raise ArgumentError("sizes", f"{sizes} exceeds the {cells} cells of the grid")
    return min(10, cells) if sizes is None else sizes


# How many sizes f_1..f_k validate compares, by the kind of closed form: each
# takes the grid's cell count and exactly the keys its kind reads.
SIZES = {"full_distribution": _distribution_sizes, "moments_only": lambda cells: 0}


def validation_report(traj: Trajectory, oracle: OracleResult,
                      distribution_rel: float = 1e-6, m0_rel: float = 1e-6,
                      m1_rel: float = 1e-8, m2_rel: float = 1e-3) -> dict:
    """The last snapshot of ``traj`` against ``oracle``: M0, grid+gel M1, M2
    and f_1..f_k where the oracle gives them, each against its relative
    tolerance."""
    m, checks = traj.moments, []
    for name, got, mu, tol in (("M0", m[0.0][-1], 0.0, m0_rel),
                               ("M1", m[1.0][-1] + m.gel_mass[-1], 1.0, m1_rel),
                               ("M2", m[2.0][-1], 2.0, m2_rel)):
        if mu in oracle.moments:
            got, want = float(got), oracle.moments[mu]
            checks.append({"quantity": name, "computed": got, "reference": want,
                           "rel_error": abs(got - want) / max(abs(want), 1e-300),
                           "tolerance": tol})
    if oracle.distribution is not None:
        want = oracle.distribution
        f = traj.snapshots[-1].density[:want.size]
        rel = float(np.max(np.abs(f - want) / np.maximum(np.abs(want), 1e-300)))
        checks.append({"quantity": f"f_1..f_{want.size}", "rel_error": rel,
                       "tolerance": distribution_rel})
    for c in checks:
        c["verdict"] = "pass" if c["rel_error"] <= c["tolerance"] else "fail"
    ok = all(c["verdict"] == "pass" for c in checks)
    return {"t": oracle.t, "checks": checks, "verdict": "pass" if ok else "fail"}


def moment_oracle(kernel: KernelSpec, init_moments: dict, t: float) -> dict:
    """Closed moment ODE solutions for arbitrary initial moments.

    constant(c):      M0' = -(c/2) M0^2,  M2' = c M1^2
    additive:         M0' = -M0 M1,   M2' = 2 M1 M2     (M1 constant)
    multiplicative:   M0' = -M1^2/2,  M2' = M2^2        (M1 constant, t < 1/M2(0))
    """
    if t < 0:
        raise DomainError("t must be non-negative")
    fam = kernel.family
    m0 = float(init_moments.get(0.0, init_moments.get(0, 0.0)))
    m1 = float(init_moments.get(1.0, init_moments.get(1, 0.0)))
    m2 = float(init_moments.get(2.0, init_moments.get(2, 0.0)))
    if fam == "constant":
        c = kernel.params[0]
        return {0.0: m0 / (1.0 + 0.5 * c * m0 * t), 1.0: m1, 2.0: m2 + c * m1 * m1 * t}
    if fam == "additive":
        return {0.0: m0 * np.exp(-m1 * t), 1.0: m1, 2.0: m2 * np.exp(2.0 * m1 * t)}
    if fam == "multiplicative":
        if m2 * t >= 1.0:
            raise DomainError(
                f"multiplicative second moment diverges at t = {1.0 / m2 if m2 else np.inf}")
        return {0.0: m0 - 0.5 * m1 * m1 * t, 1.0: m1, 2.0: m2 / (1.0 - m2 * t)}
    raise UnsupportedFamilyError(f"no moment oracle for family {fam!r}")
