"""Inequality, conservation, gelation, and uniqueness monitors.

Every monitor evaluates both sides of one estimate along a trajectory and
reports the margin (bound minus observed quantity).  Time integrals use
trapezoidal quadrature on the snapshot times; size integrals use the same
pivot quadrature as the solver.  A margin is reported, never asserted, so a
failing bound shows up as a negative margin in the report rather than an
exception.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, UnsupportedFamilyError
from .grids import SizeDistribution, SizeGrid, moment
from .kernels import KernelSpec, RadialRate, classify, growth_constant
from .solver import Trajectory, _cap_binds, _rate_operator
from .compactness import phi_integral

__all__ = [
    "WeakFormResidual",
    "MarginReport",
    "ComparisonReport",
    "GelationReport",
    "UniquenessReport",
    "weak_form_residual",
    "bound_monitor",
    "comparison_ode",
    "gelation_functional",
    "gelation_detect",
    "uniqueness_distance",
    "power_shifted_ixi",
    "ratio_shifted_ixi",
    "c5_constant",
]

_MARGIN_SLACK = 1e-9  # relative slack when deciding verdicts


def _cumtrapz(times: np.ndarray, values: np.ndarray) -> np.ndarray:
    out = np.zeros_like(values)
    if times.size > 1:
        steps = np.diff(times) * 0.5 * (values[1:] + values[:-1])
        out[1:] = np.cumsum(steps)
    return out


def _verdict(margins: np.ndarray, scale: float) -> bool:
    return bool(np.all(margins >= -_MARGIN_SLACK * max(scale, 1e-300)))


# ---------------------------------------------------------------------------
# Report containers
# ---------------------------------------------------------------------------

@dataclass
class MarginReport:
    name: str
    times: np.ndarray
    lhs: np.ndarray
    rhs: np.ndarray
    params: dict = field(default_factory=dict)

    @property
    def margins(self) -> np.ndarray:
        return self.rhs - self.lhs

    @property
    def _checked_margins(self) -> np.ndarray:
        # t = 0 is an equality by construction for the Gronwall-type bounds
        return self.margins[1:] if self.times.size > 1 and self.times[0] == 0.0 \
            else self.margins

    @property
    def min_margin(self) -> float:
        m = self._checked_margins
        return float(np.min(m)) if m.size else math.inf

    @property
    def passed(self) -> bool:
        scale = float(np.max(np.abs(self.rhs), initial=0.0))
        return _verdict(self._checked_margins, scale)

    def rows(self) -> list:
        return [{
            "check": self.name,
            "lhs": float(np.max(self.lhs)),
            "rhs": float(np.min(self.rhs)),
            "margin": self.min_margin,
            "verdict": "pass" if self.passed else "fail",
        }]


@dataclass
class WeakFormResidual:
    theta: str
    times: np.ndarray          # interval endpoints
    residuals: np.ndarray      # one per interval
    moment_changes: np.ndarray
    collision_terms: np.ndarray

    def max_abs(self) -> float:
        return float(np.max(np.abs(self.residuals), initial=0.0))

    def rows(self) -> list:
        # the identity has no bound: the residual is reported, not judged
        return [{"check": "weak_form_identity", "lhs": self.max_abs(), "rhs": 0.0,
                 "margin": -self.max_abs(), "verdict": "info"}]


@dataclass
class ComparisonReport:
    times: np.ndarray
    bound: np.ndarray          # Y(t)
    observed: np.ndarray       # M2(t)
    divergence_evidence: dict
    blow_up_time: float | None = None

    @property
    def min_margin(self) -> float:
        m = self.bound[1:] - self.observed[1:]
        return float(np.min(m)) if m.size else math.inf

    @property
    def passed(self) -> bool:
        if self.blow_up_time is not None:
            return False
        return _verdict(self.bound[1:] - self.observed[1:],
                        float(np.max(self.bound, initial=0.0)))

    def rows(self) -> list:
        return [{"check": "comparison_ode", "lhs": float(np.max(self.observed)),
                 "rhs": float(np.max(self.bound)), "margin": self.min_margin,
                 "verdict": "pass" if self.passed else "fail"}]


@dataclass
class GelationReport:
    t_gel_detected: float | None = None
    t_gel_upper_bound: float | None = None
    policy: str = ""
    functional_values: np.ndarray | None = None
    times: np.ndarray | None = None
    i_xi: float | None = None
    bound: float | None = None
    flags: list = field(default_factory=list)
    detail: dict = field(default_factory=dict)

    @property
    def functional_margin(self) -> float:
        if self.functional_values is None or self.bound is None:
            return math.inf
        return float(self.bound - np.max(self.functional_values))


@dataclass
class UniquenessReport:
    kind: str
    times: np.ndarray
    distance: np.ndarray
    rate: np.ndarray
    envelope: np.ndarray
    params: dict = field(default_factory=dict)

    @property
    def margins(self) -> np.ndarray:
        return self.envelope - self.distance

    @property
    def passed(self) -> bool:
        return _verdict(self.margins, float(np.max(self.envelope, initial=0.0)))


# ---------------------------------------------------------------------------
# Weak form and flux split
# ---------------------------------------------------------------------------

def _theta_values(theta, pivots: np.ndarray) -> tuple[str, np.ndarray]:
    if isinstance(theta, str):
        if theta == "one":
            return "one", np.ones_like(pivots)
        if theta == "identity":
            return "identity", pivots.copy()
        raise DomainError(f"unknown test function {theta!r}")
    if isinstance(theta, tuple) and theta and theta[0] == "min_with":
        return f"min_with_{theta[1]}", np.minimum(pivots, float(theta[1]))
    if callable(theta):
        return "callable", np.asarray([theta(p) for p in pivots], dtype=float)
    arr = np.asarray(theta, dtype=float)
    if arr.shape != pivots.shape:
        raise DomainError("tabulated test function must match the grid")
    return "tabulated", arr


def weak_form_residual(traj: Trajectory, kernel: KernelSpec, theta,
                       boundary: str | None = None) -> WeakFormResidual:
    """Residual of the time-integrated moment identity on snapshot intervals.

    The collision term at each snapshot is the integral of theta against
    gain minus loss from the solver's own rate operator, so it honours the
    trajectory's boundary mode: suppressed reactions are excluded, and under
    the absorbing boundary an overflowing product contributes no gain term.
    With exact dynamics the residual is pure quadrature error.  The
    operator the run integrated with is reused when the kernel and the
    boundary are the ones it integrated.
    """
    grid = traj.grid
    if boundary is None:
        boundary = traj.config.boundary if traj.config is not None else "conservative"
    tag, th = _theta_values(theta, grid.pivots)
    op = traj.operator
    if op is None or boundary != traj.config.boundary \
            or kernel != traj.config.kernel:
        op = _rate_operator(grid, kernel, boundary)

    def collision_term(snap: SizeDistribution) -> float:
        split = op.split(snap.density)
        return float(np.dot(th, (split.gain - split.loss) * grid.widths))

    terms = np.array([collision_term(s) for s in traj.snapshots])
    mom = np.array([float(np.dot(th, s.number)) for s in traj.snapshots])
    times = traj.times
    dts = np.diff(times)
    changes = np.diff(mom)
    integrals = 0.5 * dts * (terms[1:] + terms[:-1])
    return WeakFormResidual(tag, times, changes - integrals, changes, integrals)


# ---------------------------------------------------------------------------
# A-priori bound monitors
# ---------------------------------------------------------------------------

# The checks of a config's diagnostics.checks: each takes exactly the keys its
# check reads, with their defaults, and returns the keywords of its monitor,
# weak_form_residual, comparison_ode (on the kernel's radial rate) or else
# bound_monitor.
CHECKS = {
    "phi_gronwall": lambda R=10.0: {"phi": lambda r: r * r, "R": R},
    "psi_moment": lambda: {},
    "product_l2": lambda A=4.0: {"A": A},
    "equicontinuity": lambda: {},
    "comparison_ode": lambda: {},
    "weak_form_identity": lambda theta="identity": {"theta": theta},
}


def _weighted_sum(snap: SizeDistribution, values: np.ndarray) -> float:
    return float(np.dot(values, snap.number))


def product_rate(kernel: KernelSpec, grid: SizeGrid, user: str) -> RadialRate:
    """The factor r of ``kernel`` = r(x) r(y) on ``grid``, for ``user``: a
    pointwise cap that binds there is refused, as min(K, n) has no product form."""
    rate = kernel.radial_rate()
    if _cap_binds(kernel, grid):
        raise UnsupportedFamilyError(
            f"{user} needs a product kernel whose pointwise cap does not bind on the grid")
    return rate


def bound_monitor(traj: Trajectory, kernel: KernelSpec, which: str,
                  phi=None, R: float | None = None, A: float | None = None,
                  psi=None) -> list:
    """Evaluate one of the a-priori estimates along a trajectory.

    ``which``: "phi_gronwall" (local integral of Phi(f) grows at most like
    exp(C1 t), C1 = 2 kappa (1+R)^2 M0(0)); "psi_moment" (weighted moment of
    psi(1+x) grows at most like exp(C3 t), C3 = 2 kappa1 ||f0||_{1,1});
    "product_l2" (running square-integrals of the radial moment bounded by
    2 M0(0) and 2 M1(0)/A; refused when a pointwise cap binds on the grid,
    since min(K, n) has no product form); "equicontinuity" (L1 modulus of
    continuity for product kernels).

    Returns a list of MarginReport, one per sub-bound.
    """
    grid = traj.grid
    snaps = traj.snapshots
    times = traj.times
    labels = classify(kernel, grid.span)

    if which == "phi_gronwall":
        if phi is None or R is None:
            raise DomainError("phi_gronwall needs phi and R")
        kappa = growth_constant(labels, "sublinear_factored", "kappa")
        m0 = snaps[0].moment(0.0)
        c1 = 2.0 * kappa * (1.0 + R) ** 2 * m0
        lhs = np.array([phi_integral(phi, s, R) for s in snaps])
        rhs = lhs[0] * np.exp(c1 * times)
        return [MarginReport("phi_gronwall", times, lhs, rhs,
                             {"kappa": kappa, "C1": c1, "R": R})]

    if which == "psi_moment":
        psi_fn = psi if psi is not None else (lambda r: r * r)
        kappa1 = growth_constant(labels, "linear", "kappa1")
        norm11 = snaps[0].moment(0.0) + snaps[0].moment(1.0)
        c3 = 2.0 * kappa1 * norm11
        vals = np.asarray([psi_fn(1.0 + p) for p in grid.pivots])
        lhs = np.array([_weighted_sum(s, vals) for s in snaps])
        rhs = lhs[0] * np.exp(c3 * times)
        return [MarginReport("psi_moment", times, lhs, rhs,
                             {"kappa1": kappa1, "C3": c3})]

    if which == "product_l2":
        if A is None:
            raise DomainError("product_l2 needs the tail threshold A")
        rate = product_rate(kernel, grid, "product_l2")
        rvals = np.asarray(rate(grid.pivots))
        full = np.array([_weighted_sum(s, rvals) for s in snaps])
        tail_vals = np.where(grid.pivots >= A, rvals, 0.0)
        tail = np.array([_weighted_sum(s, tail_vals) for s in snaps])
        acc_full = _cumtrapz(times, full**2)
        acc_tail = _cumtrapz(times, tail**2)
        m0, m1 = snaps[0].moment(0.0), snaps[0].moment(1.0)
        return [
            MarginReport("product_l2_total", times, acc_full,
                         np.full_like(acc_full, 2.0 * m0), {"bound": 2.0 * m0}),
            MarginReport("product_l2_tail", times, acc_tail,
                         np.full_like(acc_tail, 2.0 * m1 / A),
                         {"bound": 2.0 * m1 / A, "A": A}),
        ]

    if which == "equicontinuity":
        rate = kernel.radial_rate()
        m1 = snaps[0].moment(1.0)
        norm11 = snaps[0].moment(0.0) + m1
        c4 = max(2.0 * m1, (2.0 * norm11) ** 1.5)
        lo, hi = grid.span
        r_grid = np.geomspace(lo, 100.0 * hi, 64)
        m_of_r = np.empty_like(r_grid)
        for i, R in enumerate(r_grid):
            xs = np.geomspace(lo * 1e-3, R, 128)
            m_of_r[i] = float(np.max(np.asarray(rate(xs)) / (1.0 + xs)))
        widths = grid.widths
        pairs_lhs, pairs_rhs, pair_times = [], [], []
        for a in range(len(snaps)):
            for b in range(a + 1, len(snaps)):
                dt = times[b] - times[a]
                l1 = float(np.dot(np.abs(snaps[b].density - snaps[a].density), widths))
                bound = float(np.min(
                    c4 * (1.0 + r_grid * m_of_r * math.sqrt(dt)) / r_grid))
                pairs_lhs.append(l1)
                pairs_rhs.append(bound)
                pair_times.append(dt)
        return [MarginReport("equicontinuity", np.asarray(pair_times),
                             np.asarray(pairs_lhs), np.asarray(pairs_rhs),
                             {"C4": c4})]

    raise DomainError(f"unknown bound monitor {which!r}")


# ---------------------------------------------------------------------------
# Comparison ODE for the second moment
# ---------------------------------------------------------------------------

def _decade_integrals(func, lo: float = 1.0, hi: float = 1e6, pts: int = 256) -> np.ndarray:
    decades = int(round(math.log10(hi / lo)))
    out = []
    for d in range(decades):
        xs = np.geomspace(lo * 10.0**d, lo * 10.0**(d + 1), pts)
        ys = np.asarray([func(x) for x in xs])
        out.append(float(np.sum(0.5 * (ys[1:] + ys[:-1]) * np.diff(xs))))
    return np.asarray(out)


# classical RK4 steps of the comparison ODE per snapshot interval
_COMPARISON_SUBSTEPS = 200


def comparison_ode(traj: Trajectory, rate: RadialRate) -> ComparisonReport:
    """Second-moment control Y' = M1(0)^2 r(Y / M1(0))^2, asserting M2 <= Y.

    Requires r concave and positive with a divergent integral of 1/r^2 at
    infinity (checked numerically over [1, 1e6] by per-decade contributions).
    """
    lo, hi = traj.grid.span
    if not rate.is_concave_on(lo, hi):
        raise DomainError("comparison rate must be concave on the grid span")
    dec = _decade_integrals(lambda x: 1.0 / float(rate(x)) ** 2)
    evidence = {"decade_integrals": dec.tolist(),
                "divergent": bool(dec[-1] >= 0.05 * dec[0])}
    if not evidence["divergent"]:
        raise DomainError(
            "integral of 1/r^2 appears convergent; hypothesis violated")
    m1 = traj.snapshots[0].moment(1.0)
    times = traj.times
    y = traj.snapshots[0].moment(2.0)
    bound = [y]
    blow_up = None
    cap = 1e12 * max(1.0, y)

    def f(yv):
        return m1 * m1 * float(rate(yv / m1)) ** 2 if m1 > 0 else 0.0

    for k in range(1, times.size):
        h = (times[k] - times[k - 1]) / _COMPARISON_SUBSTEPS
        t_local = 0.0
        for _ in range(_COMPARISON_SUBSTEPS):
            k1 = f(y)
            k2 = f(y + h / 2 * k1)
            k3 = f(y + h / 2 * k2)
            k4 = f(y + h * k3)
            y = y + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
            t_local += h
            if y > cap:
                blow_up = times[k - 1] + t_local
                break
        if blow_up is not None:
            break
        bound.append(y)
    if blow_up is not None:
        bound += [math.inf] * (times.size - len(bound))
    observed = traj.moments[2.0]
    return ComparisonReport(times, np.asarray(bound), observed,
                            evidence, blow_up)


# ---------------------------------------------------------------------------
# Gelation
# ---------------------------------------------------------------------------

def power_shifted_ixi(lam: float, cross_check: bool = True) -> tuple[float, float]:
    """I_xi for xi(x) = (x-1)_+^((2-lam)/2).

    Returns (closed form via the Beta function, quadrature value).  The
    borderline lam = 2 makes xi a unit step whose derivative integrates to
    the point mass value 1 (flagged by callers as an analytic convention).
    """
    if not 1.0 < lam <= 2.0:
        raise DomainError("power-shifted xi needs homogeneity lam in (1, 2]")
    if lam == 2.0:
        return 1.0, 1.0
    a = (2.0 - lam) / 2.0
    b = (lam - 1.0) / 2.0
    # a B(a, b), with both arguments in (0, 1/2)
    closed = a * math.exp(math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b))
    if not cross_check:
        return closed, closed
    # scipy is imported here, not at module level: it would be most of the
    # import time of coagkit, and only the two quadrature cross-checks use it
    from scipy.integrate import quad

    def integrand(u):
        # substitution A = 1 + u^2 removes the endpoint singularity
        return 2.0 * a * u ** (1.0 - lam) / math.sqrt(1.0 + u * u)

    val, _err = quad(integrand, 0.0, np.inf, limit=200)
    return closed, val


def ratio_shifted_ixi(rate: RadialRate) -> float:
    """I_xi for xi(x) = (x / r(x) - 1 / r(1))_+ via the tail integral of
    1 / (r(A) sqrt(A))."""
    from scipy.integrate import quad

    r1 = float(rate(1.0))

    def integrand(u):
        a = math.exp(u)
        return math.exp(u / 2.0) / float(rate(a))

    dec = _decade_integrals(lambda x: 1.0 / (float(rate(x)) * math.sqrt(x)))
    if dec[-1] >= 0.5 * dec[0]:
        raise DomainError("1/(r sqrt) tail integral diverges; xi inadmissible")
    val, _err = quad(integrand, 0.0, 200.0, limit=800)
    ixi = -1.0 / r1 + 0.5 * val
    if ixi <= 0 or not math.isfinite(ixi):
        raise DomainError("I_xi must be positive and finite")
    return ixi


# The xi of gelation_functional by a config's gelation.xi.kind (XI_DEFAULT
# when it names none): each takes exactly the keys of its kind.
XI = {"power_shifted": lambda lam=1.5: ("power_shifted", lam),
      "ratio_shifted": lambda: "ratio_shifted"}
XI_DEFAULT = "power_shifted"


def _xi_values(xi, rate: RadialRate, x: np.ndarray) -> tuple[str, np.ndarray, float, list]:
    flags = []
    if isinstance(xi, tuple) and xi[0] == "power_shifted":
        lam = float(xi[1])
        if lam == 2.0:
            flags.append("lam=2 point-mass convention: I_xi = 1")
            return "power_shifted(2.0)", (x > 1.0).astype(float), 1.0, flags
        closed, quad_val = power_shifted_ixi(lam)
        if abs(closed - quad_val) > 1e-6 * max(1.0, abs(closed)):
            raise DomainError("I_xi quadrature disagrees with the Beta identity")
        vals = np.maximum(x - 1.0, 0.0) ** ((2.0 - lam) / 2.0)
        return f"power_shifted({lam})", vals, closed, flags
    if xi == "ratio_shifted" or (isinstance(xi, tuple) and xi[0] == "ratio_shifted"):
        ixi = ratio_shifted_ixi(rate)
        rv = np.asarray(rate(x))
        vals = np.maximum(x / rv - 1.0 / float(rate(1.0)), 0.0)
        return "ratio_shifted", vals, ixi, flags
    raise DomainError(f"unknown xi specification {xi!r}")


def gelation_functional(traj: Trajectory, rate: RadialRate, xi) -> GelationReport:
    """Accumulated square of the radial xi-moment against its a-priori bound.

    The bound 2 I_xi^2 M1(0) holds for any kernel dominating r(x) r(y) and
    admissible non-decreasing xi with xi(0) = 0.
    """
    x = traj.grid.pivots
    tag, xi_vals, ixi, flags = _xi_values(xi, rate, x)
    rx = np.asarray(rate(x)) * xi_vals
    series = np.array([float(np.dot(rx, s.number)) for s in traj.snapshots])
    acc = _cumtrapz(traj.times, series**2)
    m1 = traj.snapshots[0].moment(1.0)
    bound = 2.0 * ixi * ixi * m1
    return GelationReport(policy="", functional_values=acc, times=traj.times,
                          i_xi=ixi, bound=bound, flags=flags,
                          detail={"xi": tag})


def gelation_detect(traj: Trajectory, policy: str = "m2_extrapolation",
                    threshold: float = 0.01,
                    baseline: Trajectory | None = None,
                    kernel: KernelSpec | None = None) -> GelationReport:
    """Locate the gelation time along a trajectory.

    ``mass_drop``: first snapshot whose mass loss (net of the drift of a
    conservative baseline run, when given) exceeds threshold * M1(0).
    ``m2_extrapolation``: straight-line fit of 1/M2 near its smallest values;
    the root estimates the blow-up time of the second moment.

    When ``kernel`` classifies as gelling, the report also carries the
    a-priori upper bound on the gelation time obtained from the square-
    integrability of the mass.
    """
    times = traj.times
    m1 = traj.moments[1.0]
    report = GelationReport(policy=policy)
    if policy == "mass_drop":
        drift = np.zeros_like(m1)
        if baseline is not None:
            if baseline.times.size != times.size or np.any(baseline.times != times):
                raise DomainError("baseline must share snapshot times")
            mb = baseline.moments[1.0]
            drift = mb[0] - mb
        loss = m1[0] - m1 - drift
        hits = np.nonzero(loss > threshold * m1[0])[0]
        report.t_gel_detected = float(times[hits[0]]) if hits.size else None
        report.detail = {"threshold": threshold, "mass_loss": loss.tolist()}
    elif policy == "m2_extrapolation":
        m2 = traj.moments[2.0]
        k_max = int(np.argmax(m2))
        sel = np.nonzero(m2 >= m2[k_max] / 4.0)[0]
        sel = sel[sel <= k_max]
        if sel.size < 3:
            sel = np.arange(max(0, k_max - 2), k_max + 1)
        if sel.size >= 2 and m2[k_max] > m2[0]:
            ts, inv = times[sel], 1.0 / m2[sel]
            slope, intercept = np.polyfit(ts, inv, 1)
            if slope < 0:
                report.t_gel_detected = float(-intercept / slope)
            report.detail = {"fit_points": sel.tolist(), "slope": float(slope)}
    else:
        raise DomainError(f"unknown detection policy {policy!r}")

    if kernel is not None:
        labels = classify(kernel, traj.grid.span)
        try:
            lam = growth_constant(labels, "gelling", "lam")
            kappa_m = growth_constant(labels, "gelling", "kappa_m")
        except UnsupportedFamilyError:
            lam = None
        if lam is not None:
            ixi, _ = power_shifted_ixi(lam, cross_check=False)
            if lam == 2.0:
                report.flags.append("lam=2 point-mass convention: I_xi = 1")
            m0_0 = traj.snapshots[0].moment(0.0)
            m1_0 = traj.snapshots[0].moment(1.0)
            total = 2.0 ** (4.0 - lam) * (m0_0 + ixi * ixi * m1_0) / kappa_m**2
            report.t_gel_upper_bound = total / m1_0**2 if m1_0 > 0 else None
            report.i_xi = ixi
    return report


# ---------------------------------------------------------------------------
# Uniqueness distances
# ---------------------------------------------------------------------------

def c5_constant(alpha: float, beta: float, lam: float) -> tuple[float, str]:
    """Constant dominating |d_x K| |Rtilde| / (x^(lam-1) y^lam) for the
    two-exponent kernel.

    Derivation: the quotient is scale-invariant when lam equals the kernel
    homogeneity, so it reduces to a one-variable maximisation over t = y/x of
    (2/lam) (alpha t^beta + beta t^alpha) min(1, t)^lam / t^lam; the
    supremum is taken over a wide deterministic log grid.
    """
    if alpha < 0 or beta < 0:
        raise DomainError("c5 derivation assumes non-negative exponents")
    if alpha == 0 and beta == 0:
        return 0.0, "d_x K vanishes identically, so C5 = 0"
    if lam <= 0:
        raise DomainError("cdf distance needs lam > 0")
    if abs((alpha + beta) - lam) > 1e-12:
        raise DomainError(
            "the quotient is scale-invariant only when lam matches the "
            "kernel homogeneity alpha + beta")
    t = np.concatenate([np.geomspace(1e-8, 1.0, 20001),
                        np.geomspace(1.0, 1e8, 20001)])
    g = (2.0 / lam) * (alpha * t**beta + beta * t**alpha) \
        * np.minimum(1.0, t) ** lam / t**lam
    c5 = float(np.max(g))
    note = ("maximised (2/lam)(a t^b + b t^a) min(1,t)^lam / t^lam over "
            f"t in [1e-8, 1e8]; attained near t = {float(t[np.argmax(g)]):.3g}")
    return c5, note


def _cdf_distance(f1: SizeDistribution, f2: SizeDistribution, lam: float) -> float:
    """Integral of x^(lam-1) |F1 - F2| over (0, infinity), computed exactly
    for piecewise-constant tail CDFs with atoms at the pivots."""
    p = f1.grid.pivots
    dn = f1.number - f2.number
    # tail counts F(x) for x in (p_j, p_{j+1}); below the first pivot the
    # difference is the total number difference
    tail = np.concatenate([[np.sum(dn)], np.sum(dn) - np.cumsum(dn)])
    edges = np.concatenate([[0.0], p])
    upper = np.concatenate([p, [np.inf]])
    with np.errstate(over="ignore"):
        seg = (upper**lam - edges**lam) / lam
    # the tail difference vanishes identically beyond the last pivot
    seg[-1] = 0.0
    tail[-1] = 0.0
    return float(np.dot(np.abs(tail), seg))


def uniqueness_distance(traj1: Trajectory, traj2: Trajectory, kind,
                        kernel: KernelSpec | None = None) -> UniquenessReport:
    """Distance between two runs and its Gronwall envelope.

    ``kind``: ("weighted_l1", phi) with subadditive weight phi, envelope
    rate integral of phi^2 (f1+f2); or ("cdf", lam) with weight x^(lam-1) on
    the difference of tail CDFs, envelope rate (C5/2) M_lam(f1+f2), C5
    derived from the kernel exponents.
    """
    if traj1.grid != traj2.grid:
        raise DomainError("runs must share a grid")
    if traj1.times.size != traj2.times.size or np.any(traj1.times != traj2.times):
        raise DomainError("runs must share snapshot times")
    times = traj1.times
    snaps = list(zip(traj1.snapshots, traj2.snapshots))
    p, w = traj1.grid.pivots, traj1.grid.widths

    if isinstance(kind, tuple) and kind[0] == "weighted_l1":
        phi = kind[1]
        phiv = np.asarray([phi(v) for v in p], dtype=float) if callable(phi) \
            else np.asarray(phi, dtype=float)
        d = np.array([float(np.dot(phiv, np.abs(a.density - b.density) * w))
                      for a, b in snaps])
        rate = np.array([float(np.dot(phiv**2, (a.density + b.density) * w))
                         for a, b in snaps])
        params = {"phi": "callable"}
        name = "weighted_l1"
    elif isinstance(kind, tuple) and kind[0] == "cdf":
        lam = float(kind[1])
        if not 0.0 < lam <= 1.0:
            raise DomainError("cdf distance needs lam in (0, 1]")
        if kernel is None:
            raise DomainError("cdf distance needs the kernel for its constant")
        alpha, beta = kernel.exponents()
        c5, note = c5_constant(alpha, beta, lam)
        d = np.array([_cdf_distance(a, b, lam) for a, b in snaps])
        mlam = np.array([moment(a, lam) + moment(b, lam) for a, b in snaps])
        rate = 0.5 * c5 * mlam
        params = {"lam": lam, "C5": c5, "derivation": note}
        name = f"cdf_weighted({lam})"
    else:
        raise DomainError(f"unknown distance kind {kind!r}")

    envelope = d[0] * np.exp(_cumtrapz(times, rate))
    return UniquenessReport(name, times, d, rate, envelope, params)
