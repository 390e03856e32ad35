"""Coagulation kernels, growth classification, and truncation operators.

A kernel ``K(x, y)`` is the rate at which particles of sizes ``x`` and ``y``
merge.  The built-in families cover the classical cases (constant, additive
``x + y``, multiplicative ``x * y``), the two-exponent family
``x**a * y**b + x**b * y**a``, product kernels ``r(x) * r(y)``, the Brownian
kernel ``(x**(1/3) + y**(1/3)) * (x**(-1/3) + y**(-1/3))``, and tabulated
data.  Two truncation operators are provided: a pointwise cap ``min(K, n)``
and, for product kernels, the capped-factor form ``min(r, n)(x) * min(r, n)(y)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, UnsupportedFamilyError

__all__ = [
    "RadialRate",
    "KernelSpec",
    "GrowthClass",
    "classify",
    "omega_r",
]


# ---------------------------------------------------------------------------
# Radial rate r(x) for product kernels K(x, y) = r(x) r(y)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RadialRate:
    """Radial factor of a product kernel, optionally capped at ``cap``."""

    form: str  # "power_law" | "sqrt_log" | "identity" | "tabulated"
    params: tuple = ()
    cap: float | None = None
    table: tuple | None = None  # (x_nodes, values) for form="tabulated"

    @staticmethod
    def power_law(exponent: float = 1.0, scale: float = 1.0) -> "RadialRate":
        return RadialRate("power_law", (float(exponent), float(scale)))

    @staticmethod
    def sqrt_log(offset: float = 2.0, log_exponent: float = 0.5) -> "RadialRate":
        """r(x) = sqrt(offset + x) * log(offset + x)**log_exponent."""
        if offset <= 1.0:
            raise DomainError("sqrt_log offset must exceed 1 so the log stays positive")
        return RadialRate("sqrt_log", (float(offset), float(log_exponent)))

    @staticmethod
    def identity() -> "RadialRate":
        return RadialRate("identity")

    @staticmethod
    def tabulated(x_nodes, values) -> "RadialRate":
        x_nodes = np.asarray(x_nodes, dtype=float)
        values = np.asarray(values, dtype=float)
        if x_nodes.ndim != 1 or x_nodes.size < 2 or np.any(np.diff(x_nodes) <= 0):
            raise DomainError("tabulated rate needs strictly increasing x nodes")
        if np.any(values <= 0) or np.any(x_nodes <= 0):
            raise DomainError("tabulated rate must be positive on positive sizes")
        return RadialRate("tabulated", table=(tuple(x_nodes), tuple(values)))

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        if np.any(x <= 0):
            raise DomainError("sizes must be positive")
        if self.form == "power_law":
            p, scale = self.params
            r = scale * x**p
        elif self.form == "sqrt_log":
            offset, q = self.params
            z = offset + x
            r = np.sqrt(z) * np.log(z) ** q
        elif self.form == "identity":
            r = x.copy()
        elif self.form == "tabulated":
            nodes, values = self.table
            r = np.interp(np.log(x), np.log(nodes), values)
        else:  # pragma: no cover - constructor guards
            raise UnsupportedFamilyError(f"unknown radial form {self.form!r}")
        if self.cap is not None:
            r = np.minimum(r, self.cap)
        return r if r.ndim else float(r)

    def truncated(self, n: float) -> "RadialRate":
        """min(r, n); stacking caps keeps the smaller one."""
        if n <= 0:
            raise DomainError("cap must be positive")
        cap = n if self.cap is None else min(self.cap, n)
        return RadialRate(self.form, self.params, cap, self.table)

    def is_concave_on(self, lo: float, hi: float) -> bool:
        """Second-difference test on 257 evenly spaced points of [lo, hi];
        the second difference measures curvature only on equal spacing."""
        x = np.linspace(lo, hi, 257)
        r = np.asarray(self(x))
        second = r[:-2] - 2 * r[1:-1] + r[2:]
        scale = np.max(np.abs(r)) + 1e-300
        return bool(np.all(second <= 1e-9 * scale))


# ---------------------------------------------------------------------------
# Kernel specification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class KernelSpec:
    """A coagulation kernel with optional truncation state.

    ``cap`` with ``cap_mode="kernel"`` realises the pointwise truncation
    ``min(K, n)``; ``cap_mode="product"`` (product family only) realises
    ``min(r, n)(x) * min(r, n)(y)`` which is a different operator.
    """

    family: str
    params: tuple = ()
    rate: RadialRate | None = None
    table: tuple | None = None  # (x_nodes, matrix) for family="tabulated"
    cap: float | None = None
    cap_mode: str = "kernel"

    # -- constructors -------------------------------------------------------

    @staticmethod
    def constant(c: float = 2.0) -> "KernelSpec":
        if c < 0:
            raise DomainError("constant rate must be non-negative")
        return KernelSpec("constant", (float(c),))

    @staticmethod
    def additive() -> "KernelSpec":
        return KernelSpec("additive")

    @staticmethod
    def multiplicative() -> "KernelSpec":
        return KernelSpec("multiplicative")

    @staticmethod
    def power_sum(alpha: float, beta: float) -> "KernelSpec":
        """K(x, y) = x**alpha * y**beta + x**beta * y**alpha."""
        if alpha > 1 or beta > 1:
            raise DomainError("power_sum exponents must not exceed 1")
        return KernelSpec("power_sum", (float(alpha), float(beta)))

    @staticmethod
    def product(rate: RadialRate) -> "KernelSpec":
        return KernelSpec("product", rate=rate)

    @staticmethod
    def brownian() -> "KernelSpec":
        return KernelSpec("brownian")

    @staticmethod
    def tabulated(x_nodes, matrix) -> "KernelSpec":
        x_nodes = np.asarray(x_nodes, dtype=float)
        try:
            matrix = np.asarray(matrix, dtype=float)
        except ValueError:  # ragged rows
            raise DomainError("tabulated kernel matrix must be square over the nodes") from None
        if x_nodes.ndim != 1 or np.any(np.diff(x_nodes) <= 0) or np.any(x_nodes <= 0):
            raise DomainError("tabulated kernel needs strictly increasing positive x nodes")
        if matrix.shape != (x_nodes.size, x_nodes.size):
            raise DomainError("tabulated kernel matrix must be square over the nodes")
        if np.any(matrix < 0):
            raise DomainError("tabulated kernel must be non-negative")
        return KernelSpec(
            "tabulated",
            table=(tuple(x_nodes), tuple(map(tuple, matrix))),
        )

    # -- evaluation ----------------------------------------------------------

    def _raw(self, x, y):
        if self.family == "constant":
            (c,) = self.params
            return np.full(np.broadcast_shapes(np.shape(x), np.shape(y)), c)
        if self.family == "additive":
            return x + y
        if self.family == "multiplicative":
            return x * y
        if self.family == "power_sum":
            a, b = self.params
            return x**a * y**b + x**b * y**a
        if self.family == "brownian":
            cbx, cby = np.cbrt(x), np.cbrt(y)
            return (cbx + cby) * (1.0 / cbx + 1.0 / cby)
        if self.family == "product":
            return np.asarray(self.rate(x)) * np.asarray(self.rate(y))
        if self.family == "tabulated":
            nodes = np.asarray(self.table[0])
            matrix = np.asarray(self.table[1])
            return _bilinear_log(nodes, matrix, x, y)
        raise UnsupportedFamilyError(f"unknown kernel family {self.family!r}")

    def eval(self, x, y):
        """K(x, y), truncated if a cap is set.  Sizes must be positive."""
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        if np.any(x <= 0) or np.any(y <= 0):
            raise DomainError("sizes must be positive")
        if self.cap is not None and self.cap_mode == "product":
            rn = self.rate.truncated(self.cap)
            k = np.asarray(rn(x)) * np.asarray(rn(y))
        else:
            k = self._raw(x, y)
            if self.cap is not None:
                k = np.minimum(k, self.cap)
        k = np.asarray(k, dtype=float)
        return k if k.ndim else float(k)

    def __call__(self, x, y):
        return self.eval(x, y)

    # -- truncation ----------------------------------------------------------

    def truncate(self, n: float, mode: str = "cap") -> "KernelSpec":
        """Truncated kernel: ``mode="cap"`` gives min(K, n) pointwise,
        ``mode="product_cap"`` gives min(r, n)(x) * min(r, n)(y).  Stacking
        caps of one mode keeps the smaller; the two modes do not stack, since
        neither form holds the other."""
        if n <= 0:
            raise DomainError("truncation level must be positive")
        if mode not in ("cap", "product_cap"):
            raise DomainError(f"unknown truncation mode {mode!r}")
        if mode == "product_cap" and self.family != "product":
            raise UnsupportedFamilyError("product_cap requires a product kernel")
        cap_mode = "kernel" if mode == "cap" else "product"
        if self.cap is not None and self.cap_mode != cap_mode:
            raise UnsupportedFamilyError("cannot stack a pointwise cap and a product cap")
        cap = n if self.cap is None else min(self.cap, n)
        return KernelSpec(self.family, self.params, self.rate, self.table, cap, cap_mode)

    # -- structure -----------------------------------------------------------

    def radial_rate(self) -> RadialRate:
        """The factor r of a product-form kernel K = r(x) r(y), with the
        product cap applied; a pointwise cap ``min(K, n)`` has no product
        form and is not reflected."""
        if self.family == "product":
            rate = self.rate
        elif self.family == "multiplicative":
            rate = RadialRate.identity()
        else:
            raise UnsupportedFamilyError("kernel has no product form r(x) r(y)")
        if self.cap is not None and self.cap_mode == "product":
            rate = rate.truncated(self.cap)
        return rate

    def exponents(self) -> tuple[float, float]:
        """(alpha, beta) of the two-exponent form x^a y^b + x^b y^a."""
        if self.family == "power_sum":
            return self.params
        if self.family == "constant":
            return (0.0, 0.0)
        if self.family == "additive":
            return (0.0, 1.0)
        if self.family == "multiplicative":
            return (1.0, 1.0)
        raise UnsupportedFamilyError(
            "kernel has no two-exponent (power-sum) form")


def _bilinear_log(nodes, matrix, x, y):
    """Bilinear interpolation in log-size coordinates, clamped to the table."""
    ln = np.log(nodes)
    lx = np.clip(np.log(x), ln[0], ln[-1])
    ly = np.clip(np.log(y), ln[0], ln[-1])
    ix = np.clip(np.searchsorted(ln, lx) - 1, 0, ln.size - 2)
    iy = np.clip(np.searchsorted(ln, ly) - 1, 0, ln.size - 2)
    tx = (lx - ln[ix]) / (ln[ix + 1] - ln[ix])
    ty = (ly - ln[iy]) / (ln[iy + 1] - ln[iy])
    return (
        matrix[ix, iy] * (1 - tx) * (1 - ty)
        + matrix[ix + 1, iy] * tx * (1 - ty)
        + matrix[ix, iy + 1] * (1 - tx) * ty
        + matrix[ix + 1, iy + 1] * tx * ty
    )


# ---------------------------------------------------------------------------
# Growth classification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GrowthClass:
    """One growth label with its certified constants.

    Labels: ``bounded`` (K <= kappa0), ``sublinear_factored``
    (K <= kappa (1+x)(1+y) with vanishing omega_R), ``linear``
    (K <= kappa1 (2+x+y)), ``product_form`` (K = r(x) r(y)), ``gelling``
    (K >= kappa_m (xy)**(lam/2), lam in (1, 2]).
    """

    label: str
    constants: dict = field(default_factory=dict)


def omega_r(kernel: KernelSpec, R: float, y, x_min: float | None = None):
    """sup over x in (0, R) of K(x, y) / y.

    The supremum is taken over 256 log-spaced samples of ``[x_min, R]``,
    which hold x = R, where a kernel nondecreasing in x takes it.  The Brownian kernel diverges as x -> 0, so it requires an
    explicit ``x_min``.
    """
    if R <= 0:
        raise DomainError("R must be positive")
    y_arr = np.asarray(y, dtype=float)
    if np.any(y_arr <= 0):
        raise DomainError("y must be positive")
    if kernel.family == "brownian" and x_min is None:
        raise DomainError("omega_r for the Brownian kernel needs x_min > 0")
    lo = x_min if x_min is not None else R * 1e-9
    xs = np.geomspace(lo, R, 256)
    flat = y_arr.reshape(-1)
    res = np.empty(flat.shape)
    for i, yi in enumerate(flat):
        res[i] = np.max(kernel.eval(xs, yi)) / yi
    out = res.reshape(y_arr.shape)
    return out if out.ndim else float(out)


def _omega_sweep(kernel: KernelSpec, R: float, x_min: float | None) -> list:
    """omega_R at y = 1e2, 1e4 and 1e6."""
    return [float(omega_r(kernel, R, y, x_min=x_min)) for y in (1e2, 1e4, 1e6)]


def _omega_decays(v: list) -> bool:
    return v[-1] <= 0.01 * max(v[0], 1e-300) or v[-1] < 1e-12


def classify(kernel: KernelSpec, domain: tuple[float, float]) -> list[GrowthClass]:
    """All growth labels certifiable for ``kernel`` on ``domain``.

    Built-in families carry closed-form constants (global where they exist);
    tabulated kernels and the Brownian kernel are certified numerically on a
    64 x 64 log grid of the declared domain.
    """
    x_min, x_max = float(domain[0]), float(domain[1])
    if not (0 < x_min < x_max):
        raise DomainError("domain must satisfy 0 < x_min < x_max")
    fam = kernel.family
    labels: list[GrowthClass] = []

    if kernel.cap is not None and kernel.cap_mode == "kernel":
        labels.append(GrowthClass("bounded", {"kappa0": float(kernel.cap)}))

    if fam == "constant":
        c = kernel.params[0]
        labels.append(GrowthClass("bounded", {"kappa0": c}))
        labels.append(GrowthClass("linear", {"kappa1": c / 2.0}))
        labels.append(GrowthClass("sublinear_factored", {"kappa": c}))
    elif fam == "additive":
        labels.append(GrowthClass("linear", {"kappa1": 1.0}))
    elif fam == "multiplicative":
        labels.append(GrowthClass("product_form", {"r_form": "identity"}))
        labels.append(GrowthClass("gelling", {"lam": 2.0, "kappa_m": 1.0}))
    elif fam == "power_sum":
        a, b = kernel.params
        lam = a + b
        if 0 <= min(a, b) and lam <= 1:
            labels.append(GrowthClass("linear", {"kappa1": 2.0}))
        if 0 <= min(a, b) and max(a, b) < 1:
            labels.append(GrowthClass("sublinear_factored", {"kappa": 2.0}))
        if 1 < lam <= 2:
            # x^a y^b + x^b y^a >= 2 (xy)^(lam/2) by AM-GM
            labels.append(GrowthClass("gelling", {"lam": lam, "kappa_m": 2.0}))
        if a == b == 0:
            labels.append(GrowthClass("bounded", {"kappa0": 2.0}))
    elif fam == "product":
        labels.append(GrowthClass("product_form", {"r_form": kernel.rate.form}))
        if kernel.rate.form in ("identity", "power_law"):
            p = 1.0 if kernel.rate.form == "identity" else kernel.rate.params[0]
            s = 1.0 if kernel.rate.form == "identity" else kernel.rate.params[1]
            if 0.5 < p <= 1:
                labels.append(GrowthClass("gelling", {"lam": 2 * p, "kappa_m": s * s}))
            if 0 <= p < 1:
                labels.append(GrowthClass("sublinear_factored", {"kappa": max(s * s, 1.0)}))
    else:
        labels.extend(_classify_sampled(kernel, x_min, x_max))

    if kernel.cap is not None:
        # either cap bounds K, and a bounded kernel does not gel; min(K, n)
        # is not r(x) r(y) either, while min(r, n)(x) min(r, n)(y) is
        dropped = {"gelling", "product_form"} if kernel.cap_mode == "kernel" else {"gelling"}
        labels = [g for g in labels if g.label not in dropped]
    return labels


def _classify_sampled(kernel: KernelSpec, x_min: float, x_max: float) -> list[GrowthClass]:
    """Numeric certification on a 64 x 64 log grid (tabulated / Brownian)."""
    xs = np.geomspace(x_min, x_max, 64)
    xx, yy = np.meshgrid(xs, xs, indexing="ij")
    kk = np.asarray(kernel.eval(xx, yy))
    asym = np.max(np.abs(kk - kk.T))
    if asym > 1e-9 * (np.max(kk) + 1e-300):
        raise DomainError("tabulated kernel is not symmetric; cannot classify")
    labels = [GrowthClass("bounded", {"kappa0": float(np.max(kk))}),
              GrowthClass("linear", {"kappa1": float(np.max(kk / (2.0 + xx + yy)))})]
    if _omega_decays(_omega_sweep(kernel, 1.0, x_min)):
        kappa = float(np.max(kk / ((1.0 + xx) * (1.0 + yy))))
        labels.append(GrowthClass("sublinear_factored", {"kappa": kappa}))
    return labels


def growth_constant(labels: list[GrowthClass], label: str, name: str) -> float:
    """Constant ``name`` from the first label of the given kind."""
    for g in labels:
        if g.label == label:
            return g.constants[name]
    raise UnsupportedFamilyError(f"kernel carries no {label!r} classification")
