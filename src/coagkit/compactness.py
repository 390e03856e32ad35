"""Constructive weak-L1 compactness toolkit.

* modulus of uniform integrability of a family of piecewise-constant
  functions (supremal integral over sets of small measure),
* its tail-integral characterisation (the two agree in the limit),
* a builder for superlinear convex functions Phi with concave derivative:
  piecewise quadratic on intervals [N_m, N_{m+1}], with the integer
  breakpoints chosen against a prescribed tail table, and the full suite of
  inequalities such functions satisfy.

Every function is always exact: each breakpoint and alpha is taken as the
rational it is, a float as its exact binary value (a caller who means 1/10
passes ``Fraction(1, 10)``), so the structural identities (derivative
continuity, slope monotonicity) hold exactly rather than to round-off.  The
tables are also scaled to integers over one common denominator; Phi and
Phi' at p/q are then unreduced integer pairs, and every margin of
``vp_check`` is a difference X - Y of sums of products of non-negative
integers.  ``vp_check`` evaluates those in float64 over all samples at once
with an a-priori error bound (a static filter after Shewchuk); the samples
whose sign, or whose place against the minimum, the bound leaves uncertain
fall back to integer cross-multiplication, so the report is exact: a block
of open samples at a time, on object arrays of Python integers, each check
alone on just the samples it leaves open.  Each check is one formula over
Phi and Phi' at r, s, r + s, (r + s)/2 and lambda r, which a batch evaluates
lazily, once each; the same formulas serve integers, alone or in object
arrays, float64 arrays and counts of roundings.
Samples come as triples of numbers, each read as its exact ratio, or as an
int64 array of (num, den) pairs, such as ``DlvpConfig.draw`` returns: integer
numerators drawn over one denominator from the standard library's Mersenne
Twister.
"""

from __future__ import annotations

import math
import random
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, partial
from itertools import accumulate
from numbers import Rational

import numpy as np

from .errors import ArgumentError, ConstructionError, DomainError
from .grids import SizeDistribution

__all__ = [
    "CompactnessConfig",
    "DlvpConfig",
    "FunctionFamily",
    "VPFunction",
    "eta_modulus",
    "eta_limit",
    "eta_zero_extrapolation",
    "family_tail",
    "synthetic_family",
    "dlvp_construct",
    "vp_eval",
    "vp_check",
    "phi_integral",
    "VPCheckReport",
]


# ---------------------------------------------------------------------------
# Families and the modulus of uniform integrability
# ---------------------------------------------------------------------------

@dataclass
class FunctionFamily:
    """Finitely many non-negative piecewise-constant functions on one grid."""

    members: list
    measures: np.ndarray

    def __post_init__(self):
        self.measures = np.asarray(self.measures, dtype=float)
        if np.any(self.measures <= 0):
            raise DomainError("cell measures must be positive")
        self.members = [np.abs(np.asarray(m, dtype=float)) for m in self.members]
        for m in self.members:
            if m.shape != self.measures.shape:
                raise DomainError("members must share the common grid")
        if not self.members:
            raise DomainError("family must be non-empty")

    @staticmethod
    def from_snapshots(snapshots) -> "FunctionFamily":
        if not all(s.grid == snapshots[0].grid for s in snapshots):
            raise DomainError("snapshots live on different grids")
        widths = snapshots[0].grid.widths
        return FunctionFamily([s.density for s in snapshots], widths)


def eta_modulus(family: FunctionFamily, eps: float) -> float:
    """sup over members and sets A with measure(A) <= eps of the integral
    over A, with fractional inclusion of the cell that straddles eps."""
    if eps <= 0:
        raise DomainError("eps must be positive")
    best = 0.0
    for f in family.members:
        order = np.argsort(-f, kind="stable")
        v = f[order]
        w = family.measures[order]
        cw = np.cumsum(w)
        k = int(np.searchsorted(cw, eps, side="right"))
        if k >= v.size:
            total = float(np.dot(v, w))
        else:
            total = float(np.dot(v[:k], w[:k]))
            total += float(v[k]) * (eps - (cw[k - 1] if k else 0.0))
        best = max(best, total)
    return best


def eta_limit(family: FunctionFamily, thresholds) -> tuple[float, np.ndarray]:
    """Tail integrals sup_f int_{|f| >= c} |f| at each threshold c.

    Returns (estimate, per-threshold values); the estimate is the value at
    the largest threshold, and the sequence is non-increasing in c.
    """
    cs = np.asarray(thresholds, dtype=float)
    if cs.size == 0 or np.any(np.diff(cs) <= 0):
        raise DomainError("thresholds must be a non-empty increasing list")
    tail = family_tail(family)
    tails = np.array([tail(c) for c in cs])
    return float(tails[-1]), tails


def eta_zero_extrapolation(family: FunctionFamily, eps_list) -> float:
    """Linear extrapolation of eta_modulus to eps = 0 from the two smallest
    of distinct eps values (exact for finite families once eps is below the measure of
    the top-value cell)."""
    eps = np.sort(np.asarray(eps_list, dtype=float))
    if eps.size < 2:
        raise DomainError("need at least two eps values to extrapolate")
    if np.any(np.diff(eps) == 0):
        raise DomainError("eps values must be distinct")
    e1, e2 = eps[0], eps[1]
    h1, h2 = eta_modulus(family, e1), eta_modulus(family, e2)
    return h1 - e1 * (h2 - h1) / (e2 - e1)


def family_tail(family: FunctionFamily):
    """Tail-integral callable c -> sup_f int_{|f| >= c} |f|."""

    def tail(c):
        if c > sys.float_info.max:
            return 0.0      # no finite member value reaches c
        return max(float(np.sum(np.where(f >= c, f * family.measures, 0.0)))
                   for f in family.members)

    return tail


def synthetic_family(kind: str, resolution: int = 512) -> FunctionFamily:
    """Reference families used by tests, demos, and the CLI.

    ``bounded``: the indicator of (0, 1).  ``concentrating``: the spikes
    n * 1_(0, 1/n) for dyadic n up to 64 (unit mass each, all above any
    threshold below n).  ``singular``: x**(-1/2) on (0, 1) discretised by
    cell averages on square-spaced edges (j/M)**2, which keeps every cell
    integral exactly 2/M.
    """
    if kind == "bounded":
        m = 64
        return FunctionFamily([np.ones(m)], np.full(m, 1.0 / m))
    if kind == "concentrating":
        k = 6  # spikes n = 1, 2, ..., 64
        rights = 2.0 ** np.arange(-k, 1)          # 1/64 .. 1
        widths = np.diff(np.concatenate([[0.0], rights]))
        members = []
        for j in range(k + 1):
            n = 2.0**j
            vals = np.where(rights <= 1.0 / n + 1e-15, n, 0.0)
            members.append(vals)
        return FunctionFamily(members, widths)
    if kind == "singular":
        m = resolution
        j = np.arange(m)
        widths = (2.0 * j + 1.0) / m**2           # ((j+1)/M)^2 - (j/M)^2
        values = 2.0 * m / (2.0 * j + 1.0)        # exact cell averages
        return FunctionFamily([values], widths)
    raise DomainError(f"unknown synthetic family {kind!r}")


@dataclass
class CompactnessConfig:
    """The family (``source`` "run": the run's snapshots; else a
    ``synthetic_family`` kind), thresholds and eps of ``compactness``."""

    source: str = "run"
    thresholds: tuple = tuple(2.0 ** k for k in range(14))
    eps: tuple = tuple(2.0 ** -k for k in range(4, 20))


# ---------------------------------------------------------------------------
# The convex-function builder
# ---------------------------------------------------------------------------

# The most samples ``DlvpConfig.draw`` returns, checked before anything is
# drawn.  ``coagkit compactness`` on the benchmark's config with this many
# samples peaks at about 174 MB RSS, and its ``cli.main`` takes about 0.73 s
# (2-core x86 VM, median of 3 fresh processes).
MAX_SAMPLES = 2 ** 20
# The most segments ``DlvpConfig`` takes, checked before any alpha or beta
# is built.  ``coagkit compactness`` on demos/configs/compactness_singular.json
# with this many terms and 1000 samples takes about 1.0 s and 39 MB peak RSS
# under the ``from_family`` tail and under the ``table`` tail {"1": 0.0}
# (every breakpoint placed, N_m doubling), and 0.4 s under ``inverse``, which
# stops at index 31 (2-core x86 VM).  Cost grows faster than linearly: 2048
# terms under that table took 3.7 s.
MAX_TERMS = 2 ** 9


@dataclass
class DlvpConfig:
    """The arguments of ``dlvp_construct`` and ``vp_check`` besides the tail:
    each alpha (all 1 when not given) the nearest p/q with q <= 10^9, and
    betas ``beta_ratio``^m for m = 0..terms."""

    alphas: list | None = None
    beta_ratio: float = 0.25
    terms: int = 6
    samples: int = 1000

    def __post_init__(self):
        self.terms, self.samples = int(self.terms), int(self.samples)   # 6.0 is an integer
        for key, budget in (("terms", MAX_TERMS), ("samples", MAX_SAMPLES)):
            if getattr(self, key) > budget:
                raise ArgumentError(key, f"{getattr(self, key)} exceeds the budget of {budget}")
        given = [1] * self.terms if self.alphas is None else self.alphas
        if any(a > sys.float_info.max for a in given):
            raise ArgumentError("alphas", "entry exceeds the largest float")
        self.alphas = [Fraction(a).limit_denominator(10**9) for a in given]
        if 0 in self.alphas:
            tiny = given[self.alphas.index(0)]
            raise ArgumentError("alphas", f"entry {tiny!r} rounds to 0 as p/q with q <= 10^9")
        self.betas = [Fraction(self.beta_ratio) ** m for m in range(self.terms + 1)]

    def draw(self, phi: VPFunction) -> np.ndarray:
        """``samples`` triples (r, s, lambda) for ``vp_check``, as an (n, 3, 2)
        int64 array of (num, den): every denominator is q = 10^6, or the
        largest q that keeps N_3 q (N_3, or the last breakpoint) within int64;
        the numerators of r and s are uniform below N_3 q, that of lambda
        below 4 q.  They come from the standard library's Mersenne Twister,
        ``random.Random(20240211)``, as three columns drawn one after the
        other by ``_uniform_below``."""
        k = min(3, len(phi.breakpoints) - 1)
        top = phi.breakpoints[k]
        q = min(10**6, (2**63 - 1) // math.ceil(top))
        if not q:
            raise DomainError(f"breakpoint N_{k} exceeds 2^63 - 1, the int64 bound of "
                              "the samples drawn below it")
        rng = random.Random(20240211)
        n, hi = self.samples, math.floor(top * q)
        samples = np.full((n, 3, 2), q, dtype=np.int64)
        for j, bound in enumerate((hi, hi, 4 * q)):
            samples[:, j, 0] = _uniform_below(rng, bound, n)
        return samples


def _uniform_below(rng: random.Random, hi: int, n: int) -> np.ndarray:
    """``n`` integers exactly uniform on [0, hi), 0 < hi <= 2^63, as int64.

    Each is a 64-bit word of ``rng.getrandbits`` (its first 32-bit output
    the low half) mod hi.  A word at or above the largest multiple of hi
    that is at most 2^64 is rejected, so each residue is hit equally often;
    the words run in stream order, and the stream stops at the n-th one
    kept."""
    limit = 2**64 - 2**64 % hi
    words = np.empty(0, dtype=np.uint64)
    while words.size < n:
        k = n - words.size
        new = np.frombuffer(rng.getrandbits(64 * k).to_bytes(8 * k, "little"), dtype="<u8")
        words = np.concatenate([words, new[new < limit] if limit < 2**64 else new])
    words %= hi
    return words.view(np.int64)     # every residue is below 2^63


def _inverse_tail(inverse_coeff: float = 2.0):
    # c -> inverse_coeff / c at integers c: an int over a Fraction is exact,
    # a float over one is the float division
    if isinstance(inverse_coeff, float) and inverse_coeff.is_integer():
        inverse_coeff = int(inverse_coeff)
    return lambda c: inverse_coeff / Fraction(c)


def _table_tail(tail_table: dict) -> dict:
    if not tail_table:
        raise ArgumentError("tail_table", "is empty")
    return {float(k): v for k, v in tail_table.items()}


# The tail of dlvp_construct by a config's compactness.dlvp.tail (TAIL_DEFAULT
# when it names none), each taking exactly the keys of its kind; None stands
# for the family's own tail integrals, family_tail.
TAILS = {"from_family": lambda: None, "inverse": _inverse_tail, "table": _table_tail}
TAIL_DEFAULT = "from_family"


def _rational(x) -> Fraction:
    """x as the exact rational it is: a float is its binary value."""
    try:
        return Fraction(x)
    except (ValueError, OverflowError):
        raise DomainError(f"{x!r} is not a finite number") from None


# Samples per block of ``_exact_margins``: a temporary of the float pass is
# 16 KiB, and one of the integer pass holds as many Python integers, so
# both stay small at any sample count.
_BLOCK = 2048


def _floats(values) -> np.ndarray:
    """float64 of non-negative integers, inf for those of 2^1023 or more."""
    try:
        return np.asarray(values, dtype=float)
    except OverflowError:
        values = np.asarray(values, dtype=object)
        return np.array([float(v) if v < 2**1023 else math.inf
                         for v in values.flat]).reshape(values.shape)


class _Roundings(int):
    """The number of roundings in a float64 expression of non-negative terms
    (Higham, *Accuracy and Stability of Numerical Algorithms*, Lemma 3.3): a
    sum of terms with i and j carries max(i, j) + 1 and a product i + j + 1;
    the one constant, 2, multiplies exactly.  The one difference in
    ``_pairs``, p B_k - U_k q, is exact once p B_k is at most 2^52, which the
    filter checks, and then so is p."""

    def __add__(self, other):
        return _Roundings(max(int(self), int(other)) + 1)

    def __mul__(self, other):
        if not isinstance(other, _Roundings):
            return self
        return _Roundings(int(self) + int(other) + 1)

    def __sub__(self, other):
        return _Roundings(0)

    __radd__, __rmul__ = __add__, __mul__


def _segment(tables, p, q):
    """k of the last breakpoint N_k = U_k / B_k <= p / q, or 0 below N_1."""
    U, B = tables[1], tables[2]
    return sum(p * b >= u * q for u, b in zip(U[1:], B[1:]))


def _pairs(tables, p, q):
    """Phi(p/q) and Phi'(p/q) for p >= 0, q > 0, as unreduced ``(num, den)``
    pairs with den > 0, over ``VPFunction._tables``: exact on Python
    integers and on object arrays of them, elementwise on float64 arrays.

    With N_k the last breakpoint <= p/q and d = p/q - N_k: Phi = V_k + P_k d
    + A_k d^2 / 2, Phi' = P_k + A_k d.
    """
    L, U, B, W, A, P, V = tables
    k = _segment(tables, p, q)
    Q = q * L
    e = W[k] * (p * B[k] - U[k] * q)  # d = e / Q
    pq = P[k] * Q
    g = pq + A[k] * e                 # Phi' = g / (L Q)
    return (2 * V[k] * Q * Q + e * (pq + g), 2 * L * Q * Q), (g, L * Q)


@dataclass
class VPFunction:
    """Piecewise-quadratic convex function with concave derivative.

    Phi'(r) = P_m + A_m (r - N_m) on [N_m, N_{m+1}], Phi(0) = Phi'(0) = 0,
    slopes A_m positive and non-increasing.  Beyond the last breakpoint Phi'
    continues affinely with the last slope.  Each breakpoint and alpha is
    taken as the exact rational it is (a whole one as an int), so the
    function is always exact.
    """

    breakpoints: list          # N_0 = 1 < N_1 < ..., integers from dlvp_construct
    alphas: list               # alpha_m, one per segment
    tail_table: dict = field(default_factory=dict)   # N_m -> tail bound used

    # derived in __post_init__
    slopes: list = field(init=False)       # A_m
    deriv_at: list = field(init=False)     # Phi'(N_m)
    value_at: list = field(init=False)     # Phi(N_m)

    # every function is exact; compactness.json reports it
    exact = True

    def __post_init__(self):
        n = [_rational(v) for v in self.breakpoints]
        a = [_rational(v) for v in self.alphas]
        if len(n) < 2 or len(a) != len(n) - 1:
            raise DomainError("need breakpoints N_0..N_M and one alpha per segment")
        if n[0] != 1 or n[1] < 2:
            raise DomainError("breakpoints must start at N_0 = 1 with N_1 >= 2")
        if any(b <= c for c, b in zip(n, n[1:])):
            raise DomainError("breakpoints must be strictly increasing")
        if any(x <= 0 for x in a):
            raise DomainError("alphas must be positive")
        self.breakpoints = [int(v) if v.denominator == 1 else v for v in n]
        self.alphas = a
        A = [a[m] / (n[m + 1] - n[m]) for m in range(len(a))]
        for prev, cur in zip(A, A[1:]):
            if cur > prev:
                raise DomainError("slope sequence must be non-increasing (c1)")
        # Phi'(N_m) = sum_{i<m} alpha_i + alpha_0/(N_1 - N_0): continuous
        # (c2) by construction, as A_m (N_{m+1} - N_m) = alpha_m
        P = [A[0] + s for s in accumulate(a, initial=0)]
        # Phi at breakpoints by exact quadratic integration
        V = [A[0] / 2]
        for m in range(1, len(n)):
            d = n[m] - n[m - 1]
            V.append(V[-1] + P[m - 1] * d + A[m - 1] * d * d / 2)
        self.slopes, self.deriv_at, self.value_at = A, P, V
        # integer tables over one common denominator L, with segment 0
        # expanded about 0 (N = P = V = 0 there) and the last slope repeated
        # past the end: Phi = V_k + P_k d + A_k d^2 / 2 with d = r - N_k >= 0
        # on every segment, a sum of non-negative terms.  N_k = U_k / B_k in
        # lowest terms, and W_k = L / B_k.
        L = self._L = math.lcm(*(v.denominator for v in (*A, *P, *V, *n)))
        N = [Fraction(0)] + n[1:]
        # object arrays of Python integers, so ``_pairs`` indexes them by a
        # scalar segment or by an array of them
        self._U, self._B = (np.array(t, dtype=object) for t in
                            ([b.numerator for b in N], [b.denominator for b in N]))
        self._W = L // self._B
        self._A, self._P, self._V = (np.array([int(v * L) for v in vals], dtype=object)
                                     for vals in (A + A[-1:], P, V))
        self._P[0] = self._V[0] = 0

    def _tables(self, kind=int):
        """``(L, U, B, W, A, P, V)`` for ``_pairs``: the integer tables (L
        an int, the rest object arrays), their float64 arrays
        (``kind=float``), or a ``_Roundings`` count ``kind`` in place of
        every entry."""
        tabs = (self._U, self._B, self._W, self._A, self._P, self._V)
        if kind is float:
            return (_floats([self._L])[0], *map(_floats, tabs))
        if isinstance(kind, _Roundings):
            return (kind, *([kind] * len(t) for t in tabs))
        return (self._L, *tabs)

    def _exact_at(self, r, order: int):
        r = _rational(r)
        if r < 0:
            raise DomainError("argument must be non-negative")
        p, q = r.numerator, r.denominator
        tables = self._tables()
        if order == 2:
            return Fraction(self._A[_segment(tables, p, q)], self._L)
        return Fraction(*_pairs(tables, p, q)[order])

    def deriv_exact(self, r: Fraction) -> Fraction:
        return self._exact_at(r, 1)

    def value_exact(self, r: Fraction) -> Fraction:
        return self._exact_at(r, 0)

    def second_exact(self, r) -> Fraction:
        return self._exact_at(r, 2)

    # -- vectorised float evaluation ------------------------------------------

    def _float_tables(self):
        n = np.asarray([float(v) for v in self.breakpoints])
        A = np.asarray([float(v) for v in self.slopes])
        P = np.asarray([float(v) for v in self.deriv_at])
        V = np.asarray([float(v) for v in self.value_at])
        return n, A, P, V

    def __call__(self, r, order: int = 0):
        return vp_eval(self, r, order)

    def to_json_obj(self) -> dict:
        return {
            "breakpoints": [int(b) for b in self.breakpoints],
            "alphas": [str(a) for a in self.alphas],
            "exact": self.exact,
            "tail_table": {str(k): str(v) for k, v in self.tail_table.items()},
            "deriv_at_breakpoints": [float(p) for p in self.deriv_at],
        }


def vp_eval(phi: VPFunction, r, order: int = 0):
    """Phi (order 0), Phi' (order 1), or the piecewise-constant Phi'' (order 2).

    Accepts scalars or arrays; an int or Fraction scalar gives an exact
    Fraction, anything else float64.
    """
    if order not in (0, 1, 2):
        raise DomainError("order must be 0, 1, or 2")
    if np.isscalar(r) and isinstance(r, Rational):
        return (phi.value_exact, phi.deriv_exact, phi.second_exact)[order](r)
    arr = np.asarray(r, dtype=float)
    if np.any(arr < 0):
        raise DomainError("argument must be non-negative")
    n, A, P, V = phi._float_tables()
    seg = np.clip(np.searchsorted(n, arr, side="right") - 1, 0, len(A) - 1)
    d = arr - n[seg]
    if order == 2:
        out = A[seg]
    elif order == 1:
        out = np.where(arr < n[1], A[0] * arr, P[seg] + A[seg] * d)
    else:
        out = np.where(arr < n[1], A[0] * arr * arr / 2.0,
                       V[seg] + P[seg] * d + A[seg] * d * d / 2.0)
    return out if out.ndim else float(out)


# ---------------------------------------------------------------------------
# Breakpoint selection against a tail table
# ---------------------------------------------------------------------------

def _tail_callable(tail):
    """Normalise a tail specification to a callable with a search ceiling."""
    if callable(tail):
        return tail, None
    items = sorted(tail.items())
    keys = [k for k, _ in items]
    vals = [v for _, v in items]
    for (k1, v1), (k2, v2) in zip(items, items[1:]):
        if v2 > v1:
            raise DomainError("tail table must be non-increasing")

    def step(c):
        idx = np.searchsorted(keys, c, side="right") - 1
        if idx < 0:
            return np.inf  # below the table: no certificate available
        return vals[idx]

    return step, keys[-1]


def _as_sequence(spec, count):
    if callable(spec):
        return [spec(m) for m in range(count)]
    seq = list(spec)
    if len(seq) < count:
        raise DomainError(f"need at least {count} sequence terms")
    return seq[:count]


def dlvp_construct(tail, alphas, betas, terms: int | None = None,
                   search_limit: int = 2 ** 62) -> VPFunction:
    """Build a superlinear convex function against a tail table.

    ``tail`` maps a threshold to (an upper bound for) the family tail
    integral; it may be a callable or a mapping (used as a right-continuous
    step function).  ``alphas`` and ``betas`` are positive sequences or
    callables m -> value; the partial sum of alpha_m * beta_m must be finite,
    which for the finitely many stored terms amounts to positivity checks.

    Breakpoints: N_0 = 1; N_m for m >= 1 is the smallest integer satisfying
    the growth constraint N_m >= (1 + alpha_{m-1}/alpha_{m-2}) N_{m-1}
    (N_1 >= 2) and the tail constraint tail(N_m) <= beta_m.  Raises
    ConstructionError naming the first index whose tail constraint cannot be
    met within the table's range.
    """
    if terms is None:
        if callable(alphas) or callable(betas):
            raise DomainError("terms must be given when sequences are callables")
        terms = min(len(alphas), len(betas) - 1)
    if terms < 1:
        raise DomainError("need at least one segment")
    a = [_rational(x) for x in _as_sequence(alphas, terms)]
    b = _as_sequence(betas, terms + 1)
    if any((x <= 0) for x in a) or any((x <= 0) for x in b):
        raise DomainError("alphas and betas must be positive")
    tail_fn, ceiling = _tail_callable(tail)
    limit = min(search_limit, ceiling) if ceiling is not None else search_limit

    breakpoints = [1]
    tail_table = {}
    for m in range(1, terms + 1):
        if m == 1:
            lower = 2
        else:
            lower = max(math.ceil((1 + a[m - 1] / a[m - 2]) * breakpoints[m - 1]),
                        breakpoints[m - 1] + 1)
        beta_m = b[m]
        if tail_fn(lower) <= beta_m:
            chosen = lower
        else:
            hi = lower
            while True:
                hi *= 2
                if hi > limit:
                    raise ConstructionError(
                        f"tail constraint unmet at index {m}: "
                        f"tail({limit}) > beta_{m}", m)
                if tail_fn(hi) <= beta_m:
                    break
            lo = max(lower, hi // 2)
            while lo < hi:
                mid = (lo + hi) // 2
                if tail_fn(mid) <= beta_m:
                    hi = mid
                else:
                    lo = mid + 1
            chosen = hi
        breakpoints.append(chosen)
        tail_table[chosen] = tail_fn(chosen)

    return VPFunction(breakpoints, a, tail_table)


# ---------------------------------------------------------------------------
# Inequality suite
# ---------------------------------------------------------------------------

@dataclass
class InequalityCheck:
    name: str
    samples: int
    violations: int
    min_margin: float

    @property
    def passed(self) -> bool:
        return self.violations == 0


@dataclass
class VPCheckReport:
    checks: list

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def __getitem__(self, name: str) -> InequalityCheck:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)

    def to_json_obj(self) -> dict:
        return {
            "passed": self.passed,
            "checks": [
                {"name": c.name, "samples": c.samples,
                 "violations": c.violations, "min_margin": c.min_margin}
                for c in self.checks
            ],
        }


def _maximum(a, b):
    return np.maximum(a, b) if isinstance(a, np.ndarray) else max(a, b)


class _Points:
    """Phi and Phi' of one batch of samples r = pr/qr, s = ps/qs, lambda =
    pl/ql at r, s, r + s = pt/qt, (r + s) / 2 and lambda r, each
    ``((f, h), (g, k))`` with Phi = f/h and Phi' = g/k.  ``pairs`` is
    ``_pairs`` over one kind of tables, so these run on Python integers, on
    object arrays of them, on float64 arrays and on rounding counts; each
    point is evaluated on first use and kept, so the formulas of
    ``_MARGINS`` share them and read only the points they need."""

    def __init__(self, pairs, pr, qr, ps, qs, pl, ql):
        self.pairs = pairs
        self.pr, self.qr, self.ps, self.qs, self.pl, self.ql = pr, qr, ps, qs, pl, ql

    @cached_property
    def pt(self):
        return self.pr * self.qs + self.ps * self.qr

    @cached_property
    def qt(self):
        return self.qr * self.qs

    @cached_property
    def r(self):
        return self.pairs(self.pr, self.qr)

    @cached_property
    def s(self):
        return self.pairs(self.ps, self.qs)

    @cached_property
    def t(self):
        return self.pairs(self.pt, self.qt)

    @cached_property
    def mid(self):
        return self.pairs(self.pt, 2 * self.qt)

    @cached_property
    def lam(self):
        return self.pairs(self.pl * self.pr, self.ql * self.qr)

    @cached_property
    def sum_rs(self):
        """Phi(r) + Phi(s) as (num, hr hs)."""
        (fr, hr), (fs, hs) = self.r[0], self.s[0]
        return fr * hs + fs * hr, hr * hs

    @cached_property
    def slope_r(self):
        """r Phi'(r) and Phi(r), both over qr kr hr, and that denominator."""
        (fr, hr), (gr, kr) = self.r
        return self.pr * gr * hr, fr * self.qr * kr, self.qr * kr * hr


# the points of a ``_Points``
_POINTS = ("r", "s", "t", "mid", "lam")


def _take(point, place, rows):
    """``point``, a ``((f, h), (g, k))`` evaluated on some of a block's
    samples, at the block's samples ``rows`` (boolean); ``place`` gives each
    of the block's samples its index among those evaluated."""
    index = place[rows]
    return tuple(tuple(a[index] for a in half) for half in point)


# The sample checks of ``vp_check``, one formula each: from a ``_Points``,
# the margin rhs - lhs as ``(X, Y, D)``, where the margin is (X - Y) / D, X
# and Y are sums of products of non-negative terms, and D > 0 (for b122 when
# r, s > 0).

def _ratio_concave(v):
    # Phi(mid)/mid = x/y against (Phi(r)/r + Phi(s)/s)/2 = u/w
    (fr, hr), (fs, hs), (fm, hm) = v.r[0], v.s[0], v.mid[0]
    x, y = 2 * fm * v.qt, hm * v.pt
    u = fr * v.qr * hs * v.ps + fs * v.qs * hr * v.pr
    w = 2 * hr * v.pr * hs * v.ps
    return x * w, u * y, y * w


def _lower(v):
    # Phi(r) <= r Phi'(r)
    return v.slope_r


def _upper(v):
    # r Phi'(r) <= 2 Phi(r)
    rd, fq, d = v.slope_r
    return 2 * fq, rd, d


def _cross(v):
    # s Phi'(r) <= Phi(r) + Phi(s), over hr hs qs kr
    _, (gr, kr) = v.r
    total, hrs = v.sum_rs
    return total * v.qs * kr, v.ps * gr * hrs, hrs * v.qs * kr


def _scaling(v):
    # Phi(lambda r) <= max(1, lambda^2) Phi(r), max(1, lambda^2) = c^2 / ql^2
    (fr, hr), (fl, hl), ql = v.r[0], v.lam[0], v.ql
    c = _maximum(v.pl, ql)
    return c * c * fr * hl, fl * ql * ql * hr, ql * ql * hr * hl


def _product(v):
    # (r + s)(Phi(r + s) - Phi(r) - Phi(s)) <= 2 (r Phi(s) + s Phi(r)), over qt ht hr hs
    (fr, hr), (fs, hs), (ft, ht) = v.r[0], v.s[0], v.t[0]
    total, hrs = v.sum_rs
    rhs = 2 * (v.pr * fs * v.qs * hr + v.ps * fr * v.qr * hs) * ht
    return rhs + v.pt * total * ht, v.pt * ft * hrs, v.qt * ht * hrs


def _deriv_subadd(v):
    # Phi'(r + s) <= Phi'(r) + Phi'(s), over kr ks kt
    (gr, kr), (gs, ks), (gt, kt) = v.r[1], v.s[1], v.t[1]
    return (gr * ks + gs * kr) * kt, gt * kr * ks, kr * ks * kt


_MARGINS = {"b122_ratio_concave": _ratio_concave, "b123_lower": _lower,
            "b123_upper": _upper, "b123b_cross": _cross, "b124_scaling": _scaling,
            "b125_product": _product, "b127_deriv_subadd": _deriv_subadd}


def _gamma(k: int) -> float:
    """Higham's gamma_k = k u / (1 - k u), u = 2^-53."""
    return k * 2.0**-53 / (1 - k * 2.0**-53)


def _rational_array(samples) -> np.ndarray:
    """The (n, 3, 2) array of the samples' exact (numerator, denominator):
    int64, or Python integers when one does not fit."""
    rows = [[_rational(v).as_integer_ratio() for v in t] for t in samples]
    try:
        return np.array(rows, dtype=np.int64).reshape(len(rows), 3, 2)
    except OverflowError:
        return np.array(rows, dtype=object).reshape(len(rows), 3, 2)


def _exact_margins(phi: VPFunction, samples: np.ndarray, records):
    """The sample checks of ``vp_check``, decided exactly, for an (n, 3, 2)
    integer array of (num, den) samples.

    A float64 pre-pass, after Shewchuk (Discrete Comput. Geom. 18 (1997)
    305-363), evaluates every margin (X - Y) / D over all samples with
    a-priori bounds gamma_k (X + Y) on the error of its numerator and
    gamma_k' (X + Y) / D on its own, k and k' counted by ``_Roundings``.  A
    sample takes the integer path when the bound leaves its sign open, when
    its interval reaches the smallest upper end (it may be the minimum), when
    its segments are not certain in float (p B_k above 2^52 at one of its
    points p/q), or when a value is not finite.  The integer path takes the
    samples some check leaves open ``_BLOCK`` at a time in sample order, as
    object arrays.  In a block it evaluates each point of ``_POINTS`` once,
    on the samples of just the checks that read it (the rounding count
    records which), and runs each check's formula of ``_MARGINS`` alone on
    the samples that check leaves open, through one ``_Points`` for each set
    of such samples: b122's zero D at r or s = 0 is never divided by, and
    the products of checks that leave the same samples open are shared.  So
    the counts, the violations and the minimum (``num / den``, correctly
    rounded; the first of equal ones in sample order) are those of integer
    cross-multiplication, in the order the checks are first met.
    """
    nums, dens = samples[..., 0], samples[..., 1]
    if (nums < 0).any() or (dens <= 0).any():
        raise DomainError("samples must be non-negative")
    n = len(samples)
    if not n:
        return
    # every p of a sample the filter decides is exact; q and the table
    # entries are when all are at most 2^53
    ints = phi._tables()
    leaf = _Roundings(int(max(ints[0], *map(max, ints[1:]), dens.max()) > 2**53))
    # each formula counts its roundings on a _Points of counts, which also
    # records the points it reads: reads[j, i] when check j reads _POINTS[i]
    leaves = (partial(_pairs, phi._tables(leaf)), *[_Roundings(0), leaf] * 3)
    counts, reads = [], []
    for margin in _MARGINS.values():
        at = _Points(*leaves)
        counts.append(map(int, margin(at)))
        reads.append([name in vars(at) for name in _POINTS])
    reads = np.array(reads)
    # gamma_(a+2) bounds the error of X - Y against X + Y (a roundings in
    # X or Y, two more for the difference and the bound), and
    # gamma_(a+b+6) that of m = (X - Y) / D (b roundings in D, six more for
    # the division, the bound and the interval ends)
    gammas = [(_gamma(max(cx, cy) + 2), _gamma(max(cx, cy) + cd + 6))
              for cx, cy, cd in counts]
    tables = phi._tables(float)
    rows = np.ones((len(_MARGINS), n), dtype=bool)
    rows[0] = (nums[:, 0] > 0) & (nums[:, 1] > 0)        # b122 needs r, s > 0
    certain, negative = np.empty((2, len(_MARGINS), n), dtype=bool)
    lo = np.empty((len(_MARGINS), n))
    hi = np.full(len(_MARGINS), np.inf)     # the smallest upper end
    for start in range(0, n, _BLOCK):
        block = slice(start, start + _BLOCK)
        cols = [_floats(a[block, j]) for j in range(3) for a in (nums, dens)]
        at = _Points(partial(_pairs, tables), *cols)
        with np.errstate(all="ignore"):
            top = np.maximum(np.maximum(at.pr, at.ps), np.maximum(at.pt, at.pl * at.pr))
            sure = top * tables[2].max() <= 2.0**52
            for j, margin in enumerate(_MARGINS.values()):
                X, Y, D = margin(at)
                sign, width = gammas[j]
                num, size = X - Y, X + Y
                m = num / D
                bound = width * size / D
                c = certain[j, block] = (rows[j, block] & sure & np.isfinite(size)
                                         & np.isfinite(D) & (np.abs(num) > sign * size))
                negative[j, block] = num < 0
                lo[j, block] = m - bound
                hi[j] = np.min(m + bound, where=c, initial=hi[j])
    check = rows & ~(certain & (lo > hi[:, None]))
    violations = np.count_nonzero(~check & negative & rows, axis=1).tolist()
    low = [math.inf] * len(_MARGINS)
    exact_pairs = partial(_pairs, ints)
    undecided = np.flatnonzero(check.any(axis=0))
    for start in range(0, undecided.size, _BLOCK):
        part = undecided[start:start + _BLOCK]
        cols = [a[part, i].astype(object) for i in range(3) for a in (nums, dens)]
        opened = check[:, part]
        views = {}

        def view(rows):   # one _Points for each set of the block's samples
            key = rows.tobytes()
            if key not in views:
                views[key] = _Points(exact_pairs, *(c[rows] for c in cols))
            return views[key]

        # each point once, on the samples of just the checks that read it
        points = {}
        for i, name in enumerate(_POINTS):
            at = opened[reads[:, i]].any(axis=0)
            if at.any():
                points[name] = getattr(view(at), name), np.cumsum(at) - 1
        for j, margin in enumerate(_MARGINS.values()):
            own = opened[j]
            if not own.any():
                continue
            # checks that leave the same samples open share their products;
            # the points come from the block's, as a cached_property keeps its
            # value in the instance's __dict__
            v = view(own)
            for name, read in zip(_POINTS, reads[j]):
                if read and name not in vars(v):
                    vars(v)[name] = _take(*points[name], own)
            x, y, d = margin(v)
            violations[j] += int(np.count_nonzero(x < y))
            # the first of equal minima stays, as in sample order
            low[j] = min([low[j], *((x - y) / d).tolist()])
    names = list(_MARGINS)
    found = {name: [int(count), v, least] for name, count, v, least in
             zip(names, rows.sum(axis=1), violations, low) if count}
    # a check is recorded when first met
    order = names if rows[0, :1].all() else names[1:] + names[:1]
    records.update((name, found[name]) for name in order if name in found)


def vp_check(phi: VPFunction, samples, member=None) -> VPCheckReport:
    """Evaluate the inequality suite on (r, s, lambda) triples.

    Checks: concavity of Phi(r)/r; Phi <= r Phi' <= 2 Phi; s Phi'(r) <=
    Phi(r) + Phi(s); Phi(lambda r) <= max(1, lambda^2) Phi(r); the
    three-point product bound on Phi(r+s); subadditivity of Phi'; and, when
    ``member`` (values, measures) is given, the layer-cake tail bound of the
    integral of Phi(|f|) below each breakpoint.

    ``samples`` is an iterable of triples, or an (n, 3, 2) integer array of
    their (numerator, denominator) pairs.  The check is always exact: each
    number of a triple and of ``member`` is read as its exact ratio (a float
    as its binary value), and every margin is decided exactly, float-filtered
    and by integer cross-multiplication where the filter is unsure.
    """
    records: dict = {}
    if not isinstance(samples, np.ndarray):
        samples = _rational_array(list(samples))   # read once: it may be an iterator
    elif samples.ndim != 3 or samples.shape[1:] != (3, 2) \
            or samples.dtype.kind not in "iuO":
        raise DomainError("a sample array must be (n, 3, 2) integers")
    _exact_margins(phi, samples, records)

    if member is not None:
        # read once: either may be an iterator
        pairs = [(abs(_rational(v)), _rational(w)) for v, w in zip(*member)]
        rhs = phi.deriv_exact(1) * sum(v * w for v, w in pairs)
        nbp, margins = phi.breakpoints, []
        for k in range(1, len(nbp)):
            lhs = sum(phi.value_exact(v) * w for v, w in pairs if v < nbp[k])
            rhs += (phi.deriv_at[k] - phi.deriv_at[k - 1]) * sum(
                v * w for v, w in pairs if v >= nbp[k - 1])
            margins.append(rhs - lhs)
        records["b111_tail_bound"] = [len(margins), sum(m < 0 for m in margins),
                                      float(min(margins))]

    checks = [InequalityCheck(name, *records[name]) for name in records]
    return VPCheckReport(checks)


def phi_integral(phi, dist: SizeDistribution, R: float) -> float:
    """Integral of Phi(density) over sizes below R (pivot quadrature).

    ``phi`` may be a VPFunction or any callable with phi(0) = 0.
    """
    lo, hi = dist.grid.span
    if not (lo < R <= hi * (1 + 1e-12)):
        raise DomainError("R must lie within the grid span")
    p, w = dist.grid.pivots, dist.grid.widths
    mask = p < R
    f = dist.density[mask]
    if isinstance(phi, VPFunction):
        vals = np.asarray(vp_eval(phi, f, 0))
    else:
        vals = np.asarray([phi(v) for v in f], dtype=float)
    return float(np.dot(vals, w[mask]))
