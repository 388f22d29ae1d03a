"""Stratification of the zero-level moment fiber by reachable dimensions,
exact stratum dimension formulas, and point counts over small prime fields.

A count enumerates B and gamma and counts the delta that solve the moment
equation in closed form, since that equation is affine in delta.  It is
still exponential, so a budget guard bounds it.
"""

from __future__ import annotations

import itertools
import math
from typing import NamedTuple

from .covariants import reachable_dims
from .errors import BudgetExceeded, RangeViolation
from .fields import PrimeField
from .linalg import Mat, hstack, rref
from .quiver import RootVec, WeightVec, _check_len, cartan_data, dominance
from .repspace import DimData, FramedPoint, moment_map

DEFAULT_BUDGET = 10_000_000
MAX_STRATA = 1_000_000  # codim_report refuses a v with more strata v' <= v


def v_plus(s: FramedPoint) -> RootVec:
    """Stratum label of a fiber point: dims of the smallest arrow-stable
    subspace family containing the framing images."""
    return RootVec(reachable_dims(s))


def _codimension(cd, slacks, u) -> int:
    """Codimension in delta_V of the stratum v' = v - u, with slacks = d - Cv:

        u . (d - Cv) + u^T C u / 2

    an integer because C has even diagonal.  On a proper stratum u >= 0 and
    u != 0; for finite type C is positive definite, so u^T C u / 2 >= 1.
    Hence codim >= 1 when d - Cv is dominant (slacks >= 0), and codim >= 2
    when it is regular (slacks >= 1): the paper's bound behind normality.
    """
    cu = [sum(cij * uj for cij, uj in zip(row, u)) for row in cd.cartan]
    ucu = sum(ui * ci for ui, ci in zip(u, cu))
    if ucu % 2 != 0:
        raise AssertionError("u^T C u must be even")
    return sum(ui * si for ui, si in zip(u, slacks)) + ucu // 2


def stratum_dimension(q, d: WeightVec, v: RootVec, v_prime: RootVec) -> int:
    """Dimension of the locus in the zero fiber with label v_prime:
    delta_V = dim S - sum v_i^2, less the `_codimension` of u = v - v'."""
    dims = DimData(d, v)
    dims.check(q)
    d, v = dims
    v_prime = _check_len(q, v_prime, "v_prime", RootVec)
    for vert, a, b in zip(q.vertices, v_prime.coords, v.coords):
        if not 0 <= a <= b:
            raise RangeViolation(f"v_prime at vertex {vert} is {a}; need 0 <= v'_i <= v_i = {b}")
    u = [a - b for a, b in zip(v.coords, v_prime.coords)]
    delta_v = dims.space_dimension(q) - sum(x * x for x in v.coords)
    return delta_v - _codimension(cartan_data(q), dominance(q, d, v).slacks, u)


class StratumInfo(NamedTuple):
    v_prime: tuple
    dimension: int
    codimension: int


class CodimReport(NamedTuple):
    d: tuple
    v: tuple
    delta_v: int         # dim S - sum of dim gl(V_i) = dimension of the full stratum
    strata: tuple        # StratumInfo, v' ascending lexicographically
    dominant: bool
    regular: bool
    min_proper_codim: int | None  # None when v' = v is the only stratum

    # dominance of d - Cv predicts codim >= 1 on proper strata, regularity
    # predicts codim >= 2; both are vacuous without proper strata
    @property
    def codim_ge_1(self):
        return self.min_proper_codim is None or self.min_proper_codim >= 1

    @property
    def codim_ge_2(self):
        return self.min_proper_codim is None or self.min_proper_codim >= 2


def codim_report(q, d: WeightVec, v: RootVec) -> CodimReport:
    """Dimensions and codimensions (against delta_V) of every stratum v' <= v;
    BudgetExceeded when there are more than MAX_STRATA of them."""
    dims = DimData(d, v)
    dims.check(q)
    d, v = dims
    count = math.prod(x + 1 for x in v.coords)
    if count > MAX_STRATA:
        raise BudgetExceeded(f"v has prod(v_i + 1) = {count} strata v' <= v, "
                             f"more than the limit {MAX_STRATA}")
    cd = cartan_data(q)
    dom = dominance(cd, d, v)
    delta_v = dims.space_dimension(q) - sum(x * x for x in v.coords)
    infos = []
    min_proper = None
    for combo in itertools.product(*(range(x + 1) for x in v.coords)):
        codim = _codimension(cd, dom.slacks, [a - b for a, b in zip(v.coords, combo)])
        if combo != v.coords and (min_proper is None or codim < min_proper):
            min_proper = codim
        infos.append(StratumInfo(combo, delta_v - codim, codim))
    return CodimReport(
        d.coords, v.coords, delta_v, tuple(infos), dom.dominant, dom.regular, min_proper
    )


class CountResult(NamedTuple):
    p: int
    space_dimension: int
    total: int
    strata: tuple  # ((v_prime, count), ...) by v_prime ascending

    def stratum_count(self, v_prime):
        key = tuple(v_prime)
        for vp, c in self.strata:
            if vp == key:
                return c
        return 0


def count_points_Fq(q, dims: DimData, lam: WeightVec, p: int, budget=None) -> CountResult:
    """Count the fiber mu = lambda over F_p and bucket its points by stratum.

    Only B and gamma are enumerated, with delta = 0.  The moment equation at
    vertex i is affine in delta: gamma_i delta_i = R_i, where
    R_i = lambda_i Id - sum of eps B_h B_bar(h) is mu_i at delta = 0.  It has
    a solution iff rank [gamma_i | R_i] = r = rank gamma_i, and then exactly
    p^(v_i (d_i - r)) of them; one elimination of [gamma_i | R_i] gives both
    ranks.  A (B, gamma) stands for the product of these over the vertices,
    all in the stratum reachable_dims, which reads only B and gamma.

    The budget bounds the points visited: the call refuses to start when
    p^(dim B + dim gamma) exceeds it (10^7 by default).
    """
    space_dim = dims.space_dimension(q)
    _check_len(q, lam, "lambda")
    size = dims.sizes(q)
    free_dim = sum(size[blk.row] * size[blk.col] for blk in q.layout if blk.part != "delta")
    cap = DEFAULT_BUDGET if budget is None else budget
    if cap < 0:
        raise RangeViolation(f"budget is {cap}; it must be >= 0")
    if p ** free_dim > cap:
        raise BudgetExceeded(
            f"p^(dim B + dim gamma) = {p}^{free_dim} exceeds the enumeration budget {cap}"
        )
    field = PrimeField(p)
    level = {vert: Mat.scalar(field, size["V", vert], lam[k])
             for k, vert in enumerate(q.vertices)}  # lambda_i Id

    def take(blk, r, c):  # delta is zero; every other block takes the next r * c entries
        if blk.part == "delta":
            return Mat.zeros(field, r, c)
        return Mat(field, r, c, list(itertools.islice(entries, r * c)))

    counts = {}
    total = 0
    for flat in itertools.product(range(p), repeat=free_dim):
        entries = iter(flat)
        s = FramedPoint.build(q, dims, field, take)
        if next(entries, None) is not None:
            raise AssertionError("the blocks do not use every entry")
        mu = moment_map(s)
        free = 0  # the solutions delta make p^free points
        for vert, want in level.items():
            g = s.gamma[vert]  # v_i x d_i
            # the pivots of rref [g | R_i] left of g's columns are those of g
            pivots = rref(hstack([g, want - mu[vert]]))[1]
            if pivots and pivots[-1] >= g.cols:
                break
            free += g.rows * (g.cols - len(pivots))
        else:
            label = reachable_dims(s)
            counts[label] = counts.get(label, 0) + p ** free
            total += p ** free
    if total != sum(counts.values()):
        raise AssertionError("stratum counts do not add up")
    return CountResult(p, space_dim, total, tuple(sorted(counts.items())))


def growth_slope(counts: dict) -> float:
    """Least squares slope of ln(count) against ln(p); estimates dimension."""
    if len(counts) < 2:
        raise RangeViolation("need counts for at least two primes")
    pts = sorted(counts.items())
    if any(c <= 0 for _, c in pts):
        raise RangeViolation("counts must be positive to take logs")
    xs = [math.log(p) for p, _ in pts]
    ys = [math.log(c) for _, c in pts]
    xbar = sum(xs) / len(xs)
    ybar = sum(ys) / len(ys)
    den = sum((x - xbar) ** 2 for x in xs)
    num = sum((x - xbar) * (y - ybar) for x, y in zip(xs, ys))
    return num / den
