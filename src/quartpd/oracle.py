"""Floating-point certification by minimizing Tx^4 over the unit sphere.

Candidates come from a deterministic low-discrepancy grid (uniform angles
on the circle for n=2, a spherical Fibonacci lattice for n=3) with seeded
jitter; a grid is built once per (dim, size, seed) and shared read-only.
The best candidates are polished by projected gradient descent with
backtracking, the gradient step having its radial component removed and
the iterate renormalized each step.  Backtracking is a ladder: the trial
steps alpha, alpha/2, alpha/4, ... of every active candidate are evaluated
together in a few batched passes (4, then 12, then 24 rungs), and each
candidate takes its first rung that passes the Armijo test.  Halving is
exact in binary floating point, so this gives bit for bit the iterates of
trying one halving at a time.

The form is evaluated through its monomials, from coefficients built once
per tensor (``_kernel``).  A quartic form is a quadratic form in its
quadratic monomials, Tx^4 = q^T S q with q = (x_i x_j)_{i <= j} (the Gram
representation of Choi, Lam and Reznick), so the grid values cost a
6x6 (n=3) or 3x3 (n=2) matrix product per point.  The refine needs Tx^3
for the gradient: it is M W, with M the 10 (n=3) or 4 (n=2) cubic
monomials x_a x_b x_c (a <= b <= c) and W[m, i] the multiplicity of m
times t_{i,m}, and Tx^4 is its dot with x.  The ladder's identity with
one halving at a time needs every row of that contraction to come out the
same whatever other rows share its batch; ``einsum`` gives that, while a
BLAS ``@`` takes another kernel for a one-row batch and changes the last
bits.  The grid values only rank grid points (the starting points, the
positivity witness), so they use ``@``.

A sphere minimum above the classification margin classifies the form as
positive definite, one below minus the margin as indefinite; a value
inside the margin is UNDETERMINED (the boundary case) and left to the
exact analytic modules.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, List, Optional, Tuple

from .tensor import SymmetricTensor4
from .verdict import Kind, Verdict

if TYPE_CHECKING:
    import numpy as np

# numpy is imported inside the functions that use it, so that importing the
# package (and every decision the exact stages settle) leaves it unloaded.

_GOLDEN = (1 + math.sqrt(5)) / 2

# rungs of the backtracking ladder evaluated per batch: most candidates
# pass in the first, and the sum is the cap of 40 halvings per iteration
_RUNG_BATCHES = (4, 12, 24)

# the dimensions the oracle samples; every caller gates on this one set
ORACLE_DIMS = (2, 3)

# zero_set_probe merges refined zeros closer than this (Euclidean distance)
_CLUSTER_TOL = 1e-4


class ConfigError(ValueError):
    """An out-of-range ``OracleConfig`` value; ``field`` names the field."""

    def __init__(self, field: str, requirement: str):
        super().__init__(f"{field} {requirement}")
        self.field = field
        self.requirement = requirement


@dataclass(frozen=True)
class OracleConfig:
    grid_points: Optional[int] = None  # defaults: 4096 (n=2), 20000 (n=3)
    refine_max_iters: int = 500
    grad_tol: float = 1e-10
    classify_margin: float = 1e-8
    seed: int = 0
    refine_top_k: int = 50

    def __post_init__(self):
        if self.grid_points is not None and self.grid_points <= 0:
            raise ConfigError("grid_points", "must be positive")
        if self.refine_max_iters <= 0:
            raise ConfigError("refine_max_iters", "must be positive")
        if self.grad_tol <= 0:
            raise ConfigError("grad_tol", "must be positive")
        if not 0 < self.classify_margin < 1:
            raise ConfigError("classify_margin", "must lie in (0, 1)")
        if self.seed < 0:
            raise ConfigError("seed", "must be nonnegative")
        if self.refine_top_k <= 0:
            raise ConfigError("refine_top_k", "must be positive")

    def effective_grid(self, dim: int) -> int:
        if self.grid_points is not None:
            return self.grid_points
        return 4096 if dim == 2 else 20000


@dataclass(frozen=True)
class OracleResult:
    min_value: float
    minimizer: Tuple[float, ...]  # unit norm, first nonzero coordinate positive
    classification: Kind  # POSITIVE_DEFINITE, INDEFINITE or UNDETERMINED
    iterations_used: int


def _canonical_sign(x: np.ndarray) -> np.ndarray:
    for v in x:
        if abs(v) > 1e-12:
            return x if v > 0 else -x
    return x


def _grid(dim: int, n_points: int, seed: int) -> np.ndarray:
    """The jittered sphere grid; deterministic in (dim, n_points, seed)."""
    import numpy as np

    rng = np.random.default_rng(seed)
    if dim == 2:
        theta = np.linspace(0.0, 2 * math.pi, n_points, endpoint=False)
        theta = theta + rng.uniform(-0.5, 0.5, n_points) * (2 * math.pi / n_points)
        return np.stack([np.cos(theta), np.sin(theta)], axis=1)
    i = np.arange(n_points)
    z = 1.0 - 2.0 * (i + 0.5) / n_points
    phi = 2 * math.pi * i / _GOLDEN
    r = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    pts = np.stack([r * np.cos(phi), r * np.sin(phi), z], axis=1)
    pts = pts + rng.normal(0.0, 0.2 / math.sqrt(n_points), pts.shape)
    return pts / np.linalg.norm(pts, axis=1, keepdims=True)


@functools.lru_cache(maxsize=8)
def _cached_grid(dim: int, n_points: int, seed: int) -> np.ndarray:
    """``_grid``, built once per argument triple and shared read-only."""
    X = _grid(dim, n_points, seed)
    X.flags.writeable = False
    return X


@dataclass(frozen=True)
class _Kernel:
    """The form's float coefficients on its monomials: the Gram matrix S
    over the quadratic monomials ``pairs`` and the matrix W over the cubic
    monomials ``triples`` (see the module docstring)."""

    pairs: np.ndarray  # (n(n+1)/2, 2)
    gram: np.ndarray  # (n(n+1)/2, n(n+1)/2)
    triples: np.ndarray  # (n(n+1)(n+2)/6, 3)
    cubic: np.ndarray  # (n(n+1)(n+2)/6, n)
    shift: int  # S and W hold T / 2^shift; results are scaled back


@functools.lru_cache(maxsize=None)
def _monomials(dim: int):
    """Index arrays of the quadratic (i <= j) and cubic (a <= b <= c)
    monomials in dim variables, each followed by the number of index orders
    a monomial stands for: 1 or 2 for x_i x_j, 1, 3 or 6 for x_a x_b x_c."""
    import numpy as np

    out = []
    for degree in (2, 3):
        monos = list(itertools.combinations_with_replacement(range(dim), degree))
        orders = [len(set(itertools.permutations(m))) for m in monos]
        out += [np.array(monos), np.array(orders, dtype=float)]
    for a in out:
        a.flags.writeable = False
    return tuple(out)


@functools.lru_cache(maxsize=1)
def _kernel(T: SymmetricTensor4) -> _Kernel:
    """The monomial kernel of T, built from ``T.dense()`` (which raises
    ``OverflowError`` naming an entry beyond float range).  Cached for the
    last tensor, so that the calls of one ``classify_numeric`` (or one
    catalog entry) share a single build."""
    import numpy as np

    pairs, fold, triples, orders = _monomials(T.dim)
    Td = T.dense()
    # S and W hold up to 6|t|: entries near float range are scaled down by
    # a power of two, which is exact, so that no coefficient overflows
    top = float(np.abs(Td).max())
    shift = math.frexp(top)[1] if top > 2.0**1000 else 0
    Td = np.ldexp(Td, -shift)
    i, j = pairs.T
    # q^T S q runs over unordered pairs: fold weights restore the orders
    gram = fold[:, None] * Td[i, j][:, i, j] * fold
    # t_{i,a,b,c} = t_{a,b,c,i}, so the rows of Td[a, b, c] are the t_{.,m}
    cubic = orders[:, None] * Td[tuple(triples.T)]
    gram.flags.writeable = cubic.flags.writeable = False  # shared by the cache
    return _Kernel(pairs, gram, triples, cubic, shift)


def _values(K: _Kernel, X: np.ndarray) -> np.ndarray:
    """Tx^4 for the rows of X as q^T S q.  Uses BLAS, so a row's last bits
    may depend on its batch: fit for ranking grid points only."""
    import numpy as np

    Q = X[:, K.pairs].prod(axis=2)
    return np.ldexp(np.einsum("pi,pi->p", Q @ K.gram, Q), K.shift)


def _forms_and_cubics(K: _Kernel, X: np.ndarray):
    """Values Tx^4 and vectors Tx^3 for a batch of points (rows of X).

    Every row gets the same bits whatever other rows share its batch (the
    refine ladder relies on it), which ``einsum`` gives and ``@`` does not.
    """
    import numpy as np

    M = X[:, K.triples].prod(axis=2)
    C = np.einsum("pm,mi->pi", M, K.cubic)  # rows are Tx^3 / 2^shift
    vals = np.einsum("pi,pi->p", C, X)
    if K.shift:
        return np.ldexp(vals, K.shift), np.ldexp(C, K.shift)
    return vals, C


def _refine_batch(K: _Kernel, X0: np.ndarray, cfg: OracleConfig):
    """Projected gradient with per-candidate backtracking on the sphere.

    Each iteration tries the steps alpha, alpha/2, alpha/4, ... (at most
    40 halvings, none below 1e-18) and takes the first that passes Armijo;
    the rungs of all active candidates are evaluated together, in batches
    of _RUNG_BATCHES rungs.  A candidate whose rungs all fail with the next
    step below 1e-18 has stalled and stops.  Returns refined points, values
    and the iteration count of the longest running candidate.
    """
    import numpy as np

    X = X0 / np.linalg.norm(X0, axis=1, keepdims=True)
    vals, cub = _forms_and_cubics(K, X)
    alpha = np.full(len(X), 0.1)
    active = np.ones(len(X), dtype=bool)
    iters = 0
    for it in range(cfg.refine_max_iters):
        grad = 4.0 * cub
        gt = grad - (np.einsum("pi,pi->p", grad, X))[:, None] * X
        gnorm2 = np.einsum("pi,pi->p", gt, gt)
        active = active & (np.sqrt(gnorm2) > cfg.grad_tol)
        if not active.any():
            break
        iters = it + 1
        pending = np.flatnonzero(active)
        for width in _RUNG_BATCHES:
            if pending.size == 0:
                break
            # halving is exact, so rung j is alpha * 2**-j to the last bit
            steps = np.ldexp(alpha[pending, None], -np.arange(width))
            trial = X[pending, None] - steps[..., None] * gt[pending, None]
            trial = trial.reshape(-1, X.shape[1])
            trial = trial / np.linalg.norm(trial, axis=1, keepdims=True)
            tvals, tcub = _forms_and_cubics(K, trial)
            bound = vals[pending, None] - 1e-4 * steps * gnorm2[pending, None]
            # a rung below 1e-18 is never tried; valid rungs are a prefix
            valid = steps >= 1e-18
            ok = (tvals.reshape(steps.shape) < bound) & valid
            hit = ok.any(axis=1)
            first = ok.argmax(axis=1)[hit]
            take = np.flatnonzero(hit) * width + first
            good = pending[hit]
            X[good] = trial[take]
            vals[good] = tvals[take]
            cub[good] = tcub[take]
            alpha[good] = np.minimum(steps[hit, first] * 2.0, 1.0)
            missed = pending[~hit]
            alpha[missed] = np.ldexp(alpha[missed], -valid[~hit].sum(axis=1))
            stalled = alpha[missed] < 1e-18
            active[missed[stalled]] = False
            pending = missed[~stalled]
    return X, vals, iters


def _sample(T: SymmetricTensor4, n_points: int, seed: int):
    """The kernel, an n_points grid and the form's values on it."""
    if T.dim not in ORACLE_DIMS:
        raise ValueError(f"oracle supports dim 2 or 3, got {T.dim}")
    K = _kernel(T)
    X = _cached_grid(T.dim, n_points, seed)
    return K, X, _values(K, X)


def _polish(K: _Kernel, X: np.ndarray, keys: np.ndarray, k: int, cfg: OracleConfig):
    """Refine the k grid points with the smallest keys (ties by grid order)."""
    return _refine_batch(K, X[_top_k(keys, k)], cfg)


def _top_k(keys: np.ndarray, k: int) -> np.ndarray:
    """``np.argsort(keys, kind="stable")[:k]``, sorting only the keys at or
    below the k-th smallest (NaN sorts last, as in argsort)."""
    import numpy as np

    if 0 < k < len(keys):
        kth = np.partition(keys, k - 1)[k - 1]
        if not np.isnan(kth):
            head = np.flatnonzero(keys <= kth)
            return head[np.argsort(keys[head], kind="stable")][:k]
    return np.argsort(keys, kind="stable")[:k]


def sphere_minimize(T: SymmetricTensor4, cfg: OracleConfig = OracleConfig()) -> OracleResult:
    import numpy as np

    K, X, vals = _sample(T, cfg.effective_grid(T.dim), cfg.seed)
    refined, rvals, iters = _polish(K, X, vals, min(cfg.refine_top_k, len(X)), cfg)
    best = int(np.lexsort((*(refined.T[::-1]), rvals))[0])
    min_value = float(rvals[best])
    minimizer = _canonical_sign(refined[best] / np.linalg.norm(refined[best]))
    if min_value > cfg.classify_margin:
        classification = Kind.POSITIVE_DEFINITE
    elif min_value < -cfg.classify_margin:
        classification = Kind.INDEFINITE
    else:
        classification = Kind.UNDETERMINED
    return OracleResult(min_value, tuple(float(v) for v in minimizer), classification, iters)


def _exact_negative(T: SymmetricTensor4, point) -> Optional[tuple]:
    """Rational rounding of a float witness, verified in exact arithmetic."""
    for den in (10**3, 10**6):
        w = tuple(Fraction(float(v)).limit_denominator(den) for v in point)
        if any(w) and T.evaluate_form(w) < 0:
            return w
    return None


def classify_numeric(T: SymmetricTensor4, cfg: OracleConfig = OracleConfig()) -> Verdict:
    """The sphere minimum's classification as a verdict.

    Indefinite witnesses are re-verified in exact rational arithmetic; if
    the exact check fails the verdict degrades to UNDETERMINED, under the
    rule ``oracle-boundary`` like every minimum inside the margin.  A
    positivity witness (some direction with a clearly positive value) is
    recorded when one exists.
    """
    res = sphere_minimize(T, cfg)
    pos = _positivity_witness(T, cfg)
    kind, witness = res.classification, None
    if kind is Kind.INDEFINITE:
        witness = _exact_negative(T, res.minimizer)
        if witness is None:
            kind = Kind.UNDETERMINED
    rule = "oracle-boundary" if kind is Kind.UNDETERMINED else "oracle-sphere-minimum"
    return Verdict(kind, rule, witness=witness, margin=res.min_value, positivity_witness=pos)


def _positivity_witness(T: SymmetricTensor4, cfg: OracleConfig) -> Optional[tuple]:
    """Some grid direction with a clearly positive form value, if any."""
    import numpy as np

    _, X, vals = _sample(T, min(cfg.effective_grid(T.dim), 512), cfg.seed)
    i = int(np.argmax(vals))
    if vals[i] > cfg.classify_margin:
        return tuple(float(v) for v in _canonical_sign(X[i]))
    return None


def zero_set_probe(
    T: SymmetricTensor4, cfg: OracleConfig = OracleConfig()
) -> List[Tuple[float, ...]]:
    """Refined sphere points where |Tx^4| falls inside the margin.

    A point within _CLUSTER_TOL of a kept representative joins its cluster;
    one representative per cluster is returned, sorted lexicographically.
    Antipodal zeros appear as separate clusters (the form is even, so they
    come in pairs).
    """
    import numpy as np

    K, X, vals = _sample(T, cfg.effective_grid(T.dim), cfg.seed)
    k = min(max(cfg.refine_top_k, 200), len(X))
    refined, rvals, _ = _polish(K, X, np.abs(vals), k, cfg)
    zeros = refined[np.abs(rvals) <= cfg.classify_margin]
    zeros = zeros / np.linalg.norm(zeros, axis=1, keepdims=True)
    reps: List[int] = []
    for i, z in enumerate(zeros):
        if not (np.linalg.norm(zeros[reps] - z, axis=1) <= _CLUSTER_TOL).any():
            reps.append(i)
    return sorted(tuple(float(v) for v in zeros[i]) for i in reps)
