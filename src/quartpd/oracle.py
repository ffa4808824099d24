"""Floating-point certification by minimizing Tx^4 over the unit sphere.

Candidates come from a deterministic low-discrepancy grid (uniform angles
on the circle for n=2, a spherical Fibonacci lattice for n=3) with a
jitter of fixed seed 0; a grid is built once per (dim, size) and shared
read-only.
The best candidates are polished by a safeguarded Riemannian Newton method
(Absil, Mahony and Sepulchre, Optimization Algorithms on Matrix Manifolds,
2008, ch. 6).  At a unit x, with P = I - x x^T, the Riemannian gradient is
g = 4 (Tx^3 - Tx^4 x) and the Riemannian Hessian Hr = P (12 Tx^2) P -
4 Tx^4 P.  Where Hr is positive definite on the tangent plane, the
direction d is the Newton direction, the tangent solution of Hr d = -g,
which converges quadratically near a nondegenerate minimum; elsewhere (near
a saddle or a maximum) it is the tangent solution of |Hr| d = -g, with
each tangent eigenvalue of Hr replaced by its absolute value, a descent
direction that leaves a saddle along its negative curvature in a few
steps where -g barely moves.  The trial point x + step d is renormalized
onto the sphere.  A candidate stops where |g| is at most ``_GRAD_TOL``
(1e-10, a fixed constant) at the kernel's scale (below).

Each candidate carries one step, which starts at 1.  Backtracking is the
Armijo loop (Nocedal and Wright, Numerical Optimization, 2nd ed., 2006,
alg. 3.1), run for all candidates together: each pass tries the current
step of every candidate that has not yet moved in the iteration, and the
trial point y passes when f(y) - f(x) < 1e-4 step (g . d), with
f = Tx^4 / |x|^4 the form on the sphere.  A candidate that passes takes y
and doubles its step (up to 1); one that fails halves its step and is
tried again in the next pass, and one whose step falls below 1e-18 has
stalled and stops.  An iteration makes at most 40 passes.  Carrying the
step over, rather than starting every iteration at 1, matters: a step that
cannot lower the form halves until it stalls, where a restart at 1 would
try it again every iteration.  The refine holds every candidate in its
arrays throughout, under two masks: ``active`` (not yet converged or
stalled) and ``pending`` (not yet moved in this iteration).  Each
iteration computes the direction of every row, and each pass tries a step
on every row and copies the trial point in where the row is pending and
passes; when every candidate passes on the first pass, it takes the trial
arrays whole.  A converged or stalled row is computed on but never moves.

The Armijo test does not subtract two float values of the form: a Newton
step from a gradient near 1e-8 lowers f by about 1e-17, below one ulp of
f, where the difference of the rounded values has no sign, and a test on
it would fail such steps until the candidate stalls above ``_GRAD_TOL``.
``_decrease`` computes the change itself from the step d = y - x and the
forms the refine holds at both points: T is symmetric, so
Ty^4 - Tx^4 = d . (Tx^3 + Ty^3 + (Tx^2) y + (Ty^2) x).  It keeps its
digits down to the smallest step the backtracking tries.

Each command samples once: ``sphere_sample`` reads the kernel, the
form's coefficients, off T's stored entries and takes the form's values on
the grid; ``sphere_minimize`` refines the best of them into the minimum,
``zero_set_probe`` those nearest zero into the zero set, and
``classify_numeric`` turns the sample, refined only where it has to be,
into the oracle's verdict.  Each of them takes the caller's sample, so
``minimize`` and the inequality harness pass one sample to all the calls
they make.  Only ``sphere_sample`` and ``sphere_minimize`` take an
``OracleConfig`` (grid size, refine iterations and candidates); the
verdict and the zero set run the defaults.  A grid holds at most
``_MAX_GRID`` points, since its arrays grow in proportion to it.
The form is evaluated through its monomials.  A quartic form is a quadratic
form in its quadratic monomials, Tx^4 = q^T S q with q = (x_i x_j)_{i <= j}
(the Gram representation of Choi, Lam and Reznick), so the grid values
cost a 6x6 (n=3) or 3x3 (n=2) matrix product per point; each grid's
monomials are cached with it, one row per monomial and one column per
point.  The refine needs Tx^2 for the Hessian: it is the sum over p of
q_p H_p, with H_p the fold weight of the quadratic monomial p times the
matrix t_{.,.,i_p,j_p}; then Tx^3 is Tx^2 x, for the gradient, and Tx^4
is Tx^3 . x.  A candidate's iterates do not depend on which candidates
share its pass only if every row of these contractions, of ``_decrease``
and of ``_newton_directions`` comes out the same whatever other rows share
its batch; ``einsum`` on C-contiguous operands gives that, while a BLAS
``@`` takes another kernel for a one-row batch and changes the last bits,
and ``einsum`` sums the rows of a column-major operand in another order.
The tangent system's determinant is a row sum of products for the same
reason: ``einsum`` over its strided operands takes other bits for a
one-row batch.  The grid values only rank grid points (the starting
points), point to the grid witness, which is checked exactly, and give
that verdict's margin, a float like any other; so they use ``@``.

The kernel holds T / 2^shift with shift = floor(log2 max |t|), read off
the bit lengths of the entries' numerators and denominators, and each
t / 2^shift is one correctly rounded integer division: its largest |entry|
rounds into [1, 2], and no entry passes through a float of its own, so
none over- or underflows before the scaling, however far outside float
range T lies.  Scaling by a power of two is exact, so a
form and its multiples by powers of two run the same iterates to the bit.
The grid values, the refine's stop and the classification margin all
apply at that scale; only the values returned are scaled back, and one
outside float range reads inf or 0.0.  A value's rounding error is at
most about 32 u L, with u the unit roundoff and L <= 81 max |t| the sum
of |t| over all index orders (Higham, Accuracy and Stability of Numerical
Algorithms, 2nd ed., 2002, sec. 3.1): about 3e-13 of max |t|, far below
the margin ``_MARGIN`` (1e-8, a fixed constant) of it.

``classify_numeric`` is the one place where a sample becomes a verdict.
INDEFINITE rests only on an exactly checked witness, which it looks for
first at the best grid point: where that point's rational rounding is
negative in exact arithmetic, the verdict is INDEFINITE by rule
``oracle-grid-witness``, its margin is the sampled minimum, and the refine
does not run.  Otherwise the rule reads the refined minimum
(``oracle-sphere-minimum``): a witness at any negative minimum, inside the
margin too, is INDEFINITE; a minimum above the classification margin
``_MARGIN`` is POSITIVE_DEFINITE, and every other one is UNDETERMINED
(``oracle-boundary``), left to the exact analytic modules; the margin is
the refined minimum.

``zero_set_probe`` refines the 200 grid points of smallest |Tx^4| and
keeps those whose refined |Tx^4| is at most ``_MARGIN``.  It clusters them
greedily in refine order, one distance pass per cluster: the first zero
not yet covered becomes the next representative and covers every zero
within ``_CLUSTER_TOL`` of it.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, List, Optional, Tuple

from .tensor import SymmetricTensor4, canonical_index, canonical_indices
from .tensorio import _is_int
from .verdict import Kind, Verdict

if TYPE_CHECKING:
    import numpy as np

# numpy is imported inside the functions that use it, so that importing the
# package (and every decision the exact stages settle) leaves it unloaded.

_GOLDEN = (1 + math.sqrt(5)) / 2

# the most trial steps a candidate takes per iteration, halving after each
_MAX_HALVINGS = 40

# the refine stops a candidate where its Riemannian gradient is at most
# this, at the kernel's scale (max |t| in [1, 2))
_GRAD_TOL = 1e-10

# the classification margin, at the kernel's scale: a refined minimum above
# it is PD, and a refined |Tx^4| at most it is a zero
_MARGIN = 1e-8

# the largest grid_points, 50 times the dim-3 default: a grid's arrays grow
# in proportion to it
_MAX_GRID = 10**6

# the dimensions the oracle samples; every caller gates on this one set
ORACLE_DIMS = (2, 3)

# zero_set_probe merges refined zeros closer than this (Euclidean distance)
_CLUSTER_TOL = 1e-4


@dataclass(frozen=True)
class OracleConfig:
    grid_points: Optional[int] = None  # defaults: 4096 (n=2), 20000 (n=3)
    refine_max_iters: int = 500
    refine_top_k: int = 50

    def __post_init__(self):
        for name in ("grid_points", "refine_max_iters", "refine_top_k"):
            value = getattr(self, name)
            if value is None and name == "grid_points":
                continue
            if not _is_int(value):
                raise ValueError(f"{name} must be an integer")
            if value <= 0:
                raise ValueError(f"{name} must be positive")
        if self.grid_points is not None and self.grid_points > _MAX_GRID:
            raise ValueError(f"grid_points must be at most {_MAX_GRID}")

    def effective_grid(self, dim: int) -> int:
        if self.grid_points is not None:
            return self.grid_points
        return 4096 if dim == 2 else 20000


@dataclass(frozen=True)
class OracleResult:
    min_value: float
    minimizer: Tuple[float, ...]  # unit norm, first nonzero coordinate positive
    iterations_used: int
    # min_value / 2^shift, the minimum at the kernel's scale, where the margin
    # applies; min_value itself reads inf or 0.0 outside float range
    kernel_min: float


def _canonical_sign(x: np.ndarray) -> np.ndarray:
    for v in x:
        if abs(v) > 1e-12:
            return x if v > 0 else -x
    return x


def _grid(dim: int, n_points: int) -> np.ndarray:
    """The jittered sphere grid; deterministic in (dim, n_points)."""
    import numpy as np

    rng = np.random.default_rng(0)
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
def _cached_grid(dim: int, n_points: int) -> Tuple[np.ndarray, np.ndarray]:
    """``_grid`` and its quadratic monomials, one row per monomial and one
    column per point, built once per argument pair and shared read-only."""
    X = _grid(dim, n_points)
    i, j = _monomials(dim)[0].T
    Q = X.T[i] * X.T[j]  # C-contiguous: the gathers run along the first axis
    X.flags.writeable = Q.flags.writeable = False
    return X, Q


@dataclass(frozen=True)
class _Kernel:
    """The form's float coefficients on its quadratic monomials ``pairs``:
    the Gram matrix S and the Hessian rows H (see the module docstring)."""

    pairs: np.ndarray  # (n(n+1)/2, 2)
    gram: np.ndarray  # (n(n+1)/2, n(n+1)/2)
    hessian: np.ndarray  # (n(n+1)/2, n*n)
    shift: int  # S and H hold T / 2^shift, and so do the values computed from them


@functools.lru_cache(maxsize=None)
def _monomials(dim: int):
    """The index pairs (i, j), i <= j, of the quadratic monomials in dim
    variables and the number of index orders each stands for (1 or 2); for
    ``_kernel``, each index's position in ``canonical_indices(dim)``, and
    that of the index of each coefficient (p, k, l) of H."""
    import numpy as np

    pairs = np.array(list(itertools.combinations_with_replacement(range(dim), 2)))
    fold = np.where(pairs[:, 0] == pairs[:, 1], 1.0, 2.0)
    slot = {idx: s for s, idx in enumerate(canonical_indices(dim))}
    kl = list(itertools.product(range(1, dim + 1), repeat=2))  # those with k <= l: ``pairs`` + 1
    hessian_at = np.array([[slot[canonical_index(p + r)] for r in kl] for p in kl if p[0] <= p[1]])
    for a in (pairs, fold, hessian_at):
        a.flags.writeable = False
    return pairs, fold, slot, hessian_at


def _kernel(T: SymmetricTensor4) -> _Kernel:
    """The monomial kernel of T, built from its canonical entries."""
    import numpy as np

    pairs, fold, slot, hessian_at = _monomials(T.dim)
    ratios = {slot[idx]: v.as_integer_ratio() for idx, v in T.entries().items()}
    # floor(log2 max|t|), exact whatever the entries' range: no coefficient
    # (up to 4|t| / 2^shift) or value (up to n^2 max|t| / 2^shift) overflows
    shift = max((_floor_log2(n, d) for n, d in ratios.values()), default=-1)
    t = np.zeros(len(slot))
    for s, (n, d) in ratios.items():  # t / 2^shift, one correctly rounded division
        t[s] = n / (d << shift) if shift >= 0 else (n << -shift) / d
    # (Tx^2)_{kl} = sum over pairs p of q_p fold_p t_{i_p,j_p,k,l}
    hessian = fold[:, None] * t[hessian_at]
    # S is H at the columns (k, l) = (i_r, j_r): q^T S q runs over unordered
    # pairs, and the fold weights restore the orders
    gram = hessian[:, pairs[:, 0] * T.dim + pairs[:, 1]] * fold
    return _Kernel(pairs, gram, hessian, shift)


def _floor_log2(n: int, d: int) -> int:
    """floor(log2 |n/d|) for n != 0 < d: with a and b the bit lengths of |n|
    and d, |n/d| lies in (2^(a-b-1), 2^(a-b+1))."""
    n = abs(n)
    e = n.bit_length() - d.bit_length()
    return e - (n < d << e if e >= 0 else n << -e < d)


def _values(K: _Kernel, Q: np.ndarray) -> np.ndarray:
    """Tx^4 / 2^shift as q^T S q, for the columns q of Q, the quadratic
    monomials of the points.  Uses BLAS, so a point's last bits may depend
    on its batch: fit for ranking grid points, not for the refine."""
    import numpy as np

    return np.einsum("ip,ip->p", K.gram @ Q, Q)


def _forms_and_cubics(K: _Kernel, X: np.ndarray):
    """Values Tx^4, vectors Tx^3 and matrices Tx^2 for a batch of points
    (rows of X), all divided by 2^shift: Tx^2 from the Hessian rows, Tx^3
    as Tx^2 x and Tx^4 as Tx^3 . x.

    Every row gets the same bits whatever other rows share its batch (the
    refine relies on it), which ``einsum`` gives and ``@`` does not.
    """
    import numpy as np

    n = X.shape[1]
    Q = X[:, K.pairs].prod(axis=2)
    H = np.einsum("pm,mi->pi", Q, K.hessian).reshape(-1, n, n)
    C = np.einsum("pij,pj->pi", H, X)
    return np.einsum("pi,pi->p", C, X), C, H


def _decrease(X: np.ndarray, x_forms, Y: np.ndarray, y_forms) -> np.ndarray:
    """(Ty^4 |x|^4 - Tx^4 |y|^4) / 2^shift for the rows x of X and y of Y,
    given the forms (Tx^4, Tx^3, Tx^2) / 2^shift of both from
    ``_forms_and_cubics``: the change of the form on the sphere,
    Tx^4 / |x|^4, times |x|^4 |y|^4.

    It is computed from the step d = y - x, so that it keeps its digits
    where the values themselves agree to the last bit: T is symmetric, so
    Ty^4 - Tx^4 = d . (Tx^3 + Ty^3 + (Tx^2) y + (Ty^2) x), and
    |x|^4 - |y|^4 = -(d . (x + y)) (|x|^2 + |y|^2).  Every row gets the same
    bits whatever other rows share its batch, as in ``_forms_and_cubics``.
    """
    import numpy as np

    f, cx, hx = x_forms
    _, cy, hy = y_forms
    D = Y - X
    dc = cx + cy + np.einsum("pij,pj->pi", hx, Y) + np.einsum("pij,pj->pi", hy, X)
    df = np.einsum("pi,pi->p", D, dc)
    xx = np.einsum("pi,pi->p", X, X)
    yy = np.einsum("pi,pi->p", Y, Y)
    return df * (xx * xx) - f * np.einsum("pi,pi->p", D, X + Y) * (xx + yy)


@functools.lru_cache(maxsize=None)
def _tangent_constants(n: int):
    """The identity of order n and, for n = 3, the flat positions in a 3x3
    matrix of the four factors of each cofactor (see ``_tangent_system``)."""
    import numpy as np

    u, v = np.array([[1, 2, 0], [2, 0, 1]])  # i + 1 and i + 2 (mod 3)
    cofactor_at = np.stack([3 * r[:, None] + c for r, c in ((u, u), (v, v), (u, v), (v, u))])
    eye = np.eye(n)
    eye.flags.writeable = cofactor_at.flags.writeable = False
    return eye, cofactor_at


def _tangent_system(M: np.ndarray, xx: np.ndarray):
    """M + s x x^T for tangent matrices M (M x = 0), with s the mean tangent
    eigenvalue (the trace of M over n - 1), its adjugate and determinant,
    and whether it is positive definite (read from its leading minors).

    x is an eigenvector of the sum, so the solution of (M + s x x^T) d = -g
    for a tangent g is tangent, and s keeps the system's scale."""
    import numpy as np

    n = M.shape[1]
    eye, cofactor_at = _tangent_constants(n)
    B = M + (np.einsum("pii->p", M) / (n - 1))[:, None, None] * xx
    if n == 2:
        adj = np.einsum("pii->p", B)[:, None, None] * eye - B
    else:
        # cofactor (i, j) is B[i+1, j+1] B[i+2, j+2] - B[i+1, j+2] B[i+2, j+1],
        # indices mod 3; the adjugate is its transpose
        f = B.reshape(-1, 9)[:, cofactor_at]
        adj = (f[:, 0] * f[:, 1] - f[:, 2] * f[:, 3]).transpose(0, 2, 1)
    det = (B[:, 0] * adj[:, :, 0]).sum(axis=1)
    return adj, det, (B[:, 0, 0] > 0) & (adj[:, -1, -1] > 0) & (det > 0)


def _newton_directions(X: np.ndarray, vals: np.ndarray, g: np.ndarray, hess: np.ndarray):
    """The search direction at each row of X, given Tx^4, the Riemannian
    gradient g and Tx^2 there.

    Where the Riemannian Hessian Hr is positive definite on the tangent
    plane, d is the Newton direction, the tangent solution of Hr d = -g.
    Elsewhere it is the tangent solution of |Hr| d = -g, with |Hr| the
    Hessian with each tangent eigenvalue replaced by its absolute value: a
    descent direction that leaves a saddle along its negative curvature
    (Nocedal and Wright, Numerical Optimization, 2nd ed., 2006, sec. 3.4).
    Hr x = 0, so the tangent eigenvalues have the product e2 = (tr(Hr)^2 -
    tr(Hr^2)) / 2, and |Hr| = (Hr^2 + |e2| P) / (|l1| + |l2|) with
    |l1| + |l2| = sqrt(tr(Hr^2) + 2 |e2|); for n = 2 it is |l| P.  Where
    |Hr| is singular too, d = -g.  Each system is solved by its adjugate
    (``_tangent_system``).  Returns d and the mask of the Newton rows.
    """
    import numpy as np

    xx = X[:, :, None] * X[:, None, :]
    P = _tangent_constants(X.shape[1])[0] - xx
    Hr = P @ (12.0 * hess) @ P - (4.0 * vals)[:, None, None] * P
    # the adjugate and the determinant multiply up to n entries, and |Hr|
    # squares Hr: one power of two per row brings Hr near 1 and leaves d
    # the same to the bit
    e = -np.frexp(np.abs(Hr).max(axis=(1, 2)))[1]
    Hr = np.ldexp(Hr, e[:, None, None])
    adj, det, newton = _tangent_system(Hr, xx)
    rhs = np.ldexp(-g, e[:, None])
    if newton.all():
        return np.einsum("pij,pj->pi", adj, rhs) / det[:, None], newton
    d, solved = -g, newton.copy()
    off = np.flatnonzero(~newton)
    # solve with the numerator of |Hr| and the right side times its
    # denominator, which is 0 only where Hr is
    H = Hr[off]
    H2 = np.einsum("pij,pjk->pik", H, H)
    sq = np.einsum("pii->p", H2)
    e2 = np.abs(np.einsum("pii->p", H) ** 2 - sq) / 2
    adj[off], det[off], solved[off] = _tangent_system(H2 + e2[:, None, None] * P[off], xx[off])
    rhs[off] *= np.sqrt(sq + 2.0 * e2)[:, None]
    num = np.einsum("pij,pj->pi", adj, rhs)
    np.divide(num, det[:, None], out=d, where=solved[:, None])
    return d, newton


def _refine_batch(K: _Kernel, X0: np.ndarray, cfg: OracleConfig):
    """Safeguarded Newton descent with per-candidate backtracking on the
    sphere, at the kernel's scale (see the module docstring).

    Each pass of an iteration tries one step on every row and moves the
    pending ones that pass (module docstring): a candidate that passes
    Armijo takes the trial point and doubles its step (up to 1), one that
    fails halves it, and one whose step falls below 1e-18 has stalled and
    stops.  After _MAX_HALVINGS passes the candidates still pending keep
    their point for the iteration.  Returns refined points, values
    (divided by 2^shift) and the iteration count of the longest running
    candidate.
    """
    import numpy as np

    X = X0 / np.linalg.norm(X0, axis=1, keepdims=True)
    vals, cub, hess = _forms_and_cubics(K, X)
    step = np.ones(len(X))
    active = np.ones(len(X), dtype=bool)
    iters = 0
    for it in range(cfg.refine_max_iters):
        grad = 4.0 * cub
        gt = grad - (np.einsum("pi,pi->p", grad, X))[:, None] * X
        active &= np.sqrt(np.einsum("pi,pi->p", gt, gt)) > _GRAD_TOL
        if not active.any():
            break
        iters = it + 1
        d, _ = _newton_directions(X, vals, gt, hess)
        slope = np.einsum("pi,pi->p", gt, d)
        pending = active.copy()
        for _ in range(_MAX_HALVINGS):
            trial = X + step[:, None] * d
            trial /= np.linalg.norm(trial, axis=1, keepdims=True)
            forms = _forms_and_cubics(K, trial)
            ok = pending & (_decrease(X, (vals, cub, hess), trial, forms) < 1e-4 * step * slope)
            if ok.all():
                X, (vals, cub, hess), step = trial, forms, np.minimum(2.0 * step, 1.0)
                break
            for held, new in zip((X, vals, cub, hess), (trial, *forms)):
                np.copyto(held, new, where=ok.reshape(ok.shape + (1,) * (new.ndim - 1)))
            failed = pending & ~ok
            step = np.where(ok, np.minimum(2.0 * step, 1.0), np.where(failed, 0.5 * step, step))
            stalled = failed & (step < 1e-18)
            active &= ~stalled
            pending = failed & ~stalled
            if not pending.any():
                break
    return X, vals, iters


Sample = Tuple[_Kernel, "np.ndarray", "np.ndarray"]  # kernel, grid points, values / 2^shift


def sphere_sample(T: SymmetricTensor4, cfg: OracleConfig = OracleConfig()) -> Sample:
    """The kernel of T, cfg's grid and the form's values on it, divided by
    2^shift: the one sample a command takes (module docstring)."""
    if T.dim not in ORACLE_DIMS:
        raise ValueError(f"oracle supports dim 2 or 3, got {T.dim}")
    K = _kernel(T)
    X, Q = _cached_grid(T.dim, cfg.effective_grid(T.dim))
    return K, X, _values(K, Q)


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


def _exact_negative(T: SymmetricTensor4, point) -> Optional[tuple]:
    """Rational rounding of a float witness, verified in exact arithmetic."""
    for den in (10**3, 10**6):
        w = tuple(Fraction(float(v)).limit_denominator(den) for v in point)
        if any(w) and T.evaluate_form(w) < 0:
            return w
    return None


def _unscaled(value, shift: int) -> float:
    """A value at the kernel's scale times 2^shift: inf beyond float range,
    and 0.0 below it."""
    try:
        return math.ldexp(value, shift)
    except OverflowError:
        return math.copysign(math.inf, value)


def sphere_minimize(
    T: SymmetricTensor4, cfg: OracleConfig = OracleConfig(), sample: Optional[Sample] = None
) -> OracleResult:
    """The refined minimum of T on the unit sphere, from ``sample`` (a
    ``sphere_sample`` of T under cfg) or else from a sample of its own."""
    import numpy as np

    K, X, vals = sphere_sample(T, cfg) if sample is None else sample
    refined, rvals, iters = _refine_batch(K, X[_top_k(vals, cfg.refine_top_k)], cfg)
    best = int(np.lexsort((*(refined.T[::-1]), rvals))[0])
    x = _canonical_sign(refined[best] / np.linalg.norm(refined[best]))
    minimizer = tuple(float(v) for v in x)
    return OracleResult(_unscaled(rvals[best], K.shift), minimizer, iters, float(rvals[best]))


def classify_numeric(
    T: SymmetricTensor4, *, sample: Optional[Sample] = None, minimum: Optional[OracleResult] = None
) -> Verdict:
    """The oracle's one verdict rule, on ``sample`` (a ``sphere_sample`` of
    T) or else on a sample of its own (module docstring).  The best grid
    point comes first: where it rounds to a rational point at which T is
    negative in exact arithmetic, that point is the witness of INDEFINITE
    (``oracle-grid-witness``) and the grid value the margin, and nothing is
    refined.  Otherwise the verdict is the refined minimum's, ``minimum`` or
    else ``sphere_minimize`` on the sample, with the minimum as its
    margin."""
    import numpy as np

    K, X, vals = sphere_sample(T) if sample is None else sample
    g = int(np.argmin(vals))
    if vals[g] < 0:
        witness = _exact_negative(T, X[g])
        if witness is not None:
            return Verdict(Kind.INDEFINITE, "oracle-grid-witness", witness, _unscaled(vals[g], K.shift))
    res = sphere_minimize(T, sample=(K, X, vals)) if minimum is None else minimum
    witness = _exact_negative(T, res.minimizer) if res.kernel_min < 0 else None
    if witness is not None:
        kind = Kind.INDEFINITE
    elif res.kernel_min > _MARGIN:
        kind = Kind.POSITIVE_DEFINITE
    else:
        kind = Kind.UNDETERMINED
    rule = "oracle-boundary" if kind is Kind.UNDETERMINED else "oracle-sphere-minimum"
    return Verdict(kind, rule, witness, res.min_value)


def zero_set_probe(T: SymmetricTensor4, *, sample: Optional[Sample] = None) -> List[Tuple[float, ...]]:
    """Refined sphere points where |Tx^4| is at most ``_MARGIN``, from
    ``sample`` (a ``sphere_sample`` of T) or else from a sample of its own.

    A point within _CLUSTER_TOL of a kept representative joins its cluster;
    one representative per cluster is returned, sorted lexicographically.
    Antipodal zeros appear as separate clusters (the form is even, so they
    come in pairs).
    """
    import numpy as np

    K, X, vals = sphere_sample(T) if sample is None else sample
    refined, rvals, _ = _refine_batch(K, X[_top_k(np.abs(vals), 200)], OracleConfig())
    zeros = refined[np.abs(rvals) <= _MARGIN]
    zeros = zeros / np.linalg.norm(zeros, axis=1, keepdims=True)
    return sorted(tuple(float(v) for v in zeros[i]) for i in _cluster_representatives(zeros))


def _cluster_representatives(points: np.ndarray) -> List[int]:
    """The representatives of the greedy clustering in row order (module
    docstring): a row is one exactly when no earlier representative lies
    within _CLUSTER_TOL of it."""
    import numpy as np

    covered = np.zeros(len(points), dtype=bool)
    reps: List[int] = []
    while not covered.all():
        r = int(np.argmin(covered))
        reps.append(r)
        covered |= np.linalg.norm(points - points[r], axis=1) <= _CLUSTER_TOL
        covered[r] = True  # a NaN row covers nothing, itself included
    return reps
