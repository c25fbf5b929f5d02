"""Symmetric space of determinant-one SPD matrices and displacement geometry.

The space carries the usual invariant metric d(x, y) = sqrt(sum log^2 mu_i)
with mu_i the eigenvalues of x^-1 y, and an invertible g acts by
x -> g x g^T.  For a tuple of generators the displacement function

    d_rho(x) = sqrt(sum_s d(x, rho(s) x)^2)

is geodesically convex.  Its infimum is attained exactly when the tuple is
completely reducible (cr), and the infimum lambda(rho) equals
lambda(rho_ss) of the semisimplification.  :func:`minimize_displacement`
therefore takes its verdict from :func:`reptheory.is_cr` and reads lambda
off the irreducible leaves of the split tree of rho (cr) or rho_ss: a
closed form from the determinants of each leaf, plus one descent on each
leaf of dimension 2 or more.  ATTAINED for a cr tuple, whose minimiser is
assembled from the split tree and checked against lambda; DIVERGED for a
non-cr one (no minimiser); MAXITER when a leaf's descent runs out of its
budget.  Real generators are rescaled to |det| = 1 on ingestion, which
quotients away the scaling direction without changing the displacement
data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatchError,
    LocalRepError,
    NotRealFieldError,
    SingularMatrixError,
)
from .reptheory import Representation, _series, _split, is_cr, semisimplify

ATTAINED = "ATTAINED"
DIVERGED = "DIVERGED"
MAXITER = "MAXITER"

GRAD_TOL = 1e-6
ARMIJO_C = 1e-4
ARMIJO_SHRINK = 0.5
INITIAL_STEP = 1.0
MAX_STEP = 1e6


class SPDPoint:
    """Symmetric positive definite matrix of determinant one."""

    __slots__ = ("m",)

    def __init__(self, m):
        m = np.asarray(m, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise DimensionMismatchError("point must be a square matrix")
        if not np.allclose(m, m.T, atol=1e-12 * max(1.0, float(np.abs(m).max()))):
            raise ValueError("point must be symmetric")
        eig = np.linalg.eigvalsh(m)
        if eig.min() <= 0:
            raise ValueError("point must be positive definite")
        det = float(np.prod(eig))
        if abs(det - 1.0) > 1e-9 * max(1.0, det):
            raise ValueError(f"determinant {det} is not 1")
        self.m = 0.5 * (m + m.T)

    @classmethod
    def identity(cls, n: int) -> "SPDPoint":
        return cls(np.eye(n))

    @classmethod
    def normalized(cls, m) -> "SPDPoint":
        """Rescale a symmetric positive definite matrix to determinant one."""
        m = np.asarray(m, dtype=float)
        _, logdet = np.linalg.slogdet(m)
        return cls(m * math.exp(-logdet / m.shape[0]))

    @property
    def n(self) -> int:
        return self.m.shape[0]

    def __repr__(self) -> str:
        return f"SPDPoint({self.m.tolist()})"


def _sym_exp(a: np.ndarray) -> np.ndarray:
    w, v = np.linalg.eigh(a)
    return (v * np.exp(w)) @ v.T


def _sqrt_inv_sqrt(x: np.ndarray):
    w, v = np.linalg.eigh(x)
    return (v * np.sqrt(w)) @ v.T, (v / np.sqrt(w)) @ v.T


def dist(x: SPDPoint, y: SPDPoint) -> float:
    """Invariant metric: sqrt of the sum of squared log-eigenvalues of x^-1 y."""
    if x.n != y.n:
        raise DimensionMismatchError(f"{x.n} vs {y.n}")
    _, xinv_half = _sqrt_inv_sqrt(x.m)
    a = xinv_half @ y.m @ xinv_half
    w = np.linalg.eigvalsh(a)
    return float(np.sqrt(np.sum(np.log(w) ** 2)))


def _floats(m) -> np.ndarray:
    return np.array([[float(x) for x in row] for row in m.data], dtype=float)


def _block_diagonal(blocks) -> np.ndarray:
    n = sum(b.shape[0] for b in blocks)
    out, i = np.zeros((n, n)), 0
    for b in blocks:
        k = b.shape[0]
        out[i:i + k, i:i + k] = b
        i += k
    return out


def _action_matrices(rho: Representation) -> dict:
    """Generator matrices as floats, rescaled to |det| = 1."""
    if not rho.field.is_real:
        raise NotRealFieldError("displacement geometry needs the real field")
    out = {}
    for s, m in rho.gens.items():
        arr = _floats(m)
        det = abs(float(np.linalg.det(arr)))
        if det == 0.0:
            raise SingularMatrixError(f"generator {s!r} is singular")
        out[s] = arr / det ** (1.0 / rho.n)
    return out


def act(g: np.ndarray, x: SPDPoint) -> SPDPoint:
    return SPDPoint.normalized(g @ x.m @ g.T)


def displacement(rho: Representation, x: SPDPoint) -> float:
    """d_rho(x) = sqrt(sum_s d(x, rho(s) x)^2).

    Each term is taken to the identity by the isometry x^-1/2:
    d(x, g x) = d(I, m I) with m = x^-1/2 g x^1/2, so no g x g^T is formed;
    for an ill-conditioned x that product loses its small eigenvalues.
    """
    x_half, x_inv_half = _sqrt_inv_sqrt(x.m)
    ident = SPDPoint.identity(x.n)
    total = 0.0
    for g in _action_matrices(rho).values():
        total += dist(ident, act(x_inv_half @ g @ x_half, ident)) ** 2
    return math.sqrt(total)


# ---------------------------------------------------------------------------
# smooth objective on the conjugator: J(h) = sum_s tr(log^2(M_s M_s^T))


def _objective_terms(mats, h: np.ndarray):
    hinv = np.linalg.inv(h)
    terms = []
    for g in mats:
        m = hinv @ g @ h
        a = m @ m.T
        terms.append((m, a))
    return terms


def _objective(mats, h: np.ndarray) -> float:
    total = 0.0
    for _, a in _objective_terms(mats, h):
        w = np.clip(np.linalg.eigvalsh(a), 1e-300, None)
        total += float(np.sum(np.log(w) ** 2))
    return total


def _gradient(mats, h: np.ndarray) -> np.ndarray:
    """Gradient of J in the symmetric traceless direction space at h.

    Moving along h exp(tH) with H symmetric traceless, the derivative is
    <grad, H>, with grad = 4 sum_s (M^T L M - log A), L = log(A) A^-1.
    """
    n = h.shape[0]
    grad = np.zeros((n, n))
    for m, a in _objective_terms(mats, h):
        w, v = np.linalg.eigh(a)
        w = np.clip(w, 1e-300, None)
        log_a = (v * np.log(w)) @ v.T
        l_mat = (v * (np.log(w) / w)) @ v.T
        grad += 4.0 * (m.T @ l_mat @ m - log_a)
    grad = 0.5 * (grad + grad.T)
    grad -= np.trace(grad) / n * np.eye(n)
    return grad


def grad_objective(rho: Representation, h, H) -> float:
    """Directional derivative of J at h along the direction H.

    The Frobenius pairing of H with :func:`_gradient`, the gradient that the
    descent follows.  That gradient lives in the symmetric traceless
    matrices, the tangent space of determinant-one SPD matrices, so any
    other H is taken through its symmetric traceless part.
    """
    mats = list(_action_matrices(rho).values())
    h = np.asarray(h, dtype=float)
    if abs(float(np.linalg.det(h))) < 1e-12:
        raise SingularMatrixError("conjugator is singular")
    return float(np.sum(_gradient(mats, h) * np.asarray(H, dtype=float)))


@dataclass
class DisplacementReport:
    lambda_est: float
    attained: str                    # ATTAINED | DIVERGED | MAXITER
    minimizer: SPDPoint | None
    iterations: int
    trace: list                      # (objective, accepted step, |h|_F) per iteration
    grad_norm: float

    def to_json_dict(self) -> dict:
        return {
            "lambda": self.lambda_est,
            "status": self.attained,
            "minimizer": None if self.minimizer is None else
                [float(v) for v in self.minimizer.m.reshape(-1)],
            "iterations": self.iterations,
            "grad_norm": self.grad_norm,
            "trace": [
                {"objective": o, "step": s, "conjugator_norm": c}
                for o, s, c in self.trace
            ],
        }


def _polish(mats, h: np.ndarray, j: float):
    """Drive the gradient norm down with a machine-floor line search.

    Alternates gradient steps with a Newton-like correction built from the
    gradient difference, both accepted on any decrease above float noise.
    """
    floor = 4.0 * np.finfo(float).eps * max(1.0, j)
    gn = float(np.linalg.norm(_gradient(mats, h)))
    for _ in range(300):
        if gn <= GRAD_TOL:
            break
        grad = _gradient(mats, h)
        gn = float(np.linalg.norm(grad))
        if gn <= GRAD_TOL:
            break
        # estimate the bowl scale from a secant along the gradient, then
        # take the quasi-Newton step length gn / curvature
        direction = -grad / gn
        eps_t = 1e-4
        grad_eps = _gradient(mats, h @ _sym_exp(eps_t * direction))
        curve = float(np.linalg.norm(grad_eps - grad)) / eps_t
        steps = [gn / curve] if curve > 1e-12 else []
        steps.append(INITIAL_STEP)
        accepted = False
        for t0 in steps:
            t = t0
            while t > 1e-14:
                h_new = h @ _sym_exp(t * direction)
                j_new = _objective(mats, h_new)
                if j_new <= j - floor:
                    h, j = h_new, j_new
                    accepted = True
                    break
                t *= ARMIJO_SHRINK
            if accepted:
                break
        if not accepted:
            break
    gn = float(np.linalg.norm(_gradient(mats, h)))
    return h, j, gn


def _descend(mats, n: int, budget: int):
    """Armijo descent on the conjugator h (x = h h^T), then :func:`_polish`.

    Normalised steepest descent with backtracking; the trial step doubles
    while full steps keep being accepted.  The walk stops when the gradient
    norm is at most ``GRAD_TOL`` or no Armijo step is accepted, and is then
    polished.  Returns ``(h, objective, iterations, trace, grad_norm,
    done)``, where ``done`` is False when the budget ran out first (no
    polish then).
    """
    h = np.eye(n)
    j_cur = _objective(mats, h)
    trace = []
    t_init = INITIAL_STEP
    for it in range(budget):
        grad = _gradient(mats, h)
        gn = float(np.linalg.norm(grad))
        if gn <= GRAD_TOL:
            break
        direction = -grad / gn
        t = t_init
        accepted = None
        floor = 1e-12 * max(1.0, j_cur)
        while t > 1e-12:
            h_new = h @ _sym_exp(t * direction)
            j_new = _objective(mats, h_new)
            if j_new <= j_cur - max(ARMIJO_C * t * gn, floor):
                accepted = t
                break
            t *= ARMIJO_SHRINK
        if accepted is None:
            break
        h, j_cur = h_new, j_new
        trace.append((j_cur, accepted, float(np.linalg.norm(h))))
        # grow the trial step while full steps are accepted, shrink otherwise
        if accepted >= t_init * 0.999:
            t_init = min(t_init * 2.0, MAX_STEP)
        else:
            t_init = max(accepted * 2.0, INITIAL_STEP)
    else:
        gn = float(np.linalg.norm(_gradient(mats, h)))
        return h, j_cur, budget, trace, gn, False
    h, j_cur, gn = _polish(mats, h, j_cur)
    return h, j_cur, it, trace, gn, True


def _block_conjugator(rho: Representation) -> np.ndarray:
    """c with c^-1 g c = blockdiag(leaves of :func:`_series`) for each generator g.

    Built down the split tree of a cr tuple: at a split with adapted basis
    b, b^-1 g b is [[A, B], [0, D]], and the complement X of
    :meth:`Split.complement` solves A X - X D = B, so [[I, -X], [0, I]]
    clears B.  Then c = b [[I, -X], [0, I]] blockdiag(c_W, c_{V/W}), in the
    order in which :func:`_series` lists the leaves.
    """
    split = _split(rho)
    if split is None:
        return np.eye(rho.n)
    k, n = split.sub.n, rho.n
    clear = np.eye(n)
    clear[:k, k:] = -np.array([float(x) for x in split.complement()]).reshape(k, n - k)
    tail = _block_diagonal((_block_conjugator(split.sub), _block_conjugator(split.quot)))
    return _floats(split.basis) @ clear @ tail


def _log_abs_det(m) -> float:
    return float(np.linalg.slogdet(_floats(m))[1])


def minimize_displacement(rho: Representation, budget: int = 5000) -> DisplacementReport:
    """Minimise the displacement function over the SPD space.

    The infimum of d_rho is attained exactly when rho is completely
    reducible, and it equals lambda(rho_ss) either way.  So the verdict
    comes from :func:`is_cr`, and lambda is read off the leaves of the
    split tree (:func:`_series`) of the cr tuple ``target``: rho itself when
    cr, else ``semisimplify(rho).rho_ss``.  The minimum set of d_target
    holds a point block diagonal in the basis of the leaves, and there the
    distance splits by blocks:

        lambda^2 = sum_i [ lambda(rhobar_i)^2 + sum_s (2 log|det rho_i(s)|)^2 / n_i ]

    with rho_i(s) leaf i of the |det| = 1 generator and rhobar_i that leaf
    at |det| = 1.  A leaf of dimension 1 has lambda(rhobar_i) = 0; each
    larger leaf gets its own descent (:func:`_descend`, with the whole
    budget), and ``iterations`` and ``trace`` add up over those.

    * ATTAINED: rho is cr; the minimiser is H H^T normalised, with
      H = c blockdiag(h_i) for the leaf conjugators h_i (the identity on a
      line) and c from :func:`_block_conjugator`.  ``grad_norm`` is the whole
      tuple's gradient norm at H, polished (:func:`_polish`) when above
      ``GRAD_TOL``, and the displacement there must equal lambda;
    * DIVERGED: rho is not cr, and there is no minimiser;
    * MAXITER: the budget of some leaf's descent ran out (no minimiser).

    Otherwise ``grad_norm`` is that of the leaf gradients together, which is
    the gradient of d_target^2 at the block diagonal point.
    """
    whole = list(_action_matrices(rho).values())
    cr = is_cr(rho)
    target = rho if cr else semisimplify(rho).rho_ss
    _, _, leaves = _series(target)
    log_dets = {s: _log_abs_det(m) for s, m in target.gens.items()}
    terms, conjugators, trace = [], [], []
    iterations, grad_sq, done = 0, 0.0, True
    for leaf in leaves:
        k = leaf.n
        terms += [(2.0 * (_log_abs_det(m) - k / target.n * log_dets[s])) ** 2 / k
                  for s, m in leaf.gens.items()]
        if k == 1:
            conjugators.append(np.eye(1))
            continue
        h, j, its, leaf_trace, gn, leaf_done = _descend(
            list(_action_matrices(leaf).values()), k, budget)
        terms.append(j)
        conjugators.append(h)
        iterations += its
        trace += leaf_trace
        grad_sq += gn * gn
        done = done and leaf_done
    lam = math.sqrt(math.fsum(terms))
    gn, minimizer = math.sqrt(grad_sq), None
    if not done:
        status = MAXITER
    elif not cr:
        status = DIVERGED
    else:
        status = ATTAINED
        h = _block_conjugator(rho) @ _block_diagonal(conjugators)
        gn = float(np.linalg.norm(_gradient(whole, h)))
        if gn > GRAD_TOL:
            h, _, gn = _polish(whole, h, _objective(whole, h))
        minimizer = SPDPoint.normalized(h @ h.T)
        at_min = displacement(rho, minimizer)
        if abs(at_min - lam) > 1e-9 * max(1.0, lam):
            raise LocalRepError(
                f"displacement {at_min!r} at the minimiser is not lambda {lam!r}")
    return DisplacementReport(
        lambda_est=lam, attained=status, minimizer=minimizer,
        iterations=iterations, trace=trace, grad_norm=gn,
    )
