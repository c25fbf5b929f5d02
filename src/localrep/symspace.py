"""Symmetric space of determinant-one SPD matrices and displacement geometry.

The space carries the usual invariant metric d(x, y) = sqrt(sum log^2 mu_i)
with mu_i the eigenvalues of x^-1 y, and an invertible g acts by
x -> g x g^T.  For a tuple of generators the displacement function

    d_rho(x) = sqrt(sum_s d(x, rho(s) x)^2)

is geodesically convex; its infimum is attained exactly when the tuple is
completely reducible, and the minimiser search below reports which of the
two regimes it observed.  Real generators are rescaled to |det| = 1 on
ingestion, which quotients away the scaling direction without changing the
displacement data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatchError,
    NotAttainedError,
    NotRealFieldError,
    SingularMatrixError,
)
from .reptheory import Representation, composition_series

ATTAINED = "ATTAINED"
DIVERGED = "DIVERGED"
MAXITER = "MAXITER"

GRAD_TOL = 1e-6
ESCAPE_RADIUS = 50.0
STALL_RATE = 1e-6
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


def _action_matrices(rho: Representation) -> dict:
    """Generator matrices as floats, rescaled to |det| = 1."""
    if not rho.field.is_real:
        raise NotRealFieldError("displacement geometry needs the real field")
    out = {}
    for s, m in rho.gens.items():
        arr = np.array([[float(x) for x in row] for row in m.data], dtype=float)
        det = abs(float(np.linalg.det(arr)))
        if det == 0.0:
            raise SingularMatrixError(f"generator {s!r} is singular")
        out[s] = arr / det ** (1.0 / rho.n)
    return out


def act(g: np.ndarray, x: SPDPoint) -> SPDPoint:
    return SPDPoint.normalized(g @ x.m @ g.T)


def displacement(rho: Representation, x: SPDPoint) -> float:
    """d_rho(x) = sqrt(sum_s d(x, rho(s) x)^2)."""
    mats = _action_matrices(rho)
    total = 0.0
    for g in mats.values():
        total += dist(x, act(g, x)) ** 2
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

    Uses the closed form sum_s 2 tr(log(A_s) A_s^-1 (C_s M_s^T + M_s C_s^T))
    with M_s = h^-1 rho(s) h, A_s = M_s M_s^T and C_s = M_s H - H M_s.
    """
    mats = _action_matrices(rho)
    h = np.asarray(h, dtype=float)
    H = np.asarray(H, dtype=float)
    if abs(float(np.linalg.det(h))) < 1e-12:
        raise SingularMatrixError("conjugator is singular")
    total = 0.0
    for m, a in _objective_terms(list(mats.values()), h):
        w, v = np.linalg.eigh(a)
        l_mat = (v * (np.log(w) / w)) @ v.T
        c = m @ H - H @ m
        total += 2.0 * float(np.trace(l_mat @ (c @ m.T + m @ c.T)))
    return total


@dataclass
class DisplacementReport:
    lambda_est: float
    attained: str                    # ATTAINED | DIVERGED | MAXITER
    minimizer: SPDPoint | None
    iterations: int
    trace: list                      # (objective, accepted step, |h|_F) per iteration
    grad_norm: float
    final_h: np.ndarray | None = None

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


def _coordinate_rescue(mats, h: np.ndarray, j0: float):
    """Best improving step over a coordinate basis of directions, or None.

    Used where the gradient direction yields no acceptable Armijo step
    (critical points and zigzag corners of thin valleys).  Convexity of J
    makes a failed rescue a certificate of global minimality up to the
    numeric floor.
    """
    n = h.shape[0]
    floor = 1e-12 * max(1.0, j0)
    dirs = []
    for i in range(n):
        for j in range(i, n):
            d = np.zeros((n, n))
            if i == j:
                d[i, i] = 1.0
                d -= np.eye(n) / n
                if np.abs(d).max() < 1e-14:
                    continue
            else:
                d[i, j] = d[j, i] = 1.0
            d /= np.linalg.norm(d)
            dirs.extend([d, -d])
    for d in dirs:
        t = 1.0
        while t > 1e-8:
            h_new = h @ _sym_exp(t * d)
            j_new = _objective(mats, h_new)
            if j_new < j0 - floor:
                return h_new, j_new, t
            t *= ARMIJO_SHRINK
    return None


def _dist_from_identity(h: np.ndarray) -> float:
    """dist(I, h h^T) from the singular values of h (stable at any scale)."""
    s = np.linalg.svd(h, compute_uv=False)
    return float(np.sqrt(np.sum((2.0 * np.log(s)) ** 2)))


def _descent_burst(mats, h: np.ndarray, j: float, iters: int):
    """A few standard Armijo steps; returns the re-centred (h, j)."""
    for _ in range(iters):
        grad = _gradient(mats, h)
        gn = float(np.linalg.norm(grad))
        if gn < 1e-14:
            break
        direction = -grad / gn
        t = INITIAL_STEP
        accepted = False
        floor = 1e-12 * max(1.0, j)
        while t > 1e-12:
            h_new = h @ _sym_exp(t * direction)
            j_new = _objective(mats, h_new)
            if j_new <= j - max(ARMIJO_C * t * gn, floor):
                h, j = h_new, j_new
                accepted = True
                break
            t *= ARMIJO_SHRINK
        if not accepted:
            break
    return h, j


#: radial plateau travel that certifies an escape when the hard radius is
#: out of float range (the valley thins like exp(c d), so following it to
#: the radius is not always numerically possible)
TRAVEL_CERT = 20.0


def _sym_of(h: np.ndarray) -> np.ndarray:
    x = h @ h.T
    return 0.5 * (x + x.T)


def _spd_log_sqrt(x: np.ndarray):
    w, v = np.linalg.eigh(x)
    w = np.clip(w, 1e-300, None)
    return (v * np.log(w)) @ v.T, (v * np.sqrt(w)) @ v.T


def _geodesic_extend(x_prev: np.ndarray, x_cur: np.ndarray, max_arc: float):
    """Continue the geodesic through x_prev, x_cur past x_cur.

    Full point reflection (doubling) when the gap is below ``max_arc``,
    otherwise an extension by ``max_arc`` along the same geodesic.
    """
    w, v = np.linalg.eigh(x_prev)
    w = np.clip(w, 1e-300, None)
    p_half = (v * np.sqrt(w)) @ v.T
    p_inv_half = (v / np.sqrt(w)) @ v.T
    mid = p_inv_half @ x_cur @ p_inv_half
    mid = 0.5 * (mid + mid.T)
    wm, vm = np.linalg.eigh(mid)
    wm = np.clip(wm, 1e-300, None)
    gap = float(np.linalg.norm(np.log(wm)))
    t = 2.0 if gap <= max_arc else 1.0 + max_arc / gap
    ext = (vm * np.power(wm, t)) @ vm.T
    out = p_half @ ext @ p_half
    return 0.5 * (out + out.T)


def _escape_probe(mats, h: np.ndarray, j0: float):
    """Walk the valley floor outward; certify whether it runs to infinity.

    Returns ``(certified, j_best)`` with ``j_best`` the smallest objective
    seen.  The local gradient is useless near the plateau (it is dominated
    by the exponentially steep transverse walls), so the walk first coasts
    along the accumulated displacement direction, the normalised log of
    x = h h^T, re-centring with a strict descent burst after every arc.
    When that ray stalls against the walls, the walk switches to geodesic
    extrapolation through the last two re-centred points, which tracks the
    valley tangent with shrinking offset.  An escape is certified when the
    iterate crosses the divergence radius or accumulates enough radial
    travel at plateau objective; a wander along a flat of minima is refused
    because there the objective never drops below its starting value, and a
    genuine minimum stops the walk on the first cycle (no progress).
    """
    floor = 1e-9 * max(1.0, j0)
    # below-plateau evidence: a flat of minima never yields this
    needed_drop = 5e-12 * max(1.0, j0)
    j_best = j0

    x = _sym_of(h)
    log_x, cur = _spd_log_sqrt(x)
    nrm = float(np.linalg.norm(log_x))
    if nrm < 1e-6:
        return False, j_best
    d_start = _dist_from_identity(cur)
    prev_dist = d_start
    x_prev = x

    def certified(d: float) -> bool:
        if d <= ESCAPE_RADIUS and d - d_start < TRAVEL_CERT:
            return False
        return j_best <= j0 - needed_drop or j0 <= 1e-8

    # phase A: coast along the displacement ray
    stalled = False
    for _ in range(60):
        direction = log_x / nrm
        cur = cur @ _sym_exp(4.0 * direction)
        cur, j = _descent_burst(mats, cur, _objective(mats, cur), 30)
        if j > j0 + floor:
            return False, j_best
        j_best = min(j_best, j)
        d = _dist_from_identity(cur)
        if certified(d):
            return True, j_best
        if d - prev_dist < 0.5:
            stalled = True
            break
        x_prev = x
        x = _sym_of(cur)
        prev_dist = d
        log_x, _ = _spd_log_sqrt(x)
        nrm = float(np.linalg.norm(log_x))
        if nrm < 1e-9:
            return False, j_best
    if not stalled:
        return False, j_best

    # phase B: secant continuation through the last two re-centred points
    x_cur = _sym_of(cur)
    if float(np.linalg.norm(x_cur - x_prev)) == 0.0:
        return False, j_best
    for _ in range(40):
        x_next = _geodesic_extend(x_prev, x_cur, max_arc=8.0)
        _, root = _spd_log_sqrt(x_next)
        cur, j = _descent_burst(mats, root, _objective(mats, root), 30)
        if j > j0 + floor:
            return False, j_best
        j_best = min(j_best, j)
        d = _dist_from_identity(cur)
        if certified(d):
            return True, j_best
        x_prev, x_cur = x_cur, _sym_of(cur)
        if d - prev_dist < 0.05:
            return False, j_best
        prev_dist = d
    return False, j_best


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


def minimize_displacement(rho: Representation, budget: int = 5000) -> DisplacementReport:
    """Minimise the displacement function over the SPD space.

    Normalised steepest descent with Armijo backtracking on the conjugator
    h (x = h h^T); step lengths double while full steps keep being accepted,
    so an escape to infinity reaches the divergence radius quickly instead of
    stalling.  Verdicts:

    * ATTAINED: no direction decreases the objective beyond the numeric
      floor, and coasting along the last descent direction does not leave
      the bounded region (the minimum is at the final iterate);
    * DIVERGED: the iterate passed the escape radius while the decrease per
      unit distance stalled, or the terminal coast crossed it at constant
      objective (the infimum is approached along an escape ray);
    * MAXITER: budget exhausted before either certificate.
    """
    mats = list(_action_matrices(rho).values())
    n = rho.n
    h = np.eye(n)
    j_cur = _objective(mats, h)
    trace = []
    t_init = INITIAL_STEP
    stall_window = 25
    stall_anchor = (0, j_cur)  # (iteration, objective) at the window start

    def finish(it, gn, status, minimizer=None):
        return DisplacementReport(
            lambda_est=math.sqrt(max(j_cur, 0.0)),
            attained=status,
            minimizer=minimizer,
            iterations=it, trace=trace, grad_norm=gn, final_h=h,
        )

    def terminal(it, gn, dist0):
        nonlocal h, j_cur
        if dist0 > ESCAPE_RADIUS:
            return finish(it, gn, DIVERGED)
        escaped, j_best = _escape_probe(mats, h, j_cur)
        if escaped:
            j_cur = min(j_cur, j_best)
            return finish(it, gn, DIVERGED)
        h, j_cur, gn = _polish(mats, h, j_cur)
        return finish(it, gn, ATTAINED, minimizer=SPDPoint.normalized(h @ h.T))

    for it in range(budget):
        grad = _gradient(mats, h)
        gn = float(np.linalg.norm(grad))
        dist0 = _dist_from_identity(h)

        if gn <= GRAD_TOL:
            # spec trigger: tiny gradient; the probe separates a true minimum
            # from the flat stretch of an escape ray
            return terminal(it, gn, dist0)

        direction = -grad / gn
        t = t_init
        accepted = None
        floor = 1e-12 * max(1.0, j_cur)
        while t > 1e-12:
            h_new = h @ _sym_exp(t * direction)
            j_new = _objective(mats, h_new)
            if j_new <= j_cur - max(ARMIJO_C * t * gn, floor):
                accepted = (t, h_new, j_new)
                break
            t *= ARMIJO_SHRINK

        if accepted is None:
            if gn <= GRAD_TOL:
                return terminal(it, gn, dist0)
            rescue = _coordinate_rescue(mats, h, j_cur)
            if rescue is None:
                return terminal(it, gn, dist0)
            # improvable but not along the gradient: zigzag corner of a thin
            # valley; check for an escape, otherwise take the rescue step
            escaped, j_best = _escape_probe(mats, h, j_cur)
            if escaped:
                j_cur = min(j_cur, j_best)
                return finish(it, gn, DIVERGED)
            h, j_cur, t_res = rescue
            trace.append((j_cur, t_res, float(np.linalg.norm(h))))
            t_init = INITIAL_STEP
            continue

        t_acc, h_new, j_new = accepted
        moved = 2.0 * t_acc  # exact arc length of the step x -> h e^{tD} ...
        decrease = j_cur - j_new
        h, j_cur = h_new, j_new
        trace.append((j_cur, t_acc, float(np.linalg.norm(h))))

        dist_new = _dist_from_identity(h)
        if dist_new > ESCAPE_RADIUS and decrease / moved < STALL_RATE:
            return finish(it + 1, gn, DIVERGED)

        # slow-crawl guard: a thin curved valley makes plain descent zigzag
        # indefinitely; probe periodically whether it runs off to infinity
        # (at a true minimum the probe aborts on its first cycle)
        fire_periodic = (it + 1) % 200 == 0
        fire_stalled = False
        if it - stall_anchor[0] >= stall_window:
            fire_stalled = stall_anchor[1] - j_cur <= 1e-9 * max(1.0, j_cur)
            stall_anchor = (it, j_cur)
        if fire_periodic or fire_stalled:
            escaped, j_best = _escape_probe(mats, h, j_cur)
            if escaped:
                j_cur = min(j_cur, j_best)
                return finish(it + 1, gn, DIVERGED)

        # grow the trial step while full steps are accepted, shrink otherwise
        if t_acc >= t_init * 0.999:
            t_init = min(t_init * 2.0, MAX_STEP)
        else:
            t_init = max(t_acc * 2.0, INITIAL_STEP)

    grad = _gradient(mats, h)
    return DisplacementReport(
        lambda_est=math.sqrt(max(j_cur, 0.0)),
        attained=MAXITER,
        minimizer=None,
        iterations=budget, trace=trace,
        grad_norm=float(np.linalg.norm(grad)), final_h=h,
    )


# ---------------------------------------------------------------------------
# symmetry of the fixed boundary set through a minimiser


def _flag_directions(rho: Representation, x: SPDPoint):
    """Unit geodesic directions at x pointing toward invariant flag points.

    For each proper step of a composition series, builds the symmetric
    traceless generator of the ray from x whose leading eigenblock spans the
    invariant subspace (orthonormalised at x).
    """
    flag = composition_series(rho)
    if len(flag.block_sizes) == 1:
        return []
    n = rho.n
    x_half, x_inv_half = _sqrt_inv_sqrt(x.m)
    h_cols = np.array(
        [[float(v) for v in row] for row in flag.basis_change.data], dtype=float
    )
    dirs = []
    bounds = [0]
    for s in flag.block_sizes:
        bounds.append(bounds[-1] + s)
    for step in range(1, len(flag.block_sizes)):
        k = bounds[step]
        m = x_inv_half @ h_cols
        q, _ = np.linalg.qr(m)
        mu_top, mu_bot = float(n - k), float(-k)  # traceless two-level profile
        lam = np.array([mu_top] * k + [mu_bot] * (n - k))
        s_mat = (q * lam) @ q.T
        s_mat /= np.linalg.norm(s_mat)
        dirs.append((x_half, s_mat))
    return dirs


def check_symmetry_at_min(rho: Representation, report: DisplacementReport,
                          t_grid=None, tol: float = 1e-6) -> bool:
    """Probe the line symmetry of per-generator displacement at the minimiser.

    Along each ray toward an invariant-flag boundary point: whenever the
    per-generator displacement is non-increasing on the positive ray it must
    be constant along the whole line (within tolerance).  Vacuously true
    when the action has no invariant flag.
    """
    if report.attained != ATTAINED or report.minimizer is None:
        raise NotAttainedError("report does not carry a minimiser")
    x = report.minimizer
    mats = _action_matrices(rho)
    dirs = _flag_directions(rho, x)
    if not dirs:
        return True
    if t_grid is None:
        t_grid = [(-5 + i) * 1.0 for i in range(11)]
    positive = [t for t in t_grid if t >= 0]
    for x_half, s_mat in dirs:
        for g in mats.values():
            vals = []
            for t in t_grid:
                pt = SPDPoint.normalized(x_half @ _sym_exp(t * s_mat) @ x_half)
                vals.append(dist(pt, act(g, pt)))
            pos_vals = [v for t, v in zip(t_grid, vals) if t >= 0]
            noninc = all(b <= a + 1e-9 for a, b in zip(pos_vals, pos_vals[1:]))
            if noninc:
                spread = max(vals) - min(vals)
                if spread > tol * max(1.0, max(vals)):
                    return False
    return True
