"""Reference runs for the benchmark's quality metric, in numpy alone.

The quality of a fit is its progress: the share it achieves of the
objective decrease that the paper's method makes from the PCA start in the
same number of iterations, (start - objective) / (start - reference). About
1 at the seed commit; 0 for a fit that returns its start; above 1 for a fit
that gets further than the paper's method does.

Both fair objectives at rank 1 are functions of a unit vector v, with
loading L = sqrt(N) v:

* fair-factor: e_k = (||Y_k||^2 - v^T Y_k^T Y_k v) / T_k;
* annuity fair-decision (taylor surrogate): e_k = sum_t ||W_t (exp(Y_t v v^T
  + a) - m_t)||^2 / T_k, with the EPV weights W_t frozen at the observed
  rates m_t;

and the objective sum_k (T_k / T) e_k + penalty * sum_{k<k'} (e_k - e_k')^2.
Each problem gives the objective of a batch of unit vectors and the
gradient at one. `descend` is the paper's method written out for rank 1: a
gradient step along a 25-point geometric grid of step sizes relative to
||L|| / ||grad||, each candidate projected back to the sphere, the best one
taken. It shares no code with the package's optimizer.
"""

import numpy as np

GRID = np.geomspace(1e-6, 10.0, 25)
IMPROVEMENT_TOL = 1e-12  # a step may not lose more than this
STAGNATION_TOL, STAGNATION_LIMIT = 1e-14, 20  # stop after 20 steps that gain less


def _penalized(errors, rows, penalty):
    """Objective of (B, K) group errors."""
    values = errors @ (rows / rows.sum())
    K = errors.shape[1]
    for i in range(K):
        for j in range(i + 1, K):
            values = values + penalty * (errors[:, i] - errors[:, j]) ** 2
    return values


def _penalized_gradient(errors, grads, rows, penalty):
    out = sum(w * g for w, g in zip(rows / rows.sum(), grads))
    K = len(errors)
    for i in range(K):
        for j in range(i + 1, K):
            out = out + 2.0 * penalty * (errors[i] - errors[j]) * (grads[i] - grads[j])
    return out


def factor_problem(ys, penalty):
    """(values, gradient) of the fair-factor objective."""
    grams = [y.T @ y for y in ys]
    sq = np.array([float((y * y).sum()) for y in ys])
    rows = np.array([len(y) for y in ys], dtype=float)

    def values(V):
        quad = np.stack([((V @ G) * V).sum(axis=1) for G in grams], axis=1)
        return _penalized((sq - quad) / rows, rows, penalty)

    def gradient(v):
        gv = [G @ v for G in grams]
        errors = (sq - np.array([float(v @ x) for x in gv])) / rows
        return _penalized_gradient(errors, [-2.0 * x / t for x, t in zip(gv, rows)], rows, penalty)

    return values, gradient


def taylor_problem(ys, intercepts, weights, penalty):
    """(values, gradient) of the annuity taylor objective.

    `weights` are the (T, width, N) EPV weight stacks at the observed rates.
    Only the band of each W_t that can be nonzero enters: row i spans
    columns i .. i + term - 2.
    """
    m_obs = [np.clip(np.exp(y + a), 0.0, 1.0) for y, a in zip(ys, intercepts)]
    width = weights[0].shape[1]
    depth = max(weights[0].shape[2] - width + 1, 0)  # term - 1 band diagonals
    idx = np.arange(width)[:, None] + np.arange(depth)[None, :]
    # diagonal j of every W_t's band, as (depth, T, width) contiguous blocks
    bands = [np.ascontiguousarray(W[:, np.arange(width)[:, None], idx].transpose(2, 0, 1)) for W in weights]
    rows = np.array([len(y) for y in ys], dtype=float)

    def weighted(e, band):
        """W_t e_t for every row t of e (..., T, N), through the band."""
        out = band[0] * e[..., 0:width]
        for j in range(1, depth):
            out += band[j] * e[..., j : j + width]
        return out

    def values(V):
        errors = []
        for y, a, m, band, t in zip(ys, intercepts, m_obs, bands, rows):
            scores = V @ y.T  # (B, T)
            e = np.exp(scores[:, :, None] * V[:, None, :] + a) - m
            errors.append((weighted(e, band) ** 2).sum(axis=(1, 2)) / t)
        return _penalized(np.stack(errors, axis=1), rows, penalty)

    def gradient(v):
        errors, grads = [], []
        for y, a, m, band, t in zip(ys, intercepts, m_obs, bands, rows):
            yv = y @ v
            m_recon = np.exp(np.outer(yv, v) + a)
            we = weighted(m_recon - m, band)
            u = np.zeros_like(m_recon)  # W^T W e through the band
            for j in range(depth):
                u[:, j : j + width] += band[j] * we
            z = m_recon * u
            errors.append(float((we * we).sum()) / t)
            grads.append((2.0 / t) * (y.T @ (z @ v) + z.T @ yv))
        return _penalized_gradient(np.array(errors), grads, rows, penalty)

    return values, gradient


def descend(problem, v, iterations):
    """The paper's grid-search gradient descent from unit vector v.

    Runs `iterations` steps, or until no grid step improves the objective,
    or until the objective stagnates; returns the final unit vector.
    """
    values, gradient = problem
    v = v / np.linalg.norm(v)
    current = float(values(v[None])[0])
    stagnant = 0
    for _ in range(iterations):
        grad = gradient(v)
        norm = float(np.linalg.norm(grad))
        if norm == 0.0:
            break
        # L - eta * grad_L with eta = c * ||L|| / ||grad_L|| is sqrt(N) (v - c * grad / ||grad||)
        candidates = v[None] - GRID[:, None] * (grad / norm)[None]
        candidates /= np.linalg.norm(candidates, axis=1, keepdims=True)
        scores = values(candidates)
        scores = np.where(np.isfinite(scores), scores, np.inf)
        best = int(np.argmin(scores))
        if scores[best] > current + IMPROVEMENT_TOL:
            break
        stagnant = stagnant + 1 if current - scores[best] < STAGNATION_TOL else 0
        v, current = candidates[best], float(scores[best])
        if stagnant >= STAGNATION_LIMIT:
            break
    return v
