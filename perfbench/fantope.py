"""Certified lower bound on the fair-factor objective, in numpy alone.

With P = L L^T / N, group k's reconstruction error is
e_k = (||Y_k||^2 - <Y_k^T Y_k, P>) / T_k, linear in P. The penalized
objective sum_k (T_k / T) e_k + lambda * sum_{k<k'} (e_k - e_k')^2 is then
convex in P, and its minimum over the Fantope {0 <= P <= I, tr P = r}
bounds the rank-r optimum from below. Frank-Wolfe solves the relaxation;
its duality gap turns every iterate into a valid bound (Jaggi 2013). The
benchmark fails a run in which a fair-factor fit reports an objective below
this bound.
"""

import numpy as np


def lower_bound(panels: list[np.ndarray], r: int, penalty: float, iterations: int = 1000) -> float:
    grams = np.stack([y.T @ y for y in panels])
    sq = np.array([float((y * y).sum()) for y in panels])
    rows = np.array([y.shape[0] for y in panels], dtype=float)
    weights = rows / rows.sum()
    K = len(panels)
    pairs = [(i, j) for i in range(K) for j in range(i + 1, K)]

    def errors(P):
        return (sq - np.einsum("kij,ij->k", grams, P)) / rows

    def objective(e):
        return float(weights @ e) + penalty * sum((e[i] - e[j]) ** 2 for i, j in pairs)

    def top_projector(S):
        _, vectors = np.linalg.eigh(S)
        return vectors[:, -r:] @ vectors[:, -r:].T

    P = top_projector(grams.sum(axis=0))
    best = -np.inf
    for _ in range(iterations):
        e = errors(P)
        coef = weights.copy()  # d objective / d e_k
        for i, j in pairs:
            coef[i] += 2.0 * penalty * (e[i] - e[j])
            coef[j] -= 2.0 * penalty * (e[i] - e[j])
        grad = -np.einsum("k,kij->ij", coef / rows, grams)
        S = top_projector(-grad)
        gap = float((grad * (P - S)).sum())
        best = max(best, objective(e) - gap)
        if gap <= 1e-12 * max(1.0, abs(best)):
            break
        # exact line search: the objective is quadratic along S - P
        de = -np.einsum("kij,ij->k", grams, S - P) / rows
        a = penalty * sum((de[i] - de[j]) ** 2 for i, j in pairs)
        b = float(weights @ de) + 2.0 * penalty * sum((e[i] - e[j]) * (de[i] - de[j]) for i, j in pairs)
        step = 1.0 if a <= 0.0 else min(1.0, max(0.0, -b / (2.0 * a)))
        P = P + step * (S - P)
    return best
