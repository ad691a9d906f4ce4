"""Decision transforms: the identity and annuity-due pricing.

The annuity-due expected present value for a start age index i is

    p_i(m) = sum_{s=0}^{n-1} v^s * prod_{k=0}^{s-1} (1 - m[i+k]),

one payment per period starting now (the s = 0 term is the certain unit
payment), discounted by v per year and survived through the listed death
rates. A term of n needs rates at ages i .. i+n-2 only. Every pricing
function clips its rates into [0, 1] first.
"""

from dataclasses import dataclass, fields
from typing import Mapping

import numpy as np

from .dataset import GroupedPanel
from .factor import Loading, group_errors
from .linalg import _is_integer

__all__ = [
    "DecisionTransform",
    "identity_transform",
    "annuity_transform_for",
    "epv_width",
    "epv_annuity",
    "epv_matrix",
    "epv_weights",
    "epv_weight_bands",
    "epv_weights_stack",
    "apply_transform",
    "decision_errors",
]

ANNUITY_MODES = ("taylor", "exact")


@dataclass(frozen=True)
class DecisionTransform:
    """Specification of the decision map g applied to reconstructions.

    kind "identity" leaves values alone and keeps every other field at its
    default; "annuity" prices an annuity-due of `term` yearly payments at
    discount factor `discount` on rates exp(y + intercept[group]).
    annuity_mode picks the optimization path: "taylor" freezes the derivative
    weights at the observed rates, "exact" re-prices at every evaluation.
    An annuity transform keeps float copies of its intercepts and discount.
    """

    kind: str
    term: int = 0
    discount: float = 1.0
    intercepts: Mapping[str, np.ndarray] | None = None
    annuity_mode: str = "taylor"

    def __post_init__(self):
        if self.kind not in ("identity", "annuity"):
            raise ValueError(f"unknown transform kind {self.kind!r}")
        if self.kind == "annuity":
            if not (_is_integer(self.term) and self.term >= 1):
                raise ValueError(f"annuity term must be an integer of at least 1, got {self.term!r}")
            object.__setattr__(self, "discount", float(self.discount))
            _check_discount(self.discount)
            if self.intercepts is None:
                raise ValueError("annuity transform needs per-group intercepts")
            if self.annuity_mode not in ANNUITY_MODES:
                raise ValueError(f"unknown annuity mode {self.annuity_mode!r}")
            frozen = {g: np.array(a, dtype=float) for g, a in self.intercepts.items()}
            object.__setattr__(self, "intercepts", frozen)
        else:  # the identity ignores every annuity setting, so one that is set is an error
            for f in fields(self)[1:]:
                value = getattr(self, f.name)
                if value is not f.default and (f.default is None or value != f.default):
                    raise ValueError(f"an identity transform takes no {f.name}, got {value!r}")

    def intercept_for(self, group: str) -> np.ndarray:
        assert self.intercepts is not None
        try:
            return self.intercepts[group]
        except KeyError:
            raise KeyError(f"annuity transform has no intercept for group {group!r}") from None


def identity_transform() -> DecisionTransform:
    return DecisionTransform(kind="identity")


def annuity_transform_for(data: GroupedPanel, term: int, discount: float, annuity_mode: str = "taylor") -> DecisionTransform:
    """Annuity transform carrying the panels' own intercepts."""
    if term > data.n_ages:
        raise ValueError(f"term {term} exceeds the {data.n_ages} available ages")
    return DecisionTransform("annuity", term, discount, {p.group: p.intercept for p in data.panels}, annuity_mode)


def _check_discount(v: float) -> None:
    if not 0.0 < v <= 1.0:  # False for NaN too
        raise ValueError(f"discount factor must lie in (0, 1], got {v!r}")


def epv_width(N: int, n: int) -> int:
    """Number of priceable start ages: N - n + 2, except the full N when n = 1."""
    if not (_is_integer(n) and 1 <= n <= N):
        raise ValueError(f"term n={n!r} is not an integer in [1, {N}]")
    return N if n == 1 else N - n + 2


def epv_annuity(m: np.ndarray, i: int, n: int, v: float) -> float:
    """EPV of an n-payment annuity-due starting at age index i (0-based)."""
    m = np.clip(np.asarray(m, dtype=float), 0.0, 1.0)
    width = epv_width(len(m), n)
    if not 0 <= i < width:
        raise ValueError(f"start index {i} out of range [0, {width - 1}]")
    _check_discount(v)
    total = 1.0  # certain payment now
    survival = 1.0
    for s in range(1, n):
        survival *= 1.0 - m[i + s - 1]
        total += (v**s) * survival
    return total


def epv_matrix(M: np.ndarray, n: int, v: float) -> np.ndarray:
    """Row-wise EPVs for a (..., T, N) rate array; output is (..., T, epv_width(N, n))."""
    _check_discount(v)
    Q = 1.0 - np.clip(np.atleast_2d(np.asarray(M, dtype=float)), 0.0, 1.0)
    width = epv_width(Q.shape[-1], n)
    out = np.ones(Q.shape[:-1] + (width,))
    survival = np.ones_like(out)
    for s in range(1, n):
        survival = survival * Q[..., s - 1 : s - 1 + width]
        out += (v**s) * survival
    return out


def epv_weights(m: np.ndarray, n: int, v: float) -> np.ndarray:
    """Gradient rows of the EPV map: W[i, j] = d p_i / d m_j, banded in j."""
    m = np.asarray(m, dtype=float)
    return epv_weights_stack(m[None, :], n, v)[0]


def epv_weight_bands(M: np.ndarray, n: int, v: float) -> np.ndarray:
    """The nonzero band of every row's weight matrix: (T, width, n - 1).

    bands[t, i, j] = d p_i / d m_{i+j} at the rates of row t; row i of the
    weight matrix is zero outside columns i .. i+n-2.
    """
    _check_discount(v)
    Q = 1.0 - np.clip(np.atleast_2d(np.asarray(M, dtype=float)), 0.0, 1.0)
    T, N = Q.shape
    width = epv_width(N, n)
    bands = np.zeros((T, width, max(n - 1, 0)))
    prefix = np.ones((T, width))  # prod of q over ages i .. i+j-1
    for j in range(n - 1):
        tail = np.ones((T, width))  # prod of q over ages i+j+1 .. i+s-1
        acc = np.zeros((T, width))
        for s in range(j + 1, n):
            acc += (v**s) * prefix * tail
            if s < n - 1:
                tail = tail * Q[:, s : s + width]
        bands[:, :, j] = -acc
        prefix = prefix * Q[:, j : j + width]
    return bands


def epv_weights_stack(M: np.ndarray, n: int, v: float) -> np.ndarray:
    """Weight matrices for every row of a (T, N) rate matrix: (T, width, N)."""
    bands = epv_weight_bands(M, n, v)
    T, width, depth = bands.shape
    W = np.zeros((T, width, np.shape(M)[-1]))
    idx = np.arange(width)
    for j in range(depth):
        W[:, idx, idx + j] = bands[:, :, j]
    return W


def apply_transform(g: DecisionTransform, group: str, y_block: np.ndarray) -> np.ndarray:
    """Apply g to a (..., T', N) block of centered log values for one group."""
    y_block = np.atleast_2d(np.asarray(y_block, dtype=float))
    if g.kind == "identity":
        return y_block
    rates = np.exp(y_block + g.intercept_for(group))
    return epv_matrix(rates, g.term, g.discount)


def decision_errors(data: GroupedPanel, loading: Loading, g: DecisionTransform) -> np.ndarray:
    """Per-group decision errors (1/T_k) * ||g(recon_k) - g(Y_k)||_F^2.

    For the identity these are the reconstruction errors, computed by
    factor.group_errors.
    """
    if g.kind == "identity":
        return group_errors(data, loading)
    P = loading.projector()
    errors = []
    for p in data.panels:
        diff = apply_transform(g, p.group, p.y @ P) - apply_transform(g, p.group, p.y)
        errors.append(float((diff * diff).sum() / p.n_years))
    return np.array(errors)
