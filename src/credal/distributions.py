"""Probability vectors over finite spaces and the basic operations on them.

Includes constructors for members of the built-in one-parameter families
(binomial coin pairs, the two-branch biased die, the independence-constrained
square family); ``sets`` describes the families by their atom polynomials.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import (
    NegativeMassError,
    NotFactorizedError,
    NotNormalizedError,
    ParamRangeError,
    SpaceMismatchError,
    UnknownVariableError,
    WeightInvalidError,
    ZeroEvidenceError,
)
from .spaces import Event, OutcomeSpace, _check_tosses, coin_space, product_space, simple_space
from .tolerances import TAU_NORM, TAU_ZERO

DIE_BRANCHES = ("favor-2", "favor-1")


@dataclass(frozen=True, eq=False)
class Distribution:
    """A probability vector over a space, immutable after construction.

    ``is_normalized`` records whether the entries sum to 1 within
    TAU_NORM. Verbatim copies of rounded printed tables may undersum;
    they can only be built through ``make_distribution`` with
    ``require_normalized=False`` and carry the flag.
    """

    space: OutcomeSpace
    probs: np.ndarray
    is_normalized: bool = field(default=True, compare=False)

    def __post_init__(self):
        arr = np.asarray(self.probs, dtype=float)
        if arr.shape != (self.space.size,):
            raise ValueError(
                f"expected {self.space.size} probabilities, got shape {arr.shape}"
            )
        arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "probs", arr)

    @classmethod
    def _taking(cls, space: OutcomeSpace, probs: np.ndarray, is_normalized: bool) -> Distribution:
        """A Distribution holding probs, a float array of one entry per atom
        that the library has just validated and keeps no other writable
        reference to: made read-only in place, not copied."""
        probs.flags.writeable = False
        out = cls.__new__(cls)
        object.__setattr__(out, "space", space)
        object.__setattr__(out, "probs", probs)
        object.__setattr__(out, "is_normalized", is_normalized)
        return out

    def prob(self, atom: str) -> float:
        return float(self.probs[self.space.index(atom)])

    def p(self, event: Event) -> float:
        """Total probability of an event."""
        if event.space != self.space:
            raise SpaceMismatchError("event is over a different space")
        return float(self.probs[list(event.indices)].sum())

    def tensor(self) -> np.ndarray:
        """Probabilities reshaped to one axis per variable."""
        return self.probs.reshape(self.space.tensor_shape())

    def total(self) -> float:
        return float(self.probs.sum())

    def allclose(self, other: "Distribution", tol: float = 1e-12) -> bool:
        return self.space == other.space and bool(
            np.all(np.abs(self.probs - other.probs) <= tol)
        )


def make_distribution(
    space: OutcomeSpace, probs, require_normalized: bool = True
) -> Distribution:
    """Validate a probability vector and wrap it.

    Raises ValueError for a vector of the wrong shape or with a NaN or
    infinite entry, NegativeMassError for entries below -TAU_NORM and
    NotNormalizedError when an entry exceeds 1 + TAU_NORM or (unless
    ``require_normalized=False``) the sum differs from 1 by more than
    TAU_NORM. The vector is copied.
    """
    return _taking_validated(space, np.array(probs, dtype=float), require_normalized)


def _taking_validated(space: OutcomeSpace, arr: np.ndarray, require_normalized: bool = True) -> Distribution:
    """``make_distribution`` on arr, a float array that the library has just
    built and keeps no other reference to, which is kept without a copy."""
    if arr.shape != (space.size,):
        raise ValueError(f"expected {space.size} probabilities, got shape {arr.shape}")
    least, largest = float(arr.min()), float(arr.max())  # non-finite if any entry is
    if not (math.isfinite(least) and math.isfinite(largest)):
        raise ValueError("probabilities must be finite")
    if least < -TAU_NORM:
        raise NegativeMassError(f"negative probability {least}")
    if largest > 1.0 + TAU_NORM:
        raise NotNormalizedError(f"probability above 1: {largest}")
    total = float(arr.sum())  # after the checks: no overflow on 1e308 entries
    normalized = abs(total - 1.0) <= TAU_NORM
    if require_normalized and not normalized:
        raise NotNormalizedError(f"probabilities sum to {total}, expected 1")
    return Distribution._taking(space, arr, normalized)


def mixture(weights, dists: list[Distribution]) -> Distribution:
    """Pointwise convex combination of distributions on a common space."""
    w = np.asarray(weights, dtype=float)
    if len(dists) == 0 or w.shape != (len(dists),):
        raise WeightInvalidError("one weight per distribution required")
    if np.any(w < -TAU_NORM) or abs(float(w.sum()) - 1.0) > TAU_NORM:
        raise WeightInvalidError(
            f"weights must be nonnegative and sum to 1, got {w.tolist()}"
        )
    space = dists[0].space
    for d in dists[1:]:
        if d.space != space:
            raise SpaceMismatchError("mixture components live on different spaces")
    combined = np.zeros(space.size)
    for wi, d in zip(w, dists):
        combined += wi * d.probs
    return _taking_validated(space, combined, all(d.is_normalized for d in dists))


def marginalize(d: Distribution, keep_vars) -> Distribution:
    """Sum out all variables not in ``keep_vars``.

    The output space is the product of the kept variables in the
    original variable order; keeping every variable returns an equal
    distribution on the same space.
    """
    if not d.space.is_factorized:
        raise NotFactorizedError("marginalization needs a factorized space")
    keep = list(keep_vars)
    names = [v.name for v in d.space.variables]
    for k in keep:
        if k not in names:
            raise UnknownVariableError(f"unknown variable {k!r}")
    keep_axes = sorted(set(names.index(k) for k in keep))
    if len(keep_axes) != len(keep):
        raise UnknownVariableError("duplicate variable in keep set")
    if len(keep_axes) == len(names):
        return Distribution._taking(d.space, d.probs, d.is_normalized)
    drop_axes = tuple(i for i in range(len(names)) if i not in keep_axes)
    summed = d.tensor().sum(axis=drop_axes)
    new_space = product_space(*(d.space.variables[i] for i in keep_axes))
    return make_distribution(
        new_space, summed.ravel(), require_normalized=d.is_normalized
    )


def condition_distribution(d: Distribution, e: Event) -> Distribution:
    """Bayes' rule: renormalize on the event, zero elsewhere."""
    if e.space != d.space:
        raise SpaceMismatchError("event is over a different space")
    keep, rows = _bayes_rows(d.probs[None, :], e)
    if not keep[0]:
        raise ZeroEvidenceError(f"event probability {d.p(e)} is at or below {TAU_ZERO}")
    return make_distribution(d.space, rows[0])


def _bayes_rows(M: np.ndarray, e: Event):
    """Bayes' rule on members as the rows of M: the mask of rows whose
    event probability exceeds TAU_ZERO, and those rows renormalized on the
    event, zero elsewhere."""
    idx = list(e.indices)
    pe = M[:, idx].sum(axis=1)
    keep = pe > TAU_ZERO
    out = np.zeros_like(M[keep])
    out[:, idx] = M[keep][:, idx] / pe[keep][:, None]
    return keep, out


def iid_coin(p_heads: float, n_tosses: int) -> Distribution:
    """Product distribution of n independent tosses with P(H) = p_heads."""
    if not 0.0 <= p_heads <= 1.0:
        raise ParamRangeError(f"p_heads must be in [0, 1], got {p_heads}")
    if n_tosses < 1:
        raise ParamRangeError("n_tosses must be >= 1")
    space = coin_space(n_tosses)
    per_toss = np.array([p_heads, 1.0 - p_heads])
    probs = per_toss
    for _ in range(n_tosses - 1):
        probs = np.multiply.outer(probs, per_toss).ravel()
    return make_distribution(space, probs)


def die_space() -> OutcomeSpace:
    return simple_space("1", "2", "3", "4", "5", "6")


DIE_EPS_MAX = 1.0 / 48.0
# the eps values a die member may take, with TAU_ZERO of slack at each end
DIE_EPS_DOMAIN = (-DIE_EPS_MAX - TAU_ZERO, DIE_EPS_MAX + TAU_ZERO)
# face probabilities as ascending coefficients in eps, per branch
_DIE_POLYS = {
    "favor-2": np.array([[1 / 12, 1.0], [3 / 12, -1.0]] + [[1 / 6, 0.0]] * 4),
    "favor-1": np.array([[3 / 12, -1.0], [1 / 12, 1.0]] + [[1 / 6, 0.0]] * 4),
}


def die_atom_polys(branch: str) -> np.ndarray:
    """Face probabilities of one die branch as polynomials in eps in
    [-1/48, 1/48]: branch "favor-2" puts (1/12 + eps, 3/12 - eps) on faces
    (1, 2), branch "favor-1" swaps them, faces 3..6 carry 1/6 each."""
    if branch not in DIE_BRANCHES:
        raise ParamRangeError(f"branch must be one of {DIE_BRANCHES}, got {branch!r}")
    return _DIE_POLYS[branch]


def die_bias(eps: float, branch: str = "favor-2") -> Distribution:
    """The member of one die branch (see ``die_atom_polys``) at eps."""
    polys = die_atom_polys(branch)
    if not DIE_EPS_DOMAIN[0] <= eps <= DIE_EPS_DOMAIN[1]:
        raise ParamRangeError(f"eps must be within [-1/48, 1/48], got {eps}")
    return make_distribution(die_space(), polys[:, 0] + polys[:, 1] * eps)


def independent_square(w: float) -> Distribution:
    """The two-toss distribution with P(HH) = w under independent tosses.

    Equals iid_coin(sqrt(w), 2); the HH entry is kept exactly equal to w.
    """
    if not 0.0 <= w <= 1.0:
        raise ParamRangeError(f"w must be in [0, 1], got {w}")
    s = math.sqrt(w)
    probs = np.array([w, s - w, s - w, (1.0 - s) ** 2])
    return make_distribution(coin_space(2), probs)


@lru_cache(maxsize=16)
def coin_atom_polys(n_tosses: int) -> np.ndarray:
    """Atom probabilities of the n-toss iid coin as polynomials in P(H).

    Row j holds the ascending coefficients of theta^h (1 - theta)^(n - h),
    h the number of heads in atom j, expanded by the binomial theorem.
    Built once per n_tosses; the array is read-only and shared.
    """
    _check_tosses(n_tosses)
    n = n_tosses
    by_heads = np.zeros((n + 1, n + 1))
    for h in range(n + 1):
        for i in range(n - h + 1):
            by_heads[h, h + i] = math.comb(n - h, i) * (-1) ** i
    # bit 0 of the atom index toggles the last toss; H is the 0 bit
    heads = [n - bin(j).count("1") for j in range(2**n)]
    out = by_heads[heads]
    out.flags.writeable = False
    return out
