"""Linear opinion pools and their two signature behaviors: pooling
commutes with marginalization (exactly, by linearity) but does not
preserve independence judgments shared by the experts.

Includes the canned celebrity-residence scenario: two experts publish
joints over residence x extraterrestrial-status; pooling the joints with
weights (1, 0) keeps all of expert P's information, while pooling only
the residence marginals throws away what the second joint reveals about
expert Q.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .distributions import Distribution, make_distribution, marginalize, mixture
from .errors import NotFactorizedError, PreconditionUnmetError, SpaceMismatchError
from .inference import IndependenceReport, _independence
from .spaces import OutcomeSpace, Variable, product_space
from .tolerances import TAU_NORM


@dataclass(frozen=True, eq=False)
class PoolingProblem:
    """Named expert distributions over a common space, with pool weights."""

    experts: tuple[tuple[str, Distribution], ...]
    weights: np.ndarray

    def __post_init__(self):
        if not self.experts:
            raise ValueError("at least one expert required")
        w = np.asarray(self.weights, dtype=float).copy()
        if w.shape != (len(self.experts),):
            raise ValueError("one weight per expert required")
        if np.any(w < -TAU_NORM) or abs(float(w.sum()) - 1.0) > TAU_NORM:
            raise ValueError("weights must be nonnegative and sum to 1")
        space = self.experts[0][1].space
        for _, d in self.experts[1:]:
            if d.space != space:
                raise SpaceMismatchError("experts are over different spaces")
        w.flags.writeable = False
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "experts", tuple(self.experts))

    @property
    def space(self) -> OutcomeSpace:
        return self.experts[0][1].space

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.experts)

    @property
    def distributions(self) -> list[Distribution]:
        return [d for _, d in self.experts]


def linear_pool(prob: PoolingProblem) -> Distribution:
    """Weighted average of the experts."""
    return mixture(prob.weights, prob.distributions)


@dataclass(frozen=True)
class CommutationReport:
    max_deviation: float
    pool_then_marginalize: Distribution
    marginalize_then_pool: Distribution


def marginalization_commutes(prob: PoolingProblem, keep_vars) -> CommutationReport:
    """Componentwise gap between pool-then-marginalize and
    marginalize-then-pool (zero for linear pools up to rounding)."""
    if not prob.space.is_factorized:
        raise NotFactorizedError("marginalization needs a factorized space")
    pooled_first = marginalize(linear_pool(prob), keep_vars)
    marged = [marginalize(d, keep_vars) for d in prob.distributions]
    pooled_second = mixture(prob.weights, marged)
    gap = float(np.abs(pooled_first.probs - pooled_second.probs).max())
    return CommutationReport(gap, pooled_first, pooled_second)


@dataclass(frozen=True)
class PooledIndependenceReport:
    pooled: Distribution
    check: IndependenceReport

    @property
    def preserved(self) -> bool:
        return self.check.passed


def independence_preserved(
    prob: PoolingProblem, x: str, z: str, given: str | None = None, tol: float = 1e-9
) -> PooledIndependenceReport:
    """Does the pool keep an independence judgment every expert makes?

    Each expert must individually pass the same check at tol; offenders
    are named in the PreconditionUnmetError otherwise. With no ``given``
    the check is pairwise: conditional on one value, the whole space.
    """
    offenders = [name for name, d in prob.experts if not _independence(d, x, z, given, tol).passed]
    if offenders:
        err = PreconditionUnmetError(
            f"experts do not satisfy the independence premise: {', '.join(offenders)}"
        )
        err.offenders = tuple(offenders)
        raise err
    pooled = linear_pool(prob)
    return PooledIndependenceReport(pooled, _independence(pooled, x, z, given, tol))


def total_variation(a: Distribution, b: Distribution) -> float:
    if a.space != b.space:
        raise SpaceMismatchError("distributions are over different spaces")
    return 0.5 * float(np.abs(a.probs - b.probs).sum())


def residence_space() -> OutcomeSpace:
    return product_space(
        Variable("residence", ("NJ", "CA")),
        Variable("extraterrestrial", ("yes", "no")),
    )


def nixon_scenario() -> PoolingProblem:
    """The two expert joints of the celebrity-residence story, weighted
    (1, 0): expert P rules out the extraterrestrial option, expert Q
    bets everything on it."""
    sp = residence_space()
    p_re = make_distribution(sp, [0.0, 0.85, 0.0, 0.15])  # NJ-yes NJ-no CA-yes CA-no
    q_re = make_distribution(sp, [0.9, 0.0, 0.1, 0.0])
    return PoolingProblem((("P", p_re), ("Q", q_re)), np.array([1.0, 0.0]))


def nixon_report(weights=None) -> dict:
    """Joints, residence marginals, pooled results, and the information
    lost by pooling marginals only (total variation as an illustrative
    closeness statistic)."""
    base = nixon_scenario()
    prob = base if weights is None else PoolingProblem(base.experts, np.asarray(weights, dtype=float))
    pooled_joint = linear_pool(prob)
    marginals = {
        name: marginalize(d, ["residence"]) for name, d in prob.experts
    }
    pooled_marginal = marginalize(pooled_joint, ["residence"])
    marg_pool = mixture(prob.weights, list(marginals.values()))
    names = prob.names
    return {
        "joints": dict(prob.experts),
        "marginals": marginals,
        "weights": prob.weights,
        "pooled_joint": pooled_joint,
        "pooled_marginal": pooled_marginal,
        "marginal_only_pool": marg_pool,
        "marginal_distance": total_variation(marginals[names[0]], marginals[names[1]]),
        "note": (
            "pooling the joints keeps information about each expert that "
            "pooling the residence marginals alone discards"
        ),
    }
