"""Fallback contraction policies and the greedy search that learns them.

A policy is the ordered list of feature-dimension sets to keep when a
prediction degenerates to all zeros: it starts at the full dimension set
(no contraction) and ends at the empty set (predict from the target
marginal alone).  The learner is a myopic agent: starting from the empty
set it greedily adds the dimension whose inclusion most improves the
average reward on a validation set, then returns the reversed chain.
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, FrozenSet, Iterable, List, Mapping, Sequence, Tuple

from .data import EncodedObservation
from .errors import InvalidRecordError, ShapeError

if TYPE_CHECKING:  # pragma: no cover
    from .model import Model

Index = Tuple[int, ...]


@dataclass(frozen=True)
class Policy:
    """Ordered keep-sets, strictly nested from the full set down to {}."""

    steps: Tuple[FrozenSet[int], ...]

    def __post_init__(self):
        if not self.steps:
            raise ValueError("policy needs at least one step")
        full = self.steps[0]
        if full != frozenset(range(len(full))):
            raise ValueError("policy must begin at the full dimension set 0..m-1")
        if self.steps[-1]:
            raise ValueError("policy must end at the empty set")
        for prev, cur in zip(self.steps, self.steps[1:]):
            if not cur < prev:
                raise ValueError("policy steps must be strictly nested descending")

    @property
    def n_dims(self) -> int:
        return len(self.steps[0])

    @classmethod
    def default(cls, n_dims: int) -> "Policy":
        """Drop one dimension per step, highest ordinal first."""
        if n_dims < 0:
            raise ShapeError("dimension count must be nonnegative")
        steps = [frozenset(range(k)) for k in range(n_dims, -1, -1)]
        return cls(tuple(steps))

    @classmethod
    def from_chain(cls, chain: Sequence[Iterable[int]], n_dims: int) -> "Policy":
        """Build from a visit chain (growing sets ending at or below the full set)."""
        steps = [frozenset(s) for s in reversed([frozenset(c) for c in chain])]
        full = frozenset(range(n_dims))
        if not steps or steps[0] != full:
            steps.insert(0, full)
        return cls(tuple(steps))

    def to_lists(self) -> List[List[int]]:
        return [sorted(s) for s in self.steps]

    @classmethod
    def from_lists(cls, lists: Sequence[Sequence[int]]) -> "Policy":
        """Build from lists of dimension ordinals; anything but an integer raises TypeError."""
        return cls(tuple(frozenset(map(operator.index, s)) for s in lists))


def p_norm_loss(x: Mapping[Index, float], xhat: Mapping[Index, float], p: float) -> float:
    """(1/2) * (sum_i |x_i - xhat_i|^p)^(1/p) over the union of supports."""
    if not p > 0:
        raise ValueError("p must be positive")
    keys = set(x) | set(xhat)
    total = math.fsum(abs(x.get(k, 0.0) - xhat.get(k, 0.0)) ** p for k in keys)
    return 0.5 * total ** (1.0 / p)


@dataclass
class PolicySearchReport:
    """Trace of the greedy policy search."""

    loss_p: float
    path: List[Tuple[Tuple[int, ...], float]] = field(default_factory=list)
    explored: List[Tuple[Tuple[int, ...], float]] = field(default_factory=list)

    def to_text(self) -> str:
        lines = [f"loss: p-norm with p={self.loss_p}"]
        lines.append("chosen path (state\tvalue):")
        for dims, value in self.path:
            lines.append("  {%s}\t%.12g" % (",".join(map(str, dims)), value))
        lines.append("explored states (state\tvalue):")
        for dims, value in self.explored:
            lines.append("  {%s}\t%.12g" % (",".join(map(str, dims)), value))
        return "\n".join(lines)


def learn_policy(
    model: "Model",
    validation: Sequence[EncodedObservation],
    loss_p: float = 2.0,
) -> Tuple[Policy, PolicySearchReport]:
    """Greedy forward search over dimension subsets, maximizing mean reward.

    Rewards are negative p-norm losses against each validation record's own
    label distribution.  States are evaluated by predicting with only the
    kept dimensions, substituting the previous state's prediction wherever
    the estimate degenerates to zero.  Value ties between extensions go to
    the lowest dimension ordinal; the search stops at the full set or when
    no extension improves the current value.
    """
    if not validation:
        raise InvalidRecordError("validation set is empty")
    # predict_at_dims checks only the dimension count; indices are checked once here
    truths: List[Dict[Index, float]] = []
    for n, obs in enumerate(validation):
        model._check_query(obs)
        dist = obs.target_distribution()
        if not dist:
            raise InvalidRecordError(f"validation record {n} has no labels")
        truths.append(dist)
    n_dims = model.n_feature_dims
    all_dims = frozenset(range(n_dims))

    def mean_value(preds: Sequence[Mapping[Index, float]]) -> float:
        losses = [p_norm_loss(pred, truth, loss_p) for pred, truth in zip(preds, truths)]
        return -math.fsum(losses) / len(losses)

    prior = model.target_prior()
    current: FrozenSet[int] = frozenset()
    current_preds: List[Mapping[Index, float]] = [prior] * len(validation)
    current_value = mean_value(current_preds)
    report = PolicySearchReport(loss_p=loss_p)
    report.path.append(((), current_value))
    report.explored.append(((), current_value))
    chain: List[FrozenSet[int]] = [current]

    while current != all_dims:
        best_dim = None
        best_value = None
        best_preds = None
        for d in sorted(all_dims - current):
            state = current | {d}
            preds = []
            for obs, fallback in zip(validation, current_preds):
                dist = model.predict_at_dims(obs, state)
                preds.append(dist if dist is not None else fallback)
            value = mean_value(preds)
            report.explored.append((tuple(sorted(state)), value))
            if best_value is None or value > best_value:
                best_dim, best_value, best_preds = d, value, preds
        if best_value is None or best_value <= current_value:
            break
        current = current | {best_dim}
        current_value = best_value
        current_preds = best_preds
        chain.append(current)
        report.path.append((tuple(sorted(current)), current_value))

    return Policy.from_chain(chain, n_dims), report
