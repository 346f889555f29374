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


def _row_losses(x_rows, xhat_rows, p: float) -> List[float]:
    """:func:`p_norm_loss` of each pair of rows, a pair listing the same keys in one order.
    Python's float ``**``, not numpy's: the two differ in the last bit for some values."""
    if not (p > 0 and math.isfinite(p)):
        raise ValueError("p must be finite and positive")
    pairs = zip(x_rows, xhat_rows)
    return [0.5 * math.fsum(abs(a - b) ** p for a, b in zip(x, xhat)) ** (1.0 / p) for x, xhat in pairs]


def p_norm_loss(x: Mapping[Index, float], xhat: Mapping[Index, float], p: float) -> float:
    """(1/2) * (sum_i |x_i - xhat_i|^p)^(1/p) over the union of supports."""
    keys = set(x) | set(xhat)
    [loss] = _row_losses([[x.get(k, 0.0) for k in keys]], [[xhat.get(k, 0.0) for k in keys]], p)
    return loss


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
    label distribution.  Each state is one batched :meth:`Model.predict_at_dims`
    call over the validation set, on the state published when the search
    starts; the previous state's prediction stands wherever the estimate
    degenerates to zero.  Value ties between extensions go to the lowest
    dimension ordinal; the search stops at the full set or when no extension
    improves the current value.  A query or label outside the vocabulary raises ShapeError.
    """
    if not validation:
        raise InvalidRecordError("validation set is empty")
    state = model._state
    queries = model._prepare(validation, state)  # once: every predict_at_dims call keeps them
    sizes = [len(dim) for dim in model.vocab.target_dims]
    truths: List[Dict[Index, float]] = []
    for n, obs in enumerate(validation):
        if len(obs.label_weights) != len(sizes) or any(
            not 0 <= i < size for labels, size in zip(obs.label_weights, sizes) for i in labels
        ):
            raise ShapeError(f"validation record {n} has a label outside the vocabulary")
        dist = obs.target_distribution()
        if not dist:
            raise InvalidRecordError(f"validation record {n} has no labels")
        truths.append(dist)
    all_dims = frozenset(range(model.n_feature_dims))
    # rows over the published targets, then the validation's others: exact zeros in predictions
    targets = list(dict.fromkeys([*state.marginal[0], *(t for dist in truths for t in dist)]))
    pad = [0.0] * (len(targets) - len(state.prior))

    def mean_value(rows: Sequence[List[float]]) -> float:
        losses = _row_losses(rows, truth_rows, loss_p)
        return -math.fsum(losses) / len(losses)

    truth_rows = [[truth.get(t, 0.0) for t in targets] for truth in truths]
    current: FrozenSet[int] = frozenset()
    current_rows = [state.prior + pad] * len(queries)
    current_value = mean_value(current_rows)
    report = PolicySearchReport(loss_p=loss_p)
    report.path.append(((), current_value))
    report.explored.append(((), current_value))
    chain: List[FrozenSet[int]] = [current]

    while current != all_dims:
        best_dim = best_value = best_rows = None
        for d in sorted(all_dims - current):
            dims = current | {d}
            dists = model.predict_at_dims(queries, dims, state)
            rows = [held if dist is None else dist + pad for dist, held in zip(dists, current_rows)]
            value = mean_value(rows)
            report.explored.append((tuple(sorted(dims)), value))
            if best_value is None or value > best_value:
                best_dim, best_value, best_rows = d, value, rows
        if best_value is None or best_value <= current_value:
            break
        current = current | {best_dim}
        current_value = best_value
        current_rows = best_rows
        chain.append(current)
        report.path.append((tuple(sorted(current)), current_value))

    return Policy.from_chain(chain, len(all_dims)), report
