"""Change arrays (Procedure 1 of the paper).

After a group manager solves a border graph it knows, for some labels
``alpha``, a new label ``beta``.  Procedure 1 turns the raw ``(alpha,
beta)`` pairs into a *sorted array of unique change pairs*: copy the
changed pairs into a contiguous array, radix sort by ``alpha``, and
scan out duplicates.  Clients later binary-search this array to update
their border pixels: the ``relabel`` kernel of :mod:`repro.kernels`.

The array structure "is actually two contiguous arrays, one holding the
obsolete labels (alphas) and the other the corresponding new labels
(betas)" -- mirrored by :class:`ChangeArray`'s two parallel vectors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.sorting.hybrid import hybrid_argsort
from repro.utils.errors import ValidationError


@dataclass
class ChangeArray:
    """Sorted unique label changes: ``alphas[i] -> betas[i]``."""

    alphas: np.ndarray
    betas: np.ndarray

    def __post_init__(self) -> None:
        self.alphas = np.asarray(self.alphas, dtype=np.int64)
        self.betas = np.asarray(self.betas, dtype=np.int64)
        if self.alphas.shape != self.betas.shape or self.alphas.ndim != 1:
            raise ValidationError("alphas and betas must be equal-length vectors")

    def __len__(self) -> int:
        return len(self.alphas)

    @staticmethod
    def empty() -> "ChangeArray":
        z = np.empty(0, dtype=np.int64)
        return ChangeArray(z, z)

    def to_words(self) -> np.ndarray:
        """Serialize as ``[alphas | betas]`` for shipping over the network."""
        return np.concatenate([self.alphas, self.betas])

    @staticmethod
    def from_words(words: np.ndarray) -> "ChangeArray":
        words = np.asarray(words, dtype=np.int64)
        if len(words) % 2 != 0:
            raise ValidationError("serialized change array must have even length")
        half = len(words) // 2
        return ChangeArray(words[:half], words[half:])


def create_change_array(old_labels: np.ndarray, new_labels: np.ndarray) -> ChangeArray:
    """Procedure 1: sorted unique ``(alpha, beta)`` pairs where labels changed.

    Parameters
    ----------
    old_labels, new_labels:
        Parallel arrays of per-vertex labels before/after the border
        graph solve.  Pairs with ``old == new`` are dropped (Step 1),
        the rest are sorted by ``alpha`` (Step 2) and deduplicated
        (Step 3).
    """
    old_labels = np.asarray(old_labels, dtype=np.int64)
    new_labels = np.asarray(new_labels, dtype=np.int64)
    if old_labels.shape != new_labels.shape:
        raise ValidationError("old/new label arrays must have equal shape")
    changed = old_labels != new_labels
    alphas = old_labels[changed]
    betas = new_labels[changed]
    if alphas.size == 0:
        return ChangeArray.empty()
    order = hybrid_argsort(alphas)
    alphas = alphas[order]
    betas = betas[order]
    keep = np.ones(len(alphas), dtype=bool)
    keep[1:] = alphas[1:] != alphas[:-1]
    alphas = alphas[keep]
    betas = betas[keep]
    # Consistency: a label must map to a single new label.  Procedure 1
    # assumes the solver produced consistent pairs; verify cheaply when
    # duplicates were dropped.
    if len(alphas) != int(changed.sum()):
        all_alphas = old_labels[changed][order]
        all_betas = new_labels[changed][order]
        same_alpha = all_alphas[1:] == all_alphas[:-1]
        if (same_alpha & (all_betas[1:] != all_betas[:-1])).any():
            raise ValidationError("inconsistent change pairs: one alpha, two betas")
    return ChangeArray(alphas, betas)

