"""The paper's complexity expressions as executable predictions.

These closed forms let tests and the model-validation benchmark check
that the simulator's measured costs track the theory:

* transpose, eq. (1):  ``T_comm = tau + (q - q/p)``, ``T_comp = O(q)``;
* broadcast, eq. (2):  ``T_comm = 2 (tau + q - q/p)``;
* histogramming, eq. (3):  ``T_comm <= 2 (tau + k)``,
  ``T_comp = O(n^2/p + k)``;
* connected components, eq. (11)/(12):
  ``T_comm <= (4 log p) tau + O(n^2/p)`` (the paper writes the volume
  term as ``24 n + 2 p`` for ``p <= n``), ``T_comp = O(n^2/p)``.

Predictions are returned in simulated seconds for a given machine, with
the O(.) constants taken from the same
:class:`~repro.core.costs.CostParams` the algorithms charge, so
prediction vs. simulation agreement is a real invariant (tested), not a
tautology on hidden constants.
"""

from __future__ import annotations

import numpy as np

from repro.core.costs import CostParams, DEFAULT_COSTS
from repro.machines.params import MachineParams
from repro.utils.errors import ValidationError
from repro.utils.validation import check_power_of_two, ilog2


def _check_blocked(q: int, p: int) -> None:
    """The blocked transpose's shape: ``p`` a power of two dividing ``q``."""
    check_power_of_two("p", p)
    if q % p != 0:
        raise ValidationError(f"p={p} must divide q={q}")


def predict_transpose(params: MachineParams, q: int, p: int) -> dict[str, float]:
    """Equation (1) for the blocked ``q x p`` transpose."""
    _check_blocked(q, p)
    comm = params.latency_s + (q - q // p) * params.word_time_s()
    comp = params.copy_time_s(q)
    return {"comm_s": comm, "comp_s": comp, "total_s": comm + comp}


def predict_broadcast(params: MachineParams, q: int, p: int) -> dict[str, float]:
    """Equation (2) for broadcasting ``q`` words."""
    _check_blocked(q, p)
    comm = 2.0 * (params.latency_s + (q - q // p) * params.word_time_s())
    comp = params.copy_time_s(2 * q)
    return {"comm_s": comm, "comp_s": comp, "total_s": comm + comp}


def predict_histogram(
    params: MachineParams,
    n: int,
    k: int,
    p: int,
    costs: CostParams = DEFAULT_COSTS,
) -> dict[str, float]:
    """Equation (3): ``T_comm <= 2(tau + k)``, ``T_comp = O(n^2/p + k)``.

    The communication bound is independent of ``n`` -- the signature
    property the paper's Figure 11 demonstrates.
    """
    check_power_of_two("p", p)
    check_power_of_two("k", k)
    comm = 2.0 * (params.latency_s + k * params.word_time_s())
    tile = (n * n) / p
    comp = params.comp_time_s(costs.hist_tally_per_pixel * tile + 3.0 * k)
    return {"comm_s": comm, "comp_s": comp, "total_s": comm + comp}


def predict_components(
    params: MachineParams,
    n: int,
    p: int,
    costs: CostParams = DEFAULT_COSTS,
    *,
    grey: bool = False,
) -> dict[str, float]:
    """Equation (11)/(12): the parallel CC cost bound.

    ``T_comm <= (4 log p) tau + (24 n + 2 p) word-times``;
    ``T_comp = O(n^2/p)`` with the constant dominated by the initial
    labeling and final relabel charges.
    """
    check_power_of_two("p", p)
    log_p = ilog2(p) if p > 1 else 0
    comm = (4.0 * log_p) * params.latency_s + (24.0 * n + 2.0 * p) * params.word_time_s()
    tile = (n * n) / p
    per_pixel = (
        costs.label_per_pixel(grey)
        + costs.relabel_per_pixel
        + costs.hist_reduce_per_word  # loose slack for border work
    )
    # Border work is O(n) overall; include it so small tiles aren't
    # under-predicted.
    border = 24.0 * n * (costs.graph_build_per_vertex + costs.graph_cc_per_vertex)
    comp = params.comp_time_s(per_pixel * tile + border)
    return {"comm_s": comm, "comp_s": comp, "total_s": comm + comp}


def scalability_exponent(ns: np.ndarray, times_s: np.ndarray) -> float:
    """Least-squares slope of log(time) vs log(n).

    The histogramming and CC algorithms run as ``O(n^2/p)`` for fixed
    ``p``, so for large ``n`` this exponent approaches 2 -- the
    "quadratic performance as a function of n" the paper reports.
    """
    ns = np.asarray(ns, dtype=np.float64)
    times_s = np.asarray(times_s, dtype=np.float64)
    if ns.size != times_s.size or ns.size < 2:
        raise ValidationError("need at least two (n, time) samples")
    slope, _ = np.polyfit(np.log(ns), np.log(times_s), 1)
    return float(slope)
