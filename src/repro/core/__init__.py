"""The paper's primary contribution: parallel histogramming and
connected components on the Block Distributed Memory model.

Public entry points:

* :func:`~repro.core.histogram.parallel_histogram` -- Section 4.
* :func:`~repro.core.connected_components.parallel_components` --
  Sections 5 (binary) and 6 (grey-scale; pass ``grey=True``).
* :class:`~repro.core.tiles.ProcessorGrid` -- the logical ``v x w``
  processor grid and tile decomposition of Section 3.
"""

from repro.core.tiles import ProcessorGrid
from repro.core.costs import CostParams, DEFAULT_COSTS
from repro.core.histogram import parallel_histogram, HistogramResult
from repro.core.connected_components import parallel_components, ComponentsResult
from repro.core.merge import merge_schedule, MergeStep, MergeGroup
from repro.core.equalization import parallel_equalize, EqualizationResult, equalization_lut

__all__ = [
    "ProcessorGrid",
    "CostParams",
    "DEFAULT_COSTS",
    "parallel_histogram",
    "HistogramResult",
    "parallel_components",
    "ComponentsResult",
    "merge_schedule",
    "MergeStep",
    "MergeGroup",
    "parallel_equalize",
    "EqualizationResult",
    "equalization_lut",
]
