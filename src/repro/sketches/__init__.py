"""Quantile-sketch substrate used by the Appendix A baselines.

The appendix reduces the message size of the buffer-doubling algorithm by
compacting buffers the way streaming quantile sketches do: sort the buffer
and keep every second element, doubling the weight of the survivors.  This
subpackage implements that compactor and weighted rank queries over the
compacted buffer.
"""

from repro.sketches.compactor import CompactingBuffer, compact

__all__ = ["CompactingBuffer", "compact"]
