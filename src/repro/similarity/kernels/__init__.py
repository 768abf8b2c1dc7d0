"""The similarity kernel: batch pair scoring over raw CSR arrays.

Every refresh (flat, sharded and process-backed) bottoms out in
``metric.score_batch``, which calls the one kernel,
:class:`~repro.similarity.kernels.numpy_backend.NumpyKernelBackend`.
It works on **raw CSR arrays**, the exact arrays
:meth:`ProfileIndex.to_shared_arrays
<repro.similarity.base.ProfileIndex.to_shared_arrays>` publishes into
the shared-memory arena, so process workers score straight off their
zero-copy views with no scipy object construction on the hot path.  It
is **bit-identical** to the historical scipy evaluation; the parity
corpus gates it.
"""

from __future__ import annotations

#: Metric name -> kernel family.  ``dot`` walks aligned data values,
#: ``set`` counts the intersection, ``weighted_set`` sums per-item
#: weights over it.  Metrics outside this table (custom registrations)
#: do not go through the kernel at all.
METRIC_FAMILIES: dict[str, str] = {
    "cosine": "dot",
    "pearson": "dot",
    "jaccard": "set",
    "dice": "set",
    "overlap": "set",
    "adamic_adar": "weighted_set",
}
