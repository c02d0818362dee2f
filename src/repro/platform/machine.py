"""The paper's two-device testbed, as a :class:`~repro.platform.ClusterSpec`.

The scalar heterogeneous algorithms (``repro.hetero``) run on a 2-device
cluster — the host CPU, one GPU and the PCIe link between them — and
price it through :mod:`repro.platform.costmodel`.  :func:`paper_testbed`
builds the paper's instance of that shape.
"""

from __future__ import annotations

from repro.platform.cluster import ClusterSpec, cluster_testbed


def paper_testbed(time_scale: float = 1.0) -> ClusterSpec:
    """The paper's platform: dual Xeon E5-2650 + Tesla K40c over PCIe 3 x16.

    ``time_scale`` shrinks the fixed time constants exactly as in
    :func:`~repro.platform.cluster.cluster_testbed`, of which this is the
    one-accelerator case.
    """
    return cluster_testbed(n_gpus=1, time_scale=time_scale)
