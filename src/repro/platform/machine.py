"""The paper's two-device testbed, as a :class:`~repro.platform.ClusterSpec`.

The scalar heterogeneous algorithms (``repro.hetero``) run on a 2-device
cluster — the host CPU, one GPU and the PCIe link between them — and
price it through :mod:`repro.platform.costmodel`.  :func:`paper_testbed`
builds the paper's instance of that shape.
"""

from __future__ import annotations

import warnings

from repro.platform.cluster import (
    ClusterSpec,
    Interconnect,
    cluster_testbed,
    require_two_devices,
)
from repro.platform.device import DeviceSpec
from repro.platform.pcie import PcieLink
from repro.util.errors import ReproDeprecationWarning


def paper_testbed(time_scale: float = 1.0) -> ClusterSpec:
    """The paper's platform: dual Xeon E5-2650 + Tesla K40c over PCIe 3 x16.

    ``time_scale`` shrinks the fixed time constants exactly as in
    :func:`~repro.platform.cluster.cluster_testbed`, of which this is the
    one-accelerator case.
    """
    return cluster_testbed(n_gpus=1, time_scale=time_scale)


def HeterogeneousMachine(  # noqa: N802 - keeps the removed class's spelling
    *, cpu: DeviceSpec, gpu: DeviceSpec, link: PcieLink
) -> ClusterSpec:
    """Deprecated: build the equivalent 2-device :class:`ClusterSpec`.

    The ``HeterogeneousMachine`` class is gone; the scalar problems take
    a 2-device cluster.  This factory keeps old call sites working for
    one release and warns.
    """
    warnings.warn(
        "HeterogeneousMachine is deprecated; build a 2-device "
        "repro.platform.ClusterSpec (or call paper_testbed())",
        ReproDeprecationWarning,
        stacklevel=2,
    )
    return require_two_devices(
        ClusterSpec(
            devices=(cpu, gpu),
            interconnect=Interconnect(links=(link,)),
            name="machine",
        )
    )
