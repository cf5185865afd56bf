"""Storage device models.

Each device is characterised by read bandwidth, a fixed per-access
latency, a capacity and a monthly storage cost.  The loading controller uses
read bandwidth to estimate per-layer KV loading delay and the storage cost to
pick the cheapest device whose loading can still hide the selective recompute
(paper §5.1, Figure 10b).

The preset numbers follow the paper's testbed where given (NVMe SSD measured
at 4.8 GB/s, a "slower disk" at 4 Gbps ~ 0.5 GB/s) and typical public cloud
figures otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass

_GB = 1024.0 ** 3


@dataclass(frozen=True)
class StorageDevice:
    """A storage device KV caches can be kept on.

    Attributes
    ----------
    name:
        Identifier used in experiment output.
    read_bandwidth:
        Sustained read throughput in bytes per second.
    access_latency:
        Fixed per-request latency in seconds (seek / RPC overhead).
    capacity_bytes:
        Usable capacity for KV caches.
    cost_per_gb_month:
        Dollar cost of keeping one GB stored for a month (used by the
        controller's storage cost estimator).
    """

    name: str
    read_bandwidth: float
    access_latency: float
    capacity_bytes: int
    cost_per_gb_month: float

    def __post_init__(self) -> None:
        if self.read_bandwidth <= 0:
            raise ValueError("read bandwidth must be positive")
        if self.capacity_bytes <= 0:
            raise ValueError("capacity must be positive")
        if self.access_latency < 0 or self.cost_per_gb_month < 0:
            raise ValueError("latency and cost must be non-negative")

    def read_time(self, nbytes: int) -> float:
        """Seconds to read *nbytes* from this device."""
        return self.access_latency + nbytes / self.read_bandwidth

    def monthly_cost(self, nbytes: int) -> float:
        """Dollar cost of storing *nbytes* for one month."""
        return (nbytes / _GB) * self.cost_per_gb_month

    def storage_cost(self, nbytes: int, duration_months: float = 1.0) -> float:
        """Dollar cost of storing *nbytes* for *duration_months*."""
        return self.monthly_cost(nbytes) * duration_months


#: Device presets.  Bandwidths in bytes/s, capacities in bytes.
DEVICE_PRESETS: dict[str, StorageDevice] = {
    "gpu_hbm": StorageDevice(
        name="gpu_hbm",
        read_bandwidth=1200.0 * _GB,
        access_latency=1e-6,
        capacity_bytes=int(40 * _GB),
        cost_per_gb_month=20.0,
    ),
    "cpu_ram": StorageDevice(
        name="cpu_ram",
        read_bandwidth=24.0 * _GB,
        access_latency=5e-6,
        capacity_bytes=int(128 * _GB),
        cost_per_gb_month=3.0,
    ),
    "nvme_ssd": StorageDevice(
        name="nvme_ssd",
        read_bandwidth=4.8 * _GB,
        access_latency=1e-4,
        capacity_bytes=int(1024 * _GB),
        cost_per_gb_month=0.10,
    ),
    "sata_ssd": StorageDevice(
        name="sata_ssd",
        read_bandwidth=1.0 * _GB,
        access_latency=2e-4,
        capacity_bytes=int(2048 * _GB),
        cost_per_gb_month=0.05,
    ),
    "slow_disk": StorageDevice(
        name="slow_disk",
        read_bandwidth=0.5 * _GB,
        access_latency=5e-3,
        capacity_bytes=int(8192 * _GB),
        cost_per_gb_month=0.03,
    ),
    "object_store": StorageDevice(
        name="object_store",
        read_bandwidth=0.125 * _GB,
        access_latency=5e-2,
        capacity_bytes=int(100_000 * _GB),
        cost_per_gb_month=0.02,
    ),
}


def get_device(name: str) -> StorageDevice:
    """Return a device preset by name with a helpful error on typos."""
    try:
        return DEVICE_PRESETS[name]
    except KeyError:
        known = ", ".join(sorted(DEVICE_PRESETS))
        raise KeyError(f"unknown storage device {name!r}; known devices: {known}") from None
