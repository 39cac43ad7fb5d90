"""Timing parameters of the simulated platform.

One document describes everything the simulator charges time for: the
shared-memory interface bandwidth between main memory and the hardware
region (MEMIF), the hardware transport's streaming bandwidth (HMT), the
per-call cost of the hardware/software control interface (OSIF), the
delegate's publish cost, the affine software-side delivery latency, and
the copy bandwidth of a software publisher fanning a message out to local
readers.

A simulation scales some of these charges by a random factor within
``jitter_pct`` of 1; ``timing.Charges`` states which.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, asdict

from .documents import DocumentError, FieldError

# The simulator charges time in integer nanoseconds. A time field, stretched
# by the largest jitter a run may set (below 100%), must fit a signed 64-bit
# nanosecond count, as ROS 2 timestamps do; sums of such charges then stay
# far from float overflow.
MAX_TIME_US = (2**63 - 1) / 1000 / 2


class PlatformSyntaxError(DocumentError):
    """A platform document that cannot be read or decoded."""

    what = "platform document"


class PlatformError(FieldError):
    """A platform field out of range, or one the model does not have."""


@dataclass(frozen=True)
class PlatformModel:
    memif_bandwidth_bytes_per_s: float = 1.2e9
    hmt_bandwidth_bytes_per_s: float = 1.2e9
    osif_roundtrip_us: float = 30.0
    delegate_publish_us: float = 8.0
    sw_dds_intercept_us: float = 10.0
    sw_dds_us_per_byte: float = 0.009
    sw_copy_bandwidth_bytes_per_s: float = 1.2e9
    jitter_pct: float = 0.05

    def __post_init__(self):
        number = PlatformError.number
        for name, value in vars(self).items():
            if name in _BANDWIDTHS:
                # the simulator charges transfers in whole bytes per second
                if number(value, name) < 1:
                    raise PlatformError(f"{name} must be at least 1 B/s, got {value!r}")
            elif name == "jitter_pct":
                number(value, name, 1.0)
            else:
                number(value, name, MAX_TIME_US, True)
        if self.hmt_bandwidth_bytes_per_s < self.memif_bandwidth_bytes_per_s:
            raise PlatformError("hmt bandwidth must be at least memif bandwidth")

    def sw_dds_latency_us(self, size_bytes: int) -> float:
        """Software-side delivery latency for one message of this size."""
        return self.sw_dds_intercept_us + self.sw_dds_us_per_byte * size_bytes

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "PlatformModel":
        doc = PlatformSyntaxError.decode(text)
        # an unknown field is a validation error (exit 3), as a bad value is
        return cls(**PlatformError.known_keys(doc, cls.__dataclass_fields__, "platform document"))

    @classmethod
    def load(cls, path) -> "PlatformModel":
        return PlatformSyntaxError.load(path, cls.from_json)


# the fields checked against 1 B/s; named once, since the check runs on every model built
_BANDWIDTHS = frozenset(name for name in PlatformModel.__dataclass_fields__ if name.endswith("_bytes_per_s"))

