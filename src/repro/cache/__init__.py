"""Disk staging cache tier: the HSM front-end the paper's setting implies.

An online tertiary store serves random reads from a disk staging cache
and only goes to tape on a miss.  This package provides that tier:

* :mod:`repro.cache.store` — the bounded :class:`SegmentCache`;
* :mod:`repro.cache.policies` — FIFO, LRU, and a tape-cost-aware GDSF
  eviction policy;
* :mod:`repro.cache.admission` — always/frequency/cost admission
  control for demand fills;
* :mod:`repro.cache.prefetch` — opportunistic staging of the segments
  a batch's head passes over while reading through coalesced gaps;
* :mod:`repro.cache.library_tier` — :class:`CachedLibrarySystem`, the
  tier injected in front of a :class:`~repro.library.MultiDriveSystem`
  (one preloaded drive for the paper's single-tape setting).
"""

from repro.cache.admission import (
    ADMISSIONS,
    AdmissionPolicy,
    AlwaysAdmit,
    CostThresholdAdmission,
    FrequencyThresholdAdmission,
    get_admission,
)
from repro.cache.policies import (
    POLICIES,
    EvictionPolicy,
    FIFOPolicy,
    GDSFPolicy,
    LRUPolicy,
    get_policy,
)
from repro.cache.prefetch import (
    DEFAULT_MAX_PREFETCH_PER_BATCH,
    opportunistic_prefetch,
    prefetch_candidates,
)
from repro.cache.library_tier import (
    DEFAULT_CACHE_CAPACITY_SEGMENTS,
    CachedLibrarySystem,
)
from repro.cache.store import SegmentCache
from repro.online.metrics import CacheStats

__all__ = [
    "ADMISSIONS",
    "AdmissionPolicy",
    "AlwaysAdmit",
    "CacheStats",
    "CachedLibrarySystem",
    "CostThresholdAdmission",
    "DEFAULT_CACHE_CAPACITY_SEGMENTS",
    "DEFAULT_MAX_PREFETCH_PER_BATCH",
    "EvictionPolicy",
    "FIFOPolicy",
    "FrequencyThresholdAdmission",
    "GDSFPolicy",
    "LRUPolicy",
    "POLICIES",
    "SegmentCache",
    "get_admission",
    "get_policy",
    "opportunistic_prefetch",
    "prefetch_candidates",
]
