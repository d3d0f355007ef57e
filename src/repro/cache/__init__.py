"""Cache structures and the timing channels they create.

Every attack in Section 4 of the paper ultimately measures one of these
structures.  The models are behavioural but cycle-attributed: an access
returns which level hit and a latency, which is exactly the signal
Evict+Time / Prime+Probe / Flush+Reload quantify.

* :class:`Cache` — physically-indexed set-associative LRU cache with
  pluggable index functions.
* :class:`CacheHierarchy` — per-core L1s over a shared last-level cache,
  with the defences the paper contrasts: way partitioning [39], randomised
  index mapping [40], page colouring (Sanctum), and cache exclusion
  (Sanctuary).
* :class:`TLB` / :class:`BranchTargetBuffer` — "any cache structure shared
  by the attacker and the victim can be exploited".
"""

from repro.common import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "policies": ("LRUPolicy",),
    "cache": ("AccessResult", "Cache", "CacheStats"),
    "hierarchy": ("CacheHierarchy", "HierarchyConfig", "MemoryAccess"),
    "tlb": ("TLB",),
    "btb": ("BranchTargetBuffer",),
    "partition": ("WayPartition", "color_of", "frames_of_color"),
    "randmap": ("RandomizedIndexing",),
})
