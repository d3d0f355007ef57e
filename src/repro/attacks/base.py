"""The attacker's measurement primitives, plus the result types.

:class:`AttackCategory` and :class:`AttackResult` are defined in the
leaf module :mod:`repro.attacks.result` and re-exported here.
"""

from __future__ import annotations

from repro.attacks.result import AttackCategory, AttackResult
from repro.errors import AccessFault, MemoryFault
from repro.memory.bus import BusMaster, BusTransaction

__all__ = ["AttackCategory", "AttackResult", "AttackerProcess"]


def _modulo_set_lines(pages: list[int], line_size: int, num_sets: int,
                      set_index: int, count: int) -> list[int]:
    """The first ``count`` lines of ``pages`` in LLC set ``set_index``
    under plain modulo indexing (``Cache.set_index`` without an
    ``index_fn``), in the (page, line) order of a scan.

    Line ``k`` of a page starting at ``page`` is number
    ``page // line_size + k``, so the page's lines in the set are every
    ``num_sets``-th from the first ``k`` that lands there.
    """
    lines: list[int] = []
    if not 0 <= set_index < num_sets:
        return lines
    stride = num_sets * line_size
    for page in pages:
        if len(lines) >= count:
            break
        first = (set_index - page // line_size) % num_sets
        lines.extend(range(page + first * line_size, page + 4096, stride))
    return lines[:count]


class AttackerProcess:
    """An unprivileged attacker's view of the machine.

    Owns pages obtained through the architecture's allocator (so
    allocation-based defences like Sanctum's colouring apply), and
    measures through the same cache hierarchy the victim uses.  Reads go
    through the bus first — a bus-level denial is a real denial.
    """

    def __init__(self, arch, core_id: int = 1,
                 name: str = "attacker") -> None:
        self.arch = arch
        self.soc = arch.soc
        self.core_id = core_id
        self.master = BusMaster(self.soc.cores[core_id].config.name,
                                kind="cpu")
        self.pages: list[int] = []
        self.domain = f"{name}-proc"

    def alloc_pages(self, count: int) -> list[int]:
        """Obtain ``count`` physical pages from the architecture's OS."""
        new = [self.arch.alloc_attacker_page() for _ in range(count)]
        self.pages.extend(new)
        return new

    # -- measurement primitives ------------------------------------------------

    def timed_read(self, paddr: int) -> int:
        """Load ``paddr`` and return its latency in cycles.

        This is the ``rdcycle``-bracketed load every cache attack builds
        on.  Raises :class:`AccessFault` if the bus denies the read.
        """
        txn = BusTransaction(self.master, paddr, "read", 8)
        self.soc.bus.read(txn)  # access control happens here
        return self.soc.hierarchy.timed_access(self.core_id, paddr,
                                               domain=self.domain)

    def try_read(self, paddr: int) -> tuple[bool, int]:
        """Attempt a read; (ok, value).  value is 0 when denied.

        Denial happens at either of the two layers real attackers face:
        the MMU (no translation obtainable — Sanctum's walker check) or
        the bus (TZASC / EPC / MPU rejection).
        """
        if not self.arch.attacker_can_map(paddr):
            return False, 0
        txn = BusTransaction(self.master, paddr, "read", 8)
        try:
            data = self.soc.bus.read(txn)
        except (AccessFault, MemoryFault):
            return False, 0
        self.soc.hierarchy.access(self.core_id, paddr, domain=self.domain)
        return True, int.from_bytes(data[:8].ljust(8, b"\x00"), "little")

    def flush(self, paddr: int) -> None:
        """clflush a line the attacker can address."""
        self.soc.hierarchy.flush_line(paddr)

    def touch(self, paddr: int) -> None:
        """Untimed load (prime step)."""
        self.soc.hierarchy.access(self.core_id, paddr, domain=self.domain)

    def touch_dram(self, paddr: int) -> None:
        """A load guaranteed to reach the memory bus (hammer step).

        Unlike :meth:`touch`, this issues the bus transaction (where DRAM
        activation counting happens) in addition to the cache-timing
        access — the flush+reload hammer loop's building block.
        """
        txn = BusTransaction(self.master, paddr, "read", 8)
        self.soc.bus.read(txn)
        self.soc.hierarchy.access(self.core_id, paddr, domain=self.domain)

    @property
    def hit_threshold(self) -> int:
        """Latency boundary between 'was cached' and 'came from DRAM'."""
        return self.soc.hierarchy.hit_threshold

    # -- eviction-set construction ------------------------------------------------

    def eviction_addresses_for_set(self, set_index: int,
                                   count: int) -> list[int]:
        """Addresses in the attacker's own pages mapping to ``set_index``.

        Pure address arithmetic over pages the attacker legitimately owns
        — no oracle.  Returns up to ``count`` line addresses; fewer when
        the attacker's pages simply cannot reach that set (Sanctum's
        colouring makes exactly this happen).
        """
        llc = self.soc.hierarchy.l2
        if llc.index_fn is None:
            return _modulo_set_lines(self.pages, llc.line_size,
                                     llc.num_sets, set_index, count)
        return self._lines_by_set().get(set_index, [])[:count]

    def _lines_by_set(self) -> dict[int, list[int]]:
        """Every owned line address grouped by LLC set, in (page, line)
        scan order.

        A custom ``index_fn`` may be re-keyed at any time
        (:meth:`~repro.cache.randmap.RandomizedIndexing.rekey`), so this
        scan runs on every call and keeps nothing.
        """
        llc = self.soc.hierarchy.l2
        by_set: dict[int, list[int]] = {}
        set_index = llc.set_index
        for page in self.pages:
            for line in range(0, 4096, llc.line_size):
                addr = page + line
                by_set.setdefault(set_index(addr), []).append(addr)
        return by_set
