"""SGX's page mover against the per-word loops.

``SGX._move_page`` carries all enclave page traffic: EADD and EINIT
(``SGX._load_pages``), EWB (``swap_out``) and ELDU (``swap_in``, each
store followed by a load of the word it stored).  It moves a page's
words as one batch when the bus, MMU and caches give every word of the
page the same outcome.  The oracles here are the per-word loops it
replaced: one ``Core.write_mem`` per stored word and one
``Core.read_mem`` per loaded word.  Both must leave the same SoC (caches
and LRU stamps, TLB, bus and MEE counters, core accounting, speculative
L1 view, memory), the same MEE tags in the same order, the same
measurements and the same swap blobs.  The cache half of the batch,
``CacheHierarchy.access_words``, is also checked on its own against one
``access`` per word.  A subprocess check shows that the table commands
that load SGX enclaves take the batch without loading numpy.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from repro.arch.sgx import SGX
from repro.attacks.batch_diff import soc_state
from repro.cache.hierarchy import CacheHierarchy, HierarchyConfig
from repro.cache.partition import WayPartition
from repro.cpu.core import Core
from repro.cpu.soc import SoC, make_server_soc, server_soc_config
from repro.errors import SecurityViolation
from repro.lockstep import compare
from repro.memory.paging import PAGE_SIZE


def _per_word_load(self, handle) -> bytes:
    """The per-word EADD/EINIT loop (the oracle)."""
    core = self.soc.cores[handle.core_id]
    image = handle.name.encode().ljust(32, b"\x00")[:32]
    for off in range(0, handle.size, 8):
        if off < len(image):
            word = int.from_bytes(image[off:off + 8], "little")
        else:
            word = 0
        core.write_mem(handle.base + off, word)
    return bytes(core.read_mem(handle.base + off) & 0xFF
                 for off in range(0, min(handle.size, 4096), 8))


def _per_word_move(self, core, va, count, words=None, reload=False):
    """The per-word EWB/ELDU loops (the oracle): one ``write_mem`` per
    stored word, each followed by a ``read_mem`` with ``reload``; one
    ``read_mem`` per word when loading."""
    values = []
    for i in range(count):
        addr = va + 8 * i
        if words is not None:
            core.write_mem(addr, words[i])
        if words is None or reload:
            values.append(core.read_mem(addr))
    return values


class _CountingMemPath:
    """Counts the per-word ``Core`` memory calls while installed."""

    def __init__(self, monkeypatch) -> None:
        self.reads = self.writes = 0
        read, write = Core.read_mem, Core.write_mem

        def read_mem(core, va):
            self.reads += 1
            return read(core, va)

        def write_mem(core, va, value):
            self.writes += 1
            write(core, va, value)

        monkeypatch.setattr(Core, "read_mem", read_mem)
        monkeypatch.setattr(Core, "write_mem", write_mem)


def _outcome(sgx: SGX, handles) -> dict:
    mee = sgx.mee
    return {"soc": soc_state(sgx.soc, sgx),
            "tags": list(mee._tags.items()),
            "mee": (mee.encrypted_writes, mee.decrypted_reads,
                    mee.integrity_failures),
            "measurements": [h.measurement for h in handles],
            "sizes": [h.size for h in handles],
            "swapped": dict(sgx._swapped),
            "epc_owner": dict(sgx.epc_owner)}


def _snoop(sgx: SGX) -> None:
    sgx.soc.bus.add_snooper(lambda txn: None)


def _partition_llc(sgx: SGX) -> None:
    llc = sgx.soc.hierarchy.l2
    llc.partition = WayPartition(llc.ways)


def _build(sizes, monkeypatch=None, per_word=False, setup=None, soc=None):
    sgx = SGX(soc or make_server_soc())
    if setup is not None:
        setup(sgx)
    if per_word:
        monkeypatch.setattr(SGX, "_load_pages", _per_word_load)
        monkeypatch.setattr(SGX, "_move_page", _per_word_move)
    handles = [sgx.create_enclave(f"enclave-{i}", size=size)
               for i, size in enumerate(sizes)]
    return sgx, handles


#: One page, two pages, a non-page-multiple (rounded up to two pages),
#: and a second enclave on the same instance after each.
SIZES = [(PAGE_SIZE,), (2 * PAGE_SIZE,), (PAGE_SIZE + 100,),
         (2 * PAGE_SIZE, PAGE_SIZE), (PAGE_SIZE + 100, 3 * PAGE_SIZE)]


@pytest.mark.parametrize("sizes", SIZES, ids=str)
def test_page_load_matches_the_per_word_loop(monkeypatch, sizes):
    calls = _CountingMemPath(monkeypatch)
    fast = _outcome(*_build(sizes))
    # One scalar store per page (its first word) and one scalar load for
    # EINIT: every other word moved in a batch.
    pages = sum(-(-size // PAGE_SIZE) for size in sizes)
    assert (calls.writes, calls.reads) == (pages, len(sizes))
    with monkeypatch.context() as patch:
        ref = _outcome(*_build(sizes, patch, per_word=True))
    compare("enclave", fast, ref)


@pytest.mark.parametrize("setup", [_snoop, _partition_llc],
                         ids=["snooper", "partitioned-llc"])
def test_declined_page_path_runs_the_per_word_loop(monkeypatch, setup):
    """A bus snooper sees every transaction, and a way partition may
    refuse a fill, so the page path declines and each word takes the
    per-word path, with the same outcome."""
    sizes = (2 * PAGE_SIZE,)
    calls = _CountingMemPath(monkeypatch)
    fast = _outcome(*_build(sizes, setup=setup))
    assert (calls.writes, calls.reads) == (2 * PAGE_SIZE // 8, 512)
    with monkeypatch.context() as patch:
        ref = _outcome(*_build(sizes, patch, per_word=True, setup=setup))
    compare("enclave", fast, ref)


def _swap_pages(sgx: SGX, handles) -> None:
    """Write a secret into each enclave, then EWB and ELDU every page,
    the last page twice."""
    for handle in handles:
        sgx.enter_enclave(handle)
        try:
            for offset in range(0, handle.size, 1000 * 8):
                sgx.enclave_write(handle, offset, 0x1122334455667788 + offset)
        finally:
            sgx.exit_enclave(handle)
        pages = list(range(0, handle.size, PAGE_SIZE))
        for page in pages + pages[-1:]:
            sgx.swap_out(handle, page)
            sgx.swap_in(handle, page)
    sgx.swap_out(handles[0], 0)


def _small_caches() -> SoC:
    """A server SoC whose caches hold fewer lines than a page: a page's
    lines share sets and evict one another within one move."""
    return SoC(replace(server_soc_config(), hierarchy=HierarchyConfig(
        num_cores=4, l1_sets=4, l1_ways=2, l2_sets=8, l2_ways=4)))


@pytest.mark.parametrize("sizes", [(PAGE_SIZE,), (2 * PAGE_SIZE, PAGE_SIZE)],
                         ids=str)
@pytest.mark.parametrize("small", [False, True],
                         ids=["server-caches", "small-caches"])
def test_page_swap_matches_the_per_word_loops(monkeypatch, sizes, small):
    """EWB reads its page, ELDU stores each word and loads it back, as
    the batch replays them line by line: the state equals the per-word
    loops' also where a page's lines evict one another."""
    calls = _CountingMemPath(monkeypatch)
    sgx, handles = _build(sizes, soc=_small_caches() if small else None)
    pages = sum(-(-size // PAGE_SIZE) for size in sizes)
    before = (calls.writes, calls.reads)
    _swap_pages(sgx, handles)
    swaps = pages + len(sizes)
    # One scalar load per EWB, one scalar store and load per ELDU, plus
    # the enclave writes.
    assert (calls.writes - before[0], calls.reads - before[1]) == (
        swaps + sum(-(-size // 8000) for size in sizes), 2 * swaps + 1)
    fast = _outcome(sgx, handles)
    with monkeypatch.context() as patch:
        sgx, handles = _build(sizes, patch, per_word=True,
                              soc=_small_caches() if small else None)
        _swap_pages(sgx, handles)
        ref = _outcome(sgx, handles)
    compare("swap", fast, ref)


@pytest.mark.parametrize("setup", [_snoop, _partition_llc],
                         ids=["snooper", "partitioned-llc"])
def test_declined_page_swap_runs_the_per_word_loops(monkeypatch, setup):
    """Under a snooper or a partitioned LLC every EWB and ELDU word
    takes the per-word path, with the per-word loops' outcome."""
    sizes = (PAGE_SIZE,)
    sgx, handles = _build(sizes, setup=setup)
    calls = _CountingMemPath(monkeypatch)
    sgx.swap_out(handles[0], 0)
    sgx.swap_in(handles[0], 0)
    assert (calls.writes, calls.reads) == (512, 1024)
    fast = _outcome(sgx, handles)
    with monkeypatch.context() as patch:
        sgx, handles = _build(sizes, patch, per_word=True, setup=setup)
        sgx.swap_out(handles[0], 0)
        sgx.swap_in(handles[0], 0)
        ref = _outcome(sgx, handles)
    compare("swap", fast, ref)


def _alloc_state(sgx: SGX) -> tuple:
    return (vars(sgx.epc_allocator).copy(), dict(sgx.epc_owner),
            sgx.os_page_table.lookup(sgx.enclaves[1].base),
            dict(sgx._swapped))


@pytest.mark.parametrize("forge", ["flip-byte", "other-page"])
def test_eldu_rejects_an_altered_blob(forge):
    """The EWB blob is MAC'd and bound to its page: a flipped byte, or
    another page's blob replayed in its place, makes ELDU raise
    :class:`SecurityViolation` and allocate nothing."""
    sgx, (handle,) = _build((2 * PAGE_SIZE,))
    sgx.enter_enclave(handle)
    try:
        sgx.enclave_write(handle, 0, 0x1122334455667788)
    finally:
        sgx.exit_enclave(handle)
    sgx.swap_out(handle, 0)
    sgx.swap_out(handle, PAGE_SIZE)
    va = handle.base
    blob, mac = sgx._swapped[va]
    if forge == "flip-byte":
        sgx._swapped[va] = (bytes([blob[0] ^ 0xFF]) + blob[1:], mac)
    else:
        sgx._swapped[va] = sgx._swapped[va + PAGE_SIZE]
    before = _alloc_state(sgx)
    with pytest.raises(SecurityViolation, match="MAC"):
        sgx.swap_in(handle, 0)
    assert _alloc_state(sgx) == before
    sgx._swapped[va] = (blob, mac)
    sgx.swap_in(handle, 0)
    sgx.enter_enclave(handle)
    try:
        assert sgx.enclave_read(handle, 0) == 0x1122334455667788
    finally:
        sgx.exit_enclave(handle)


def _tamper(sgx: SGX, handle, offset: int) -> None:
    frame, _ = sgx.os_page_table.lookup(handle.base + (offset & ~0xFFF))
    paddr = frame | (offset & 0xFFF)
    memory = sgx.soc.memory
    memory.write_word(paddr, memory.read_word(paddr) ^ 1)


def test_ciphertext_tamper_after_eadd_is_caught():
    sgx, (handle,) = _build((2 * PAGE_SIZE,))
    _tamper(sgx, handle, PAGE_SIZE + 8)
    sgx.enter_enclave(handle)
    try:
        assert sgx.enclave_read(handle, PAGE_SIZE) == 0
        with pytest.raises(SecurityViolation):
            sgx.enclave_read(handle, PAGE_SIZE + 8)
    finally:
        sgx.exit_enclave(handle)
    assert sgx.mee.integrity_failures == 1


def test_tampered_page_read_fails_where_the_per_word_loop_fails():
    """A failed tag mid-page sends the page's read back to the per-word
    loop, which moves the words before it and raises on it."""
    outcomes = []
    for batched in (True, False):
        sgx, (handle,) = _build((PAGE_SIZE,))
        _tamper(sgx, handle, 200 * 8)
        core = sgx.soc.cores[handle.core_id]
        sgx.enter_enclave(handle)
        try:
            with pytest.raises(SecurityViolation) as failure:
                if batched:
                    sgx._move_page(core, handle.base, PAGE_SIZE // 8)
                else:
                    for off in range(0, PAGE_SIZE, 8):
                        core.read_mem(handle.base + off)
        finally:
            sgx.exit_enclave(handle)
        outcomes.append((str(failure.value), _outcome(sgx, [handle])))
    compare("tampered", outcomes[0], outcomes[1])


def test_a_move_must_stay_in_one_page():
    sgx, (handle,) = _build((2 * PAGE_SIZE,))
    core = sgx.soc.cores[handle.core_id]
    with pytest.raises(ValueError):
        sgx._move_page(core, handle.base + 8, PAGE_SIZE // 8)


def _hierarchy_state(hierarchy: CacheHierarchy) -> list:
    return [([tuple(st.tags) for st in cache.set_states()],
             [(st.policy._stamp, tuple(st.policy._last_use))
              for st in cache.set_states()],
             [None if line is None else (line.tag, line.dirty)
              for st in cache.set_states() for line in st.lines],
             (cache.stats.hits, cache.stats.misses, cache.stats.evictions))
            for cache in (*hierarchy.l1s, hierarchy.l2)]


def _filled_hierarchies() -> list[CacheHierarchy]:
    """Two hierarchies whose core-0 L1 sets are already full."""
    hierarchies = [CacheHierarchy(), CacheHierarchy()]
    for hierarchy in hierarchies:
        for line in range(0x9000_0000, 0x9000_0000 + 64 * 64 * 8, 64):
            hierarchy.access(0, line, is_write=True)
    return hierarchies


@pytest.mark.parametrize("start, count, is_write, cacheable", [
    (0x8000_0000, 512, True, True), (0x8000_0018, 37, False, True),
    (0x8000_0004, 40, False, True), (0x8000_0038, 1, True, True),
    (0x8000_0000, 20, False, False)])
def test_access_words_matches_per_word_accesses(start, count, is_write,
                                                cacheable):
    """``CacheHierarchy.access_words`` (whole lines, partial lines at
    either end, unaligned words, one word, an uncacheable run) against
    one ``access`` per word, on a hierarchy whose L1 sets are already
    full."""
    batched, per_word = _filled_hierarchies()
    latency = batched.access_words(0, start, count, is_write, "d", cacheable)
    assert latency == sum(
        per_word.access(0, start + 8 * i, is_write, "d", cacheable).latency
        for i in range(count))
    compare("hierarchy", _hierarchy_state(batched),
            _hierarchy_state(per_word))


@pytest.mark.parametrize("start, count, cacheable", [
    (0x8000_0000, 512, True), (0x8000_0018, 37, True),
    (0x8000_0038, 1, True), (0x8000_0000, 20, False)])
def test_access_words_reload_matches_store_load_pairs(start, count,
                                                      cacheable):
    """``access_words`` with ``reload`` (ELDU) against one store
    ``access`` per word, each followed by a load ``access`` of it."""
    batched, per_word = _filled_hierarchies()
    latency = batched.access_words(0, start, count, True, "d", cacheable,
                                   reload=True)
    assert latency == sum(
        per_word.access(0, start + 8 * i, is_write, "d", cacheable).latency
        for i in range(count) for is_write in (True, False))
    compare("hierarchy", _hierarchy_state(batched),
            _hierarchy_state(per_word))


#: Runs ``repro.__main__.main(argv)`` counting, per ``SGX._move_page``
#: call, its words and the scalar ``Core`` memory calls made inside it;
#: prints the tallies and whether numpy got loaded as one JSON line.
_MOVE_PROBE = """
import contextlib, io, json, sys
from repro.__main__ import main
from repro.arch.sgx import SGX
from repro.cpu.core import Core
tally = {"moves": 0, "words": 0, "first": 0, "scalar": 0}
inside = []
move, read, write = SGX._move_page, Core.read_mem, Core.write_mem
def counted_move(self, core, va, count, words=None, reload=False):
    accesses = 1 + (words is not None and reload)
    tally["moves"] += 1
    tally["words"] += count * accesses
    tally["first"] += accesses
    inside.append(1)
    try:
        return move(self, core, va, count, words, reload)
    finally:
        inside.pop()
def read_mem(core, va):
    tally["scalar"] += bool(inside)
    return read(core, va)
def write_mem(core, va, value):
    tally["scalar"] += bool(inside)
    write(core, va, value)
SGX._move_page, Core.read_mem, Core.write_mem = (
    counted_move, read_mem, write_mem)
with contextlib.redirect_stdout(io.StringIO()):
    code = main(sys.argv[1:])
print(json.dumps({"code": code, "numpy": "numpy" in sys.modules, **tally}))
"""


@pytest.mark.parametrize("command", ["architectures", "transient"])
def test_table_commands_move_pages_without_numpy(tmp_path, command):
    """TAB-S3 loads SGX enclaves and TAB-S42 also swaps their pages: in
    each page move only the first word takes the scalar path, and
    neither command loads numpy."""
    env = os.environ.copy()
    src = Path(__file__).resolve().parents[1] / "src"
    env["PYTHONPATH"] = str(src) + os.pathsep + env.get("PYTHONPATH", "")
    env["REPRO_CACHE_DIR"] = str(tmp_path / "cells")
    proc = subprocess.run([sys.executable, "-c", _MOVE_PROBE, command],
                          env=env, capture_output=True, text=True,
                          check=True)
    tally = json.loads(proc.stdout.strip().splitlines()[-1])
    assert tally["code"] == 0
    assert not tally["numpy"]
    assert tally["moves"] > 0
    assert tally["scalar"] == tally["first"] < tally["words"] // 100
