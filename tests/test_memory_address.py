"""Unit tests for address spaces, regions, and the physical memory map."""

import numpy as np
import pytest

from repro.memory import (
    AddressError,
    AddressSpace,
    MemoryKind,
    MemoryRegion,
    MisalignedAddressError,
    PhysicalMemoryMap,
    align_down,
    align_down_array,
    align_up,
    page_count,
    page_span,
)
from repro.memory.address import check_alignment


def test_alignment_helpers():
    assert align_down(0x1234, 0x1000) == 0x1000
    assert align_up(0x1234, 0x1000) == 0x2000
    assert align_up(0x2000, 0x1000) == 0x2000
    check_alignment(0x2000, 0x1000)
    with pytest.raises(MisalignedAddressError):
        check_alignment(0x2001, 0x1000)


def test_align_down_array_matches_scalar_and_skips_aligned_copies():
    values = np.array([0x1234, 0x2000, 0x1FFF], dtype=np.int64)
    assert align_down_array(values, 0x1000).tolist() == [
        align_down(int(v), 0x1000) for v in values]
    aligned = np.array([0x1000, 0x3000], dtype=np.int64)
    assert align_down_array(aligned, 0x1000) is aligned


def test_page_span_covers_partial_pages():
    pages = list(page_span(0x1800, 0x1000, 0x1000))
    assert pages == [0x1000, 0x2000]
    assert page_count(0x1800, 0x1000, 0x1000) == 2
    assert page_count(0x1000, 0, 0x1000) == 0


def test_region_basics():
    region = MemoryRegion(0x1000, 0x2000, AddressSpace.HPA, MemoryKind.HOST_DRAM)
    assert region.end == 0x3000
    assert region.contains(0x1000)
    assert region.contains(0x2FFF)
    assert not region.contains(0x3000)
    assert region.contains(0x2000, length=0x1000)
    assert not region.contains(0x2000, length=0x1001)
    assert region.offset_of(0x1800) == 0x800


def test_region_rejects_bad_shape():
    with pytest.raises(AddressError):
        MemoryRegion(-1, 10, AddressSpace.GVA)
    with pytest.raises(AddressError):
        MemoryRegion(0, 0, AddressSpace.GVA)


def test_region_overlap_and_subregion():
    a = MemoryRegion(0x0, 0x100, AddressSpace.GPA)
    b = MemoryRegion(0x80, 0x100, AddressSpace.GPA)
    c = MemoryRegion(0x100, 0x10, AddressSpace.GPA)
    assert a.overlaps(b) and b.overlaps(a)
    assert not a.overlaps(c)
    sub = a.subregion(0x10, 0x20)
    assert sub.start == 0x10 and sub.length == 0x20
    with pytest.raises(AddressError):
        a.subregion(0xF0, 0x20)


def test_region_offset_of_outside_raises():
    region = MemoryRegion(0x1000, 0x100, AddressSpace.HVA)
    with pytest.raises(AddressError):
        region.offset_of(0x2000)


def test_physical_map_allocates_disjoint_aligned_regions():
    hpa = PhysicalMemoryMap(AddressSpace.HPA, 1 << 30)
    first = hpa.allocate(0x1000, MemoryKind.HOST_DRAM, alignment=0x1000)
    second = hpa.allocate(0x2000, MemoryKind.GPU_HBM, alignment=0x10000)
    assert not first.overlaps(second)
    assert second.start % 0x10000 == 0
    assert hpa.region_at(first.start) is first
    assert hpa.region_at(second.start + 0x1FFF) is second
    assert hpa.region_at(1 << 29) is None


def test_physical_map_free_and_reuse():
    hpa = PhysicalMemoryMap(AddressSpace.HPA, 1 << 20)
    region = hpa.allocate(0x1000, MemoryKind.HOST_DRAM)
    hpa.free(region)
    again = hpa.allocate(0x800, MemoryKind.HOST_DRAM)
    assert again.start == region.start  # recycled the hole
    with pytest.raises(AddressError):
        hpa.free(region)  # double free


def test_physical_map_exhaustion():
    hpa = PhysicalMemoryMap(AddressSpace.HPA, 0x1000)
    hpa.allocate(0x800, MemoryKind.HOST_DRAM)
    with pytest.raises(AddressError):
        hpa.allocate(0x1000, MemoryKind.HOST_DRAM)


def test_physical_map_reserve_rejects_overlap():
    hpa = PhysicalMemoryMap(AddressSpace.HPA, 1 << 20)
    hpa.reserve(0x10000, 0x1000, MemoryKind.DEVICE_MMIO)
    with pytest.raises(AddressError):
        hpa.reserve(0x10800, 0x1000, MemoryKind.DEVICE_MMIO)
