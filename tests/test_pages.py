import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from segstore.errors import ChecksumError, PageFullError, StorageError
from segstore.pages import (VALUE_LEN, Page, empty_page_images, page_capacity,
                            segment_count, segment_of, segment_page_span)
from segstore.volume import FORMAT_SPAN_BYTES

from conftest import make_volume, value_bytes


def test_round_trip_empty():
    page = Page(7)
    data = page.to_bytes(1024)
    assert len(data) == 1024
    back = Page.from_bytes(data)
    assert back == page
    assert back.page_lsn == 0 and back.records == {}


@settings(max_examples=150, deadline=None)
@given(st.dictionaries(st.integers(0, 2 ** 32 - 1),
                       st.binary(min_size=VALUE_LEN, max_size=VALUE_LEN),
                       max_size=40),
       st.integers(0, 2 ** 60),
       st.integers(0, 2 ** 40))
def test_round_trip_random(records, lsn, page_id):
    page = Page(page_id, lsn, dict(records))
    data = page.to_bytes(8192)
    assert len(data) == 8192
    assert Page.from_bytes(data) == page


def test_checksum_detects_corruption():
    page = Page(3)
    page.set(1, value_bytes(1), capacity=page_capacity(1024))
    data = bytearray(page.to_bytes(1024))
    data[40] ^= 0xFF
    with pytest.raises(ChecksumError):
        Page.from_bytes(bytes(data))


def test_capacity_enforced():
    cap = page_capacity(1024)
    page = Page(0)
    for k in range(cap):
        page.set(k, value_bytes(k), cap)
    with pytest.raises(PageFullError):
        page.set(cap, value_bytes(cap), cap)
    # overwriting an existing key is fine at capacity
    page.set(0, value_bytes(99), cap)


def test_value_length_enforced():
    page = Page(0)
    with pytest.raises(StorageError):
        page.set(1, b"short", capacity=10)


def test_page_size_too_small():
    with pytest.raises(StorageError):
        page_capacity(16)


# 42 bytes is the smallest page that holds one record.
@pytest.mark.parametrize("page_size", [42, 1024, 8192])
def test_empty_page_images_match_page_encoder(workdir, page_size):
    def reference(first, end):
        return b"".join(Page(p).to_bytes(page_size) for p in range(first, end))

    assert empty_page_images(5, 300, page_size) == reference(5, 300)
    assert empty_page_images(2 ** 40, 2 ** 40 + 3, page_size) == reference(2 ** 40, 2 ** 40 + 3)
    # Ids whose carries cross page-id byte boundaries, up to the top byte.
    for edge in (256, 65536, 2 ** 24, 2 ** 56, 2 ** 64 - 2):
        assert empty_page_images(edge - 1, edge + 1, page_size) == reference(edge - 1, edge + 1)
    # Volume.create formats FORMAT_SPAN_BYTES of pages at a time: cross a
    # chunk boundary and end on a short chunk.
    span = FORMAT_SPAN_BYTES // page_size
    count = span + span // 2 + 1
    assert 1 < span < count < 2 * span
    vol = make_volume(workdir, page_count=count, page_size=page_size, pages_per_segment=8)
    vol.close()
    with open(os.path.join(workdir, "volume.db"), "rb") as f:
        assert f.read() == vol.geometry.header_bytes() + reference(0, count)


def test_empty_page_images_reject_too_small_pages():
    assert page_capacity(42) == 1
    with pytest.raises(StorageError):
        empty_page_images(0, 1, 41)


def test_segment_helpers():
    assert segment_of(0, 8) == 0
    assert segment_of(7, 8) == 0
    assert segment_of(8, 8) == 1
    assert segment_count(64, 8) == 8
    assert segment_count(65, 8) == 9
    assert segment_page_span(0, 8, 64) == (0, 8)
    assert segment_page_span(7, 8, 64) == (56, 64)
    # short final segment
    assert segment_page_span(8, 8, 65) == (64, 65)
    with pytest.raises(StorageError):
        segment_page_span(9, 8, 65)
