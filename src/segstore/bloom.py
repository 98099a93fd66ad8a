"""Bloom filter over page ids.

Double hashing off one FNV-1a pass: probe i addresses bit
(h1 + i*h2) mod nbits.  Sized at 10 bits per distinct key with 7 probes,
which lands around 1% false positives at design load.  Hashing and the
probe count are fixed and seed-free so filters are stable inside archive
files, which store only the bit count and the bits.
"""

import struct

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MASK64 = (1 << 64) - 1

_U32 = struct.Struct("<I")

BITS_PER_KEY = 10
NUM_PROBES = 7


def _fnv1a(data: bytes) -> int:
    h = _FNV_OFFSET
    for b in data:
        h = ((h ^ b) * _FNV_PRIME) & _MASK64
    return h


class BloomFilter:
    __slots__ = ("nbits", "bits")

    def __init__(self, nbits: int, bits: bytearray | None = None):
        self.nbits = max(8, nbits)
        self.bits = bits if bits is not None else bytearray((self.nbits + 7) // 8)

    @classmethod
    def sized_for(cls, nkeys: int) -> "BloomFilter":
        return cls(max(1, nkeys) * BITS_PER_KEY)

    def _probes(self, page_id: int):
        h = _fnv1a(page_id.to_bytes(8, "little"))
        h1 = h & 0xFFFFFFFF
        h2 = (h >> 32) | 1
        for i in range(NUM_PROBES):
            yield (h1 + i * h2) % self.nbits

    def add(self, page_id: int) -> None:
        for bit in self._probes(page_id):
            self.bits[bit >> 3] |= 1 << (bit & 7)

    def might_contain(self, page_id: int) -> bool:
        for bit in self._probes(page_id):
            if not self.bits[bit >> 3] & (1 << (bit & 7)):
                return False
        return True

    def to_bytes(self) -> bytes:
        return _U32.pack(self.nbits) + bytes(self.bits)

    @classmethod
    def from_bytes(cls, data: bytes, offset: int = 0) -> "BloomFilter":
        (nbits,) = _U32.unpack_from(data, offset)
        nbytes = (nbits + 7) // 8
        start = offset + _U32.size
        return cls(nbits, bits=bytearray(data[start:start + nbytes]))
