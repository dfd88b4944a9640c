"""Reference path decoder for differential tests of `wire.decode_path`.

This is the decoder `decode_path` used to be: it walks the hop fields
segment by segment, refuses a hop field that overruns its segment,
checks the buffer's length as it goes, and derives the layout checks
(CurrHF on a hop boundary, CurrINF on the hop's segment) from that same
walk rather than from `HummingbirdPath`.
"""

from __future__ import annotations

from hummingbird.wire import (
    INFO_LEN,
    META_LEN,
    FlyoverHopField,
    HopField,
    HummingbirdPath,
    InfoField,
    PathMetaHdr,
    WireError,
)

_WORD = 4


def decode_path(raw: bytes) -> HummingbirdPath:
    if len(raw) < META_LEN:
        raise WireError(f"truncated path: {len(raw)} bytes")
    meta = PathMetaHdr.unpack_from(raw, 0)
    pos = META_LEN
    infos = []
    for _ in range(meta.num_inf):
        if pos + INFO_LEN > len(raw):
            raise WireError("truncated path: info field cut short")
        infos.append(InfoField.unpack_from(raw, pos))
        pos += INFO_LEN
    hops: list[HopField] = []
    segment_at = {}  # hop start word -> segment
    word = 0
    for i in range(meta.num_inf):
        words = meta.seg_len[i]
        while words > 0:
            if pos + 1 > len(raw):
                raise WireError("truncated path: hop field cut short")
            cls = FlyoverHopField if raw[pos] & 0x80 else HopField
            if cls.words > words:
                raise WireError(f"hop field overruns segment {i}")
            size = _WORD * cls.words
            if pos + size > len(raw):
                raise WireError("truncated path: hop field cut short")
            hops.append(cls.unpack_from(raw, pos))
            segment_at[word] = i
            pos += size
            word += cls.words
            words -= cls.words
    if pos != len(raw):
        raise WireError(f"{len(raw) - pos} trailing bytes after path")
    if meta.curr_hf > word:
        raise WireError(f"curr_hf {meta.curr_hf} beyond {word} hop words")
    if meta.num_inf > 0:
        if meta.curr_hf == word:
            expect_inf = meta.num_inf - 1
        elif meta.curr_hf in segment_at:
            expect_inf = segment_at[meta.curr_hf]
        else:
            raise WireError(f"curr_hf {meta.curr_hf} is not on a hop boundary")
        if meta.curr_inf != expect_inf:
            raise WireError(f"curr_inf {meta.curr_inf} does not match hop position")
    return HummingbirdPath(meta=meta, infos=tuple(infos), hops=tuple(hops))


def decoded_or_none(decode, raw: bytes) -> HummingbirdPath | None:
    """What decode makes of raw: the path, or None if it refuses it."""
    try:
        return decode(raw)
    except WireError:
        return None
