"""Online ResID assignment.

ResIDs index the policer's token bucket array, so two reservations
that are active at the same time on the same ingress interface must
never share one.  Assignment is online first fit over half-open time
intervals [start, end): the smallest id whose stored intervals are all
disjoint from the new one.  First fit keeps the id space within a
small constant of the optimum, which is what the policer array's
over-allocation factor relies on.

State is scoped per ingress interface; ids on different ingresses are
independent.
"""

from __future__ import annotations

from itertools import count

MAX_IDS = 1 << 22  # ResID is a 22-bit field


class AllocatorError(ValueError):
    pass


class IdSpaceExhausted(AllocatorError):
    pass


class ResIdAllocator:
    """First-fit interval coloring, one id space per ingress interface."""

    def __init__(self) -> None:
        # ingress -> res_id -> stored (start, end, handle) intervals
        self._ingresses: dict[int, dict[int, list[tuple[int, int, object]]]] = {}
        self._handles: dict[object, tuple[int, int, int, int]] = {}

    def assign(self, ingress: int, start: int, end: int, handle: object) -> int:
        """Reserve an id for [start, end); returns the smallest free one.

        The handle must be unique and is the key for release().
        """
        if start >= end:
            raise AllocatorError(f"empty interval [{start}, {end})")
        if handle in self._handles:
            raise AllocatorError(f"handle {handle!r} already in use")
        by_id = self._ingresses.setdefault(ingress, {})
        for res_id in count():
            if res_id >= MAX_IDS:
                raise IdSpaceExhausted(f"all {MAX_IDS} ids busy on ingress {ingress}")
            stored = by_id.get(res_id)
            if stored is None or all(end <= s or e <= start for s, e, _ in stored):
                break
        by_id.setdefault(res_id, []).append((start, end, handle))
        self._handles[handle] = (ingress, res_id, start, end)
        return res_id

    def release(self, handle: object) -> None:
        entry = self._handles.pop(handle, None)
        if entry is None:
            raise AllocatorError(f"unknown handle {handle!r}")
        ingress, res_id, start, end = entry
        by_id = self._ingresses[ingress]
        stored = by_id[res_id]
        stored.remove((start, end, handle))
        if not stored:
            del by_id[res_id]
