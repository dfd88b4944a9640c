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


class _IngressState:
    def __init__(self) -> None:
        self.by_id: dict[int, list[tuple[int, int, object]]] = {}
        self.max_id_assigned = -1


class ResIdAllocator:
    """First-fit interval coloring, one id space per ingress interface."""

    def __init__(self, max_ids: int = MAX_IDS):
        self.max_ids = max_ids
        self._ingresses: dict[int, _IngressState] = {}
        self._handles: dict[object, tuple[int, int, int, int]] = {}

    def _state(self, ingress: int) -> _IngressState:
        return self._ingresses.setdefault(ingress, _IngressState())

    def assign(self, ingress: int, start: int, end: int, handle: object) -> int:
        """Reserve an id for [start, end); returns the smallest free one.

        The handle must be unique and is the key for release().
        """
        if start >= end:
            raise AllocatorError(f"empty interval [{start}, {end})")
        if handle in self._handles:
            raise AllocatorError(f"handle {handle!r} already in use")
        state = self._state(ingress)
        for res_id in count():
            if res_id >= self.max_ids:
                raise IdSpaceExhausted(f"all {self.max_ids} ids busy on ingress {ingress}")
            stored = state.by_id.get(res_id)
            if stored is None or all(end <= s or e <= start for s, e, _ in stored):
                break
        state.by_id.setdefault(res_id, []).append((start, end, handle))
        state.max_id_assigned = max(state.max_id_assigned, res_id)
        self._handles[handle] = (ingress, res_id, start, end)
        return res_id

    def release(self, handle: object) -> None:
        entry = self._handles.pop(handle, None)
        if entry is None:
            raise AllocatorError(f"unknown handle {handle!r}")
        ingress, res_id, start, end = entry
        stored = self._ingresses[ingress].by_id[res_id]
        stored.remove((start, end, handle))
        if not stored:
            del self._ingresses[ingress].by_id[res_id]

    def high_water(self, ingress: int) -> int:
        """Largest id ever assigned on this ingress, plus one."""
        state = self._ingresses.get(ingress)
        return 0 if state is None else state.max_id_assigned + 1

    def active_intervals(self, ingress: int) -> list[tuple[int, int, int]]:
        """(res_id, start, end) for every stored interval; test support."""
        state = self._ingresses.get(ingress)
        if state is None:
            return []
        return sorted(
            (res_id, s, e)
            for res_id, stored in state.by_id.items()
            for s, e, _ in stored
        )


def optimal_coloring(intervals: list[tuple[int, int]]) -> int:
    """Offline optimum: max point overlap, by sweep line.

    With half-open intervals the optimum equals the deepest stack of
    concurrently active ones; ends are processed before starts at the
    same coordinate.
    """
    events = []
    for start, end in intervals:
        if start >= end:
            raise AllocatorError(f"empty interval [{start}, {end})")
        events.append((start, 1))
        events.append((end, -1))
    events.sort()
    depth = best = 0
    for _, delta in events:
        depth += delta
        best = max(best, depth)
    return best
