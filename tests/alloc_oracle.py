"""Reference views of ResID assignment for tests of `residalloc`.

`optimal_coloring` is the offline optimum that first fit is measured
against; `active_intervals` reads what an allocator has stored.
"""

from __future__ import annotations

from hummingbird.residalloc import ResIdAllocator


def optimal_coloring(intervals: list[tuple[int, int]]) -> int:
    """Offline optimum: max point overlap, by sweep line.

    With half-open intervals the optimum equals the deepest stack of
    concurrently active ones; ends are processed before starts at the
    same coordinate.
    """
    events = sorted([(s, 1) for s, _ in intervals] + [(e, -1) for _, e in intervals])
    depth = best = 0
    for _, delta in events:
        depth += delta
        best = max(best, depth)
    return best


def active_intervals(allocator: ResIdAllocator, ingress: int) -> list[tuple[int, int, int]]:
    """(res_id, start, end) for every interval stored on this ingress, sorted."""
    return sorted(
        (res_id, s, e)
        for res_id, stored in allocator._ingresses.get(ingress, {}).items()
        for s, e, _ in stored
    )
