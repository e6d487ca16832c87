import os
import tracemalloc
from typing import NamedTuple

import pytest
from hypothesis import settings
from hypothesis import strategies as st

from crcforge import ConvCode, IEEDatabase, build_tables, collect_iees, expand_and_dedup

# CI runs with HYPOTHESIS_PROFILE=ci: the same examples on every run, so a
# failure there reproduces, and no deadline, so a slow shared runner
# cannot fail a property on timing. Local runs keep the default profile.
settings.register_profile("ci", derandomize=True, deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


def rotations(bases, counts, N):
    """The words rot^r(b), r < counts[b], base by base, as Python ints.

    Each uint64-limb base row is read as one int and rotated one step
    later in time per word, with no numpy on the way.
    """
    mask = (1 << N) - 1
    for row, count in zip(bases, counts.tolist()):
        word = int.from_bytes(row.tobytes(), "little")
        for _ in range(count):
            yield word
            word = ((word << 1) | (word >> (N - 1))) & mask


def traced_growth(fn, *args):
    """fn(*args), and the most memory it held at once beyond what was live
    when it started, as Python and numpy report allocations to tracemalloc."""
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        result = fn(*args)
        return result, tracemalloc.get_traced_memory()[1] - before
    finally:
        if started:
            tracemalloc.stop()


def rate_half_codes(max_v):
    """Random non-catastrophic rate-1/2 codes of memory 1..max_v.

    Two taps of degree <= v, at least one of degree v, sharing no factor but x.
    """
    return st.integers(1, max_v).flatmap(
        lambda v: st.tuples(st.integers(1, (2 << v) - 1), st.integers(1, (2 << v) - 1))
        .filter(lambda g: max(g).bit_length() == v + 1)
        .map(lambda g: ConvCode(list(g), v))
        .filter(lambda code: not code.is_catastrophic)
    )


class Event(NamedTuple):
    """One event as plain ints: its row of the columns, and its start state."""

    weight: int
    length: int
    input_bits: int
    start_state: int


def event_list(events):
    """The rows of an EventColumns, or of a whole IEEDatabase in file order, as Events."""
    if isinstance(events, IEEDatabase):
        return [e for s in events.ordering for e in event_list(events.events(s))]
    width = 8 * events.inputs.shape[1]
    blob = events.inputs.astype("<u8", copy=False).tobytes()
    bits = [int.from_bytes(blob[i : i + width], "little") for i in range(0, len(blob), width)]
    return [Event(w, n, b, events.state) for w, n, b in zip(events.weights.tolist(), events.lengths.tolist(), bits)]


def path_words(paths):
    """(word, weight) of every path of a TBPathSet, base by base."""
    return list(paths.words())


def state_classes(paths, ordering):
    """{state: (word, weight) of its partition class}, read from a TBPathSet."""
    return {s: list(paths.words(lo, hi)) for s, lo, hi in zip(ordering, paths.offsets, paths.offsets[1:])}


@pytest.fixture(scope="session")
def code1317():
    return ConvCode(["13", "17"], 3)


@pytest.fixture(scope="session")
def db70(code1317):
    # One database reused across design, spectrum, and reuse tests.
    return collect_iees(code1317, 18, 70)


@pytest.fixture(scope="session")
def paths70(db70):
    return expand_and_dedup(build_tables(db70, 70, 18), 70)
