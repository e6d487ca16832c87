import pytest
from conftest import event_list

from crcforge.encoder import ConvCode, encode_tb
from crcforge.errors import EnumerationGuardError
from crcforge.gf2 import GF2Poly
from crcforge.oracle import (
    brute_force_iees,
    brute_force_partition,
    brute_force_spectrum,
    is_cyclic_closed,
)


@pytest.fixture(scope="module")
def code():
    return ConvCode(["13", "17"], 3)


def test_every_nonzero_input_is_one_path(code):
    counts, undetected = brute_force_spectrum(code, 4)
    assert sum(counts.values()) == 15
    assert undetected == []


def test_parity_crc_keeps_even_weight_inputs(code):
    N = 8
    counts, [parity] = brute_force_spectrum(code, N, [GF2Poly(0b11)])
    assert sum(counts.values()) == (1 << N) - 1
    assert sum(parity.values()) == sum(
        1 for u in range(1, 1 << N) if bin(u).count("1") % 2 == 0
    )


def test_spectrum_guard():
    code = ConvCode(["13", "17"], 3)
    with pytest.raises(EnumerationGuardError):
        brute_force_spectrum(code, 25)
    with pytest.raises(EnumerationGuardError):
        brute_force_partition(code, 25, 8, range(8))


def test_iee_guards():
    big = ConvCode(["133", "171"], 6)
    with pytest.raises(EnumerationGuardError):
        brute_force_iees(big, 0, 10, 10)
    small = ConvCode(["5", "7"], 2)
    with pytest.raises(EnumerationGuardError):
        brute_force_iees(small, 0, 10, 17)


def test_iee_zero_loop_found():
    code = ConvCode(["5", "7"], 2)
    events = event_list(brute_force_iees(code, 0, 6, 8))
    assert events[0].weight == 0 and (events[0].length, events[0].input_bits) == (1, 0)


def test_report_bundles_everything(code):
    # One pass gives every crc's histogram, each that of its multiples alone.
    N = 6
    crcs = [GF2Poly(0b1011), GF2Poly(0b1101), GF2Poly(0b11)]
    counts, undetected = brute_force_spectrum(code, N, crcs)
    assert sum(counts.values()) == (1 << N) - 1
    for crc, hist in zip(crcs, undetected):
        want: dict[int, int] = {}
        for u in range(1, 1 << N):
            if crc.divides(GF2Poly(u)):
                w = encode_tb(code, tuple((u >> i) & 1 for i in range(N))).weight
                want[w] = want.get(w, 0) + 1
        assert hist == want, crc.to_hex()


def test_cyclic_closure_of_partition_classes(code):
    # Every anchor-state class is closed; dropping one word opens it, and one
    # more rotation of a word or a repeated word is a word held twice.
    N = 8
    mask = (1 << N) - 1
    classes = brute_force_partition(code, N, 11, range(code.num_states))
    checked = 0
    for words in classes.values():
        words = sorted(words)
        assert is_cyclic_closed(words, N)
        if len(words) < 2:
            continue
        rotated = ((words[0] << 1) | (words[0] >> (N - 1))) & mask
        assert not is_cyclic_closed(words[1:], N)
        assert not is_cyclic_closed(words + [rotated], N)
        assert not is_cyclic_closed(words + words[-1:], N)
        checked += 1
    assert checked >= 4


def test_cyclic_closure_small_sets():
    assert is_cyclic_closed([], 5)
    assert is_cyclic_closed([0b11111], 5)
    assert is_cyclic_closed(iter([0b0101, 0b1010]), 4)
    assert is_cyclic_closed([1, 2, 4, 8, 16], 5)
    assert not is_cyclic_closed([1, 2, 4, 8], 5)
    assert not is_cyclic_closed([0b11111, 0b11111], 5)
    assert not is_cyclic_closed([1, 2, 4, 8, 16, 1], 5)
