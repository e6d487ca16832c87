import pytest
from hypothesis import given
from hypothesis import strategies as st

from crcforge.encoder import ConvCode, encode_tb
from crcforge.errors import CodeConstructionError


@pytest.fixture(scope="module")
def code():
    return ConvCode(["13", "17"], 3)


class TestStateMachine:
    def test_shift_register_updates(self, code):
        assert code.next_state(0, 1) == 4
        assert code.next_state(4, 0) == 2
        assert code.next_state(7, 1) == 7
        assert code.next_state(7, 0) == 3

    def test_branch_output_example(self, code):
        assert code.branch_output(1, 0) == (1, 1)

    def test_branches_enumeration(self, code):
        # All 2^(v+1) trellis edges: every state is entered by exactly two,
        # and each edge's label weight is its branch weight.
        edges = [(s, b, code.next_state(s, b)) for s in range(8) for b in (0, 1)]
        assert len(edges) == 16
        assert sorted(t for _s, _b, t in edges) == sorted(list(range(8)) * 2)
        for s, b, _t in edges:
            assert code.branch_weight(s, b) == sum(code.branch_output(s, b))


class TestEncodeTB:
    def test_impulse_trace(self, code):
        path = encode_tb(code, (1, 0, 0, 0, 0, 0, 0, 0))
        assert path.outputs == (1, 1, 0, 1, 1, 1, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0)
        assert path.weight == 7
        assert path.states[0] == path.states[-1] == 0

    def test_wraparound_trace(self, code):
        # Last v=3 bits seed the register, so this path starts at state 1.
        path = encode_tb(code, (1, 1, 0, 0, 0))
        assert path.outputs == (1, 1, 1, 0, 1, 0, 0, 0, 1, 1)
        assert path.weight == 6

    def test_all_zero_input(self, code):
        path = encode_tb(code, (0,) * 8)
        assert path.weight == 0
        assert set(path.states) == {0}

    def test_too_short_input(self, code):
        with pytest.raises(ValueError):
            encode_tb(code, (1, 0))

    @pytest.mark.parametrize("n_bits", [3, 5, 8, 10])
    def test_closure_exhaustive(self, code, n_bits):
        for u in range(1 << n_bits):
            inputs = tuple((u >> i) & 1 for i in range(n_bits))
            path = encode_tb(code, inputs)
            assert path.states[0] == path.states[-1]
            assert len(path.outputs) == 2 * n_bits


@given(st.integers(0, 255), st.integers(0, 255))
def test_linearity(u, w):
    code = ConvCode(["13", "17"], 3)
    N = 8
    enc = lambda x: encode_tb(code, tuple((x >> i) & 1 for i in range(N))).outputs
    xored = tuple(a ^ b for a, b in zip(enc(u), enc(w)))
    assert xored == enc(u ^ w)


@given(st.integers(1, 1023), st.integers(1, 9))
def test_cyclic_covariance(u, t):
    # Rotating the input word rotates outputs by n*t and states by t.
    code = ConvCode(["13", "17"], 3)
    N = 10
    rotated = ((u << t) | (u >> (N - t))) & ((1 << N) - 1)
    p1 = encode_tb(code, tuple((u >> i) & 1 for i in range(N)))
    p2 = encode_tb(code, tuple((rotated >> i) & 1 for i in range(N)))
    n = code.n
    assert p2.outputs == p1.outputs[-n * t:] + p1.outputs[:-n * t]
    assert p2.states[:N] == p1.states[N - t:N] + p1.states[:N - t]
    assert p2.weight == p1.weight


class TestConstruction:
    def test_catastrophic_flag(self):
        # x^2+x and x^2+1 share the factor x+1.
        assert ConvCode(["3", "5"], 2).is_catastrophic
        assert not ConvCode(["5", "7"], 2).is_catastrophic
        assert not ConvCode(["13", "17"], 3).is_catastrophic
        assert not ConvCode(["133", "171"], 6).is_catastrophic

    def test_no_generator_reaches_degree_v(self):
        with pytest.raises(CodeConstructionError):
            ConvCode(["6", "4"], 2)
        with pytest.raises(CodeConstructionError):
            ConvCode(["13", "17"], 4)

    def test_bad_memory(self):
        with pytest.raises(CodeConstructionError):
            ConvCode(["13", "17"], 0)

    @pytest.mark.parametrize("gens", [[0, 0b1111], [-0b1101, 0b1111]])
    def test_nonpositive_int_generator(self, gens):
        with pytest.raises(CodeConstructionError, match="generators must be positive"):
            ConvCode(gens, 3)

    def test_no_generators(self):
        with pytest.raises(CodeConstructionError):
            ConvCode([], 3)
