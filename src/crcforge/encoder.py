"""Feedforward (n,1,v) convolutional encoders on the tail-biting trellis.

State convention: the state int keeps the last v input bits, newest at bit
v-1, so a step is ``state' = (state >> 1) | (bit << (v-1))`` and the state
reached after feeding bits ...u[t-v..t-1] literally equals the int packing
u[t-v] at bit 0 through u[t-1] at bit v-1. Tail-biting encoding seeds the
register with the last v input bits, which makes every input sequence a
closed trellis path (states[0] == states[N]).

Branch outputs come from the generator taps: generator coefficient of x^t
taps the input from t steps ago. With the combined window
``(bit << v) | state`` (window bit k = input from v-k steps ago), output j
is the XOR-parity of ``window & mask_j`` where mask_j is generator j's
coefficients bit-reversed into v+1 positions.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from typing import Sequence

from .errors import CodeConstructionError
from .gf2 import GF2Poly, parse_octal, poly_gcd

__all__ = ["ConvCode", "TBPath", "encode_tb"]


@dataclass(frozen=True)
class TBPath:
    """A closed trellis path of length N.

    states has N+1 entries with states[0] == states[N]; outputs is the flat
    n*N-bit label sequence, generator 0 first within each step.
    """

    inputs: tuple[int, ...]
    states: tuple[int, ...]
    outputs: tuple[int, ...]
    weight: int


class ConvCode:
    """A feedforward rate-1/n convolutional code with v memory elements.

    Generators may be octal tap strings ("13") or GF2Poly values. Every
    generator must have degree <= v and at least one must have degree
    exactly v, otherwise the declared memory is wrong. Only rate 1/n
    feedforward encoders are representable: there is no way to pass
    feedback polynomials or multi-bit inputs.

    The catastrophic check (generator gcd must be a pure power of x) is
    evaluated once and recorded; catastrophic codes can still be inspected
    here, but event collection refuses them.
    """

    __slots__ = (
        "generators_octal",
        "n",
        "v",
        "num_states",
        "is_catastrophic",
        "_next",
        "_outputs",
        "_out_weight",
    )

    def __init__(self, generators: Sequence[str | GF2Poly], v: int):
        if v < 1:
            raise CodeConstructionError(f"memory order v must be >= 1, got {v}")
        if not generators:
            raise CodeConstructionError("at least one generator is required")
        polys = tuple(
            g if isinstance(g, GF2Poly) else parse_octal(g) for g in generators
        )
        if any(p.is_zero for p in polys):
            raise CodeConstructionError("zero generator polynomial")
        tops = [p.degree for p in polys]
        if max(tops) != v:
            raise CodeConstructionError(
                f"no generator has degree {v}; their highest taps are {', '.join(f'x^{t}' for t in tops)}"
            )
        self.generators_octal = tuple(p.to_octal() for p in polys)
        self.n = len(polys)
        self.v = v
        self.num_states = 1 << v
        gcd = reduce(poly_gcd, polys)
        self.is_catastrophic = gcd.bits.bit_count() != 1

        # Tap masks against the (bit << v) | state window: coefficient of
        # x^t lands at window bit v-t.
        masks = [int(f"{p.bits:0{v + 1}b}"[::-1], 2) for p in polys]
        nstates = self.num_states
        self._next = tuple(
            (s >> 1) | (b << (v - 1)) for s in range(nstates) for b in (0, 1)
        )
        outputs = []
        for s in range(nstates):
            for b in (0, 1):
                window = (b << v) | s
                outputs.append(tuple((window & m).bit_count() & 1 for m in masks))
        self._outputs = tuple(outputs)
        self._out_weight = tuple(sum(label) for label in outputs)

    def next_state(self, state: int, bit: int) -> int:
        return self._next[(state << 1) | bit]

    def branch_output(self, state: int, bit: int) -> tuple[int, ...]:
        return self._outputs[(state << 1) | bit]

    def branch_weight(self, state: int, bit: int) -> int:
        return self._out_weight[(state << 1) | bit]

    def __repr__(self) -> str:
        gens = ",".join(self.generators_octal)
        return f"ConvCode(({gens}) octal, v={self.v})"


def encode_tb(code: ConvCode, inputs: Sequence[int]) -> TBPath:
    """Tail-biting encode: seed the register with the last v input bits.

    Requires N >= v. The returned path always satisfies the tail-biting
    closure states[0] == states[N]; with the state convention above the
    initial state is exactly the int formed by the last v inputs.
    """
    n_steps = len(inputs)
    v = code.v
    if n_steps < v:
        raise ValueError(f"need at least v={v} input bits, got {n_steps}")
    state = 0
    for k in range(v):
        state |= (inputs[n_steps - v + k] & 1) << k
    first = state
    states = [state]
    outputs: list[int] = []
    weight = 0
    for bit in inputs:
        idx = (state << 1) | (bit & 1)
        outputs.extend(code._outputs[idx])
        weight += code._out_weight[idx]
        state = code._next[idx]
        states.append(state)
    assert state == first, "tail-biting closure violated"
    return TBPath(
        inputs=tuple(b & 1 for b in inputs),
        states=tuple(states),
        outputs=tuple(outputs),
        weight=weight,
    )
