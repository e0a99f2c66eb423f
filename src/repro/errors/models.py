"""Error models applied to INT32 GEMM accumulation results.

:class:`BitFlipModel` is the paper's primary model (Sec. III-A): random bit
flips at a given bit-error rate, restricted to higher accumulator bits since
timing errors predominantly corrupt the most significant bits of the result
[7], [22], [46].

:class:`MagFreqModel` is the controlled model of Sec. III-B used for the
magnitude-vs-frequency study (Q1.4): exactly ``freq`` identical additive
errors of magnitude ``mag`` per GEMM, so that ``MSD = freq * mag``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Protocol, Sequence

import numpy as np

from repro.quant.gemm import wrap_int32

#: Default targeted bit positions: the upper half of the 32-bit accumulator,
#: where timing errors land (carry chains resolve MSBs last).
HIGH_BITS: tuple[int, ...] = tuple(range(16, 32))


class ErrorModel(Protocol):
    """An error model corrupts an int32-valued accumulator array in place
    semantics-free: it returns a *new* corrupted array and an error count.
    A count of zero means the returned array equals ``acc`` (the lane
    injector relies on it to skip writing a clean block back).

    Lane contract (DESIGN.md section 9): ``corrupt`` must derive every draw
    from ``acc``'s own shape/content and the supplied ``rng`` — never from
    process-global state — because the lane-vectorized executor feeds each
    lane its *block* of a packed accumulator (``ErrorInjector.corrupt_block``)
    and relies on the draws being bit-identical to a solo run on the same
    array. Per-instance memoization keyed on observable array properties
    (e.g. :class:`StuckHighBitModel`'s per-width column picks) is fine:
    every lane owns a private model instance.
    """

    def corrupt(
        self, acc: np.ndarray, rng: np.random.Generator
    ) -> tuple[np.ndarray, int]:
        """Return (corrupted accumulators, number of injected errors)."""
        ...


def flip_bits(acc: np.ndarray, bit_mask: np.ndarray) -> np.ndarray:
    """XOR an int32-valued (int64-stored) array with per-element bit masks.

    The XOR is performed on the two's-complement uint32 view so flipping
    bit 31 toggles the sign, exactly as in hardware.
    """
    as_u32 = np.asarray(acc, dtype=np.int64).astype(np.uint32)
    flipped = as_u32 ^ bit_mask.astype(np.uint32)
    return wrap_int32(flipped.astype(np.int64))


@dataclass
class BitFlipModel:
    """Independent random bit flips at rate ``ber`` over ``bits``.

    For each accumulator element and each targeted bit position, a flip
    occurs independently with probability ``ber``. ``bits`` defaults to the
    high half of the accumulator; single-bit studies (Q1.2) pass ``bits=(k,)``.
    """

    ber: float
    bits: Sequence[int] = HIGH_BITS

    def __post_init__(self) -> None:
        if not 0.0 <= self.ber <= 1.0:
            raise ValueError(f"ber must be in [0, 1], got {self.ber}")
        if any(not 0 <= b < 32 for b in self.bits):
            raise ValueError(f"bit positions must be in [0, 32): {self.bits}")

    def corrupt(
        self, acc: np.ndarray, rng: np.random.Generator
    ) -> tuple[np.ndarray, int]:
        if self.ber == 0.0 or acc.size == 0:
            return np.array(acc, copy=True), 0
        # Expected flips; draw the total count then scatter, which is far
        # cheaper than an (elements x bits) Bernoulli field at low BER.
        n_cells = acc.size * len(self.bits)
        n_flips = int(rng.binomial(n_cells, self.ber))
        if n_flips == 0:
            return np.array(acc, copy=True), 0
        cells = rng.choice(n_cells, size=n_flips, replace=False)
        element_idx = cells // len(self.bits)
        bit_idx = np.asarray(self.bits, dtype=np.uint32)[cells % len(self.bits)]
        # Sparse application: XOR only the hit elements instead of streaming
        # the whole accumulator through a uint32 round trip — bit-identical
        # (untouched int32-range values survive the old round trip unchanged)
        # and identical RNG draws, just without the full-array passes.
        out = np.array(acc, dtype=np.int64)
        flat = out.reshape(-1)
        uniq, inverse = np.unique(element_idx, return_inverse=True)
        bit_masks = np.zeros(uniq.size, dtype=np.uint32)
        np.bitwise_xor.at(bit_masks, inverse, (np.uint32(1) << bit_idx))
        flipped = flat[uniq].astype(np.uint32) ^ bit_masks
        flat[uniq] = wrap_int32(flipped.astype(np.int64))
        affected = int(np.count_nonzero(bit_masks))
        return out, affected


@dataclass
class MagFreqModel:
    """Exactly ``freq`` additive errors of magnitude ``mag`` per GEMM matrix.

    A "matrix" is one 2-D output slice: the whole result of a plain GEMM, or
    each stacked (sequence, attention-head) slice of a batched GEMM — so the
    injection *density* is invariant to batching and matches the paper's
    per-GEMM Q1.4 protocol (see DESIGN.md section 5). ``sign`` controls the
    error polarity (+1, -1, or 0 for random signs). With identical signs
    each slice's sum deviation satisfies ``MSD = freq * mag``.
    """

    mag: int
    freq: int
    sign: int = 1

    def __post_init__(self) -> None:
        if self.mag < 0:
            raise ValueError("mag must be non-negative")
        if self.freq < 0:
            raise ValueError("freq must be non-negative")
        if self.sign not in (-1, 0, 1):
            raise ValueError("sign must be -1, 0, or +1")

    def _corrupt_slice(self, flat: np.ndarray, rng: np.random.Generator) -> int:
        """Inject into one flattened 2-D slice in place; returns the count."""
        count = min(self.freq, flat.size)
        positions = rng.choice(flat.size, size=count, replace=False)
        if self.sign == 0:
            signs = rng.choice(np.array([-1, 1], dtype=np.int64), size=count)
        else:
            signs = np.full(count, self.sign, dtype=np.int64)
        flat[positions] = wrap_int32(flat[positions] + signs * self.mag)
        return count

    def corrupt(
        self, acc: np.ndarray, rng: np.random.Generator
    ) -> tuple[np.ndarray, int]:
        if self.freq == 0 or self.mag == 0 or acc.size == 0:
            return np.array(acc, copy=True), 0
        out = np.array(acc, dtype=np.int64)
        slice_size = out.shape[-1] * (out.shape[-2] if out.ndim >= 2 else 1)
        slices = out.reshape(-1, slice_size)
        total = 0
        for row in slices:
            total += self._corrupt_slice(row, rng)
        return slices.reshape(acc.shape), total


@dataclass
class StuckHighBitModel:
    """Permanent-fault flavour: a fixed bit is stuck at 1 for a random subset
    of output columns (chosen once per model instance).

    Included for completeness of the fault taxonomy (Tab. I discusses
    permanent faults as straightforward to detect); used in tests and in the
    failure-injection suite rather than headline experiments.
    """

    bit: int
    column_fraction: float = 0.01
    _columns: dict[int, np.ndarray] = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        if not 0 <= self.bit < 32:
            raise ValueError("bit must be in [0, 32)")
        if not 0.0 <= self.column_fraction <= 1.0:
            raise ValueError("column_fraction must be in [0, 1]")

    def corrupt(
        self, acc: np.ndarray, rng: np.random.Generator
    ) -> tuple[np.ndarray, int]:
        if acc.ndim < 2 or acc.size == 0 or self.column_fraction == 0.0:
            return np.array(acc, copy=True), 0
        n_cols = acc.shape[-1]
        if n_cols not in self._columns:
            n_pick = max(1, int(round(self.column_fraction * n_cols)))
            self._columns[n_cols] = rng.choice(n_cols, size=n_pick, replace=False)
        cols = self._columns[n_cols]
        as_u32 = np.asarray(acc, dtype=np.int64).astype(np.uint32)
        as_u32[..., cols] |= np.uint32(1) << np.uint32(self.bit)
        corrupted = wrap_int32(as_u32.astype(np.int64))
        changed = int(np.count_nonzero(corrupted != acc))
        return corrupted, changed
