"""Deterministic seed derivation for per-item randomized steps.

Derived seeds make parallel and sequential runs agree: every randomized
sub-step draws from a seed that is a pure function of the global seed
and the item's index, never from shared stream state.
"""

from __future__ import annotations

import numpy as np


def derive_seed(*parts: int) -> int:
    """Mix integer parts, each in [0, 2**32), into one stable 64-bit seed.

    Each part is one 32-bit word of the seed sequence.  A part outside
    that range is a ValueError, not cut to 32 bits, which would give two
    seeds the same draws.
    """
    words = [int(p) for p in parts]
    for word in words:
        if not 0 <= word < 2**32:
            raise ValueError(f"seed part {word} is outside [0, 2**32)")
    state = np.random.SeedSequence(np.array(words, dtype=np.uint32)).generate_state(2)
    return int(state[0]) << 32 | int(state[1])
