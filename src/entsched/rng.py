"""Deterministic random streams.

Topology placement and workload draws take seeds derived from a master
seed plus string labels (`child_seed`, `child_int`). The protocol's
per-slot draws come from `SlotRng`: one counter-based Philox generator
(Salmon et al., SC'11) keyed by the run seed, whose counter is set to
(slot, phase) for each stream. Every stream is a pure function of its
seed and name, independent of the others and stable across processes, so
adding a consumer never perturbs the draws seen by existing ones.
"""

from __future__ import annotations

import hashlib

import numpy as np

_MASK64 = (1 << 64) - 1


def _label_entropy(label: object) -> int:
    digest = hashlib.sha256(str(label).encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


def child_seed(master: int, *labels: object) -> np.random.SeedSequence:
    """SeedSequence for the stream named by `labels` under `master`."""
    entropy = [int(master) & _MASK64]
    entropy.extend(_label_entropy(lab) for lab in labels)
    return np.random.SeedSequence(entropy)


def child_int(master: int, *labels: object) -> int:
    """Plain integer seed for the stream named by `labels`."""
    return int(child_seed(master, *labels).generate_state(1, np.uint64)[0])


class SlotRng:
    """Per-(slot, phase) random streams for one simulation run.

    One Philox bit generator keyed by the run seed serves every stream:
    `stream(slot, phase)` sets its counter to (0, 0, phase, slot) and
    empties its output buffer, so the draws are a pure function of
    (seed, slot, phase), whatever was drawn before. The returned
    generator is shared: the next `stream` call repositions it, so draw
    from one stream before asking for the next.
    """

    def __init__(self, seed: int):
        key = np.random.SeedSequence(int(seed)).generate_state(2, np.uint64)
        self._bits = np.random.Philox(key=key)
        self._gen = np.random.Generator(self._bits)
        # the state just after keying: empty buffer, no cached 32-bit half;
        # `stream` writes (phase, slot) into its counter and assigns it back.
        # Its arrays are held as lists of Python ints, which the state setter
        # reads faster than numpy scalars
        state = self._bits.state
        self._reset = {**state, "buffer": state["buffer"].tolist(),
                       "state": {name: words.tolist() for name, words in state["state"].items()}}
        self._counter = self._reset["state"]["counter"]

    def stream(self, slot: int, phase: int) -> np.random.Generator:
        self._counter[2] = phase
        self._counter[3] = slot
        self._bits.state = self._reset
        return self._gen
