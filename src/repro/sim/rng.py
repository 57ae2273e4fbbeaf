"""Reproducible named random streams.

Every stochastic component of the simulator draws from its own named stream so
that (a) runs are reproducible for a fixed master seed and (b) adding a new
component does not perturb the draws of existing ones (a classic variance-
reduction / reproducibility idiom in parallel simulation).
"""

from __future__ import annotations

import hashlib

import numpy as np

__all__ = ["RandomStreams", "derive_seed"]

#: Seeds are drawn from a 64-bit space; SHA-256 keeps the derivation stable
#: across platforms and Python hash randomization (unlike ``hash()``).
_SEED_BITS = 64


def derive_seed(seed: int, key: str) -> int:
    """Derive a child master seed from ``(seed, key)``.

    The mapping is deterministic and collision-free for distinct keys (up to
    the 64-bit birthday bound), so callers may derive one seed per task —
    ``derive_seed(7, "R1:3")`` — and get the same stream no matter which
    worker, in which order, eventually runs the task.  The separator differs
    from the one :meth:`RandomStreams.stream` uses, so a factory seeded with
    a derived seed never replays the named streams of its parent seed.
    """
    digest = hashlib.sha256(f"{int(seed)}/{key}".encode("utf-8")).digest()
    return int.from_bytes(digest[: _SEED_BITS // 8], "big")


class RandomStreams:
    """A factory of independent :class:`numpy.random.Generator` streams.

    Each stream is keyed by a string name; the stream's seed is derived from
    ``(master_seed, name)`` via SHA-256, so the mapping is stable across runs,
    platforms and Python hash randomization.
    """

    def __init__(self, seed: int = 0) -> None:
        self.seed = int(seed)
        self._streams: dict[str, np.random.Generator] = {}

    def stream(self, name: str) -> np.random.Generator:
        """Return (creating on first use) the generator for ``name``."""
        generator = self._streams.get(name)
        if generator is None:
            digest = hashlib.sha256(
                f"{self.seed}:{name}".encode("utf-8")
            ).digest()
            entropy = int.from_bytes(digest[:16], "big")
            generator = np.random.Generator(
                np.random.PCG64(np.random.SeedSequence(entropy))
            )
            self._streams[name] = generator
        return generator

    def __contains__(self, name: str) -> bool:
        return name in self._streams

    def names(self) -> tuple[str, ...]:
        """Names of streams created so far."""
        return tuple(self._streams)
