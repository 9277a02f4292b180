"""The seeded random source every stochastic step draws from."""
import numpy as np


class Rng:
    """Seeded, splittable random source.

    Children spawned with split() are statistically independent streams, so a
    single root seed can drive initialization, shuffling and dropout without
    any stream interfering with another. The seed path is kept for audit.
    """

    def __init__(self, seed):
        if isinstance(seed, np.random.SeedSequence):
            self._seq = seed
        else:
            self._seq = np.random.SeedSequence(int(seed))
        self._gen = np.random.default_rng(self._seq)
        self.seed_path = (self._seq.entropy, tuple(self._seq.spawn_key))

    def split(self) -> "Rng":
        return Rng(self._seq.spawn(1)[0])

    def normal(self, shape, scale=1.0) -> np.ndarray:
        return self._gen.normal(0.0, scale, size=shape)

    def uniform(self, shape, low, high) -> np.ndarray:
        return self._gen.uniform(low, high, size=shape)

    def random(self, shape) -> np.ndarray:
        return self._gen.random(shape)

    def permutation(self, n: int) -> np.ndarray:
        return self._gen.permutation(n)
