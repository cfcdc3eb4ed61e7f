"""The benchmark's workloads: which instance to generate and how to color it.

Every instance is built by `streamcolor.generators.generate_instance` from
the benchmark seed; the program under test only ever sees the written
edge-list file. Why each workload exists is in README.md.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    family: str
    delta: int
    n: int | None = None       # random-regular vertex count
    count: int = 1             # mixed block count (4 almost-cliques each)
    no_shadow: bool = False    # RunConfig.no_shadow

    def generate(self, seed: int):
        from streamcolor.generators import generate_instance

        return generate_instance(
            self.family, self.delta, count=self.count, n=self.n, seed=seed
        )


WORKLOADS = {
    "rr16-sparse": Workload("random-regular", 16, n=2000),
    "rr64-sketch": Workload("random-regular", 64, n=600),
    "mixed-cliques": Workload("mixed", 32, count=6),
    "mixed-noshadow": Workload("mixed", 32, count=6, no_shadow=True),
}
