"""Single-pass streaming max-degree (Delta) graph coloring.

The pipeline ingests an edge stream once, keeping only palette-filtered
edges, Bernoulli neighbor samples, and prime-field sketches, then colors the
graph with at most Delta colors in post-processing (or reports that a
component is a (Delta+1)-clique / odd cycle, where no such coloring
exists).
"""

from streamcolor.params import ParamSet

__all__ = ["ParamSet"]
__version__ = "0.1.0"
