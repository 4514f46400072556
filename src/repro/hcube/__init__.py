"""HCube one-round shuffle substrate (paper §II-A, §III-B Eq. (3), §V).

``shares`` optimizes the share vector ``p`` (partitions per attribute)
minimizing communication subject to per-server memory; ``shuffle``
implements the hypercube data exchange as a DataFrame transformation
with the paper's Push and Pull implementation variants.
"""
from repro.hcube.shares import (  # noqa: F401
    Shares,
    derive_memory,
    optimize_shares,
)
from repro.hcube.shuffle import hcube_shuffle  # noqa: F401
