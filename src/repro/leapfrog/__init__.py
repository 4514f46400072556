"""Sequential worst-case-optimal join substrate (paper §II-A).

``trie`` builds the nested sorted-array (CSR) index per relation,
``leapfrog`` runs the Leapfrog trie-join of Alg. 1 over a set of tries,
and ``cache`` adds the bounded intersection cache used by the
HCubeJ+Cache baseline [28].
"""
from repro.leapfrog.cache import IntersectionCache  # noqa: F401
from repro.leapfrog.leapfrog import LFResult, leapfrog  # noqa: F401
from repro.leapfrog.trie import Trie  # noqa: F401
