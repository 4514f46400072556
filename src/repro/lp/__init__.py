"""Tiny dense linear-programming substrate.

The GHD search needs the fractional edge cover number ρ* of each bag
(paper §III-A, fhw minimization). The project depends on no LP solver
(no scipy), so :func:`repro.lp.simplex.fractional_edge_cover` solves the
cover's dual packing LP with a small one-phase simplex.
"""
