"""Exact-arithmetic toolkit for A-type quiver Yangians on Gelfand-Tsetlin crystals.

Everything is computed over exact rationals: states are Gelfand-Tsetlin
patterns, Cartan eigenvalues are factored rational functions, raising and
lowering amplitudes come from closed forms and, independently, from
equivariant Euler-class ratios. The verifier turns the whole algebra into
finite exact matrix identities.
"""
