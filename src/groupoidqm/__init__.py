"""Finite-groupoid quantum mechanics: algebras, history sums, qubit propagator.

The package models measurement outcomes and transitions as a finite groupoid,
builds the associated *-algebra with its fundamental matrix representation,
sums amplitudes over discrete histories, and solves the unitarity constraints
of the biased two-outcome propagator, including the phase quantization they
force.

The package re-exports nothing: each name is imported from the module that
defines it, as in ``from groupoidqm.histories import n_step_path_sum``.
"""

__version__ = "0.1.0"
