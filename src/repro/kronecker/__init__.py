"""Kronecker graph substrate.

Implements the three pieces PGSK (Fig. 3 of the paper) needs:

* :class:`~repro.kronecker.initiator.InitiatorMatrix` — the stochastic
  initiator ``Theta`` whose Kronecker powers define edge probabilities.
* :func:`~repro.kronecker.kronfit.kronfit` — maximum-likelihood fitting of
  a 2x2 initiator to an observed graph (gradient ascent over ``Theta``
  alternated with Metropolis sampling over the node permutation), following
  Leskovec et al., JMLR 2010.
* :func:`~repro.kronecker.expand.stochastic_kronecker_edges` — edge
  placement by recursive descent, the O(|E|) generation step, including the
  collision-and-``distinct()`` loop the paper's Map-Reduce implementation
  performs.
"""

from repro.kronecker.initiator import InitiatorMatrix
from repro.kronecker.expand import stochastic_kronecker_edges
from repro.kronecker.kronfit import kronfit, kronecker_log_likelihood

__all__ = [
    "InitiatorMatrix",
    "stochastic_kronecker_edges",
    "kronfit",
    "kronecker_log_likelihood",
]
