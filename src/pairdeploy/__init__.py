"""Random pairwise key predistribution under gradual deployment.

Each of n sensor nodes is paired offline with k uniformly chosen partners;
a pair can communicate securely once deployed if either selected the
other.  This package computes the exact and asymptotic connectivity
behavior of the induced key graph when only a fraction of the nodes is
deployed, and cross-checks every formula with Monte Carlo experiments.

Layout: the package exposes its modules, and each module's __all__ is its
API: scheme (scheme sizes, pairing tables and deployed view sizes),
graphs (the block kernel for connectivity and isolation), theory
(closed-form calculators), montecarlo (repeat-trial harness), sampling
(deterministic PRNG).  cli (command-line front end) is not imported
here, so importing the package loads no argparse, csv or json.
"""

from . import graphs, montecarlo, sampling, scheme, theory

__version__ = "0.1.0"

__all__ = ["graphs", "montecarlo", "sampling", "scheme", "theory", "__version__"]
