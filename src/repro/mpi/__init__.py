"""Simulated MPI for the multi-GPU experiments (paper Figure 9).

The paper's multi-GPU runs use MPI root-style aggregation: every rank
owns one GPU, searches independently, and the root statistics are
reduced at the end of the move budget.  We reproduce that with an
in-process cluster: every rank has its own virtual clock, collectives
charge alpha-beta network costs along binomial trees and leave rank
clocks synchronised -- the mpi4py call shapes are mirrored so the
engine code would port to real MPI unchanged.
"""

from repro.mpi.cluster import MpiCluster, RankContext
from repro.mpi.network import NetworkModel, TSUBAME_IB

__all__ = ["MpiCluster", "RankContext", "NetworkModel", "TSUBAME_IB"]
