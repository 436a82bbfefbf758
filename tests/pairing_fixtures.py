"""Hand-built pairing tables, per-trial deployment outcomes and the
no-child check shared by the test modules."""

import os

import numpy as np
import pytest

from pairdeploy.graphs import connected_at
from pairdeploy.sampling import fold, sample_pairing_block
from pairdeploy.scheme import PairingTable, SchemeParams, phase_size


def table_from_lists(n, k, rows):
    """A table from 1-based selection lists, in any order within a row.

    Each row is sorted and shifted to 0-based ids; PairingTable rejects
    repeated, self-selected and out-of-range ids.
    """
    return PairingTable(SchemeParams(n, k), np.array([sorted(j - 1 for j in row) for row in rows]))


def per_trial_outcomes(plan, k):
    """(connected, isolated) of every trial of the plan's tables for k, the
    record that run_sweep only counts: one row per fraction, in
    the order of plan.gammas.  The tables are drawn in one block, and each
    distinct view size is asked of the kernel on its own."""
    ms = [phase_size(plan.n, g) for g in plan.gammas]
    block = sample_pairing_block(fold(plan.base_seed, k), range(plan.trials), plan.n, k, range(max(ms)))
    answers = {m: connected_at(block, (m,)) for m in set(ms)}
    return tuple(np.stack([answers[m][i][0] for m in ms]) for i in (0, 1))


def assert_no_child_left():
    """This process has no child, running or unreaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
