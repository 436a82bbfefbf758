"""Hand-built pairing tables shared by the test modules."""

import numpy as np

from pairdeploy.scheme import PairingTable, SchemeParams


def table_from_lists(n, k, rows):
    """A table from 1-based selection lists, in any order within a row.

    Each row is sorted and shifted to 0-based ids; PairingTable rejects
    repeated, self-selected and out-of-range ids.
    """
    return PairingTable(SchemeParams(n, k), np.array([sorted(j - 1 for j in row) for row in rows]))
