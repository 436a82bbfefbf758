"""Byte-level contract: sampler blocks and CLI outputs pinned by sha256.

Any rewrite of the sampler or of the Monte Carlo kernels must reproduce
these digests exactly: a speedup that changes one draw or one output byte
for a fixed seed is a different program.
"""

import contextlib
import hashlib
import io

import pytest

from pairdeploy.cli import main
from pairdeploy.sampling import sample_pairing_block


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# (seed, first_trial, n_trials, n, k) -> sha256 of the C-order int64 bytes
BLOCK_DIGESTS = {
    (0, 0, 4, 10, 1): "c656211631704bffc9c70ba4d375a2fa65bb71c537b4cfbbeb1b053d713ed2d7",
    (7, 0, 3, 10, 9): "14c10835355d55beb4706282ccd46aa564dc83ca3587d334076e1a6f8bc5a4fe",
    (1729, 5, 6, 50, 3): "89e6f8a172f66edfcf1924129ba557995f07dc384e6f092a5a989865a394e428",
    (31337, 0, 10, 40, 3): "6309ddf315231c44de99ca1478dd400008b6e3e122c237e6caca724ad9c8ffda",
    (31337, 0, 4, 40, 3): "1c445799d9996b597e942eef64f339b5818c78493af328d6a7ad84f6103bf19c",
    (31337, 4, 6, 40, 3): "0e81d3d1b2d7bfe3586dd157c627804d7a331d26fa85cbc637070f05599b2dc4",
    (2**40 + 3, 123, 2, 1000, 25): "80f8710731647a5363673bf1bd3c1fc5b13c399e8ce1fb22f47cbb4a38f5e859",
    (99, 0, 5, 2, 1): "cbea8128e418b1507b23c43c958adffb2657c041cc00f7672aebfa40f5921341",
}


@pytest.mark.parametrize("spec", sorted(BLOCK_DIGESTS), ids=lambda spec: "-".join(map(str, spec)))
def test_pairing_block_digest(spec):
    block = sample_pairing_block(*spec)
    assert block.shape == spec[2:]
    assert digest(block.tobytes()) == BLOCK_DIGESTS[spec]


def test_two_block_partition_digest():
    """Trials 0..9 drawn as 0..3 plus 4..9 hash like the single block."""
    parts = [sample_pairing_block(31337, 0, 4, 40, 3), sample_pairing_block(31337, 4, 6, 40, 3)]
    joined = b"".join(p.tobytes() for p in parts)
    assert digest(joined) == BLOCK_DIGESTS[(31337, 0, 10, 40, 3)]


CLI_COMMANDS = {
    "sweep_small": "sweep --n 60 --k 1..6 --gamma 0.3,0.6,1.0 --trials 40 --seed 5",
    # 170 trials split into two blocks at both K (160 + 10 and 166 + 4)
    "sweep_split": "sweep --n 1000 --k 24,25 --gamma 0.2,1.0 --trials 170",
    "phased": "phased --n 120 --k 4 --schedule 0.25,0.5,1.0 --trials 50 --seed 11",
    "census": "census --n 80 --k 3 --trials 60 --seed 2",
}

CLI_DIGESTS = {
    ("sweep_small", "csv"): "bbe53e36f5f7dc0c8eb6c8c4684f7dff66bbc9f811a5406f1a177ebb232139b2",
    ("sweep_small", "json"): "2481ecc38c7e3dcd2eb240969c0c7c0c046ec164d72f23f3cd8e651ff8a25e0a",
    ("sweep_split", "csv"): "37362bd257fbba6cb134c9bb806f0a17c22df574b718b3b65b264e1e37847ad7",
    ("sweep_split", "json"): "31ae1d5df6d402f5edcbe993336979dd816e693b24d747db29d1bc990d42b6a8",
    ("phased", "csv"): "67e7ee87fe43307f08dccea3266265d400854e486c3c70227a1b1b537935d40d",
    ("phased", "json"): "99524cfa786e0aa92bd9330d5db6a43b8f82fbc5d4d1c9b6f46672bfcc11444e",
    ("census", "csv"): "6a5ba01bda085f1b37441535a1f801194ba6f27775663ec5639ef5f5a939a526",
    ("census", "json"): "834b459fa2af7c37a82fb1bea9f5f440bbd1e36a24e7cc7355240e03bfe7bc9b",
}


@pytest.mark.parametrize("case", sorted(CLI_DIGESTS), ids="-".join)
def test_cli_output_digest(case):
    label, fmt = case
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(CLI_COMMANDS[label].split() + ["--format", fmt])
    assert code == 0
    assert digest(buf.getvalue().encode()) == CLI_DIGESTS[case]
