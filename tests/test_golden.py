"""Byte-level contract: sampler blocks and CLI outputs pinned by sha256.

Any rewrite of the sampler, the Monte Carlo kernels or the closed forms
must reproduce these digests exactly: a speedup or a refactor that changes
one draw or one output byte for a fixed seed is a different program.  The
closed forms are also pinned bit for bit, below the nine digits the CLI
prints.
"""

import contextlib
import hashlib
import io

import numpy as np
import pytest

from pairdeploy import theory
from pairdeploy.cli import _THEORY_QUERIES, main
from pairdeploy.sampling import sample_pairing_block


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# (seed, first_trial, n_trials, n, k) -> sha256 of the C-order int64 bytes
# (blocks come in the sampler's narrow type; int64 pins their values)
BLOCK_DIGESTS = {
    (0, 0, 4, 10, 1): "c656211631704bffc9c70ba4d375a2fa65bb71c537b4cfbbeb1b053d713ed2d7",
    (7, 0, 3, 10, 9): "14c10835355d55beb4706282ccd46aa564dc83ca3587d334076e1a6f8bc5a4fe",
    (1729, 5, 6, 50, 3): "89e6f8a172f66edfcf1924129ba557995f07dc384e6f092a5a989865a394e428",
    (31337, 0, 10, 40, 3): "6309ddf315231c44de99ca1478dd400008b6e3e122c237e6caca724ad9c8ffda",
    (31337, 0, 4, 40, 3): "1c445799d9996b597e942eef64f339b5818c78493af328d6a7ad84f6103bf19c",
    (31337, 4, 6, 40, 3): "0e81d3d1b2d7bfe3586dd157c627804d7a331d26fa85cbc637070f05599b2dc4",
    (2**40 + 3, 123, 2, 1000, 25): "80f8710731647a5363673bf1bd3c1fc5b13c399e8ce1fb22f47cbb4a38f5e859",
    (99, 0, 5, 2, 1): "cbea8128e418b1507b23c43c958adffb2657c041cc00f7672aebfa40f5921341",
    # k = 32 is the last sorted by the comparator network, k = 33 the first by numpy
    (2024, 0, 3, 200, 32): "7d1e2a43f7045d7e2282428cc2ecc0574d27a4701ea4a321babc696ce32629b5",
    (2024, 0, 3, 200, 33): "6aa80c03821eb6e021d8697a85a822592d3acf97687734c368c4723191b19cec",
    # an int32 block
    (2024, 0, 1, 40000, 4): "d9adad35fe57a0595450124b5f7ce652a42f841c741d8a77cd7bb2d018deadfe",
}


@pytest.mark.parametrize("spec", sorted(BLOCK_DIGESTS), ids=lambda spec: "-".join(map(str, spec)))
def test_pairing_block_digest(spec):
    block = sample_pairing_block(*spec)
    assert block.shape == spec[2:]
    assert digest(block.astype(np.int64).tobytes()) == BLOCK_DIGESTS[spec]


def test_two_block_partition_digest():
    """Trials 0..9 drawn as 0..3 plus 4..9 hash like the single block."""
    parts = [sample_pairing_block(31337, 0, 4, 40, 3), sample_pairing_block(31337, 4, 6, 40, 3)]
    joined = b"".join(p.astype(np.int64).tobytes() for p in parts)
    assert digest(joined) == BLOCK_DIGESTS[(31337, 0, 10, 40, 3)]


CLI_COMMANDS = {
    "sweep_small": "sweep --n 60 --k 1..6 --gamma 0.3,0.6,1.0 --trials 40 --seed 5",
    # 170 trials split into two blocks at both K (160 + 10 and 166 + 4)
    "sweep_split": "sweep --n 1000 --k 24,25 --gamma 0.2,1.0 --trials 170",
    # no fraction reaches 1, so every block holds only the first 210 rows
    "sweep_cut": "sweep --n 300 --k 2..6 --gamma 0.3,0.7 --trials 60 --seed 3",
    # six nested views, m = 1, 2, 20, 100, 180 and 200, in one kernel call per block
    "sweep_views": "sweep --n 200 --k 1..8 --gamma 0.005,0.01,0.1,0.5,0.9,1.0 --trials 60 --seed 9",
    "phased": "phased --n 120 --k 4 --schedule 0.25,0.5,1.0 --trials 50 --seed 11",
    "census": "census --n 80 --k 3 --trials 60 --seed 2",
    # every theory flag; r = 1..5 and n = 1e5..1e6, zero binomials and an underflow
    "theory": (
        "theory --r-gamma 0.05,0.2,0.5,0.9,0.99 --lambda-star --c-of-lambda 2.6,3,5,10"
        " --h-exponent 3,2.9 --h-exponent 5,4.5"
        " --isolation 100000,20,0.5 --isolation 1000000,40,0.3"
        " --isolation 1000000,60,0.9 --isolation 500000,1,0.75"
        " --expected-isolated 100000,20,0.5 --expected-isolated 1000000,60,0.9"
        " --expected-isolated 1000000,200,0.7"
        " --isolation-event 1000000,30,0.5,1 --isolation-event 1000000,30,0.5,2"
        " --isolation-event 1000000,20,0.5,3 --isolation-event 100000,25,0.4,4"
        " --isolation-event 1000000,60,0.9,5 --isolation-event 20,2,0.15,3"
        " --isolation-event 20,8,0.8,1"
        " --union-bound 1000,21,0.5 --union-bound 30,2,0.5"
        " --union-bound 100000,30,0.2 --union-bound 20000,12,0.7"
        " --connectivity-bound 2,100,100000,1000000"
        " --maxring-bound 1000,21,20.03 --maxring-bound 1000000,42,40"
    ),
}

CLI_DIGESTS = {
    ("sweep_small", "csv"): "bbe53e36f5f7dc0c8eb6c8c4684f7dff66bbc9f811a5406f1a177ebb232139b2",
    ("sweep_small", "json"): "2481ecc38c7e3dcd2eb240969c0c7c0c046ec164d72f23f3cd8e651ff8a25e0a",
    ("sweep_split", "csv"): "37362bd257fbba6cb134c9bb806f0a17c22df574b718b3b65b264e1e37847ad7",
    ("sweep_split", "json"): "31ae1d5df6d402f5edcbe993336979dd816e693b24d747db29d1bc990d42b6a8",
    ("sweep_cut", "csv"): "7ae64066f5fe9f02a8a5b8c198051951b293917f5019a16e3cc9b2febaf71e4c",
    ("sweep_cut", "json"): "02101f383db80a4c9f726bec84a6ff95d693d7857becce6846d15812771be46e",
    ("sweep_views", "csv"): "e257e251f9a998f1805ba5987c35771c9a8f43e1bd81f337f6889fd01ad141a6",
    ("sweep_views", "json"): "506dd105f20822ec3b2186aab298a370c08e7b1c71ce794d68957c7b2124a512",
    ("phased", "csv"): "67e7ee87fe43307f08dccea3266265d400854e486c3c70227a1b1b537935d40d",
    ("phased", "json"): "99524cfa786e0aa92bd9330d5db6a43b8f82fbc5d4d1c9b6f46672bfcc11444e",
    ("census", "csv"): "6a5ba01bda085f1b37441535a1f801194ba6f27775663ec5639ef5f5a939a526",
    ("census", "json"): "834b459fa2af7c37a82fb1bea9f5f440bbd1e36a24e7cc7355240e03bfe7bc9b",
    ("theory", "csv"): "bb3f16b4ad9b017098a8682734c35c3b69582822ab70a0c0767d180850657b84",
    ("theory", "json"): "e170d3161853887c94001d834866b9a61295cf27577424a987097191ea5fb4b4",
}


def test_every_theory_flag_is_pinned():
    """A theory query cannot ship without a pinned digest of its output."""
    used = {tok for command in CLI_COMMANDS.values() for tok in command.split()}
    assert sorted(set(_THEORY_QUERIES) - used) == []


@pytest.mark.parametrize("case", sorted(CLI_DIGESTS), ids="-".join)
def test_cli_output_digest(case):
    label, fmt = case
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(CLI_COMMANDS[label].split() + ["--format", fmt])
    assert code == 0
    assert digest(buf.getvalue().encode()) == CLI_DIGESTS[case]


# (function, arguments) -> the exact double it returns
THEORY_VALUES = {
    ("isolation_prob_exact", (100000, 20, 0.5)): 4.3184300799970274e-11,
    ("isolation_prob_exact", (1000000, 40, 0.3)): 3.909920560265473e-12,
    ("isolation_prob_exact", (1000000, 60, 0.9)): 3.47138861444059e-84,
    ("isolation_prob_exact", (500000, 1, 0.75)): 0.11809184484591946,
    ("expected_isolated", (1000000, 200, 0.7)): 2.7668266627376677e-160,
    ("isolation_event_prob", (1000000, 30, 0.5, 1)): 2.8471857612581247e-16,
    ("isolation_event_prob", (1000000, 30, 0.5, 2)): 8.107804467981593e-32,
    ("isolation_event_prob", (1000000, 20, 0.5, 3)): 8.112792465499204e-32,
    ("isolation_event_prob", (100000, 25, 0.4, 4)): 2.7644455412776784e-40,
    ("isolation_event_prob", (1000000, 60, 0.9, 5)): 0.0,
    ("isolation_event_prob", (20, 2, 0.15, 3)): 1.0,
    ("isolation_event_prob", (20, 8, 0.8, 1)): 0.0,
    ("connectivity_union_bound", (1000, 21, 0.5)): 4.890462578005304e-09,
    ("connectivity_union_bound", (30, 2, 0.5)): 7.2638667096073375,
    ("connectivity_union_bound", (100000, 30, 0.2)): 0.06320132046456921,
    ("connectivity_union_bound", (20000, 12, 0.7)): 1.6573220120211572e-06,
}


@pytest.mark.parametrize("call", list(THEORY_VALUES), ids=lambda c: f"{c[0]}{c[1]}")
def test_theory_value_bits(call):
    name, args = call
    assert getattr(theory, name)(*args) == THEORY_VALUES[call]
