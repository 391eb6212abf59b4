"""The CLI reference set gives the same bytes as the recorded digests.

Runs every output of ``reference_set.py`` in-process with
``SOURCE_DATE_EPOCH=0``. A change that moves an output bit on purpose
updates its digest here and says which output moved. The edge commands
pin their exit code and the digest of stdout then stderr as printed
today, known defects included.
The ``evolve`` outputs also run in two subprocesses, on one and on two
OpenBLAS threads, which must print the same bytes.
"""

import os
import pathlib
import subprocess
import sys

from berryline import cli

import reference_set

# in the order reference_set.digests yields them: the 12 commands, then
# the phase-diagram CSV and its JSON sidecar
_EXPECTED = """
e11db8f4855f167da9bf693e9bd8bf16987d9932a749bfe0469e977d05b50958
0c54f73fe486e664cb4125717eac31d9a7f01bacb4af87b60a89a724646cf853
5ccb5920a12bf62e12afc007e9184897fcefdb667e52f1aeb102a53b23587dc6
17722f0063a0ea6ecd6d7a7d4ec48f225a99eee51b5ae0123b89f0ff49489bda
62e41b06727c27e187aea95fa26e4afca4e72e9b0328ae51026a5d17ea74c8f6
8a2edbfc9064cee99fa99765fab956d588ca3db54aa17b4fcb37fe0c7778c32a
d60661b707271da40f63a1c34fbc874bfb59024cb71f26f073b04620f2712091
65c922557099e156aa93e812f1db36cc0c0b93d3367e6bc07a66bd1aa192453f
d9b7436b6323bf89b95080a066b22757aa8b253e83e57bc526c2973a651b9785
4e34f90f7687b48fbbe8760702cd9155f5ba10c01c72c3439803afb6075c68c3
eb5341adaaa16c10266936352ea2e3f2b6a1f55c0cd173e18d3d3ca36cd6da4e
95f2f4a3ea8bd3b0b2381702c0a5ce4137a8bac6f2e523a746cf7897b5ee819d
f354c1ea770b23d5c6f02a9a0361f1d9a2de3e5e5c7d57cb317bd36f64b28cc5
335e412ac5b0b4d71e684d3cf844d9578ff780733bee83aafa749c0d3f3db3fd
""".split()

# (exit code, sha256 of stdout then stderr), in the order of
# reference_set.EDGES
_EXPECTED_EDGES = [
    (2, "6378c93cbe8d3ede32b9b810af566b14ab1bd690de401acde0c6c6c4bc85b045"),
    (2, "ce115535cfbd69211d0a30b53dd00f60e0b7e56c979ad2ad871b1fcedb7a8ac6"),
    (3, "57ac8a3b93fda672ae3f26611ada478d66ec3ad2943f46941f97c25935dcfb5c"),
    (3, "5111e1decede2a4eb8c478becb458e000524a104a86e073db69c81bdb9a8ea51"),
    (3, "5111e1decede2a4eb8c478becb458e000524a104a86e073db69c81bdb9a8ea51"),
    (0, "aa4dc9dadebbe53b6f35967b5024053229ca006c586ebd55264e2e05629f61a8"),
    (0, "9fb57af796f684003af03b6c92f10cbf4d870fa7332756a38275d553c98629c3"),
    (0, "647f89580b79c2c1a62c214d45cdc1cb022a8af187a7fa6de6fd61ab35832380"),
    (0, "765681e104bd0c02792273ce94a15c418c32487aa390c6777e337e3458f8969f"),
]


def test_reference_outputs_are_byte_identical(monkeypatch):
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "0")
    got = reference_set.digests(cli.main)
    assert len(got) == len(_EXPECTED) == 14
    for (digest, label), want in zip(got, _EXPECTED):
        assert digest == want, label


def test_edge_outputs_keep_their_exit_codes_and_bytes(monkeypatch):
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "0")
    got = reference_set.edge_digests(cli.main)
    assert len(got) == len(_EXPECTED_EDGES) == 9
    for (code, digest, label), want in zip(got, _EXPECTED_EDGES):
        assert (code, digest) == want, label


def test_evolve_outputs_do_not_depend_on_the_blas_thread_count():
    # the evolve kernel evaluates its block series with np.matmul
    here = pathlib.Path(__file__).resolve().parent
    path = os.pathsep.join([str(here.parent / "src"), str(here)])
    code = ("from berryline import cli\n"
            "import reference_set\n"
            "for command in reference_set.COMMANDS:\n"
            "    if command.startswith('evolve'):\n"
            "        assert cli.main(command.split()) == 0\n")
    printed = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=path,
                   SOURCE_DATE_EPOCH="0")
        printed.append(subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True,
            check=True, timeout=300).stdout)
    assert printed[0] == printed[1]
    assert printed[0].count(b'"total_phase') == 3
