"""The CLI reference set gives the same bytes as the recorded digests.

Runs every output of ``reference_set.py`` in-process with
``SOURCE_DATE_EPOCH=0`` and ``BERRYLINE_THREADS=1``. A change that moves an
output bit on purpose updates its digest here and says which output moved.
"""

from berryline import cli

import reference_set

# in the order reference_set.digests yields them: the 12 commands, then
# the phase-diagram CSV and its JSON sidecar
_EXPECTED = """
e11db8f4855f167da9bf693e9bd8bf16987d9932a749bfe0469e977d05b50958
179fe0238b641da53de7e0948828636a6c7e1aa03b480d6458e5d05341beae41
5ccb5920a12bf62e12afc007e9184897fcefdb667e52f1aeb102a53b23587dc6
17722f0063a0ea6ecd6d7a7d4ec48f225a99eee51b5ae0123b89f0ff49489bda
62e41b06727c27e187aea95fa26e4afca4e72e9b0328ae51026a5d17ea74c8f6
8a2edbfc9064cee99fa99765fab956d588ca3db54aa17b4fcb37fe0c7778c32a
d60661b707271da40f63a1c34fbc874bfb59024cb71f26f073b04620f2712091
52a744aa2d03aced308fa1e24aa5d34a5a61d89d0b3075612ca7b5424adc9233
d9b7436b6323bf89b95080a066b22757aa8b253e83e57bc526c2973a651b9785
6b18a9eaab852badecccb234f53294374d7de21caddb32f152ecbf86d6ae52a9
ea5267807ccb0cc192c37554d76c8ebdbfb5062571bc990c70d4ce1e4a7be19a
352589a8be6f759718726a75df387129f9dee7840df6645ade1d8364cb38a881
a8cf0759ad9581fcbb1082c6907fc58ca6be8d7b7723d77bb19650e72f6c1741
335e412ac5b0b4d71e684d3cf844d9578ff780733bee83aafa749c0d3f3db3fd
""".split()


def test_reference_outputs_are_byte_identical(monkeypatch):
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "0")
    monkeypatch.setenv("BERRYLINE_THREADS", "1")
    got = reference_set.digests(cli.main)
    assert len(got) == len(_EXPECTED) == 14
    for (digest, label), want in zip(got, _EXPECTED):
        assert digest == want, label
