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
ace9602dfb0f81a6c397248072436ac1881f1ea67ee24600677c7b73a02711ad
b67efe4e00cd711ea0628fcd60f09fad953f35d431ef9562439321209919c419
309e4485b05e65bbfe8d99fc88b9efbaf12af87afdd0d78d369fe736a6634400
1fd70d8fa2f744a66de076cc2edf4d7ada95b55fc73ddf5305a4635880d2fda3
a52f0833a961077cde1d7dac476196be536d4d367b114c3662d92612df11d938
8a2edbfc9064cee99fa99765fab956d588ca3db54aa17b4fcb37fe0c7778c32a
d60661b707271da40f63a1c34fbc874bfb59024cb71f26f073b04620f2712091
c697c86a73fd88a1d3f44278a2998d0812be25fc1f3e601b431cdcd6545d338a
f561976c99ee04f90ecf26ef0460ffb2c129dab5989c6f464f66d562f809b468
b35c9f87a2e169ce5fd12556430e7839a48c96e48772b8bb59a5f19ff2618113
4b19e352c0e3ac390cdb106ee5f3415a5779949ec9ebc9cc4f56ff6b531f62f2
3507b9582ccc57a3648349cfced794d6d1232448029a559d921881a1fc7340bc
99451b191b5793377ba21b2270698fef26583020a21edeeb05af21b0b1586541
335e412ac5b0b4d71e684d3cf844d9578ff780733bee83aafa749c0d3f3db3fd
""".split()


def test_reference_outputs_are_byte_identical(monkeypatch):
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "0")
    monkeypatch.setenv("BERRYLINE_THREADS", "1")
    got = reference_set.digests(cli.main)
    assert len(got) == len(_EXPECTED) == 14
    for (digest, label), want in zip(got, _EXPECTED):
        assert digest == want, label
