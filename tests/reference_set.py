"""Print the sha256 of every output in the CLI reference set.

Usage, from the repository root::

    python3 tests/reference_set.py [SRC]

``SRC`` is the directory holding the ``berryline`` package (default: the
``src`` next to this file), so two checkouts compare with one command
each. Every command runs in-process through ``berryline.cli.main`` with
``SOURCE_DATE_EPOCH=0`` and ``BERRYLINE_THREADS=1``; a refactor that is
meant to keep the output bits must leave every line unchanged. The file
name keeps pytest from collecting it; ``test_reference_set.py`` pins the
digests in the Tier-1 suite.
"""

import contextlib
import hashlib
import io
import os
import pathlib
import sys
import tempfile

_TWO_LEVEL = "--hx 1.0 --hy 1.0 --hz 0.2 --dz 0.0 --theta 1.0"

COMMANDS = (
    "bipartite --q 2 --eta 0.3",
    "bipartite --q 0.5 --eta 2.0",
    "bipartite --q 1.5 --eta 1.0",
    f"two-level-q {_TWO_LEVEL} --dx 0.5 --dy 0.5",
    f"two-level-q {_TWO_LEVEL} --dx 1.5 --dy 1.5",
    "ep-classify --q 1.5 --eta 1.0",
    "ep-classify --q 0.5 --eta 2.0",
    "gauge-check --model bipartite --q 2 --eta 0.3 --winding 2 --band both",
    f"gauge-check --model two-level {_TWO_LEVEL} --dx 0.5 --dy 0.5 "
    "--winding -1 --band minus",
    "evolve --model bipartite --q 2 --eta 0.3 --T 200",
    "evolve --model two-level --hx 1.2 --hy 1.2 --hz -0.4 --dx 0.0 --dy 0.0 "
    "--dz 0.0 --theta 1.0 --T 256",
    "evolve --model bipartite --q 0.5 --eta 0.2 --T 300 --band minus",
)
DIAGRAM = "phase-diagram --q 0.55:2.05:50 --eta 0.05:2.55:50"


def _run(main, argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    if code != 0:
        raise SystemExit(f"exit {code} from {' '.join(argv)}")
    return out.getvalue().encode()


def _sha(data):
    return hashlib.sha256(data).hexdigest()


def digests(main):
    """(sha256, label) of every reference output, run through ``main``."""
    pairs = [(_sha(_run(main, command.split())), command)
             for command in COMMANDS]
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "diagram.csv")
        _run(main, DIAGRAM.split() + ["--out", out])
        for path, label in ((out, "CSV"), (out + ".json", "JSON sidecar")):
            pairs.append((_sha(pathlib.Path(path).read_bytes()),
                          f"{DIAGRAM} {label}"))
    return pairs


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    if argv:
        src = pathlib.Path(argv[0]).resolve()
    os.environ["SOURCE_DATE_EPOCH"] = "0"
    os.environ["BERRYLINE_THREADS"] = "1"
    sys.path.insert(0, str(src))
    from berryline import cli

    for digest, label in digests(cli.main):
        print(digest, label)


if __name__ == "__main__":
    main()
