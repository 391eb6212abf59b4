"""Print the sha256 of every output in the CLI reference set.

Usage, from the repository root::

    python3 tests/reference_set.py [SRC] [--dump DIR]

``SRC`` is the directory holding the ``berryline`` package (default: the
``src`` next to this file), so two checkouts compare with one command
each. ``--dump DIR`` also writes the 14 outputs into DIR (created if
missing) under names fixed by their place in the set, such as
``08-gauge-check.json`` for the eighth command, so the outputs of two
checkouts compare with ``diff -r`` and a moved digest shows what moved.
Every command runs in-process through ``berryline.cli.main`` with
``SOURCE_DATE_EPOCH=0``; a refactor that is meant to keep the output
bits must leave every line unchanged. The file
name keeps pytest from collecting it; ``test_reference_set.py`` pins the
digests in the Tier-1 suite.
"""

import argparse
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


def outputs(main):
    """(file name, label, bytes) of every reference output, run through
    ``main``."""
    got = [(f"{i:02d}-{command.split()[0]}.json", command,
            _run(main, command.split()))
           for i, command in enumerate(COMMANDS, 1)]
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "diagram.csv")
        _run(main, DIAGRAM.split() + ["--out", out])
        files = ((out, "csv", "CSV"), (out + ".json", "json", "JSON sidecar"))
        for i, (path, ext, label) in enumerate(files, len(COMMANDS) + 1):
            got.append((f"{i:02d}-phase-diagram.{ext}", f"{DIAGRAM} {label}",
                        pathlib.Path(path).read_bytes()))
    return got


def digests(main):
    """(sha256, label) of every reference output, run through ``main``."""
    return [(_sha(data), label) for _, label, data in outputs(main)]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("src", nargs="?", type=pathlib.Path,
                        default=pathlib.Path(__file__).resolve().parent.parent
                        / "src")
    parser.add_argument("--dump", type=pathlib.Path, metavar="DIR")
    args = parser.parse_args(argv)
    os.environ["SOURCE_DATE_EPOCH"] = "0"
    sys.path.insert(0, str(args.src.resolve()))
    from berryline import cli

    if args.dump:
        args.dump.mkdir(parents=True, exist_ok=True)
    for name, label, data in outputs(cli.main):
        if args.dump:
            (args.dump / name).write_bytes(data)
        print(_sha(data), label)


if __name__ == "__main__":
    main()
