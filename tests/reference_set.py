"""Print the sha256 of every output in the CLI reference set.

Usage, from the repository root::

    python3 tests/reference_set.py [SRC] [--dump DIR]

``SRC`` is the directory holding the ``berryline`` package (default: the
``src`` next to this file), so two checkouts compare with one command
each. ``--dump DIR`` also writes the 14 outputs into DIR (created if
missing) under names fixed by their place in the set, such as
``08-gauge-check.json`` for the eighth command, so the outputs of two
checkouts compare with ``diff -r`` and a moved digest shows what moved.

The set's second part, ``EDGES``, holds refusals and outputs at the edges
of the contract: for each, the exit code and the sha256 of stdout then
stderr are printed, and ``--dump`` writes that text as
``edge-01-bipartite.txt`` and so on. They record what the program prints
today, known defects included, not a claim that those outputs are right.

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

EDGES = (
    # refusals: exit 2 for a singular loop, 3 for a failed numeric check
    "bipartite --q 1 --eta 0.3",
    "evolve --model bipartite --q 45.22586443909728 "
    "--eta 44.225934078386665 --T 231.10581413099905 --band minus",
    "gauge-check --model bipartite --q 2 --eta 3.000000001 --band both",
    "two-level-q --hx 0.00155 --hy 0.2602 --hz -0.2784 --dx 0.0343 "
    "--dy 7.327 --dz 0 --theta 2.825",
    "bipartite --q 1.000000001 --eta 0.3",
    # exits 0 next to a line, out of the float range, and at a tie
    "bipartite --q 0.5556 --eta 1.5556000000002492",
    "evolve --model bipartite --q 2 --eta 0.3 --T 2713",
    "evolve --model two-level --hx 1 --hy 1 --hz 0.2 --dx 0.2 --dy 0.2 "
    "--dz 0.5 --theta 1 --T 30000",
    "ep-classify --q 0.58061224489795926 --eta 1.5806122448979594",
)


def _capture(main, argv):
    """Exit code, stdout and stderr of one in-process run."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue().encode(), err.getvalue().encode()


def _run(main, argv):
    code, out, _ = _capture(main, argv)
    if code != 0:
        raise SystemExit(f"exit {code} from {' '.join(argv)}")
    return out


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


def edges(main):
    """(file name, label, exit code, stdout then stderr) of every edge
    command, run through ``main``."""
    got = []
    for i, command in enumerate(EDGES, 1):
        code, out, err = _capture(main, command.split())
        got.append((f"edge-{i:02d}-{command.split()[0]}.txt", command, code,
                    out + err))
    return got


def edge_digests(main):
    """(exit code, sha256, label) of every edge command, run through
    ``main``."""
    return [(code, _sha(data), label) for _, label, code, data in edges(main)]


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
    for name, label, code, data in edges(cli.main):
        if args.dump:
            (args.dump / name).write_bytes(data)
        print(_sha(data), f"exit {code}", label)


if __name__ == "__main__":
    main()
