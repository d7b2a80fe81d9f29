"""Run one canonical list of qisim commands on a git rev and on this tree,
and report every difference in what they print and write.

    python tools/compare_outputs.py REV

REV is checked out with `git archive` into a temporary directory.  Each
command runs in a fresh, empty working directory per side, as
`python -m qisim.cli ARGS` with that side's `src` on PYTHONPATH; a
command of several steps runs them in order in one directory, so a step
may read what an earlier one wrote.  For each command the two sides'
exit codes, stdout, stderr and every file left in the directory are
compared byte for byte.  Each difference is printed; the exit code is 1
if any command differs, else 0.  Outputs go under relative paths, so
the `wrote` lines of both sides read the same.
"""
from __future__ import annotations

import argparse
import difflib
import io
import os
import subprocess
import sys
import tarfile
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# Config files written into a command's directory before it runs.
_SPACED_LISTS = "[sweep]\nsources = twin_beam, ,split_thermal\nvalues = 100, 300,\noutputs = epsilon, snr,\n"
_MALFORMED = {
    "repeated key": "[source]\nmu = 0.1\nmu = 0.2\n",
    "no section": "mu = 0.1\n",
    "no equals": "[source]\nmu 0.1\n",
    "DEFAULT": "[DEFAULT]\nmu = 0.3\n",
    "Source": "[Source]\nmu = 0.3\n",
    "unknown key": "[source]\nwibble = 1\n",
    "unparsable value": "[source]\nmu = abc\n",
    "two faults": "[source]\nmu = abc\n[Foo]\nx = 1\n",
}
_SIMULATE = ("simulate", "--out", "run")
_ETA2_SWEEP = (
    "sweep", "--seed", "3", "--background", "1000", "--frames", "400", "--images-per-decision", "4",
    "--sweep.parameter", "channel.eta2", "--sweep.values", "0.1,0.3,0.62,1",
    "--sweep.outputs", "epsilon,snr,covariance,perr", "--out", "loss",
)


def _command(*steps, files=None) -> tuple:
    """(steps, files): argv lists run in order, and {name: text} to write first."""
    return tuple(tuple(step) for step in steps), dict(files or {})


# name -> (steps, files)
COMMANDS = {
    **{
        f"reproduce {figure}": _command(("reproduce", figure, "--frames", "300", "--seed", "3", "--out", "figs"))
        for figure in ("fig2", "fig3", "fig4", "fig5")
    },
    "fig2_mb57 sidecar replay": _command(
        ("reproduce", "fig2", "--frames", "300", "--seed", "3", "--out", "figs"),
        ("sweep", "--config", "figs/fig2_mb57.csv.meta.txt", "--out", "replay"),
    ),
    "simulate read noise, mode match": _command(
        (*_SIMULATE, "--frames", "700", "--seed", "4", "--background", "900", "--read-noise", "1.5",
         "--mode-match", "0.7")
    ),
    "simulate split thermal, read noise": _command(
        (*_SIMULATE, "--frames", "700", "--seed", "6", "--source.kind", "split_thermal",
         "--background", "900", "--read-noise", "1.5")
    ),
    "simulate 10000 frames": _command((*_SIMULATE, "--frames", "10000", "--background", "5000", "--seed", "1")),
    "simulate one frame": _command((*_SIMULATE, "--frames", "1", "--seed", "5")),
    "simulate target absent": _command((*_SIMULATE, "--seed", "8", "--frames", "50", "--target", "absent")),
    "simulate degenerate lines": _command(
        (*_SIMULATE, "--seed", "1", "--frames", "20", "--pixel-pairs", "2", "--target", "absent",
         "--background", "0")
    ),
    "analytic": _command(("analytic",)),
    "analytic --csv": _command(("analytic", "--csv", "a.csv")),
    "analytic --mu 0 --csv": _command(("analytic", "--mu", "0", "--csv", "a.csv")),
    "analytic target absent, background -0.0": _command(
        ("--target", "absent", "analytic", "--background", "-0.0")
    ),
    "analytic split thermal, background 1e5": _command(
        ("analytic", "--source.kind", "split_thermal", "--background", "1e5")
    ),
    "analytic --mu 0": _command(("analytic", "--mu", "0")),
    "analytic --eta1 0": _command(("analytic", "--eta1", "0")),
    "analytic --target absent": _command(("analytic", "--target", "absent")),
    "eta2 sweep and its replay": _command(
        _ETA2_SWEEP, ("sweep", "--config", "loss/sweep.csv.meta.txt", "--out", "replay")
    ),
    "source.modes sweep": _command(
        ("sweep", "--seed", "2", "--frames", "200", "--sweep.parameter", "source.modes",
         "--sweep.values", "30,60", "--out", "modes")
    ),
    "config with spaced and empty list items": _command(
        ("sweep", "--config", "spaced.ini", "--seed", "4", "--frames", "100", "--out", "spaced"),
        files={"spaced.ini": _SPACED_LISTS},
    ),
    "snr sweep at mu 0": _command(
        ("sweep", "--seed", "1", "--mu", "0", "--frames", "100", "--sweep.outputs", "snr",
         "--sweep.values", "100,1000", "--out", "dark")
    ),
    "--help": _command(("--help",)),
    **{f"{sub} --help": _command((sub, "--help")) for sub in ("analytic", "simulate", "sweep", "reproduce")},
    "error: analytic --mu -1": _command(("analytic", "--mu", "-1")),
    "error: --source.kind foo": _command(("analytic", "--source.kind", "foo")),
    "error: empty sweep.values": _command(("sweep", "--seed", "1", "--sweep.values", "", "--out", "empty")),
    "error: analytic --csv under a file": _command(
        ("analytic", "--csv", "file/a.csv"), files={"file": ""}
    ),
    **{
        f"error: {command} config {name}": _command(
            (command, "--config", "bad.ini", "--out", "run"), files={"bad.ini": text}
        )
        for command in ("analytic", "simulate")
        for name, text in _MALFORMED.items()
    },
    # every simulate error run of tests/test_cli.py that the command line can reach
    "error: simulate --out under a file": _command(
        ("simulate", "--seed", "1", "--frames", "20", "--out", "file/run"), files={"file": ""}
    ),
    "error: simulate one pixel pair": _command(
        (*_SIMULATE, "--seed", "1", "--frames", "20", "--pixel-pairs", "1")
    ),
    "error: simulate read noise whose counts overflow": _command(
        (*_SIMULATE, "--seed", "1", "--frames", "10000", "--read-noise", "1e6")
    ),
    "error: simulate background past the sampling limit": _command(
        (*_SIMULATE, "--seed", "1", "--frames", "600", "--background", "1e30")
    ),
    **{
        f"error: simulate --read-noise {sigma}": _command(
            (*_SIMULATE, "--seed", "1", "--frames", "20", f"--read-noise={sigma}")
        )
        for sigma in ("-1", "nan", "inf", "1e20")
    },
    **{
        f"error: simulate --images-per-decision {ipd}": _command(
            (*_SIMULATE, "--seed", "1", "--frames", "20", f"--images-per-decision={ipd}")
        )
        for ipd in ("0", "-3")
    },
    **{
        f"error: simulate {flag} {word}": _command((*_SIMULATE, flag, word))
        for flag, word in (
            ("--target", "maybe"), ("--channel.target_present", "Maybe"), ("--sweep.emit_analytic", "present")
        )
    },
    "error: simulate an existing frames.csv, one pixel pair": _command(
        (*_SIMULATE, "--seed", "1", "--frames", "20", "--pixel-pairs", "1"),
        files={"run/frames.csv": "frames of an earlier run\r\n"},
    ),
}


def _run(src: str, steps: tuple, files: dict, work: str) -> dict:
    """Run `steps` in the empty directory `work` on the package under
    `src`: the bytes of each step's exit code, stdout and stderr and of
    every file left, keyed "step <i> exit code", ..., "file <path>"."""
    for name, text in files.items():
        path = os.path.join(work, name)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", newline="") as handle:
            handle.write(text)
    env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED="0")
    result = {}
    for index, argv in enumerate(steps):
        done = subprocess.run(
            [sys.executable, "-m", "qisim.cli", *argv], cwd=work, env=env, capture_output=True
        )
        result[f"step {index + 1} exit code"] = str(done.returncode).encode()
        result[f"step {index + 1} stdout"] = done.stdout
        result[f"step {index + 1} stderr"] = done.stderr
    for folder, _, names in os.walk(work):
        for name in names:
            path = os.path.join(folder, name)
            with open(path, "rb") as handle:
                result["file " + os.path.relpath(path, work)] = handle.read()
    return result


def _differences(base: dict, tree: dict) -> list:
    """One line per differing item, with a few diff lines of text."""
    lines = []
    for item in sorted(set(base) | set(tree)):
        if item not in base or item not in tree:
            lines.append(f"{item}: only on {'the tree' if item in tree else 'the rev'}")
        elif base[item] != tree[item]:
            lines.append(f"{item}: differs ({len(base[item])} and {len(tree[item])} bytes)")
            old, new = (side[item].decode(errors="replace").splitlines() for side in (base, tree))
            diff = list(difflib.unified_diff(old, new, "rev", "tree", n=0, lineterm=""))
            lines.extend("    " + line[:200] for line in diff[2:12])
    return lines


def _archive(rev: str, into: str) -> str:
    """Extract `git archive REV` into `into`; its `src` directory."""
    tar = subprocess.run(["git", "-C", ROOT, "archive", "--format=tar", rev], capture_output=True)
    if tar.returncode != 0:
        raise SystemExit(f"git archive {rev} failed: {tar.stderr.decode().strip()}")
    # the "data" filter refuses links and paths out of `into`, where tarfile has it
    safe = {"filter": "data"} if hasattr(tarfile, "data_filter") else {}
    with tarfile.open(fileobj=io.BytesIO(tar.stdout)) as archive:
        archive.extractall(into, **safe)
    return os.path.join(into, "src")


def main(argv=None, commands: dict | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("rev", help="git rev to compare the tree with")
    args = parser.parse_args(argv)
    commands = COMMANDS if commands is None else commands
    differing = 0
    with tempfile.TemporaryDirectory(prefix="compare-outputs-") as scratch:
        rev_src = _archive(args.rev, os.path.join(scratch, "rev"))
        for index, (name, (steps, files)) in enumerate(commands.items()):
            sides = []
            for side, src in (("rev", rev_src), ("tree", os.path.join(ROOT, "src"))):
                work = os.path.join(scratch, side, str(index))
                os.makedirs(work)
                sides.append(_run(src, steps, files, work))
            lines = _differences(*sides)
            differing += bool(lines)
            print(f"{'DIFFERS' if lines else 'same   '}  {name}")
            for line in lines:
                print(f"    {line}")
    print(f"{len(commands)} commands, {differing} differ, against {args.rev}")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
