"""tools/compare_outputs.py on a throwaway git repository whose `qisim.cli`
is a stand-in that prints, writes a file and exits with a given code."""
from __future__ import annotations

import importlib.util
import os
import shutil
import subprocess

TOOL = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "tools", "compare_outputs.py")

FAKE_CLI = """import os, sys
WORD = {word!r}
given = ""
if os.path.exists("in.txt"):
    with open("in.txt") as handle:
        given = handle.read()
os.makedirs("out", exist_ok=True)
with open("out/result.txt", "w") as handle:
    handle.write(WORD + sys.argv[1] + given)
print("wrote out/result.txt")
sys.exit(int(sys.argv[2]))
"""
# name -> (steps, files), as `compare_outputs.COMMANDS` holds them
COMMANDS = {
    "exits 0": ((("a", "0"),), {}),
    "exits 3 after reading a file": ((("b", "3"),), {"in.txt": "given"}),
}


def repository(root, word: str):
    """A git repository at `root` holding the tool and a stand-in cli
    printing `word`, committed; the tool loaded from it."""
    os.makedirs(root / "tools")
    shutil.copy(TOOL, root / "tools")
    package = root / "src" / "qisim"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("")
    (package / "cli.py").write_text(FAKE_CLI.format(word=word))
    git = ["git", "-C", str(root), "-c", "user.name=t", "-c", "user.email=t@t", "-c", "commit.gpgsign=false"]
    for args in (["init", "-q"], ["add", "-A"], ["commit", "-q", "-m", "stand-in"]):
        subprocess.run(git + args, check=True, capture_output=True)
    spec = importlib.util.spec_from_file_location("compare_outputs", root / "tools" / "compare_outputs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_the_same_outputs_exit_0_and_a_changed_file_exits_1(tmp_path, capsys):
    tool = repository(tmp_path, "same")
    assert tool.main(["HEAD"], COMMANDS) == 0
    out = capsys.readouterr().out
    assert out.splitlines() == [
        "same     exits 0", "same     exits 3 after reading a file", "2 commands, 0 differ, against HEAD",
    ]
    # the tree's stand-in now writes another word, and the rev's does not
    cli = tmp_path / "src" / "qisim" / "cli.py"
    cli.write_text(FAKE_CLI.format(word="changed"))
    assert tool.main(["HEAD"], {name: COMMANDS[name] for name in ["exits 3 after reading a file"]}) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "DIFFERS  exits 3 after reading a file"
    assert lines[1] == "    file out/result.txt: differs (10 and 13 bytes)"
    assert lines[2:5] == ["        @@ -1 +1 @@", "        -samebgiven", "        +changedbgiven"]
    assert lines[-1] == "1 commands, 1 differ, against HEAD"


def test_exit_code_and_stdout_differences_are_reported(tmp_path, capsys):
    tool = repository(tmp_path, "same")
    cli = tmp_path / "src" / "qisim" / "cli.py"
    cli.write_text(FAKE_CLI.format(word="same").replace("sys.exit(int(sys.argv[2]))", "print('more')"))
    assert tool.main(["HEAD"], {name: COMMANDS[name] for name in ["exits 3 after reading a file"]}) == 1
    lines = capsys.readouterr().out.splitlines()
    assert "    step 1 exit code: differs (1 and 1 bytes)" in lines
    assert "    step 1 stdout: differs (21 and 26 bytes)" in lines
