"""The README's examples run as written.

The Python block is executed as one script. Each `pktilt ...` line of the
command-line block runs in-process through cli.main, with its output sent
to a file under tmp_path, and must exit 0.
"""

import re
import shlex
from pathlib import Path

from pktilt.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def _blocks(lang: str) -> list[str]:
    return re.findall(rf"```{lang}\n(.*?)```", README.read_text(), flags=re.S)


def test_readme_python_block_runs(capsys):
    (code,) = _blocks("python")
    exec(compile(code, str(README), "exec"), {})


def test_readme_cli_lines_run(tmp_path, capsys):
    commands = []
    for block in _blocks("sh"):
        for line in block.replace("\\\n", " ").splitlines():
            argv = shlex.split(line, comments=True)
            if argv[:1] == ["pktilt"]:
                commands.append(argv[1:])
    assert len(commands) >= 8
    for i, argv in enumerate(commands):
        if "--out" in argv:
            j = argv.index("--out") + 1
            argv[j] = str(tmp_path / argv[j])
        else:
            argv += ["--out", str(tmp_path / f"out{i}")]
        assert main(argv) == 0, argv
        assert capsys.readouterr().out == ""
