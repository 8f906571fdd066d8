import re
import shlex
from pathlib import Path

from fourweight.cli import build_parser

README = Path(__file__).parent.parent / "README.md"


def test_quick_start_block_runs_verbatim():
    readme = README.read_text()
    blocks = re.findall(r"```python\n(.*?)```", readme, flags=re.S)
    assert blocks, "README lost its quick-start block"
    for block in blocks:
        exec(compile(block, "<README>", "exec"), {})


def test_documented_commands_parse():
    # every `fourweight ...` line of the sh blocks, less its comment and redirection
    lines = [
        line
        for block in re.findall(r"```sh\n(.*?)```", README.read_text(), flags=re.S)
        for line in block.splitlines()
        if line.startswith("fourweight ")
    ]
    assert len(lines) >= 11, lines
    parser = build_parser()
    for line in lines:
        argv = shlex.split(line, comments=True)[1:]
        if ">" in argv:
            argv = argv[: argv.index(">")]
        parser.parse_args(argv)
