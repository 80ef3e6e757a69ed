"""The README as an executable document.

Its quickstart runs as written, its config and manifest examples are read
by the readers the program uses, its command lines parse, and its list of
run flags is the run configuration's; renaming a flag or key without
updating the README fails here.
"""

import re
import shlex
from dataclasses import fields
from pathlib import Path

from sswim.cli import _COERCERS, RunConfig, _build_parser
from sswim.data import MANIFEST_KEYS, read_key_value_file
from sswim.metrics import rmse

README = Path(__file__).resolve().parents[1] / "README.md"


def fenced_blocks(text, language):
    return re.findall(rf"^```{language}\n(.*?)^```$", text, flags=re.M | re.S)


def command_lines(block):
    """The ``sswim ...`` command lines of a shell block, continuations joined."""
    joined = re.sub(r"\\\n\s*", " ", block)
    return [line for line in joined.splitlines() if line.startswith("sswim ")]


def test_readme_runs_as_written(tmp_path):
    text = README.read_text(encoding="utf-8")

    # the Python quickstart, run as written, reaches the training RMSE it quotes
    (quickstart,) = fenced_blocks(text, "python")
    quoted = float(re.search(r"training RMSE ~([\d.]+)", quickstart).group(1))
    namespace = {}
    exec(compile(quickstart, "README quickstart", "exec"), namespace)
    assert abs(rmse(namespace["y"], namespace["mean"]) - quoted) < 0.01

    # the run.conf example holds run settings, the manifest example manifest keys
    run_conf, manifest = fenced_blocks(text, "ini")
    assert run_conf.startswith("# run.conf\n")
    (tmp_path / "run.conf").write_text(run_conf)
    settings = read_key_value_file(tmp_path / "run.conf")
    assert settings and set(settings) <= {f.name for f in fields(RunConfig)}
    for key, raw in settings.items():
        _COERCERS[key](raw)
    (tmp_path / "example.manifest").write_text(manifest)
    keys = set(read_key_value_file(tmp_path / "example.manifest"))
    assert {"path", "target"} <= keys <= set(MANIFEST_KEYS)

    # every command line parses (none is run)
    parser = _build_parser()
    commands = [line for block in fenced_blocks(text, "sh") for line in command_lines(block)]
    assert len(commands) >= 5
    for line in commands:
        parser.parse_args(shlex.split(line, comments=True)[1:])

    # the run-commands paragraph lists the run flags, in RunConfig's order
    paragraph = re.search(r"^The run commands \((.*?)\n\n", text, flags=re.M | re.S).group(0)
    assert re.findall(r"`(--[\w-]+)`", paragraph) == [
        "--" + f.name.replace("_", "-") for f in fields(RunConfig)]
