"""The README's Python examples run against the public API, and its CLI
tour's `mask`, `gradcheck` and `render` commands run through the CLI, so
neither can drift from the code."""

import json
import re
import shlex
from pathlib import Path

import numpy as np

from mmchat.blend import write_records
from mmchat.cli import main

from oracles import llava_record, otter_record

README = Path(__file__).resolve().parent.parent / "README.md"
TEXT = README.read_text(encoding="utf-8")


def test_readme_python_blocks_run():
    blocks = re.findall(r"^```python\n(.*?)^```", TEXT, re.M | re.S)
    assert len(blocks) >= 3
    for index, block in enumerate(blocks):
        code = compile(block, f"README.md python block {index}", "exec")
        exec(code, {"__name__": f"readme_block_{index}"})  # a fresh namespace per block


def cli_tour() -> str:
    """The shell block under the README's "CLI tour" heading."""
    return re.search(r"^## CLI tour\n\n```sh\n(.*?)^```", TEXT, re.M | re.S).group(1)


def tour_argv(command: str) -> list[str]:
    """The arguments of the tour's one `mmchat <command>` line."""
    lines = [line for line in cli_tour().splitlines() if line.startswith(f"mmchat {command} ")]
    assert len(lines) == 1, lines
    return shlex.split(lines[0])[1:]


def test_readme_mask_command_prints_the_readme_grid(capsys):
    assert tour_argv("mask") == ["mask", "i3,t4", "--variant", "mmca"]
    grid = re.search(r"^```\n([12·\n]+)^```", TEXT, re.M).group(1)
    assert main(tour_argv("mask")) == 0
    assert capsys.readouterr().out == grid


def test_readme_gradcheck_command_passes_in_the_readme_form(capsys):
    # the digits of worst= depend on the BLAS build, so only the form is pinned
    assert tour_argv("gradcheck") == ["gradcheck", "--seeds", "20", "--d", "12"]
    form = r"worst=\d\.\d{3}e-\d\d tolerance=1e-04 PASS"
    assert re.search(rf"^# {form}$", cli_tour(), re.M)
    assert main(tour_argv("gradcheck")) == 0
    assert re.fullmatch(form, capsys.readouterr().out.splitlines()[-1])


def test_readme_render_command_writes_sorted_json_lines(tmp_path):
    argv = tour_argv("render")
    corpus = argv[argv.index("--input") + 1]
    rng = np.random.default_rng(0)
    write_records([llava_record(rng, "a"), otter_record(rng, "b", "c")], tmp_path / corpus)
    # every file the line names is rewritten into tmp_path
    argv = [str(tmp_path / arg) if arg.endswith((".json", ".jsonl")) else arg for arg in argv]
    assert main(argv) == 0
    out = Path(argv[argv.index("--out") + 1])
    lines = out.read_text(encoding="utf-8").splitlines(keepends=True)
    assert [json.loads(line)["image_count"] for line in lines] == [1, 2]
    for line in lines:
        assert line == json.dumps(json.loads(line), sort_keys=True) + "\n"
