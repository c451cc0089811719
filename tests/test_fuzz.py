"""Fuzz test: every subcommand on small valid files with one line or token mutated.

The inputs are a 2-domain, 4-node-per-domain substrate, its request stream, a
checkpoint trained on it and a decision log evaluated from that checkpoint.
One mutation deletes, duplicates or truncates a line, truncates the file, or
swaps one token for a hostile value. Whatever the mutation, ``cli.main`` must
return 0, 1 or 2 without letting an exception escape, and an exit 2 caused by
the file must name ``path:line``. ``validate``'s exit 2 for replay violations,
reported on stdout, is a verdict on the log, not a file fault.
"""

import contextlib
import io
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedvne import cli

FLAGS = dict(
    num_domains=2,
    nodes_per_domain=4,
    num_links=10,
    vnr_count=8,
    train_count=4,
    test_count=4,
    vn_nodes_min=1,
    vn_nodes_max=3,
    batch_size=2,
    epochs=1,
    seed=3,
)
CONFIG = [arg for key, value in FLAGS.items() for arg in (f"--{key.replace('_', '-')}", str(value))]

HOSTILE = ["nan", "-1", "1e309", "x", "0", "99999999999999999999"]
TOKEN = re.compile(r"[^\s,|:>]+")  # decision-log fields split on , | : > as well

# the subcommands that read each input file
READERS = {
    "substrate": ["train", "evaluate", "compare", "validate"],
    "vnrs": ["train", "evaluate", "compare", "validate"],
    "checkpoint": ["evaluate", "compare"],
    "decisions": ["validate"],
}


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv + CONFIG)
    return code, out.getvalue(), err.getvalue()


def command_line(command, paths, out_dir):
    argv = [command, "--substrate", str(paths["substrate"]), "--vnrs", str(paths["vnrs"])]
    if command in ("evaluate", "compare"):
        argv += ["--checkpoint", str(paths["checkpoint"])]
    if command == "validate":
        return argv + ["--decisions", str(paths["decisions"])]
    return argv + ["--out-dir", str(out_dir)]


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    base = tmp_path_factory.mktemp("fuzz")
    assert run(["generate", "--out-dir", str(base)])[0] == 0
    paths = {"substrate": base / "substrate.txt", "vnrs": base / "vnrs.txt"}
    assert run(["train", "--substrate", str(paths["substrate"]), "--vnrs", str(paths["vnrs"]),
                "--out-dir", str(base)])[0] == 0
    paths["checkpoint"] = base / "checkpoint.txt"
    assert run(command_line("evaluate", paths, base) + ["--policy", "hfl"])[0] == 0
    paths["decisions"] = base / "decisions.csv"
    return {name: (path, path.read_text()) for name, path in paths.items()}


@st.composite
def mutations(draw, text):
    """``text`` with one line deleted, duplicated or truncated, the file cut
    short, or one token swapped for a hostile value."""
    lines = text.splitlines()
    i = draw(st.integers(0, len(lines) - 1))
    kind = draw(st.sampled_from(["delete", "duplicate", "truncate_line", "truncate_file", "swap"]))
    if kind == "delete":
        del lines[i]
    elif kind == "duplicate":
        lines.insert(i, lines[i])
    elif kind == "truncate_line":
        lines[i] = lines[i][: draw(st.integers(0, max(0, len(lines[i]) - 1)))]
    elif kind == "truncate_file":
        return text[: draw(st.integers(0, len(text) - 1))]
    else:
        spans = [m.span() for m in TOKEN.finditer(lines[i])]
        a, b = draw(st.sampled_from(spans))
        lines[i] = lines[i][:a] + draw(st.sampled_from(HOSTILE)) + lines[i][b:]
    return "\n".join(lines) + "\n"


@settings(max_examples=300, deadline=None, derandomize=True)
@given(data=st.data())
def test_mutated_input_exits_cleanly(inputs, data):
    name = data.draw(st.sampled_from(sorted(READERS)))
    command = data.draw(st.sampled_from(READERS[name]))
    mutated = data.draw(mutations(inputs[name][1]))
    with tempfile.TemporaryDirectory() as work:
        paths = {key: path for key, (path, _) in inputs.items()}
        paths[name] = Path(work) / paths[name].name
        paths[name].write_text(mutated)
        code, out, err = run(command_line(command, paths, Path(work) / "out"))
    assert code in (0, 1, 2), err
    if code == 2 and not (command == "validate" and re.search(r"^\d+ violations in ", out, re.M)):
        assert re.search(re.escape(str(paths[name])) + r":\d+: ", err), err
