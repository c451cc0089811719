"""Fuzz test: every subcommand on small valid files with one line or token mutated.

The inputs are a 2-domain, 4-node-per-domain substrate, its request stream, a
checkpoint trained on it and a decision log evaluated from that checkpoint.
One mutation deletes, duplicates or truncates a line, truncates the file, or
swaps one token for a hostile value. Whatever the mutation, ``cli.main`` must
return 0, 1 or 2 without letting an exception escape (``validate``, which takes
no config flags, 0 or 2), and an exit 2 caused by the file must name
``path:line``. ``validate``'s exit 2 for replay violations, reported on
stdout, is a verdict on the log, not a file fault.

The same mutations, with blank and comment lines mixed in, also hold the
streaming loaders to the reference loaders in ``_helpers``: an equal result,
or the same exception type with the same message.
"""

import contextlib
import io
import re
import tempfile
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _helpers import reference_load_substrate, reference_load_vnrs, reference_validate_vnr
from fedvne import cli, workload
from fedvne.workload import VirtualNetworkRequest

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
    """``cli.main`` on ``argv``, with the config flags for every command but validate."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv + (CONFIG if argv[0] != "validate" else []))
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
    assert code in ((0, 2) if command == "validate" else (0, 1, 2)), err
    if code == 2 and not (command == "validate" and re.search(r"^\d+ violations in ", out, re.M)):
        assert re.search(re.escape(str(paths[name])) + r":\d+: ", err), err


FILLERS = ["", "  ", "\t", "#", "# comment", "#1 2 3", "  #indented 1"]


@st.composite
def layouts(draw, text):
    """``text`` with blank and comment lines inserted, ``\\r\\n`` or ``\\n`` line
    ends, and maybe no newline after the last line."""
    lines = text.split("\n")
    for _ in range(draw(st.integers(0, 4))):
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(FILLERS)))
    laid_out = draw(st.sampled_from(["\n", "\r\n"])).join(lines)
    return laid_out.rstrip("\r\n") if draw(st.booleans()) else laid_out


def substrate_view(substrate):
    """Everything a substrate holds, in comparable form."""
    view = {}
    for key, value in vars(substrate).items():
        view[key] = (value.dtype.str, value.shape, value.tobytes()) if isinstance(value, np.ndarray) else value
    return view


def outcome(load, path, view):
    try:
        return view(load(path))
    except Exception as exc:  # the exception type and message are what is compared
        return type(exc), str(exc)


LOADERS = {
    "substrate": (workload.load_substrate, reference_load_substrate, substrate_view),
    "vnrs": (workload.load_vnrs, reference_load_vnrs, list),
}


@settings(max_examples=200, deadline=None, derandomize=True)
@given(data=st.data())
def test_loaders_match_the_reference_loaders(inputs, data):
    name = data.draw(st.sampled_from(sorted(LOADERS)))
    text = inputs[name][1]
    if data.draw(st.integers(0, 3)):
        text = data.draw(mutations(text))
    text = data.draw(layouts(text))
    load, reference, view = LOADERS[name]
    with tempfile.TemporaryDirectory() as work:
        path = Path(work) / f"{name}.txt"
        path.write_bytes(text.encode())
        assert outcome(load, path, view) == outcome(reference, path, view)


def swaps(text):
    """``text`` with each token swapped for each hostile value, and with each
    pair of tokens on one line swapped for ``nan`` and ``x`` in both orders."""
    lines = text.splitlines()
    for i, line in enumerate(lines):
        spans = [m.span() for m in TOKEN.finditer(line)]
        changes = [{span: token} for span in spans for token in HOSTILE + ["1", "3"]]
        changes += [{s1: t1, s2: t2} for s1, s2 in combinations(spans, 2) for t1, t2 in (("nan", "x"), ("x", "nan"))]
        for change in changes:
            swapped = line
            for (a, b), token in sorted(change.items(), reverse=True):
                swapped = swapped[:a] + token + swapped[b:]
            yield "\n".join(lines[:i] + [swapped] + lines[i + 1 :]) + "\n"


def test_loaders_match_the_reference_loaders_on_every_token_swap(inputs, tmp_path):
    # the drawn line indices above lean towards the first lines; this sweeps every token
    for name, (load, reference, view) in LOADERS.items():
        path = tmp_path / f"{name}.txt"
        for text in swaps(inputs[name][1]):
            path.write_text(text)
            assert outcome(load, path, view) == outcome(reference, path, view), text


@pytest.mark.parametrize(
    "text",
    [
        "2\n0 1.0 2.0 1 0\n10.0\n1 1.0 3.0 1 0\n10.0\n",
        "1\n0 0.0 5.0 4 3\n1\n1\n1\n1\n0 1 1\n1 0 1\n2 3 1\n",
        "1\n0 0.0 5.0 4 3\n1\n1\n1\n1\n0 1 1\n1 2 1\n3 2 1\n",
        "1\n0 0.0 5.0 4 3\n1\n1\n1\n1\n0 1 1\n1 2 1\n2 0 1\n",
    ],
    ids=["equal_arrival_times", "reversed_duplicate_link", "path_over_four_nodes", "triangle_and_lone_node"],
)
def test_loaders_match_the_reference_loaders_on_edge_cases(tmp_path, text):
    path = tmp_path / "vnrs.txt"
    path.write_text(text)
    assert outcome(workload.load_vnrs, path, list) == outcome(reference_load_vnrs, path, list)


@st.composite
def requests(draw):
    """Small requests with any mix of the faults validate_vnr checks for."""
    n = draw(st.integers(0, 6))
    ends = st.integers(-1, n)
    links = draw(st.lists(st.tuples(ends, ends, st.sampled_from([-1.0, 0.0, 5.0])), max_size=8))
    if links and draw(st.booleans()):  # the same link again, maybe reversed
        a, b, bw = draw(st.sampled_from(links))
        links.append(draw(st.sampled_from([(a, b, bw), (b, a, bw)])))
    demands = draw(st.lists(st.sampled_from([-1.0, 0.0, 10.0]), min_size=n, max_size=n))
    t_e = draw(st.sampled_from([0.0, 1.0, 2.0]))
    return VirtualNetworkRequest(0, tuple(demands), tuple(links), 1.0, t_e)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(vnr=requests())
def test_validate_vnr_matches_the_reference(vnr):
    def check(validate):
        return outcome(validate, vnr, lambda _: None)

    assert check(workload.validate_vnr) == check(reference_validate_vnr)
