"""Doc/CLI drift guard: documented commands must parse against the real CLI.

Walks every fenced code block of ``README.md`` and ``docs/*.md``, joins
``\\`` line continuations, and checks each ``python -m repro <sub> ...``
line against the argparse tree built by ``repro.__main__._build_parser``:
the subcommand must exist and every ``--flag`` must be one that subparser
(or, for ``data``, its nested subparser) accepts.  A flag that is removed
from the CLI but survives in a copy-pasteable example fails here -- and in
the CI ``docs`` job, which runs this directory.
"""

import argparse
import re
import shlex
from pathlib import Path

import pytest

from repro.__main__ import _build_parser

REPO_ROOT = Path(__file__).resolve().parents[2]

DOC_FILES = sorted(
    [REPO_ROOT / "README.md", *(REPO_ROOT / "docs").glob("*.md")],
    key=lambda path: path.name,
)

FENCE_PATTERN = re.compile(r"^```[^\n]*\n(.*?)^```", re.MULTILINE | re.DOTALL)

INVOCATION = "python -m repro "

#: Tokens that end the command proper (pipes, redirects, chaining).
SHELL_OPERATORS = {"|", "||", "&&", ";", ">", ">>", "2>&1", "&"}

PARSER = _build_parser()


def _subcommands(parser: argparse.ArgumentParser) -> dict:
    """The parser's subcommand table (empty when it has none)."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            return action.choices
    return {}


def documented_invocations(text: str):
    """The argument tokens of every ``python -m repro`` line in fenced blocks."""
    for block in FENCE_PATTERN.findall(text):
        for line in block.replace("\\\n", " ").splitlines():
            prefix, found, arguments = line.partition(INVOCATION)
            if not found or prefix.endswith("`"):  # prose inside a diagram block
                continue
            tokens = shlex.split(arguments, comments=True)
            for index, token in enumerate(tokens):
                if token in SHELL_OPERATORS:
                    tokens = tokens[:index]
                    break
            yield tokens


def check_invocation(tokens) -> list:
    """Problems of one documented command line (empty when it is valid)."""
    accepted = set(PARSER._option_string_actions)
    choices = _subcommands(PARSER)
    command = []
    problems = []
    for token in tokens:
        if token.startswith("--"):
            flag = token.split("=", 1)[0]
            if flag not in accepted:
                where = " ".join(command) or "the top-level parser"
                problems.append(f"{flag} is not accepted by {where}")
        elif choices:
            # The next positional selects a (nested) subcommand.
            if token not in choices:
                problems.append(f"unknown subcommand {' '.join([*command, token])!r}")
                break
            command.append(token)
            accepted |= set(choices[token]._option_string_actions)
            choices = _subcommands(choices[token])
    if not command:
        problems.append("no subcommand")
    return problems


@pytest.mark.parametrize("doc", DOC_FILES, ids=lambda path: path.name)
def test_documented_commands_match_the_cli(doc):
    problems = [
        f"`{INVOCATION}{' '.join(tokens)}`: {problem}"
        for tokens in documented_invocations(doc.read_text(encoding="utf-8"))
        for problem in check_invocation(tokens)
    ]
    assert not problems, f"{doc.name}:\n  " + "\n  ".join(problems)


def test_the_docs_do_document_commands():
    """Guard the guard: the walker must actually find the examples."""
    found = [
        tokens
        for doc in DOC_FILES
        for tokens in documented_invocations(doc.read_text(encoding="utf-8"))
    ]
    assert len(found) >= 40
    assert {tokens[0] for tokens in found} >= {
        "run", "compare", "place-compare", "data", "report", "trace", "doctor",
    }


@pytest.mark.parametrize(
    "line, problem",
    [
        ("compare --scale small --backend numpy", "--backend is not accepted by compare"),
        ("compare --scale xl --shared-memory", "--shared-memory is not accepted by compare"),
        ("compare --scale xl --no-path-cache", "--no-path-cache is not accepted by compare"),
        (
            "place-compare --path-cache-dir x",
            "--path-cache-dir is not accepted by place-compare",
        ),
        ("data fetch --output x", "--output is not accepted by data fetch"),
        ("frobnicate --workers 2", "unknown subcommand 'frobnicate'"),
        ("perf --suite small", "unknown subcommand 'perf'"),
        ("--log-json", "no subcommand"),
    ],
)
def test_stale_examples_are_caught(line, problem):
    assert problem in check_invocation(shlex.split(line))


def test_valid_examples_pass():
    for line in (
        "--log-json run paper-default --workers 4 --set workload.value_scale=2.0",
        "data clean raw.csv --output trace.npz",
        "compare --scale xl --quiet --trace-sample-rate=0.5",
    ):
        assert check_invocation(shlex.split(line)) == []
