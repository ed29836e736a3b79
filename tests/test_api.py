"""The public API: its size, and the names the benchmark harness uses."""

import argparse
import inspect
import os
import re
import sys

import cantorsq
from cantorsq import cli

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                     "bench")
SUBMODULES = {"certificate", "cli", "decompose", "errors", "ifs", "images", "lemmas",
              "numerics"}


def bench_names():
    """Every ``cantorsq.<name>`` the harness reads, other than submodules
    and module attributes such as ``__file__``."""
    names = set()
    for entry in sorted(os.listdir(BENCH)):
        if entry.endswith(".py"):
            with open(os.path.join(BENCH, entry), encoding="utf-8") as fh:
                names.update(re.findall(r"\bcantorsq\.([A-Za-z]\w*)", fh.read()))
    return names - SUBMODULES


def test_export_count():
    assert len(cantorsq.__all__) <= 40
    assert len(set(cantorsq.__all__)) == len(cantorsq.__all__)


def test_every_export_resolves():
    for name in cantorsq.__all__:
        assert getattr(cantorsq, name) is not None, name


def test_bench_names_exported():
    names = bench_names()
    assert {"make_params", "decompose_four", "image"} <= names
    assert names <= set(cantorsq.__all__)


def test_tracer_installs_and_uninstalls():
    sys.path.insert(0, BENCH)
    try:
        import tracing
    finally:
        sys.path.remove(BENCH)
    originals = {name: getattr(module, attr)
                 for name, (module, attr) in tracing.FUNCTIONS.items()}
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert cantorsq.decompose.decompose_four is not originals[
            "decompose.decompose_four"]
    finally:
        tracer.uninstall()
    for name, (module, attr) in tracing.FUNCTIONS.items():
        assert getattr(module, attr) is originals[name], name
    for cls, attr, _ in tracing.METHODS.values():
        assert attr in vars(cls)


def test_every_cli_option_is_read():
    """Each subcommand accepts only options that its handler reads."""
    parser = cli.build_parser()
    [subparsers] = [action for action in parser._actions
                    if isinstance(action, argparse._SubParsersAction)]
    for name, sub in subparsers.choices.items():
        source = inspect.getsource(sub.get_default("func"))
        for action in sub._actions:
            if action.dest != "help":
                assert "args.%s" % action.dest in source, (name, action.dest)
