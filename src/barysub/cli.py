"""Command-line front end over the JSON wire formats.

Exit codes: 0 success (or true answer), 1 well-formed false answer,
2 malformed input or internal error (one-line JSON diagnostic on stderr).

Each command is declared once, in ``COMMANDS``. ``main`` reads argv of the
plain form straight from that table, without argparse:

- ``argv[0]`` is a command name;
- every later token is a positional (it does not start with ``-``) or one of
  that command's declared flag strings;
- a flag that takes a value is followed by a token that does not start with
  ``-``, converted by the option's ``type`` and, where it has ``choices``,
  one of them;
- there are as many positionals as the command has inputs, every required
  option is present, and a repeated flag keeps its last value.

Any other argv (help, ``--version``, usage errors, abbreviations,
``--flag=value``, ``-ovalue``, ``--``, ``-``, negative numbers) goes to
argparse, which is imported and built only then, once per process. Both
give the same namespace on plain argv.

Handlers look library operations up as module globals when they run, so
rebinding a module name (as a tracer does) reaches them.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import namedtuple
from types import SimpleNamespace

from . import __version__, jsonio
from .core import are_isomorphic
from .derived import (
    alexander_dual,
    barycentric_subdivision,
    complement_complex,
    facet_ideal_generators,
    iterated_subdivision,
    stanley_reisner_generators,
)
from .errors import BarysubError
from .graphs import comparability_graph
from .reconstruct import (
    STATUS_OK,
    reconstruct_from_comparability_graph,
    reconstruct_from_subdivision,
)
from .verify import verify_theorems


def _read_json(path: str):
    with open(path, "rb") as fh:
        text = fh.read().decode("utf-8")
    if "\r" in text:
        # newlines as text mode reads them, so decode errors keep their positions
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    try:
        return json.loads(text)
    except RecursionError:
        # the decoder recurses once per nesting level
        raise ValueError(f"{path}: JSON nested too deeply to decode") from None


def _write(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text + "\n")
    else:
        with open(path, "wb") as fh:
            fh.write((text + "\n").encode())


def _read_complex(path: str):
    return jsonio.complex_from_obj(_read_json(path))


def _read_graph(path: str):
    return jsonio.graph_from_obj(_read_json(path))


def _answer(text: str, yes: bool = True) -> tuple[str, int]:
    return text, 0 if yes else 1


def _complex_out(cx) -> tuple[str, int]:
    return jsonio.complex_text(cx), 0


def _subdivide(args, cx) -> tuple[str, int]:
    if args.k == 1:
        sub, faces = barycentric_subdivision(cx)
        if args.labels:
            _write(jsonio.labeling_text(faces), args.labels)
        return _complex_out(sub)
    if args.labels:
        raise ValueError("--labels pairs with a single subdivision step")
    return _complex_out(iterated_subdivision(cx, args.k))


def _iso(args, a, b) -> tuple[str, int]:
    witness = are_isomorphic(a, b)
    mapping = None if witness is None else list(witness)
    return _answer(jsonio.dumps({"isomorphic": witness is not None, "map": mapping}),
                   witness is not None)


def _reconstruction(rep, want_report: bool) -> tuple[str, int]:
    if want_report or rep.status != STATUS_OK:
        return _answer(jsonio.reconstruction_report_text(rep), rep.status == STATUS_OK)
    return _complex_out(rep.complex)


def _check_comparability(args, g) -> tuple[str, int]:
    rep = reconstruct_from_comparability_graph(g)
    obj = {"is_comparability_graph": rep.status == STATUS_OK, "status": rep.status}
    return _answer(jsonio.dumps(obj), rep.status == STATUS_OK)


def _verify(args) -> tuple[str, int]:
    rep = verify_theorems(args.max_vertices, args.theorem)
    return _answer(jsonio.verification_report_text(rep), not rep.failures)


# One CLI command: its help text; its inputs, each a (positional name, help,
# reader) triple; run, which maps (args, *read inputs) to (output text, exit
# code); and its options, each (flags, argparse keywords), which follow -o
# when the command has inputs.
Command = namedtuple("Command", "help inputs run options", defaults=((),))


def _opt(*flags: str, **kwargs) -> tuple[tuple[str, ...], dict]:
    return flags, kwargs


COMPLEX = (("input", "path to complex JSON", _read_complex),)
GRAPH = (("input", "path to graph JSON", _read_graph),)
OUTPUT = _opt("-o", "--output", default=None, help="output path (default stdout)")
REPORT = _opt("--report", action="store_true", help="emit the full report JSON")

COMMANDS = {
    "subdivide": Command("barycentric subdivision (complex JSON out)", COMPLEX, _subdivide, (
        _opt("-k", type=int, default=1, help="number of subdivision steps (default 1)"),
        _opt("--labels", default=None, help="also write the vertex/face pairing (k=1 only)"),
    )),
    "dual": Command("Alexander dual (complex JSON out)", COMPLEX,
                    lambda args, cx: _complex_out(alexander_dual(cx))),
    "complement": Command("facet-complement complex (complex JSON out)", COMPLEX,
                          lambda args, cx: _complex_out(complement_complex(cx))),
    "comp-graph": Command(
        "comparability graph of the face poset (graph JSON out)", COMPLEX,
        lambda args, cx: _answer(jsonio.graph_text(comparability_graph(cx)))),
    "skeleton": Command("i-skeleton (complex JSON out)", COMPLEX,
                        lambda args, cx: _complex_out(cx.skeleton(args.i)),
                        (_opt("-i", type=int, required=True, help="skeleton dimension"),)),
    "nonfaces": Command("minimal nonfaces (generator-set JSON out)", COMPLEX,
                        lambda args, cx: _answer(jsonio.generators_text(cx.minimal_nonfaces()))),
    "sr-gens": Command(
        "Stanley-Reisner ideal generator supports", COMPLEX,
        lambda args, cx: _answer(jsonio.generators_text(stanley_reisner_generators(cx)))),
    "facet-gens": Command(
        "facet ideal generator supports", COMPLEX,
        lambda args, cx: _answer(jsonio.generators_text(facet_ideal_generators(cx)))),
    "euler": Command("Euler characteristic (bare integer out)", COMPLEX,
                     lambda args, cx: (str(cx.euler_characteristic()), 0)),
    "iso": Command("isomorphism test with witness; exit code is the answer",
                   (("a", "path to first complex JSON", _read_complex),
                    ("b", "path to second complex JSON", _read_complex)), _iso),
    "reconstruct": Command(
        "rebuild a complex from a comparability graph", GRAPH,
        lambda args, g: _reconstruction(reconstruct_from_comparability_graph(g), args.report),
        (REPORT,)),
    "reconstruct-sub": Command(
        "rebuild a complex from its barycentric subdivision", COMPLEX,
        lambda args, cx: _reconstruction(reconstruct_from_subdivision(cx), args.report),
        (REPORT,)),
    "check-comparability": Command("is the graph a face-poset comparability graph", GRAPH,
                                   _check_comparability),
    "verify": Command("exhaustive theorem verification over small universes", (), _verify, (
        _opt("--max-vertices", type=int, required=True),
        _opt("--theorem", choices=["2.2", "2.3"], default=None,
             help="2.2 = rigidity, 2.3 = equivalences (default: both)"),
        _opt("-o", "--output", default=None),
    )),
}


def _options(cmd: Command) -> tuple[tuple[tuple[str, ...], dict], ...]:
    return ((OUTPUT,) if cmd.inputs else ()) + cmd.options


def build_parser() -> argparse.ArgumentParser:
    """A new parser with one subparser per entry of ``COMMANDS``."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="barysub",
        description="Combinatorial operators on simplicial complexes and "
        "reconstruction from barycentric subdivisions.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, cmd in COMMANDS.items():
        p = sub.add_parser(name, help=cmd.help)
        for arg, text, _ in cmd.inputs:
            p.add_argument(arg, help=text)
        for flags, kwargs in _options(cmd):
            p.add_argument(*flags, **kwargs)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    return build_parser()


def _dest(flags: tuple[str, ...]) -> str:
    # argparse's rule: the first long flag, else the first flag, without its
    # leading dashes and with "-" turned into "_"
    long = [f for f in flags if f.startswith("--")]
    return (long or flags)[0].lstrip("-").replace("-", "_")


@functools.cache
def _plain_forms() -> dict[str, tuple]:
    """Command name -> (input names, flag -> (dest, takes a value, type,
    choices), dest -> default of each option that is not required, required
    dests), from ``COMMANDS``."""
    forms = {}
    for name, cmd in COMMANDS.items():
        flags, defaults, required = {}, {}, set()
        for option_strings, kwargs in _options(cmd):
            dest = _dest(option_strings)
            switch = kwargs.get("action") == "store_true"
            spec = (dest, not switch, kwargs.get("type"), kwargs.get("choices"))
            flags.update(dict.fromkeys(option_strings, spec))
            if kwargs.get("required"):
                required.add(dest)
            else:
                defaults[dest] = kwargs.get("default", False if switch else None)
        forms[name] = (tuple(arg for arg, _, _ in cmd.inputs), flags, defaults, required)
    return forms


def _plain_args(argv: list[str]) -> SimpleNamespace | None:
    """The namespace argparse would return for argv of the plain form (see the
    module docstring), or None for any other argv."""
    form = _plain_forms().get(argv[0]) if argv else None
    if form is None:
        return None
    inputs, flags, defaults, required = form
    values, positionals = dict(defaults), []
    tokens = iter(argv[1:])
    for token in tokens:
        if not token.startswith("-"):
            positionals.append(token)
            continue
        if token not in flags:
            return None
        dest, takes_value, kind, choices = flags[token]
        if not takes_value:
            values[dest] = True
            continue
        value = next(tokens, "-")  # a missing value reads as an option
        if value.startswith("-"):
            return None
        if kind is not None:
            try:
                value = kind(value)
            except (TypeError, ValueError):
                return None
        if choices is not None and value not in choices:
            return None
        values[dest] = value
    if len(positionals) != len(inputs) or not required <= values.keys():
        return None
    return SimpleNamespace(command=argv[0], **dict(zip(inputs, positionals)), **values)


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _plain_args(argv)
    if args is None:
        try:
            args = _parser().parse_args(argv)
        except SystemExit as exc:
            # argparse exits 2 on bad usage, 0 on --help/--version; pass through
            return int(exc.code or 0)
    cmd = COMMANDS[args.command]
    try:
        inputs = [read(getattr(args, arg)) for arg, _, read in cmd.inputs]
        text, code = cmd.run(args, *inputs)
        _write(text, args.output)
        return code
    except (BarysubError, ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
        err = {"error": type(exc).__name__, "message": str(exc)}
        sys.stderr.write(json.dumps(err) + "\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
