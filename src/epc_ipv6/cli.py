"""Command-line front end: derive, parse, resolve, and bench.

Exit codes: 0 success, 2 usage error, 3 parse error, 4 resolve error,
5 derive error, named by the failing error's ``stage``; ``bench`` reports
a method that fails on its population as not applicable and still exits 0,
and ``derive -``, one EPC per stdin line, exits with the highest code of its
failed lines. A stderr that cannot be written drops its lines and changes
neither stdout nor the exit code.
A JSON config file named by the EPC_IPV6_CONFIG environment variable can
preset the registry path, default method, and output format; flags
override the config.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .addressing import AddressingMethodId, TagStandard, method_function
from .epc import EpcScheme, _number, parse_epc
from .errors import EpcIpv6Error, EvaluationError, TagUriError, UnsatisfiableSpecError
from .ipv6 import parse_ipv6
from .ons import OnsRegistry, _parse_int, load_registry

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_PARSE = 3
EXIT_RESOLVE = 4
EXIT_DERIVE = 5

CONFIG_ENV_VAR = "EPC_IPV6_CONFIG"
_REGISTRY_REQUIRED = "--registry or a config registry_path is required"

_METHOD_NAMES = [m.value for m in AddressingMethodId]
_GENERATOR_SCHEMES = [s.value for s in EpcScheme]

_EXIT_CODES = {"usage": EXIT_USAGE, "config": EXIT_USAGE, "input": EXIT_USAGE,
               "output": EXIT_USAGE, "parse": EXIT_PARSE, "resolve": EXIT_RESOLVE,
               "derive": EXIT_DERIVE}


class CliError(Exception):
    """Usage error (exit 2); its ``stage`` is usage, config, input or output, and starts its text."""

    def __init__(self, stage: str, message: str):
        super().__init__(f"{stage}: {message}")
        self.stage = stage


# key -> (default; check giving the value to keep, or None when invalid; its message)
_CONFIG_KEYS = {
    "registry_path": (None, lambda value: value if isinstance(value, str) and value else None,
                      "registry_path must be a non-empty string, got {!r}"),
    "default_method": (AddressingMethodId.HYBRID_ONS,
                       lambda value: AddressingMethodId(value)
                       if value in _METHOD_NAMES else None,
                       "unknown default_method {!r}"),
    "output_format": ("text", lambda value: value if value in ("text", "structured") else None,
                      "output_format must be 'text' or 'structured'"),
}


def load_config() -> argparse.Namespace:
    """Config from the file named by EPC_IPV6_CONFIG; a key it leaves out keeps its default."""
    config = argparse.Namespace(**{key: row[0] for key, row in _CONFIG_KEYS.items()})
    path = os.environ.get(CONFIG_ENV_VAR)
    if not path:
        return config
    # ValueError: the file is not JSON or not UTF-8, or holds an over-long number;
    # RecursionError: it nests too deeply
    try:
        with open(path, encoding="utf-8") as file:
            data = json.load(file, parse_int=_parse_int)
    except (OSError, ValueError, RecursionError) as exc:
        raise CliError("config", f"cannot load {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise CliError("config", f"{path} must hold a JSON object")
    unknown = set(data) - set(_CONFIG_KEYS)
    if unknown:
        raise CliError("config", f"unknown keys in {path}: {sorted(unknown)}")
    for key, (_, check, message) in _CONFIG_KEYS.items():
        if key in data:
            value = check(data[key])
            if value is None:
                raise CliError("config", message.format(data[key]))
            setattr(config, key, value)
    return config


def _registry(args, config: argparse.Namespace, missing_message: str) -> OnsRegistry:
    """The registry named by --registry, else by the config's registry_path."""
    registry_path = args.registry or config.registry_path
    if registry_path is None:
        raise CliError("usage", missing_message)
    return load_registry(registry_path)


def cmd_derive(args, config: argparse.Namespace) -> int:
    # "-" reads one EPC per stdin line, after the checks that need none
    epc = None if args.epc == "-" else parse_epc(args.epc)
    if args.ons is not None and args.registry is not None:
        raise CliError("usage", "give exactly one of --ons and --registry")
    if args.ons is not None:
        ons = parse_ipv6(args.ons)
        ons_of = lambda epc: ons
    else:
        missing = "an ONS source is required: --ons, --registry, or config"
        ons_of = _registry(args, config, missing).resolve
    method = AddressingMethodId(args.method or config.default_method)
    derive = method_function(method, salt=args.salt, standard=args.standard)
    if epc is not None:
        print(derive(epc, ons_of(epc)))
        return EXIT_OK
    if sys.stdin is None:  # started with file descriptor 0 closed
        raise CliError("input", "stdin is closed")
    read, write, code, number = sys.stdin.buffer.readline, sys.stdout.write, EXIT_OK, 0
    while True:
        # main reads an OSError as a failed stdout write, so a failed read is named here
        try:
            line = read()
        except OSError as exc:
            raise CliError("input", f"{type(exc).__name__}: {exc}") from exc
        if not line:
            return code
        number += 1
        line = line.removesuffix(b"\n")
        try:
            try:
                text = line.decode()
            except UnicodeDecodeError:
                raise TagUriError(f"{line!r} is not UTF-8 text") from None
            epc = parse_epc(text)
            write(f"{derive(epc, ons_of(epc))}\n")
        except EpcIpv6Error as exc:
            _warn(f"line {number}: {_error_line(exc)}")
            code = max(code, _EXIT_CODES[exc.stage])


def cmd_parse(args, config: argparse.Namespace) -> int:
    epc = parse_epc(args.epc)
    fields = {
        "scheme": epc.scheme.value,
        "declared_bits": epc.declared_bits,
        "value": None if epc.value is None else f"{epc.value:#x}",
        "serial_number": epc.serial_number,
        "uri": epc.uri,
    }
    if _structured(args, config):
        print(json.dumps(fields, indent=2))
    else:
        for key, value in fields.items():
            print(f"{key}: {value}")
    return EXIT_OK


def cmd_resolve(args, config: argparse.Namespace) -> int:
    epc = parse_epc(args.epc)
    address = _registry(args, config, _REGISTRY_REQUIRED).resolve(epc)
    if _structured(args, config):
        print(json.dumps({"ons_ip": str(address)}))
    else:
        print(address)
    return EXIT_OK


def cmd_bench(args, config: argparse.Namespace) -> int:
    # the harness loads here, so the other commands never import it
    from .bench import NotApplicable, PopulationSpec, compare, generate_population, render

    registry = _registry(args, config, _REGISTRY_REQUIRED)
    try:
        spec = PopulationSpec(
            scheme=EpcScheme(args.scheme),
            count=args.count,
            seed=args.seed,
            serial_width_bits=args.serial_width_bits,
            serials_per_class=args.serials_per_class,
        )
        population = generate_population(spec)
    except (UnsatisfiableSpecError, ValueError) as exc:
        raise CliError("usage", f"population spec: {exc}") from exc

    rows = compare(args.methods, population, registry, args.salt, args.standard)
    for row in rows:
        if isinstance(row, NotApplicable):
            _warn(f"bench: {row}")
    output = render(spec, rows, _structured(args, config))

    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as file:
                file.write(output)
        except (OSError, ValueError) as exc:  # ValueError: a path holding a NUL byte
            raise CliError("output", f"{type(exc).__name__}: {exc}") from exc
    else:
        sys.stdout.write(output)
    return EXIT_OK


def _structured(args, config: argparse.Namespace) -> bool:
    return (args.format or config.output_format) == "structured"


def _salt_arg(text: str) -> int:
    value = _number(text)
    if value is None:
        raise argparse.ArgumentTypeError(f"salt {text!r} is not a number")
    if value >= 1 << 64:
        raise argparse.ArgumentTypeError(f"salt {text!r} does not fit 64 bits")
    return value


def _methods_list(text: str) -> list[AddressingMethodId]:
    names = [name.strip() for name in text.split(",") if name.strip()]
    if not names:
        raise argparse.ArgumentTypeError("empty method list")
    for name in names:
        if name not in _METHOD_NAMES:
            raise argparse.ArgumentTypeError(
                f"unknown method {name!r}; choose from {', '.join(_METHOD_NAMES)}"
            )
    return [AddressingMethodId(name) for name in names]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="epc-ipv6",
        description="Derive IPv6 addresses for RFID-tagged objects from EPC codes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    derive = sub.add_parser("derive", help="derive an address for one EPC")
    derive.add_argument("epc", help="tag URI, or numeric EPC (0x-hex or decimal); "
                        "- reads one per stdin line")
    derive.add_argument("--ons", help="ONS IPv6 address literal")
    derive.add_argument("--registry", help="registry file to resolve the ONS address")
    derive.add_argument("--method", choices=_METHOD_NAMES,
                        help="addressing method (default from config: hybrid_ons)")
    derive.add_argument("--salt", type=_salt_arg, default=0,
                        help="64-bit salt for xor_pad / or_pad")
    derive.add_argument("--standard", choices=[s.value for s in TagStandard],
                        default="epc", help="input standard for iso_epc")
    derive.set_defaults(handler=cmd_derive)

    parse = sub.add_parser("parse", help="parse an EPC and print its fields")
    parse.add_argument("epc", help="tag URI, or numeric EPC")
    parse.add_argument("--format", choices=["text", "structured"])
    parse.set_defaults(handler=cmd_parse)

    resolve_cmd = sub.add_parser("resolve", help="look up the ONS address of an EPC")
    resolve_cmd.add_argument("epc", help="tag URI, or numeric EPC")
    resolve_cmd.add_argument("--registry", help="registry file")
    resolve_cmd.add_argument("--format", choices=["text", "structured"])
    resolve_cmd.set_defaults(handler=cmd_resolve)

    bench = sub.add_parser("bench", help="benchmark methods over a seeded population")
    bench.add_argument("--registry", help="registry file")
    bench.add_argument("--scheme", choices=_GENERATOR_SCHEMES, default="sgtin-96")
    bench.add_argument("--count", type=int, default=1000)
    bench.add_argument("--seed", type=int, default=0)
    bench.add_argument("--serial-width-bits", type=int, default=None)
    bench.add_argument("--serials-per-class", type=int, help="sgtin-96: K serials per class")
    bench.add_argument("--methods", type=_methods_list, default=list(AddressingMethodId),
                       help="comma-separated method ids (default: all)")
    bench.add_argument("--salt", type=_salt_arg, default=0)
    bench.add_argument("--standard", choices=[s.value for s in TagStandard],
                       default="epc")
    bench.add_argument("--format", choices=["text", "structured"])
    bench.add_argument("--out", help="write the report here instead of stdout")
    bench.set_defaults(handler=cmd_bench)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = load_config()
        code = args.handler(args, config)
        sys.stdout.flush()  # a stdout write fails only when its buffer is written
        return code
    except (CliError, EpcIpv6Error, OSError) as exc:
        if isinstance(exc, OSError):
            # a failed stdout write (a closed pipe, a full device): load_registry,
            # load_config and bench's --out turn every other OSError a command can
            # meet into their own errors, and _warn drops a failed stderr write.
            # The interpreter flushes stdout again at exit; that write goes nowhere
            os.dup2(os.open(os.devnull, os.O_WRONLY), 1)
            exc = CliError("output", f"{type(exc).__name__}: {exc}")
        _warn(_error_line(exc))
        return _EXIT_CODES[exc.stage]


def _error_line(exc: CliError | EpcIpv6Error) -> str:
    """``<stage>: <ErrorType>: <message>``; a CliError's or EvaluationError's text
    already starts with its stage."""
    if isinstance(exc, (CliError, EvaluationError)):
        return str(exc)
    return f"{exc.stage}: {type(exc).__name__}: {exc}"


def _warn(line: str) -> None:
    """Write one line to stderr; a stderr that is closed or fails to write drops
    it, as argparse drops its usage message, so stdout and the exit code stand."""
    try:
        sys.stderr.write(line + "\n")
    except (AttributeError, OSError):  # AttributeError: sys.stderr is None
        pass


def run() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    run()
