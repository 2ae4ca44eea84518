import hashlib
import importlib
import io
import json
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import epc_ipv6
from epc_ipv6 import cli, errors
from epc_ipv6.cli import (
    EXIT_DERIVE,
    EXIT_OK,
    EXIT_PARSE,
    EXIT_RESOLVE,
    EXIT_USAGE,
    CONFIG_ENV_VAR,
    build_parser,
    main,
)

from conftest import ONS_TEXT

GOLDEN_ADDRESS = "3ffe:ffff:4004:1952:22:25c6:89d1:fb66"


@pytest.fixture(autouse=True)
def no_ambient_config(monkeypatch):
    monkeypatch.delenv(CONFIG_ENV_VAR, raising=False)


class TestDerive:
    def test_golden_vector_hex_epc(self, capsys):
        code = main(
            ["derive", "0x2225C689D1FB66", "--ons", ONS_TEXT, "--method", "hybrid_ons"]
        )
        assert code == EXIT_OK
        assert capsys.readouterr().out == GOLDEN_ADDRESS + "\n"

    def test_golden_vector_decimal_epc(self, capsys):
        code = main(["derive", "9611683854154598", "--ons", ONS_TEXT])
        assert code == EXIT_OK
        assert capsys.readouterr().out == GOLDEN_ADDRESS + "\n"

    def test_one_bit_payload(self, capsys):
        code = main(["derive", "0x1", "--ons", "::", "--method", "hybrid_ons"])
        assert code == EXIT_OK
        assert capsys.readouterr().out == "::1\n"

    def test_output_is_single_line(self, capsys):
        main(["derive", "0x1", "--ons", "::"])
        out = capsys.readouterr().out
        assert out.count("\n") == 1 and out.strip() == "::1"

    def test_tag_uri_input(self, capsys):
        code = main(
            ["derive", "urn:epc:tag:sgtin-96:3.0614141.812345.6789", "--ons", ONS_TEXT]
        )
        assert code == EXIT_OK
        # 6789 is 13 bits: top 115 ONS bits + serial
        assert capsys.readouterr().out == "3ffe:ffff:4004:1952:0:7251:bc9b:ba85\n"

    def test_registry_source(self, capsys, wildcard_registry_path):
        code = main(
            ["derive", "0x2225C689D1FB66", "--registry", str(wildcard_registry_path)]
        )
        assert code == EXIT_OK
        assert capsys.readouterr().out == GOLDEN_ADDRESS + "\n"

    def test_unknown_method_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["derive", "0x1", "--ons", "::", "--method", "bogus"])
        assert excinfo.value.code == EXIT_USAGE
        assert "usage" in capsys.readouterr().err

    def test_both_sources_rejected(self, capsys, wildcard_registry_path):
        code = main(
            ["derive", "0x1", "--ons", "::", "--registry", str(wildcard_registry_path)]
        )
        assert code == EXIT_USAGE

    def test_no_source_rejected(self):
        assert main(["derive", "0x1"]) == EXIT_USAGE

    def test_bad_ons_is_parse_error(self, capsys):
        code = main(["derive", "0x1", "--ons", "not-an-address"])
        assert code == EXIT_PARSE
        assert capsys.readouterr().err.startswith("parse:")

    def test_bad_epc_is_parse_error(self, capsys):
        code = main(["derive", "zzz", "--ons", "::"])
        assert code == EXIT_PARSE

    def test_bad_uri_is_parse_error(self, capsys):
        code = main(["derive", "urn:epc:tag:xyz-96:1.2.3", "--ons", "::"])
        assert code == EXIT_PARSE
        assert "UnknownScheme" in capsys.readouterr().err

    def test_wide_epc_with_direct64_is_derive_error(self, capsys):
        code = main(
            [
                "derive",
                "urn:epc:tag:sgtin-96:3.0614141.812345.6789",
                "--ons",
                ONS_TEXT,
                "--method",
                "direct64",
            ]
        )
        assert code == EXIT_DERIVE
        assert capsys.readouterr().err.startswith("derive:")


class TestParseCommand:
    def test_prints_serial_number(self, capsys):
        code = main(["parse", "urn:epc:tag:sgtin-96:3.0614141.812345.6789"])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "serial_number: 6789" in out
        assert "scheme: sgtin-96" in out

    def test_structured_output(self, capsys):
        code = main(
            [
                "parse",
                "urn:epc:tag:sgtin-96:3.0614141.812345.6789",
                "--format",
                "structured",
            ]
        )
        assert code == EXIT_OK
        data = json.loads(capsys.readouterr().out)
        assert data["serial_number"] == 6789
        assert data["value"] == "0x3074257bf7194e4000001a85"

    def test_malformed_uri(self, capsys):
        assert main(["parse", "urn:epc:tag:sgtin-96:3"]) == EXIT_PARSE


class TestResolveCommand:
    def test_resolves_from_registry(self, capsys, wildcard_registry_path):
        code = main(
            [
                "resolve",
                "urn:epc:tag:sgtin-96:3.0614141.812345.6789",
                "--registry",
                str(wildcard_registry_path),
            ]
        )
        assert code == EXIT_OK
        assert capsys.readouterr().out == ONS_TEXT + "\n"

    def test_empty_registry_no_match(self, capsys, registry_file):
        code = main(
            [
                "resolve",
                "0x1234",
                "--registry",
                str(registry_file([], "empty.json")),
            ]
        )
        assert code == EXIT_RESOLVE
        assert "resolve: NoMatch" in capsys.readouterr().err

    def test_missing_registry_file(self, tmp_path):
        code = main(["resolve", "0x1234", "--registry", str(tmp_path / "nope.json")])
        assert code == EXIT_RESOLVE

    def test_registry_required(self):
        assert main(["resolve", "0x1234"]) == EXIT_USAGE

    def test_structured_output(self, capsys, registry_file):
        registry = registry_file([{"pattern": "*", "ons_ip": "2001:db8::1"}])
        argv = ["resolve", "0x1", "--registry", str(registry), "--format", "structured"]
        assert main(argv) == EXIT_OK
        assert capsys.readouterr().out == '{"ons_ip": "2001:db8::1"}\n'


class TestBenchCommand:
    def test_csv_output(self, capsys, wildcard_registry_path):
        code = main(
            [
                "bench",
                "--registry",
                str(wildcard_registry_path),
                "--scheme",
                "sgtin-96",
                "--count",
                "50",
                "--seed",
                "42",
                "--methods",
                "hybrid_ons,one_pad_serial",
            ]
        )
        assert code == EXIT_OK
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "method,population,distinct,collisions,mean_time,p99_time"
        assert len(lines) == 3
        assert lines[1].startswith("hybrid_ons,50,")
        assert lines[2].startswith("one_pad_serial,50,")

    def test_non_timing_columns_stable_across_runs(self, capsys, wildcard_registry_path):
        argv = [
            "bench",
            "--registry",
            str(wildcard_registry_path),
            "--scheme",
            "raw",
            "--count",
            "2",
            "--seed",
            "7",
            "--methods",
            "hybrid_ons",
        ]
        main(argv)
        first = capsys.readouterr().out
        main(argv)
        second = capsys.readouterr().out

        def stable_columns(text):
            return [line.split(",")[:4] for line in text.strip().splitlines()]

        assert stable_columns(first) == stable_columns(second)

    def test_structured_output_has_seed_header(self, capsys, wildcard_registry_path):
        code = main(
            [
                "bench",
                "--registry",
                str(wildcard_registry_path),
                "--scheme",
                "raw",
                "--count",
                "10",
                "--seed",
                "3",
                "--methods",
                "hybrid_ons",
                "--format",
                "structured",
            ]
        )
        assert code == EXIT_OK
        data = json.loads(capsys.readouterr().out)
        assert data["population"] == {
            "scheme": "raw",
            "count": 10,
            "seed": 3,
            "serial_width_bits": None,
        }
        assert data["reports"][0]["method"] == "hybrid_ons"

    def test_out_file(self, tmp_path, wildcard_registry_path):
        out = tmp_path / "report.csv"
        code = main(
            [
                "bench",
                "--registry",
                str(wildcard_registry_path),
                "--scheme",
                "raw",  # every method, including direct64, handles <=64-bit EPCs
                "--count",
                "10",
                "--out",
                str(out),
            ]
        )
        assert code == EXIT_OK
        lines = out.read_text().strip().splitlines()
        assert lines[0].startswith("method,")
        assert len(lines) == 1 + 6  # all methods by default

    def test_unwritable_out_is_usage_error(self, capsys, tmp_path, wildcard_registry_path):
        out = tmp_path / "missing-dir" / "report.csv"
        code = main(
            [
                "bench",
                "--registry",
                str(wildcard_registry_path),
                "--scheme",
                "raw",
                "--count",
                "10",
                "--out",
                str(out),
            ]
        )
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("output: ")
        assert str(out) in err

    def test_usdod_scheme_rejected(self, wildcard_registry_path):
        with pytest.raises(SystemExit) as excinfo:
            main(["bench", "--registry", str(wildcard_registry_path),
                  "--scheme", "usdod-96"])
        assert excinfo.value.code == EXIT_USAGE

    def test_unsatisfiable_population(self, capsys, wildcard_registry_path):
        code = main(
            [
                "bench",
                "--registry",
                str(wildcard_registry_path),
                "--scheme",
                "raw",
                "--count",
                "3",
                "--serial-width-bits",
                "1",
            ]
        )
        assert code == EXIT_USAGE

    def test_default_command_reports_direct64_not_applicable(
        self, capsys, wildcard_registry_path
    ):
        # the README's default run: sgtin-96, 1000 EPCs, all six methods
        code = main(["bench", "--registry", str(wildcard_registry_path),
                     "--format", "structured"])
        captured = capsys.readouterr()
        assert code == EXIT_OK, captured.err
        data = json.loads(captured.out)
        assert [r["method"] for r in data["reports"]] == [
            "hybrid_ons", "xor_pad", "or_pad", "one_pad_serial", "iso_epc"
        ]
        [skipped] = data["not_applicable"]
        assert skipped["method"] == "direct64"
        assert skipped["population_size"] == 1000
        assert skipped["failures"] == {"EpcTooWideError": 1000}
        assert skipped["first_failure"]["epc"].startswith("sgtin-96:0x30")
        assert skipped["first_failure"]["error"] == (
            "EpcTooWideError: 96-bit EPC does not fit a 64-bit interface id"
        )
        assert "direct64 not applicable" in captured.err

    def test_default_command_csv_marks_direct64(self, capsys, wildcard_registry_path):
        code = main(["bench", "--registry", str(wildcard_registry_path)])
        assert code == EXIT_OK
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 1 + 6
        assert lines[2] == "direct64,1000,n/a,n/a,n/a,n/a"
        assert [line.split(",")[0] for line in lines[1:]] == [
            "hybrid_ons", "direct64", "xor_pad", "or_pad", "one_pad_serial", "iso_epc"
        ]

    def test_resolve_failure_still_fails_the_run(self, capsys, registry_file):
        registry = registry_file([{"pattern": "raw", "ons_ip": ONS_TEXT}])
        code = main(["bench", "--registry", str(registry)])
        assert code == EXIT_RESOLVE
        assert capsys.readouterr().err.startswith("resolve: NoMatchError: ")

    def test_unknown_method_listed(self, capsys, wildcard_registry_path):
        with pytest.raises(SystemExit) as excinfo:
            main(
                [
                    "bench",
                    "--registry",
                    str(wildcard_registry_path),
                    "--methods",
                    "hybrid_ons,nope",
                ]
            )
        assert excinfo.value.code == EXIT_USAGE

    def test_empty_method_list(self, capsys, wildcard_registry_path):
        with pytest.raises(SystemExit) as excinfo:
            main(["bench", "--registry", str(wildcard_registry_path), "--methods", ","])
        assert excinfo.value.code == EXIT_USAGE
        assert capsys.readouterr().err.endswith(
            "error: argument --methods: empty method list\n"
        )


class TestBenchOutputPinned:
    """Bench output for fixed seeds, timing fields dropped, pinned by sha256.

    The digests were taken before the methods moved onto integer kernels;
    sgtin-96 leaves out direct64, which does not apply to 96-bit EPCs.
    """

    @staticmethod
    def _stable_digest(text: str, output_format: str) -> str:
        if output_format == "structured":
            data = json.loads(text)
            for report in data["reports"]:
                del report["timing"]
            stable = json.dumps(data, indent=2)
        else:
            stable = "\n".join(",".join(line.split(",")[:4]) for line in text.splitlines())
        return hashlib.sha256(stable.encode()).hexdigest()

    @pytest.mark.parametrize(
        "argv, output_format, digest",
        [
            (["--scheme", "sgtin-96", "--seed", "5", "--methods",
              "hybrid_ons,xor_pad,or_pad,one_pad_serial,iso_epc"],
             "structured",
             "516aef8d8141c03a2e86e9b3f59815ad1c30fab8fb7f881a4962abe34eb7cd7f"),
            (["--scheme", "sgtin-96", "--seed", "5", "--methods",
              "hybrid_ons,xor_pad,or_pad,one_pad_serial,iso_epc"],
             "text",
             "1dcbda28c5e80b20697e5b1dcae9bbaba5446b6ed93678123e662f856a4659e4"),
            (["--scheme", "raw", "--seed", "1", "--serial-width-bits", "16",
              "--standard", "iso"],
             "structured",
             "38ada35c79572cfe0783d89bfeafc8e2b673da5e7f8c35654908810881426e8a"),
            (["--scheme", "raw", "--seed", "1", "--serial-width-bits", "16",
              "--standard", "iso"],
             "text",
             "66c0b896fd240c56812eda4c985f8a20f79219fdc4f9f8b49c4f1d856e9e8cd7"),
        ],
    )
    def test_reports_match_pinned_digest(
        self, capsys, wildcard_registry_path, argv, output_format, digest
    ):
        code = main(["bench", "--registry", str(wildcard_registry_path), "--count", "2000",
                     "--salt", "0xffffffffffffc000", "--format", output_format, *argv])
        assert code == EXIT_OK
        assert self._stable_digest(capsys.readouterr().out, output_format) == digest


# the methods a serial-only population cannot derive, in report order
SERIAL_ONLY_NOT_APPLICABLE = [
    ("direct64", "EpcTooWideError"),
    ("xor_pad", "MissingValueError"),
    ("or_pad", "MissingValueError"),
    ("iso_epc", "MissingValueError"),
]


class TestBenchCounts:
    """Distinct addresses and colliding pairs of seeded bench runs, per method."""

    @pytest.mark.parametrize(
        "argv, counts, not_applicable",
        [
            # a salt whose low 14 bits are zero: or_pad folds raw EPCs together
            (["--scheme", "raw", "--count", "20000", "--seed", "1",
              "--salt", "0xffffffffffffc000"],
             {"hybrid_ons": (20000, 0), "direct64": (20000, 0), "xor_pad": (20000, 0),
              "or_pad": (11520, 12251), "one_pad_serial": (20000, 0),
              "iso_epc": (20000, 0)},
             []),
            # full-width GIAI-96 serials
            (["--scheme", "giai-96", "--count", "20000", "--seed", "3"],
             {"hybrid_ons": (20000, 0), "one_pad_serial": (20000, 0)},
             SERIAL_ONLY_NOT_APPLICABLE),
            # 12-bit SGLN-96 serials
            (["--scheme", "sgln-96", "--count", "3000", "--seed", "3",
              "--serial-width-bits", "12"],
             {"hybrid_ons": (2361, 1037), "one_pad_serial": (1730, 2251)},
             SERIAL_ONLY_NOT_APPLICABLE),
            # 200 SGTIN-96 classes of 100 serials below 128: hybrid_ons collides
            (["--count", "20000", "--seed", "7", "--serials-per-class", "100",
              "--serial-width-bits", "7"],
             {"hybrid_ons": (96, 3084061), "xor_pad": (20000, 0), "or_pad": (20000, 0),
              "one_pad_serial": (64, 4641120), "iso_epc": (20000, 0)},
             [("direct64", "EpcTooWideError")]),
        ],
        ids=["raw", "giai-96", "sgln-96", "sgtin-96-per-class"],
    )
    def test_counts(self, capsys, wildcard_registry_path, argv, counts, not_applicable):
        code = main(["bench", "--registry", str(wildcard_registry_path),
                     "--format", "structured", *argv])
        assert code == EXIT_OK
        data = json.loads(capsys.readouterr().out)
        count = data["population"]["count"]
        assert {r["method"]: (r["distinct_addresses"], r["collision_pair_count"])
                for r in data["reports"]} == counts
        assert [(r["method"], r["failures"]) for r in data.get("not_applicable", [])] == [
            (method, {error: count}) for method, error in not_applicable
        ]


class TestConfigFile:
    def test_config_provides_registry_and_method(
        self, capsys, monkeypatch, tmp_path, wildcard_registry_path
    ):
        config = tmp_path / "config.json"
        config.write_text(
            json.dumps(
                {
                    "registry_path": str(wildcard_registry_path),
                    "default_method": "hybrid_ons",
                    "output_format": "text",
                }
            )
        )
        monkeypatch.setenv(CONFIG_ENV_VAR, str(config))
        code = main(["derive", "0x2225C689D1FB66"])
        assert code == EXIT_OK
        assert capsys.readouterr().out == GOLDEN_ADDRESS + "\n"

    def test_flags_override_config(self, capsys, monkeypatch, tmp_path, registry_file):
        other = registry_file([{"pattern": "*", "ons_ip": "2001:db8::99"}], "other.json")
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"registry_path": str(other)}))
        monkeypatch.setenv(CONFIG_ENV_VAR, str(config))
        code = main(["derive", "0x1", "--ons", "::"])
        assert code == EXIT_OK
        assert capsys.readouterr().out == "::1\n"

    def test_bad_config_is_usage_error(self, capsys, monkeypatch, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"registry_path": ".", "bogus_key": 1}))
        monkeypatch.setenv(CONFIG_ENV_VAR, str(config))
        assert main(["derive", "0x1", "--ons", "::"]) == EXIT_USAGE

    @pytest.mark.parametrize("registry_path", [None, 5, ["r.json"], True])
    def test_non_string_registry_path_is_usage_error(
        self, capsys, monkeypatch, tmp_path, registry_path
    ):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"registry_path": registry_path}))
        monkeypatch.setenv(CONFIG_ENV_VAR, str(config))
        assert main(["derive", "0x1"]) == EXIT_USAGE
        assert capsys.readouterr().err.startswith("config: ")

    def test_empty_registry_path_is_usage_error(self, capsys, monkeypatch, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"registry_path": ""}))
        monkeypatch.setenv(CONFIG_ENV_VAR, str(config))
        assert main(["derive", "0x1"]) == EXIT_USAGE
        assert capsys.readouterr().err.startswith("config: registry_path ")

    def test_output_format_from_config(self, capsys, monkeypatch, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"output_format": "structured"}))
        monkeypatch.setenv(CONFIG_ENV_VAR, str(config))
        code = main(["parse", "urn:epc:tag:sgtin-96:3.0614141.812345.6789"])
        assert code == EXIT_OK
        assert json.loads(capsys.readouterr().out)["serial_number"] == 6789


SGTIN_URI = "urn:epc:tag:sgtin-96:3.0614141.812345.6789"
GIAI_URI = "urn:epc:tag:giai-96:3.0614141.12345"
NO_FILE = "[Errno 2] No such file or directory"


class TestFailureMatrix:
    """Exact stderr line and exit code of each failing invocation.

    Paths are relative to the test's working directory, so every message is
    the same on any machine.
    """

    REGISTRIES = {
        "r.json": [{"pattern": "*", "ons_ip": ONS_TEXT}],
        "badpat.json": [{"pattern": "usdod-96", "ons_ip": ONS_TEXT}],
        "empty.json": [],
        "rawonly.json": [{"pattern": "raw", "ons_ip": ONS_TEXT}],
        "numpat.json": [{"pattern": 5, "ons_ip": ONS_TEXT}],
    }

    @pytest.fixture(autouse=True)
    def in_tmp_path(self, monkeypatch, tmp_path):
        monkeypatch.chdir(tmp_path)
        for name, entries in self.REGISTRIES.items():
            (tmp_path / name).write_text(json.dumps(entries), encoding="utf-8")
        # a number past int()'s default limit of 4300 decimal digits
        (tmp_path / "longnum.json").write_text("[" + "1" * 5000 + "]", encoding="utf-8")

    COMMAND_FAILURES = [
        (["derive", "urn:epc:tag:xyz-96:1.2.3", "--ons", "::"], EXIT_PARSE,
         "parse: UnknownSchemeError: unknown tag scheme 'xyz-96'"),
        (["derive", "zzz", "--ons", "::"], EXIT_PARSE,
         "parse: TagUriError: 'zzz' is neither a tag URI nor a number"),
        (["derive", "0x1" + "0" * 64, "--ons", "::"], EXIT_PARSE,
         f"parse: FieldRangeError: EPC value '0x1{'0' * 64}' outside 0..2^256"),
        (["derive", "0x1", "--ons", "not-an-address"], EXIT_PARSE,
         "parse: Ipv6TextError: At least 3 parts expected in 'not-an-address'"),
        (["derive", "0x1", "--ons", "::", "--registry", "r.json"], EXIT_USAGE,
         "usage: give exactly one of --ons and --registry"),
        (["derive", "0x1"], EXIT_USAGE,
         "usage: an ONS source is required: --ons, --registry, or config"),
        (["derive", "0x1", "--registry", "nope.json"], EXIT_RESOLVE,
         f"resolve: RegistryError: cannot read registry nope.json: {NO_FILE}: "
         "'nope.json'"),
        (["derive", "0x1", "--registry", "badpat.json"], EXIT_RESOLVE,
         "resolve: RegistryError: pattern 'usdod-96' names unknown scheme 'usdod-96'"),
        (["derive", "0x1", "--registry", "empty.json"], EXIT_RESOLVE,
         "resolve: NoMatchError: no registry record matches raw EPC"),
        (["derive", SGTIN_URI, "--ons", ONS_TEXT, "--method", "direct64"],
         EXIT_DERIVE,
         "derive: EpcTooWideError: 96-bit EPC does not fit a 64-bit interface id"),
        (["derive", GIAI_URI, "--ons", ONS_TEXT, "--method", "xor_pad"], EXIT_DERIVE,
         "derive: MissingValueError: EPC has no numeric value to derive from"),
        (["resolve", "0x1"], EXIT_USAGE,
         "usage: --registry or a config registry_path is required"),
        (["resolve", "urn:epc:tag:sgtin-96:3", "--registry", "r.json"], EXIT_PARSE,
         "parse: TagUriError: sgtin-96 URI needs 4 fields, got 1: "
         "'urn:epc:tag:sgtin-96:3'"),
        (["resolve", "0x1234", "--registry", "empty.json"], EXIT_RESOLVE,
         "resolve: NoMatchError: no registry record matches raw EPC"),
        (["parse", "urn:epc:tag:sgtin-96:3"], EXIT_PARSE,
         "parse: TagUriError: sgtin-96 URI needs 4 fields, got 1: "
         "'urn:epc:tag:sgtin-96:3'"),
        (["parse", "urn:epc:tag:xyz-96:1.2.3"], EXIT_PARSE,
         "parse: UnknownSchemeError: unknown tag scheme 'xyz-96'"),
        (["bench"], EXIT_USAGE,
         "usage: --registry or a config registry_path is required"),
        (["bench", "--registry", "nope.json"], EXIT_RESOLVE,
         f"resolve: RegistryError: cannot read registry nope.json: {NO_FILE}: "
         "'nope.json'"),
        (["bench", "--registry", "r.json", "--scheme", "raw", "--count", "3",
          "--serial-width-bits", "1"], EXIT_USAGE,
         "usage: population spec: cannot draw 3 distinct values from a 1-bit space"),
        (["bench", "--registry", "rawonly.json", "--count", "10"], EXIT_RESOLVE,
         "resolve: NoMatchError: no registry record matches sgtin-96 EPC "
         "(epc=sgtin-96:0x3035521f39e37971d82c07cd)"),
        (["bench", "--registry", "r.json", "--scheme", "raw", "--count", "10",
          "--out", "missing-dir/report.csv"], EXIT_USAGE,
         f"output: FileNotFoundError: {NO_FILE}: 'missing-dir/report.csv'"),
        (["derive", "0x1", "--registry", "numpat.json"], EXIT_RESOLVE,
         "resolve: RegistryError: registry entry 0 has non-string values"),
        (["bench", "--registry", "r.json", "--seed", "-1"], EXIT_USAGE,
         "usage: population spec: seed -1 does not fit 64 bits"),
        (["bench", "--registry", "r.json", "--seed", str(2**64)], EXIT_USAGE,
         f"usage: population spec: seed {2**64} does not fit 64 bits"),
        (["bench", "--registry", "r.json", "--serial-width-bits", "0"], EXIT_USAGE,
         "usage: population spec: serial_width_bits 0 outside 1..256"),
        (["derive", "urn:epc:tag:giai-96:8.0614141.5", "--ons", "::"], EXIT_PARSE,
         "parse: FieldRangeError: filter value 8 outside 0..7"),
        (["resolve", "0x1", "--registry", "longnum.json"], EXIT_RESOLVE,
         "resolve: RegistryError: registry longnum.json is not valid JSON: "
         "integer of 5000 characters exceeds 4300"),
        (["bench", "--registry", "r.json", "--serials-per-class", "0"], EXIT_USAGE,
         "usage: population spec: serials_per_class must be at least 1, got 0"),
        (["bench", "--registry", "r.json", "--scheme", "giai-96", "--serials-per-class", "5"],
         EXIT_USAGE, "usage: population spec: serials_per_class applies to sgtin-96 only, "
         "not giai-96"),
        # open() raises ValueError, not OSError, for a path holding a NUL byte
        (["bench", "--registry", "r.json", "--scheme", "raw", "--count", "10",
          "--out", "a\0b"], EXIT_USAGE, "output: ValueError: embedded null byte"),
    ]

    @pytest.mark.parametrize("argv, code, err", COMMAND_FAILURES)
    def test_command_failure(self, capsys, argv, code, err):
        assert main(argv) == code
        captured = capsys.readouterr()
        assert captured.err == err + "\n"
        assert captured.out == ""

    def test_package_errors_name_their_type(self):
        # exits 3..5 come from package errors, printed through the stage table
        for argv, code, err in self.COMMAND_FAILURES:
            if code in (EXIT_PARSE, EXIT_RESOLVE, EXIT_DERIVE):
                assert re.match(r"(parse|resolve|derive): \w+Error: ", err), argv

    @pytest.mark.parametrize(
        "config, err",
        [
            ({"registry_path": 5},
             "config: registry_path must be a non-empty string, got 5"),
            ({"registry_path": "r.json", "bogus_key": 1},
             "config: unknown keys in config.json: ['bogus_key']"),
            ({"default_method": "bogus"}, "config: unknown default_method 'bogus'"),
            ({"output_format": "xml"},
             "config: output_format must be 'text' or 'structured'"),
            ([], "config: config.json must hold a JSON object"),
            (None,
             f"config: cannot load nope-config.json: {NO_FILE}: 'nope-config.json'"),
        ],
    )
    def test_config_failure(self, capsys, monkeypatch, tmp_path, config, err):
        if config is None:
            monkeypatch.setenv(CONFIG_ENV_VAR, "nope-config.json")
        else:
            (tmp_path / "config.json").write_text(json.dumps(config))
            monkeypatch.setenv(CONFIG_ENV_VAR, "config.json")
        assert main(["derive", "0x1", "--ons", "::"]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.err == err + "\n"
        assert captured.out == ""


# each error class of the package -> the stage main() prints and its exit code;
# an EvaluationError carries its own stage, pinned by TestFailureMatrix's bench rows
ERROR_STAGES = {
    "EpcIpv6Error": ("parse", EXIT_PARSE),
    "TagUriError": ("parse", EXIT_PARSE),
    "UnknownSchemeError": ("parse", EXIT_PARSE),
    "FieldRangeError": ("parse", EXIT_PARSE),
    "WrongHeaderError": ("parse", EXIT_PARSE),
    "InvalidPartitionError": ("parse", EXIT_PARSE),
    "Ipv6TextError": ("parse", EXIT_PARSE),
    "UnsatisfiableSpecError": ("parse", EXIT_PARSE),
    "RegistryError": ("resolve", EXIT_RESOLVE),
    "DuplicatePatternError": ("resolve", EXIT_RESOLVE),
    "NoMatchError": ("resolve", EXIT_RESOLVE),
    "DerivationError": ("derive", EXIT_DERIVE),
    "MissingSerialError": ("derive", EXIT_DERIVE),
    "MissingValueError": ("derive", EXIT_DERIVE),
    "EpcTooWideError": ("derive", EXIT_DERIVE),
    "SerialTooWideError": ("derive", EXIT_DERIVE),
    "InvalidOptionError": ("derive", EXIT_DERIVE),
}


class TestErrorStages:
    """The stderr line and exit code of each package error that reaches main()."""

    @pytest.mark.parametrize("name", ERROR_STAGES)
    def test_stage_and_exit_code(self, capsys, monkeypatch, name):
        def fail(uri):
            raise getattr(errors, name)("boom")

        monkeypatch.setattr(cli, "parse_epc", fail)
        stage, code = ERROR_STAGES[name]
        assert main(["parse", SGTIN_URI]) == code
        captured = capsys.readouterr()
        assert captured.err == f"{stage}: {name}: boom\n"
        assert captured.out == ""

    def test_table_covers_every_error_class(self):
        # an error class added to the package must join the table
        classes = {
            name for name, obj in vars(errors).items()
            if isinstance(obj, type) and issubclass(obj, errors.EpcIpv6Error)
        }
        assert set(ERROR_STAGES) | {"EvaluationError"} == classes


# SGTIN_URI as a tag reports its EPC bank: 24 hex digits, header 0x30
SGTIN_HEX = "0x3074257bf7194e4000001a85"


class TestEpcBank:
    """A tag's 96-bit EPC bank with the SGTIN-96 header reads as its tag URI, so
    every command prints for it, byte for byte, what it prints for the URI."""

    @pytest.fixture(autouse=True)
    def in_tmp_path(self, monkeypatch, tmp_path):
        monkeypatch.chdir(tmp_path)
        company = [{"pattern": "sgtin-96:0614141", "ons_ip": ONS_TEXT}]
        (tmp_path / "company.json").write_text(json.dumps(company), encoding="utf-8")

    @staticmethod
    def outcome(capsys, argv):
        code = main(argv)
        return code, *capsys.readouterr()

    # each command, "{}" standing for the EPC
    ARGVS = {
        "parse": ["parse", "{}"],
        "parse-structured": ["parse", "{}", "--format", "structured"],
        "resolve": ["resolve", "{}", "--registry", "company.json"],
        "resolve-structured": ["resolve", "{}", "--registry", "company.json",
                               "--format", "structured"],
        **{f"derive-{method.value}": ["derive", "{}", "--ons", ONS_TEXT, "--method",
                                      method.value]
           for method in epc_ipv6.AddressingMethodId},
        "derive-registry": ["derive", "{}", "--registry", "company.json"],
    }

    @pytest.mark.parametrize("argv", ARGVS.values(), ids=ARGVS)
    @pytest.mark.parametrize("text", [SGTIN_HEX, SGTIN_HEX.upper()], ids=["lower", "upper"])
    def test_same_output_as_the_tag_uri(self, capsys, argv, text):
        expected = self.outcome(capsys, [arg.format(SGTIN_URI) for arg in argv])
        assert self.outcome(capsys, [arg.format(text) for arg in argv]) == expected

    def test_derives_the_tag_uris_address(self, capsys):
        # a raw read of these digits gave 3ffe:ffff:7074:257b:f719:4e40:0:1a85
        assert self.outcome(capsys, ["derive", SGTIN_HEX, "--ons", ONS_TEXT]) == (
            EXIT_OK, SERIAL_ADDRESS + "\n", ""
        )

    def test_resolves_under_its_company_record(self, capsys):
        assert self.outcome(capsys, ["resolve", SGTIN_HEX, "--registry", "company.json"]) == (
            EXIT_OK, ONS_TEXT + "\n", ""
        )

    def test_derive_lines(self, capsys, monkeypatch):
        stdin_bytes(monkeypatch, f"{SGTIN_URI}\n{SGTIN_HEX}\n".encode())
        assert self.outcome(capsys, ["derive", "-", "--registry", "company.json"]) == (
            EXIT_OK, SERIAL_ADDRESS + "\n" + SERIAL_ADDRESS + "\n", ""
        )

    @pytest.mark.parametrize("command", ["parse", "resolve", "derive"])
    def test_undecodable_bank_is_a_parse_error(self, capsys, command):
        argv = [command, "0x307C257bf7194e4000001a85"]
        argv += {"parse": [], "resolve": ["--registry", "company.json"],
                 "derive": ["--ons", ONS_TEXT]}[command]
        assert self.outcome(capsys, argv) == (
            EXIT_PARSE, "", "parse: InvalidPartitionError: partition 7 outside 0..6\n"
        )


def child_env(*unset: str) -> dict:
    """This environment without a config or ``unset``, the package's source first
    on PYTHONPATH: for a fresh ``python -m epc_ipv6.cli``."""
    env = {k: v for k, v in os.environ.items() if k not in (CONFIG_ENV_VAR, *unset)}
    src = str(Path(epc_ipv6.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


class TestEntryPoint:
    """``python -m epc_ipv6.cli`` in a fresh interpreter: its exit code is the
    process's, and a failure is one stderr line, never a traceback."""

    @pytest.mark.parametrize(
        "argv, code, out, err",
        [
            (["derive", "0x2225C689D1FB66", "--ons", ONS_TEXT], EXIT_OK,
             GOLDEN_ADDRESS + "\n", ""),
            (["derive", "0x1"], EXIT_USAGE, "",
             "usage: an ONS source is required: --ons, --registry, or config\n"),
            (["derive", "zzz", "--ons", "::"], EXIT_PARSE, "",
             "parse: TagUriError: 'zzz' is neither a tag URI nor a number\n"),
            (["derive", "0x1", "--registry", "nope.json"], EXIT_RESOLVE, "",
             f"resolve: RegistryError: cannot read registry nope.json: {NO_FILE}: "
             "'nope.json'\n"),
            (["derive", SGTIN_URI, "--ons", ONS_TEXT, "--method", "direct64"],
             EXIT_DERIVE, "",
             "derive: EpcTooWideError: 96-bit EPC does not fit a 64-bit interface id\n"),
        ],
        ids=["ok", "usage", "parse", "resolve", "derive"],
    )
    def test_module_run(self, tmp_path, argv, code, out, err):
        completed = subprocess.run(
            [sys.executable, "-m", "epc_ipv6.cli", *argv],
            cwd=tmp_path, env=child_env(), capture_output=True, text=True, timeout=60,
        )
        assert (completed.returncode, completed.stdout, completed.stderr) == (code, out, err)

    @pytest.mark.parametrize("argv", [["derive", SGTIN_HEX, "--ons", ONS_TEXT],
                                      ["derive", "0x1"], ["parse", "zzz"]],
                             ids=["ok", "usage", "parse"])
    def test_console_script_runs_main(self, capsys, tmp_path, argv):
        # pyproject.toml names the target of the installed epc-ipv6 command;
        # Python 3.10 has no tomllib, so the table is read by pattern
        pyproject = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text(
            encoding="utf-8")
        scripts = pyproject.split("\n[project.scripts]\n")[1].split("\n[")[0]
        module, name = re.fullmatch(r'epc-ipv6 = "([\w.]+):(\w+)"', scripts.strip()).groups()
        assert getattr(importlib.import_module(module), name) is cli.run
        completed = subprocess.run(
            [sys.executable, "-c", f"import {module}; {module}.{name}()", *argv],
            cwd=tmp_path, env=child_env(), capture_output=True, text=True, timeout=60,
        )
        code = main(argv)
        assert (completed.returncode, completed.stdout, completed.stderr) == (
            code, *capsys.readouterr()
        )


class TestClosedStdout:
    """A stdout whose reader has gone, as in ``epc-ipv6 parse ... | true``, is
    an output error: exit 2 and one stderr line, never a traceback."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["derive", "0x2225C689D1FB66", "--ons", ONS_TEXT],
            ["parse", SGTIN_URI],
            ["resolve", SGTIN_URI, "--registry", "registry.json"],
            ["bench", "--registry", "registry.json", "--count", "10"],
        ],
        ids=["derive", "parse", "resolve", "bench"],
    )
    def test_module_run(self, tmp_path, wildcard_registry_path, argv):
        # the fixture writes registry.json into tmp_path, the child's working directory
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            # stdout block-buffered, as a user's pipe is: the error comes at a flush
            completed = subprocess.run(
                [sys.executable, "-m", "epc_ipv6.cli", *argv],
                cwd=tmp_path, env=child_env("PYTHONUNBUFFERED"), stdout=write_end,
                stderr=subprocess.PIPE, text=True, timeout=60,
            )
        finally:
            os.close(write_end)
        assert completed.returncode == EXIT_USAGE
        assert completed.stderr.splitlines()[-1] == (
            "output: BrokenPipeError: [Errno 32] Broken pipe"
        )
        assert "Traceback" not in completed.stderr
        assert "Exception ignored" not in completed.stderr


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs a /dev/full device")
class TestFullStdout:
    """A stdout on a full device, as in ``epc-ipv6 parse ... > /dev/full``, is
    an output error: exit 2 and one stderr line, never a traceback."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["derive", "0x2225C689D1FB66", "--ons", ONS_TEXT],
            ["parse", SGTIN_URI],
            ["resolve", SGTIN_URI, "--registry", "registry.json"],
            ["bench", "--registry", "registry.json", "--count", "10"],
        ],
        ids=["derive", "parse", "resolve", "bench"],
    )
    def test_module_run(self, tmp_path, wildcard_registry_path, argv):
        # the fixture writes registry.json into tmp_path, the child's working directory
        with open("/dev/full", "w") as full:
            completed = subprocess.run(
                [sys.executable, "-m", "epc_ipv6.cli", *argv],
                cwd=tmp_path, env=child_env("PYTHONUNBUFFERED"), stdout=full,
                stderr=subprocess.PIPE, text=True, timeout=60,
            )
        assert completed.returncode == EXIT_USAGE
        assert completed.stderr.splitlines()[-1] == (
            "output: OSError: [Errno 28] No space left on device"
        )
        assert "Traceback" not in completed.stderr
        assert "Exception ignored" not in completed.stderr


class TestUnwritableStderr:
    """A stderr that cannot be written, here a read-only one, drops its lines:
    stdout and the exit code are those of a writable stderr."""

    @pytest.mark.parametrize(
        "argv, stdin, code, out",
        [
            (["derive", "zzz", "--ons", "::"], b"", EXIT_PARSE, ""),
            (["derive", "-", "--ons", "::"], b"zzz\n0x1\n", EXIT_PARSE, "::1\n"),
            (["bench", "--registry", "registry.json", "--count", "10"], b"", EXIT_OK, None),
            (["parse", "urn:x"], b"", EXIT_PARSE, ""),
            (["resolve", "0x1", "--registry", "/nonexistent"], b"", EXIT_RESOLVE, ""),
        ],
        ids=["derive", "derive-lines", "bench", "parse", "resolve"],
    )
    def test_module_run(self, tmp_path, wildcard_registry_path, argv, stdin, code, out):
        # the fixture writes registry.json into tmp_path, the child's working directory
        with open(os.devnull, "rb") as read_only:
            completed = subprocess.run(
                [sys.executable, "-m", "epc_ipv6.cli", *argv],
                cwd=tmp_path, env=child_env(), input=stdin, stdout=subprocess.PIPE,
                stderr=read_only, timeout=60,
            )
        assert completed.returncode == code
        stdout = completed.stdout.decode()
        if out is not None:
            assert stdout == out
        else:  # bench: its header and one row per method, direct64's as n/a
            lines = stdout.splitlines()
            assert lines[0] == "method,population,distinct,collisions,mean_time,p99_time"
            assert [line.split(",")[0] for line in lines[1:]] == cli._METHOD_NAMES
            assert lines[2] == "direct64,10,n/a,n/a,n/a,n/a"

    def test_closed_stderr_through_main(self, capsys, monkeypatch):
        # sys.stderr is None where the interpreter starts without a usable fd 2
        monkeypatch.setattr(sys, "stderr", None)
        assert main(["derive", "zzz", "--ons", "::"]) == EXIT_PARSE
        assert capsys.readouterr().out == ""


UNDECODABLE = {
    "not-utf8": b"\xff\xfe[]",
    "nested-past-recursion-limit": b"[" * 100_000 + b"]" * 100_000,
    # an integer of more than 4300 characters is refused before int() reads it
    "number-past-int-digit-limit": b"[" + b"1" * 5000 + b"]",
}


class TestUndecodableFiles:
    """A registry or config file Python cannot decode is a stage error."""

    @pytest.mark.parametrize("content", UNDECODABLE.values(), ids=UNDECODABLE)
    @pytest.mark.parametrize("command", ["derive", "resolve", "bench"])
    def test_registry_is_resolve_error(self, capsys, tmp_path, command, content):
        registry = tmp_path / "registry.json"
        registry.write_bytes(content)
        argv = [command, "--registry", str(registry)]
        if command != "bench":
            argv.insert(1, "0x1")
        assert main(argv) == EXIT_RESOLVE
        err = capsys.readouterr().err
        assert err.startswith("resolve: RegistryError: ")
        assert str(registry) in err

    @pytest.mark.parametrize("content", UNDECODABLE.values(), ids=UNDECODABLE)
    def test_config_is_usage_error(self, capsys, monkeypatch, tmp_path, content):
        config = tmp_path / "config.json"
        config.write_bytes(content)
        monkeypatch.setenv(CONFIG_ENV_VAR, str(config))
        assert main(["derive", "0x1", "--ons", "::"]) == EXIT_USAGE
        assert capsys.readouterr().err.startswith(f"config: cannot load {config}: ")

    # without the limit json.loads would read the number, slowly, as [<int>]
    @pytest.mark.parametrize("command", ["derive", "resolve", "bench"])
    def test_long_number_in_registry_without_int_limit(
        self, capsys, tmp_path, int_limit_off, command
    ):
        content = UNDECODABLE["number-past-int-digit-limit"]
        self.test_registry_is_resolve_error(capsys, tmp_path, command, content)

    def test_long_number_in_config_without_int_limit(
        self, capsys, monkeypatch, tmp_path, int_limit_off
    ):
        content = UNDECODABLE["number-past-int-digit-limit"]
        self.test_config_is_usage_error(capsys, monkeypatch, tmp_path, content)


LONG = "9" * 5000  # past int()'s default limit of 4300 decimal digits


class TestOverlongNumbers:
    """A number past int()'s digit limit is a range error, not a traceback."""

    @pytest.mark.parametrize(
        "argv, err",
        [
            (["derive", f"urn:epc:tag:sgtin-96:3.0614141.812345.{LONG}", "--ons", "::"],
             f"serial {LONG} overflows 38 bits"),
            (["parse", f"urn:epc:tag:giai-96:3.0614141.{LONG}"],
             f"serial {LONG} overflows 58 bits"),
            (["resolve", f"urn:epc:tag:sgln-96:3.0614141.12345.{'1' * 5000}",
              "--registry", "r.json"],
             f"serial {'1' * 5000} overflows 41 bits"),
            (["derive", LONG, "--ons", "::"], f"EPC value '{LONG}' outside 0..2^256"),
            (["derive", "0x" + "f" * 5000, "--ons", "::"],
             f"EPC value '0x{'f' * 5000}' outside 0..2^256"),
        ],
        ids=["derive-sgtin-serial", "parse-giai-serial", "resolve-sgln-serial",
             "derive-decimal", "derive-hex"],
    )
    def test_parse_error(self, capsys, wildcard_registry_path, argv, err):
        argv = [str(wildcard_registry_path) if arg == "r.json" else arg for arg in argv]
        assert main(argv) == EXIT_PARSE
        captured = capsys.readouterr()
        assert captured.err == f"parse: FieldRangeError: {err}\n"
        assert captured.out == ""

    @pytest.mark.parametrize(
        "text, address",
        [("0" * 5000 + "31", "::1f"), ("0x" + "0" * 5000 + "1f", "::1f"),
         ("0" * 5000 + str(2**64 - 1), "::ffff:ffff:ffff:ffff")],
        ids=["decimal", "hex", "decimal-2^64-1"],
    )
    def test_leading_zeros_are_not_counted(self, capsys, text, address):
        assert main(["derive", text, "--ons", "::"]) == EXIT_OK
        assert capsys.readouterr().out == address + "\n"

    def test_2_to_256_is_the_bound(self, capsys, wildcard_registry_path):
        # both have 78 digits, the most that int() is given
        registry = str(wildcard_registry_path)
        assert main(["resolve", str(2**256 - 1), "--registry", registry]) == EXIT_OK
        assert main(["resolve", str(2**256), "--registry", registry]) == EXIT_PARSE
        assert capsys.readouterr().err == (
            f"parse: FieldRangeError: EPC value '{2**256}' outside 0..2^256\n"
        )

    @pytest.mark.parametrize("text", [LONG, "0" * 5000 + "1" + "0" * 64],
                             ids=["5000-nines", "leading-zeros-10^64"])
    def test_salt(self, capsys, text):
        with pytest.raises(SystemExit) as excinfo:
            main(["derive", "0x1", "--ons", "::", "--method", "xor_pad", "--salt", text])
        assert excinfo.value.code == EXIT_USAGE
        assert f"salt {text!r} does not fit 64 bits" in capsys.readouterr().err


class TestNumericEpcGrammar:
    """A numeric EPC is 0x/0X and ASCII hex digits, or ASCII decimal digits."""

    @pytest.mark.parametrize(
        "text, address",
        [("0x1f", "::1f"), ("0X1F", "::1f"), ("31", "::1f"), ("0031", "::1f"),
         ("0", "::")],
    )
    def test_accepted(self, capsys, text, address):
        assert main(["derive", text, "--ons", "::"]) == EXIT_OK
        assert capsys.readouterr().out == address + "\n"

    @pytest.mark.parametrize(
        "text",
        ["1_0", " +10 ", "+10", "10 ", "0x_ff", "0xf_f", "٣", "0x٣",
         "１", "0x", "0x0x1f", "0b101", "", "1e3", "10\n"],
    )
    def test_rejected(self, capsys, text):
        assert main(["derive", text, "--ons", "::"]) == EXIT_PARSE
        assert capsys.readouterr().err == (
            f"parse: TagUriError: {text!r} is neither a tag URI nor a number\n"
        )

    def test_resolve_uses_the_same_grammar(self, capsys, wildcard_registry_path):
        argv = ["resolve", "1_0", "--registry", str(wildcard_registry_path)]
        assert main(argv) == EXIT_PARSE
        assert capsys.readouterr().err.startswith("parse: TagUriError: '1_0' is neither")


class TestSaltGrammar:
    """A salt is 0x/0X and ASCII hex digits, or ASCII decimal digits, as a numeric EPC."""

    @pytest.mark.parametrize(
        "text, salt",
        [("0x1f", 31), ("0X1F", 31), ("31", 31), ("010", 10), ("0", 0),
         ("0x" + "f" * 16, 2**64 - 1)],
    )
    @pytest.mark.parametrize("command", ["derive", "bench"])
    def test_accepted(self, command, text, salt):
        argv = [command, "--salt", text] + (["0x1"] if command == "derive" else [])
        assert build_parser().parse_args(argv).salt == salt

    @pytest.mark.parametrize(
        "text",
        ["1_0", " 5 ", "+5", "-1", "٣", "0x٣", "0b101", "0o17", "0x", "", "5\n", "1e3"],
    )
    def test_rejected(self, capsys, text):
        with pytest.raises(SystemExit) as excinfo:
            main(["derive", "0x1", "--ons", "::", "--method", "xor_pad", "--salt", text])
        assert excinfo.value.code == EXIT_USAGE
        assert f"salt {text!r} is not a number" in capsys.readouterr().err

    def test_wider_than_64_bits_rejected(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["bench", "--salt", "0x1" + "0" * 16])
        assert excinfo.value.code == EXIT_USAGE
        assert "does not fit 64 bits" in capsys.readouterr().err


SERIAL_ADDRESS = "3ffe:ffff:4004:1952:0:7251:bc9b:ba85"  # SGTIN_URI's serial 6789 under ONS_TEXT
TOO_WIDE = "0x1" + "0" * 33  # a 133-bit raw EPC, its own serial: too wide for hybrid_ons
# one line per outcome: each stage's failure, a blank line, a CRLF line, bytes
# that are not UTF-8, and a last line without its newline
MIXED_LINES = (
    f"{SGTIN_URI}\n0x2225C689D1FB66\n\n{GIAI_URI}\n{TOO_WIDE}\n9611683854154598\r\n".encode()
    + b"\xff0x1\nurn:epc:tag:xyz-96:1.2.3\n9611683854154598"
)
MIXED_OUT = f"{SERIAL_ADDRESS}\n{GOLDEN_ADDRESS}\n{GOLDEN_ADDRESS}\n"
MIXED_ERR = (
    "line 3: parse: TagUriError: '' is neither a tag URI nor a number\n"
    "line 4: resolve: NoMatchError: no registry record matches giai-96 EPC\n"
    "line 5: derive: SerialTooWideError: 133-bit payload exceeds the 128-bit address\n"
    "line 6: parse: TagUriError: '9611683854154598\\r' is neither a tag URI nor a number\n"
    "line 7: parse: TagUriError: b'\\xff0x1' is not UTF-8 text\n"
    "line 8: parse: UnknownSchemeError: unknown tag scheme 'xyz-96'\n"
)
# a registry with no record for giai-96
LINES_REGISTRY = [{"pattern": "sgtin-96", "ons_ip": ONS_TEXT}, {"pattern": "raw", "ons_ip": ONS_TEXT}]


def stdin_bytes(monkeypatch, data: bytes) -> io.BytesIO:
    """Make ``data`` the process's stdin for ``main``; return its byte stream."""
    stream = io.BytesIO(data)
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(stream))
    return stream


class DirectoryReader(io.RawIOBase):
    """Reads a directory's file descriptor, as a shell's ``< dir`` would hand it
    over; CPython itself refuses a directory as stdin before any code runs."""

    def __init__(self, fd: int):
        self.fd = fd

    def readable(self):
        return True

    def readinto(self, buffer):
        data = os.read(self.fd, len(buffer))
        buffer[:len(data)] = data
        return len(data)


class TestDeriveLines:
    """``derive -``: one EPC per stdin line, one address per stdout line, in
    order; a bad line is one stderr line and the run goes on."""

    @pytest.fixture(autouse=True)
    def in_tmp_path(self, monkeypatch, tmp_path):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "registry.json").write_text(json.dumps(LINES_REGISTRY), encoding="utf-8")

    def test_mixed_lines(self, capsys, monkeypatch):
        stdin_bytes(monkeypatch, MIXED_LINES)
        assert main(["derive", "-", "--registry", "registry.json"]) == EXIT_DERIVE
        assert capsys.readouterr() == (MIXED_OUT, MIXED_ERR)

    def test_mixed_lines_module_run(self, tmp_path):
        (tmp_path / "epcs.txt").write_bytes(MIXED_LINES)
        with open(tmp_path / "epcs.txt", "rb") as stdin:
            completed = subprocess.run(
                [sys.executable, "-m", "epc_ipv6.cli", "derive", "-", "--registry",
                 "registry.json"],
                cwd=tmp_path, env=child_env(), stdin=stdin, capture_output=True, timeout=60,
            )
        assert (completed.returncode, completed.stdout, completed.stderr) == (
            EXIT_DERIVE, MIXED_OUT.encode(), MIXED_ERR.encode()
        )

    @pytest.mark.parametrize(
        "lines, code",
        [
            ([], EXIT_OK),
            (["0x1", SGTIN_URI], EXIT_OK),
            (["zzz", "0x1"], EXIT_PARSE),
            ([GIAI_URI, "zzz"], EXIT_RESOLVE),
            (["zzz", TOO_WIDE, GIAI_URI], EXIT_DERIVE),
        ],
        ids=["empty", "ok", "parse", "resolve-over-parse", "derive-over-all"],
    )
    def test_exit_code_is_the_highest_stage_seen(self, capsys, monkeypatch, lines, code):
        stdin_bytes(monkeypatch, "".join(line + "\n" for line in lines).encode())
        assert main(["derive", "-", "--registry", "registry.json"]) == code
        captured = capsys.readouterr()
        assert len(captured.out.splitlines()) + len(captured.err.splitlines()) == len(lines)

    @pytest.mark.parametrize("method", [m.value for m in epc_ipv6.AddressingMethodId])
    def test_each_line_as_one_shot_derive(self, capsys, monkeypatch, method):
        epcs = ["0x2225C689D1FB66", "9611683854154598", SGTIN_URI, GIAI_URI,
                "urn:epc:tag:sgln-96:3.0614141.12345.400", "0x1", "0", TOO_WIDE]
        options = ["--ons", ONS_TEXT, "--method", method, "--salt", "0x5"]
        expected_out, expected_err, expected_code = "", "", EXIT_OK
        for number, text in enumerate(epcs, 1):
            code = main(["derive", text, *options])
            captured = capsys.readouterr()
            expected_out += captured.out
            expected_err += f"line {number}: {captured.err}" if captured.err else ""
            expected_code = max(expected_code, code)
        stdin_bytes(monkeypatch, "\n".join(epcs).encode() + b"\n")
        assert main(["derive", "-", *options]) == expected_code
        assert capsys.readouterr() == (expected_out, expected_err)

    @pytest.mark.parametrize(
        "argv, code, err",
        [
            (["--ons", "::", "--registry", "registry.json"], EXIT_USAGE,
             "usage: give exactly one of --ons and --registry"),
            ([], EXIT_USAGE, "usage: an ONS source is required: --ons, --registry, or config"),
            (["--ons", "not-an-address"], EXIT_PARSE,
             "parse: Ipv6TextError: At least 3 parts expected in 'not-an-address'"),
            (["--registry", "nope.json"], EXIT_RESOLVE,
             f"resolve: RegistryError: cannot read registry nope.json: {NO_FILE}: "
             "'nope.json'"),
        ],
        ids=["both-sources", "no-source", "bad-ons", "registry-load"],
    )
    def test_fails_once_before_reading_a_line(self, capsys, monkeypatch, argv, code, err):
        stdin = stdin_bytes(monkeypatch, b"0x1\nzzz\n")
        assert main(["derive", "-", *argv]) == code
        assert capsys.readouterr() == ("", err + "\n")
        assert stdin.tell() == 0

    def test_bad_salt_fails_before_reading_a_line(self, capsys, monkeypatch):
        stdin = stdin_bytes(monkeypatch, b"0x1\n")
        with pytest.raises(SystemExit) as excinfo:
            main(["derive", "-", "--ons", "::", "--method", "xor_pad", "--salt", "zz"])
        assert excinfo.value.code == EXIT_USAGE
        assert "salt 'zz' is not a number" in capsys.readouterr().err
        assert stdin.tell() == 0

    def test_memory_stays_flat(self, monkeypatch):
        # the input and the output are each about 4 MB, and holding either whole
        # peaks past 8 MB; set-up (argparse, the registry) peaks at about 0.25 MB
        # whether one line is read or 10^5
        stdin_bytes(monkeypatch, f"0x2225C689D1FB66\n{SGTIN_URI}\n".encode() * 50_000)
        with open(os.devnull, "w", encoding="utf-8") as devnull:
            monkeypatch.setattr(sys, "stdout", devnull)
            tracemalloc.start()
            try:
                code = main(["derive", "-", "--registry", "registry.json"])
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert code == EXIT_OK
        assert peak < 1024 * 1024

    def test_stdout_closed_after_the_first_line(self, tmp_path):
        # as ``epc-ipv6 derive - < epcs.txt | head -1``; the output outgrows a pipe
        (tmp_path / "epcs.txt").write_bytes(b"0x2225C689D1FB66\n" * 100_000)
        with open(tmp_path / "epcs.txt", "rb") as stdin, subprocess.Popen(
            [sys.executable, "-m", "epc_ipv6.cli", "derive", "-", "--ons", ONS_TEXT],
            cwd=tmp_path, env=child_env("PYTHONUNBUFFERED"), stdin=stdin,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        ) as child:
            first = child.stdout.readline()
            child.stdout.close()
            err = child.stderr.read().decode()
            code = child.wait(timeout=60)
        assert first == f"{GOLDEN_ADDRESS}\n".encode()
        assert code == EXIT_USAGE
        assert err == "output: BrokenPipeError: [Errno 32] Broken pipe\n"

    def test_stdin_a_directory(self, capsys, monkeypatch, tmp_path):
        fd = os.open(tmp_path, os.O_RDONLY)
        try:
            with io.TextIOWrapper(io.BufferedReader(DirectoryReader(fd))) as stdin:
                monkeypatch.setattr(sys, "stdin", stdin)
                assert main(["derive", "-", "--ons", "::"]) == EXIT_USAGE
        finally:
            os.close(fd)
        assert capsys.readouterr() == ("", "input: IsADirectoryError: [Errno 21] Is a directory\n")

    def test_stdin_open_for_writing_module_run(self, tmp_path):
        # as ``epc-ipv6 derive - 0>/dev/null``: reading the descriptor fails
        with open(os.devnull, "wb") as stdin:
            completed = subprocess.run(
                [sys.executable, "-m", "epc_ipv6.cli", "derive", "-", "--ons", "::"],
                cwd=tmp_path, env=child_env(), stdin=stdin, capture_output=True,
                text=True, timeout=60,
            )
        assert (completed.returncode, completed.stdout, completed.stderr) == (
            EXIT_USAGE, "", "input: OSError: [Errno 9] Bad file descriptor\n"
        )

    def test_stdin_closed(self, capsys, monkeypatch):
        # the interpreter sets sys.stdin to None when it starts with descriptor 0 closed
        monkeypatch.setattr(sys, "stdin", None)
        assert main(["derive", "-", "--ons", "::"]) == EXIT_USAGE
        assert capsys.readouterr() == ("", "input: stdin is closed\n")
