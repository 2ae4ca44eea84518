import hashlib
import json

import pytest

from epc_ipv6.cli import (
    EXIT_DERIVE,
    EXIT_OK,
    EXIT_PARSE,
    EXIT_RESOLVE,
    EXIT_USAGE,
    CONFIG_ENV_VAR,
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
        assert capsys.readouterr().err.startswith("bench: resolve: ")

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
