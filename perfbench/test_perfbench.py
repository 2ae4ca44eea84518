"""Tests of the benchmark itself: python3 -m pytest perfbench -q"""

import dataclasses
import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import epc_ipv6  # noqa: E402
import inputs  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from inputs import BenchmarkFailure  # noqa: E402
from spans import Tracer  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run_tiny(capsys, workload, trace):
    code = run.main(["--workload", workload, "--seed", "3", "--seconds", "0",
                     "--trace", str(trace), "--scale", "tiny"])
    return code, json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_workload_reports_every_metric_with_its_unit(capsys, workload, trace):
    code, result = _run_tiny(capsys, workload, trace)
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1
    wanted = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in wanted
    }
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def _off_by_one(method):
    derive = epc_ipv6.method_function(method)
    return lambda epc, ons: epc_ipv6.Ipv6Address(derive(epc, ons).value ^ 1)


def test_wrong_address_fails_the_run(capsys, monkeypatch):
    monkeypatch.setattr(workloads, "method_function", _off_by_one)
    code, result = _run_tiny(capsys, "stream_small_registry", 0)
    assert code == 1 and result["correct"] is False


def _small_chunk_results(count=200):
    ons = inputs.small_registry(random.Random(5))
    chunk = inputs.small_chunk(random.Random(6), ons, count)
    results = []
    for item in chunk:
        address = epc_ipv6.Ipv6Address(item.expected)
        results.append((address, str(address)))
    return chunk, results


def test_stream_check_catches_a_wrong_address():
    chunk, results = _small_chunk_results()
    workloads.check_stream(chunk, results)
    wrong = epc_ipv6.Ipv6Address(chunk[7].expected ^ 1 << 7)
    results[7] = (wrong, str(wrong))
    with pytest.raises(BenchmarkFailure):
        workloads.check_stream(chunk, results)


def test_stream_check_catches_non_canonical_text():
    chunk, results = _small_chunk_results()
    address = results[7][0]
    results[7] = (address, str(address).upper())
    with pytest.raises(BenchmarkFailure):
        workloads.check_stream(chunk, results)


def test_stream_check_fails_the_run_on_a_failed_operation():
    chunk, results = _small_chunk_results()
    results[7] = epc_ipv6.errors.TagUriError("rejected")
    with pytest.raises(BenchmarkFailure):
        workloads.check_stream(chunk, results)


def test_stream_inputs_parse():
    ons = inputs.small_registry(random.Random(1))
    for item in inputs.small_chunk(random.Random(2), ons, 3000):
        if item.text.startswith("urn:"):
            epc_ipv6.parse_tag_uri(item.text)


def test_malformed_check_catches_an_accepted_malformed_input(tmp_path, monkeypatch):
    run_ = workloads.Run(seed=3, seconds=0, trace=False, size=workloads.SIZES["tiny"],
                         workdir=tmp_path, span_log=tmp_path / "spans.tsv.gz")
    workloads.check_malformed(run_)
    monkeypatch.setattr(workloads, "parse_tag_uri", lambda text: None)
    with pytest.raises(BenchmarkFailure):
        workloads.check_malformed(run_)


def test_batch_check_catches_a_wrong_distinct_count():
    population = epc_ipv6.generate_population(
        epc_ipv6.PopulationSpec(scheme=epc_ipv6.EpcScheme.SGTIN96, count=200, seed=9))
    ons = 0x3FFE_FFFF_4004_1952_0000_7251_BC9B_A73F
    registry = epc_ipv6.OnsRegistry(
        records=(epc_ipv6.OnsRecord(pattern="*", ons_ip=epc_ipv6.Ipv6Address(ons)),))
    outcomes = {
        method: epc_ipv6.evaluate(
            epc_ipv6.AddressingMethodId(method), population, registry, workloads.OR_PAD_SALT)
        for method in workloads.METHODS
    }
    workloads.check_batch(population, outcomes, ons, 200)
    outcomes["or_pad"] = dataclasses.replace(
        outcomes["or_pad"], distinct_addresses=outcomes["or_pad"].distinct_addresses + 1)
    with pytest.raises(BenchmarkFailure):
        workloads.check_batch(population, outcomes, ons, 200)


def test_direct64_check_catches_an_accepted_96_bit_epc(tmp_path, monkeypatch):
    run_ = workloads.Run(seed=3, seconds=0, trace=False, size=workloads.SIZES["tiny"],
                         workdir=tmp_path, span_log=tmp_path / "spans.tsv.gz")
    registry = epc_ipv6.OnsRegistry(records=(
        epc_ipv6.OnsRecord(pattern="*", ons_ip=epc_ipv6.parse_ipv6(inputs.GOLDEN_ONS)),))
    workloads.check_direct64_rejects(run_, registry)
    monkeypatch.setattr(workloads, "evaluate", lambda *args: None)
    with pytest.raises(BenchmarkFailure):
        workloads.check_direct64_rejects(run_, registry)


def test_timings_are_scaled_by_their_windows_factor():
    stats = workloads.PassStats()
    for scaled_s, latencies in ((2.0, [100, 200]), (1.0, [300, 400])):
        window = stats.new_window()
        window.ok, window.timed_s, window.scaled_s = 10, 1.0, scaled_s
        window.latencies_ns.extend(latencies)
    assert stats.throughput(scaled=False) == 10
    assert stats.throughput() == 7.5
    assert stats.latency_ns(0.5, scaled=False) == 200
    assert stats.latency_ns(0.5) == 300
    assert stats.latency_ns(0.95) == 400


def test_tracer_self_times_and_overlap_check(tmp_path):
    with Tracer(tmp_path / "spans.tsv.gz") as tracer:
        root = tracer.add("op", 0, 100, None, 0)
        tracer.add("a", 10, 20, root, 0)
        tracer.add("b", 20, 45, root, 0)
        tracer.flush()
        assert tracer.mean_self_us("op") * 1e3 == pytest.approx(65)
        root = tracer.add("op", 0, 100, None, 1)
        tracer.add("a", 10, 20, root, 1)
        tracer.add("b", 15, 25, root, 1)
        with pytest.raises(BenchmarkFailure):
            tracer.flush()


def test_exits_nonzero_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, *BENCHMARK["command"][1:], "--workload", "bench_compare",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
