import copy
import hashlib
import json
import math
import pickle
import random
from itertools import combinations

import pytest
from hypothesis import given, strategies as st

from epc_ipv6 import (
    AddressingMethodId,
    Epc,
    EpcScheme,
    OnsRecord,
    OnsRegistry,
    PopulationSpec,
    derive_hybrid,
    derive_or_pad,
    evaluate,
    generate_population,
    load_registry,
    parse_ipv6,
    parse_tag_uri,
    plan,
)
from epc_ipv6 import bench
from epc_ipv6.bench import CSV_HEADER, NotApplicable, compare
from epc_ipv6.epc import SGTIN96_PARTITIONS, pack_sgtin96
from epc_ipv6.errors import EvaluationError, InvalidOptionError, UnsatisfiableSpecError

from conftest import ONS_TEXT


@pytest.fixture
def wildcard_registry(wildcard_registry_path):
    return load_registry(wildcard_registry_path)


def reference_sgtin_population(spec):
    """The SGTIN-96 population as first generated, on ``sample`` and
    ``randrange``: the reference the inline draws on ``getrandbits`` must
    reproduce."""
    rng = random.Random(spec.seed)
    width = spec.effective_serial_bits
    serials = rng.sample(range(1 << width), spec.count)
    trusted = Epc._trusted
    randrange = rng.randrange
    # per partition: draw bounds of the company prefix and item reference
    bounds = [(10**row[1], 10**row[3]) for row in SGTIN96_PARTITIONS.values()]
    population = []
    for serial in serials:
        # draw order, which the populations depend on: partition, filter,
        # company prefix, item reference
        partition = randrange(7)
        company_bound, item_bound = bounds[partition]
        value = pack_sgtin96(
            randrange(8), partition, randrange(company_bound), randrange(item_bound), serial
        )
        population.append(trusted(EpcScheme.SGTIN96, 96, value, serial, None))
    return population


def reference_classed_population(spec):
    """The per-class SGTIN-96 population on ``randrange`` and ``sample``: per
    class, partition, filter, company prefix and item reference (a class
    drawn before is drawn again), then that class's serials."""
    rng = random.Random(spec.seed)
    randrange = rng.randrange
    bounds = [(10**row[1], 10**row[3]) for row in SGTIN96_PARTITIONS.values()]
    classes = set()
    population = []
    for start in range(0, spec.count, spec.serials_per_class):
        while True:
            partition = randrange(7)
            filter_value = randrange(8)
            company_bound, item_bound = bounds[partition]
            fields = (filter_value, partition, randrange(company_bound), randrange(item_bound))
            if fields not in classes:
                break
        classes.add(fields)
        size = min(spec.serials_per_class, spec.count - start)
        for serial in rng.sample(range(1 << spec.effective_serial_bits), size):
            population.append(Epc._trusted(
                EpcScheme.SGTIN96, 96, pack_sgtin96(*fields, serial), serial, None))
    return population


def dict_loop_serials(rng, width, count):
    """Serials wider than 48 bits as first drawn: ``getrandbits(width)`` into an
    insertion-ordered dict until it holds ``count``."""
    drawn = {}
    while len(drawn) < count:
        drawn[rng.getrandbits(width)] = None
    return list(drawn)


def sample_takes_pool(space, count):
    """Whether ``random.sample`` draws ``count`` of ``range(space)`` from a pool list."""
    setsize = 21
    if count > 5:
        setsize += 4 ** math.ceil(math.log(count * 3, 4))
    return space <= setsize


@st.composite
def width_and_count(draw):
    """A width of 1..48 bits and a count: any up to 400, or one within 3 of the
    least count ``sample`` draws from its pool at that width, when that count
    is at most 20000."""
    width = draw(st.integers(1, 48))
    space = 1 << width
    # the least count drawn from a pool; sample_takes_pool is monotone in the count
    lo, hi = 1, min(space, 20_000) + 1
    while lo < hi:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if sample_takes_pool(space, mid) else (mid + 1, hi)
    near = st.integers(max(1, lo - 3), min(space, lo + 3)) if lo <= 20_000 else st.nothing()
    return width, draw(st.integers(1, min(space, 400)) | near)


class TestDistinctSerials:
    @given(st.integers(0, 2**64 - 1), width_and_count())
    def test_matches_sample(self, seed, width_and_count):
        width, count = width_and_count
        assert bench._distinct_serials(random.Random(seed), width, count) == (
            random.Random(seed).sample(range(1 << width), count)
        )

    @given(st.integers(0, 2**64 - 1), st.integers(49, 256), st.integers(1, 300))
    def test_matches_dict_loop_above_48_bits(self, seed, width, count):
        assert bench._distinct_serials(random.Random(seed), width, count) == (
            dict_loop_serials(random.Random(seed), width, count)
        )

    @pytest.mark.parametrize("width, count, pool", [
        (4, 1, True), (5, 5, False), (5, 6, True), (10, 85, False), (10, 86, True),
        (20, 100_000, True), (38, 100_000, False),
    ])
    def test_both_sides_of_the_pool_switch(self, width, count, pool):
        # pins where sample switches, which the property samples around
        assert sample_takes_pool(1 << width, count) is pool
        assert bench._distinct_serials(random.Random(3), width, count) == (
            random.Random(3).sample(range(1 << width), count)
        )

    def test_rng_left_where_sample_leaves_it(self):
        # the draws that follow continue the same stream
        rng, reference = random.Random(8), random.Random(8)
        bench._distinct_serials(rng, 38, 1000)
        reference.sample(range(1 << 38), 1000)
        assert rng.getrandbits(64) == reference.getrandbits(64)


class TestSerialsPerClass:
    @staticmethod
    def _spec(count=1000, per_class=100, width=None, seed=42):
        return PopulationSpec(scheme=EpcScheme.SGTIN96, count=count, seed=seed,
                              serial_width_bits=width, serials_per_class=per_class)

    def test_population_pinned(self):
        # ten classes of 100 serials below 128; the draw order is class, then serials
        spec = self._spec(width=7)
        packed = b"".join(e.value.to_bytes(12, "big") for e in generate_population(spec))
        assert hashlib.sha256(packed).hexdigest() == (
            "36928b558788fae1c37ea4cbf5647b6b2beda8c9229c2aafd2951b3c261bd81b"
        )

    @given(
        st.integers(min_value=0, max_value=2**64 - 1),
        st.one_of(st.none(), st.integers(min_value=1, max_value=38)),
        st.integers(min_value=1, max_value=50),
        st.data(),
    )
    def test_matches_reference(self, seed, width, per_class, data):
        count = data.draw(st.integers(1, 300))
        spec = self._spec(count, min(per_class, 2**(width or 38)), width, seed)
        assert generate_population(spec) == reference_classed_population(spec)

    def test_distinct_classes_of_k_distinct_serials(self):
        # 1050 = 10 classes of 100 and a last class of the remaining 50
        population = generate_population(self._spec(count=1050, width=7))
        classes: dict[int, list[int]] = {}
        for epc in population:
            classes.setdefault(epc.value >> 38, []).append(epc.serial_number)
        assert [len(serials) for serials in classes.values()] == [100] * 10 + [50]
        assert all(len(set(serials)) == len(serials) for serials in classes.values())
        assert all(serial < 128 for serials in classes.values() for serial in serials)
        # members come class by class
        assert [epc.value >> 38 for epc in population] == [
            key for key, serials in classes.items() for _ in serials
        ]
        # serials repeat across classes, so hybrid_ons collides under one ONS address
        assert len({epc.serial_number for epc in population}) <= 128

    def test_a_repeated_class_is_drawn_again(self, monkeypatch):
        # a seeded population all but never repeats a class: script the draws A, A, B
        a, b = (pack_sgtin96(3, 5, 614141, item, 0) for item in (812345, 812346))
        draws = iter([a, a, b])
        monkeypatch.setattr(bench, "_sgtin96_class", lambda getrandbits, serial: next(draws))
        population = generate_population(self._spec(count=4, per_class=2, width=7))
        assert [epc.value >> 38 for epc in population] == [a >> 38] * 2 + [b >> 38] * 2

    @pytest.mark.parametrize("scheme", [EpcScheme.RAW, EpcScheme.GIAI96, EpcScheme.SGLN96])
    def test_other_schemes_refused(self, scheme):
        with pytest.raises(ValueError, match="serials_per_class applies to sgtin-96 only"):
            PopulationSpec(scheme=scheme, count=10, seed=0, serials_per_class=5)

    @pytest.mark.parametrize("per_class", [0, -3])
    def test_k_below_one_refused(self, per_class):
        with pytest.raises(ValueError, match=f"serials_per_class must be at least 1, "
                                             f"got {per_class}"):
            self._spec(per_class=per_class)

    @pytest.mark.parametrize("per_class", [5.0, True, "5"])
    def test_field_class_checked(self, per_class):
        with pytest.raises(ValueError, match=r"serials_per_class must be int \| None, got "):
            self._spec(per_class=per_class)

    def test_more_serials_than_the_width_holds(self):
        with pytest.raises(UnsatisfiableSpecError, match="cannot draw 200 distinct values "
                                                         "from a 7-bit space"):
            generate_population(self._spec(count=1000, per_class=200, width=7))

    def test_render_names_the_key_only_when_set(self):
        unset = PopulationSpec(scheme=EpcScheme.SGTIN96, count=10, seed=1)
        assert "serials_per_class" not in json.loads(bench.render(unset, [], True))[
            "population"]
        block = json.loads(bench.render(self._spec(count=10, per_class=5), [], True))[
            "population"]
        assert block["serials_per_class"] == 5


class TestGeneratePopulation:
    def test_deterministic(self):
        spec = PopulationSpec(scheme=EpcScheme.SGTIN96, count=1000, seed=42)
        assert generate_population(spec) == generate_population(spec)

    def test_sgtin_population_pinned(self):
        # digest of the population as first generated; a change to the draw
        # order (partition, filter, company prefix, item reference) breaks it
        spec = PopulationSpec(scheme=EpcScheme.SGTIN96, count=1000, seed=42)
        packed = b"".join(e.value.to_bytes(12, "big") for e in generate_population(spec))
        assert hashlib.sha256(packed).hexdigest() == (
            "70c130d82827b4b4ad0d57e513d45da4ab1a5716eddb0ac0e474e6bee70b7fc7"
        )

    @pytest.mark.parametrize("scheme, width, digest", [
        (EpcScheme.RAW, None,
         "cfb2ea77cf6430253df320e6901d0b5040b39630e17597efda92eb79e7ef4887"),
        (EpcScheme.RAW, 12,
         "4bf260cdde7cb795d85c05161d527ee4e1d671ab99a5570e26839574eb23165e"),
        (EpcScheme.GIAI96, None,
         "d4e7152e238f1333c0b9e263af9c234257fa8ccb43e7442220402e6adb18f1b8"),
        (EpcScheme.SGLN96, None,
         "1e83bcbb667fcf0a839c7023fb5270da3f9572664a9759b08190c96a64490049"),
    ])
    def test_population_pinned(self, scheme, width, digest):
        # digests of the raw and serial-only branches as first generated
        spec = PopulationSpec(scheme=scheme, count=1000, seed=42, serial_width_bits=width)
        text = "\n".join(
            f"{e.scheme.value},{e.declared_bits},{e.value},{e.serial_number},{e.uri}"
            for e in generate_population(spec)
        )
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    @given(
        st.integers(min_value=0, max_value=2**64 - 1),
        st.one_of(st.none(), st.integers(min_value=1, max_value=38)),
        st.data(),
    )
    def test_sgtin_population_matches_randrange_reference(self, seed, width, data):
        # every field, and the order of the draws, as randrange(n) drew them
        count = data.draw(st.integers(1, min(300, 2**(width or 38))))
        spec = PopulationSpec(
            scheme=EpcScheme.SGTIN96, count=count, seed=seed, serial_width_bits=width
        )
        assert generate_population(spec) == reference_sgtin_population(spec)

    def test_seed_changes_population(self):
        a = generate_population(PopulationSpec(scheme=EpcScheme.SGTIN96, count=50, seed=1))
        b = generate_population(PopulationSpec(scheme=EpcScheme.SGTIN96, count=50, seed=2))
        assert a != b

    def test_distinct_epcs(self):
        spec = PopulationSpec(scheme=EpcScheme.RAW, count=2000, seed=9, serial_width_bits=12)
        population = generate_population(spec)
        assert len({epc.value for epc in population}) == len(population)

    def test_unsatisfiable_width_one(self):
        spec = PopulationSpec(scheme=EpcScheme.RAW, count=3, seed=0, serial_width_bits=1)
        with pytest.raises(UnsatisfiableSpecError):
            generate_population(spec)

    def test_exact_fill_of_tiny_space(self):
        spec = PopulationSpec(scheme=EpcScheme.RAW, count=2, seed=0, serial_width_bits=1)
        assert {epc.value for epc in generate_population(spec)} == {0, 1}

    def test_single_raw_epc(self):
        population = generate_population(PopulationSpec(scheme=EpcScheme.RAW, count=1, seed=0))
        assert len(population) == 1
        assert population[0].scheme is EpcScheme.RAW

    @given(
        st.sampled_from(list(EpcScheme)),
        st.one_of(st.none(), st.integers(min_value=1, max_value=256)),
        st.integers(min_value=0, max_value=2**64 - 1),
        st.data(),
    )
    def test_population_members_round_trip(self, scheme, width, seed, data):
        # members skip the constructor's checks; the public one must accept them
        spec = PopulationSpec(scheme=scheme, count=1, seed=seed, serial_width_bits=width)
        count = data.draw(st.integers(1, min(200, 2**spec.effective_serial_bits)))
        spec = PopulationSpec(scheme=scheme, count=count, seed=seed, serial_width_bits=width)
        population = generate_population(spec)
        assert len(population) == count
        for epc in population:
            assert type(epc) is Epc and epc.scheme is scheme
            assert Epc(*epc._astuple()) == epc
        member = population[0]
        assert pickle.loads(pickle.dumps(member)) == member
        assert copy.copy(member) == member

    def test_serial_only_scheme_population(self):
        spec = PopulationSpec(scheme=EpcScheme.GIAI96, count=50, seed=3)
        for epc in generate_population(spec):
            assert epc.value is None
            assert epc.serial_number is not None

    @pytest.mark.parametrize(
        "scheme, width, bits, declared_bits",
        [
            (EpcScheme.SGTIN96, 8, 8, 96),
            # a width past the scheme's serial field is capped at the field
            (EpcScheme.SGTIN96, 100, 38, 96),
            (EpcScheme.GIAI96, 100, 62, 96),
            (EpcScheme.SGLN96, 100, 41, 96),
            (EpcScheme.RAW, 100, 64, 64),
        ],
    )
    def test_serial_width_respected(self, scheme, width, bits, declared_bits):
        spec = PopulationSpec(scheme=scheme, count=200, seed=5, serial_width_bits=width)
        population = generate_population(spec)
        assert spec.effective_serial_bits == bits
        # 200 draws fill the top bit of the field but never pass it
        assert max(epc.serial_number for epc in population).bit_length() == bits
        assert {epc.declared_bits for epc in population} == {declared_bits}

    def test_count_must_be_positive(self):
        with pytest.raises(ValueError):
            PopulationSpec(scheme=EpcScheme.RAW, count=0, seed=0)

    @pytest.mark.parametrize(
        "options",
        [
            {"scheme": "raw"},
            {"scheme": "sgtin-96"},
            {"count": 3.0},
            {"count": True},
            {"seed": 1.5},
            {"seed": True},
            {"serial_width_bits": 8.0},
            {"serial_width_bits": True},
        ],
        ids=["scheme-raw-text", "scheme-sgtin-text", "count-float", "count-bool",
             "seed-float", "seed-bool", "width-float", "width-bool"],
    )
    def test_field_classes_checked(self, options):
        # "raw" equals EpcScheme.RAW and True equals 1, but neither would build
        # the population the spec names
        fields = {"scheme": EpcScheme.RAW, "count": 3, "seed": 1, **options}
        with pytest.raises(ValueError, match="must be"):
            PopulationSpec(**fields)


class TestEvaluate:
    def test_golden_vector_pair(self, wildcard_registry):
        epc1 = Epc(
            scheme=EpcScheme.RAW, declared_bits=54,
            value=9611683854154598, serial_number=9611683854154598,
        )
        epc2 = Epc(scheme=EpcScheme.GIAI96, declared_bits=96, serial_number=37375918425780)
        report = evaluate(AddressingMethodId.HYBRID_ONS, [epc1, epc2], wildcard_registry)
        assert report.population_size == 2
        assert report.distinct_addresses == 2
        assert report.collision_groups == ()
        assert report.collision_pair_count == 0

    def test_duplicate_epc_collides(self, wildcard_registry):
        epc = Epc(scheme=EpcScheme.RAW, declared_bits=16, value=4242, serial_number=4242)
        report = evaluate(AddressingMethodId.HYBRID_ONS, [epc, epc], wildcard_registry)
        assert report.distinct_addresses == 1
        address = derive_hybrid(epc, parse_ipv6(ONS_TEXT))
        assert report.collision_groups == ((address, (epc, epc)),)
        assert report.collision_pair_count == 1

    def test_equal_width_serials_never_collide(self, wildcard_registry):
        population = [
            Epc(scheme=EpcScheme.GIAI96, declared_bits=96, serial_number=serial)
            for serial in range(1 << 9, 1 << 10)  # all 512 ten-bit serials
        ]
        report = evaluate(AddressingMethodId.HYBRID_ONS, population, wildcard_registry)
        assert report.collision_groups == ()
        assert report.distinct_addresses == len(population)

    def test_collisions_match_brute_force(self, registry_file):
        # adversarial ONS: all-ones low bits maximize cross-width collisions
        ons_text = "3ffe:ffff:4004:1952:ffff:ffff:ffff:ffff"
        registry = load_registry(registry_file([{"pattern": "*", "ons_ip": ons_text}]))
        ons = parse_ipv6(ons_text)
        population = [
            Epc(scheme=EpcScheme.RAW, declared_bits=8, value=v, serial_number=v)
            for v in range(256)
        ]
        report = evaluate(AddressingMethodId.HYBRID_ONS, population, registry)

        derived = [derive_hybrid(epc, ons).value for epc in population]
        expected = {
            (i, j)
            for (i, a), (j, b) in combinations(enumerate(derived), 2)
            if a == b
        }
        got = {
            (population.index(a), population.index(b))
            for _, epcs in report.collision_groups
            for a, b in combinations(epcs, 2)
        }
        assert got == expected
        assert report.collision_pair_count == len(expected)
        for address, epcs in report.collision_groups:
            assert all(derive_hybrid(epc, ons) == address for epc in epcs)
        assert expected, "adversarial ONS must actually produce collisions"

    @given(st.integers(0, 2**64 - 1), st.integers(1, 30), st.integers(0, 4), st.data())
    def test_collision_report_matches_brute_force_oracle(self, seed, count, free_bits, data):
        # an OR salt of all ones but the low free_bits sends every EPC to one
        # of at most 2**free_bits addresses; members repeat by index
        pool = generate_population(PopulationSpec(scheme=EpcScheme.SGTIN96, count=count,
                                                  seed=seed))
        picks = data.draw(st.lists(st.integers(0, count - 1), min_size=1, max_size=40))
        population = [pool[i] for i in picks]
        salt = (2**64 - 1) ^ (2**free_bits - 1)
        ons = parse_ipv6(ONS_TEXT)
        registry = OnsRegistry([OnsRecord("*", ons)])
        report = evaluate(AddressingMethodId.OR_PAD, population, registry, salt=salt)

        derived = [derive_or_pad(epc, ons, salt).value for epc in population]
        n = len(population)
        firsts = [i for i in range(n) if derived[i] not in derived[:i]]
        expected = [
            (derived[i], [k for k in range(n) if derived[k] == derived[i]]) for i in firsts
        ]
        expected = [(value, members) for value, members in expected if len(members) > 1]
        assert report.distinct_addresses == len(firsts)
        assert [(address.value, [id(epc) for epc in epcs])
                for address, epcs in report.collision_groups] == [
            (value, [id(population[k]) for k in members]) for value, members in expected
        ]
        pairs = sum(derived[i] == derived[j] for i, j in combinations(range(n), 2))
        assert report.collision_pair_count == pairs

    def test_population_and_distinct_account_for_duplicates(self, wildcard_registry):
        epc = Epc(scheme=EpcScheme.RAW, declared_bits=16, value=77, serial_number=77)
        other = Epc(scheme=EpcScheme.RAW, declared_bits=16, value=78, serial_number=78)
        report = evaluate(AddressingMethodId.HYBRID_ONS, [epc, epc, epc, other], wildcard_registry)
        # 4 inputs, 2 distinct addresses, 2 colliding duplicates
        assert report.population_size - report.distinct_addresses == 2

    def test_hybrid_addresses_share_planned_prefix(self, wildcard_registry):
        population = generate_population(
            PopulationSpec(scheme=EpcScheme.SGTIN96, count=300, seed=11)
        )
        report = evaluate(AddressingMethodId.HYBRID_ONS, population, wildcard_registry)
        assert sum(report.shared_prefix_depth.values()) == len(population)
        ons = parse_ipv6(ONS_TEXT)
        for epc in population:
            derived = derive_hybrid(epc, ons)
            shared = 128 - (derived.value ^ ons.value).bit_length()
            assert shared >= plan(epc).prefix_bits
        # and the histogram never reports a depth below the planned minimum
        min_planned_prefix = min(plan(epc).prefix_bits for epc in population)
        assert min(report.shared_prefix_depth) >= min_planned_prefix

    def test_resolve_error_carries_epc(self, registry_file):
        registry = load_registry(registry_file([{"pattern": "sgtin-96", "ons_ip": ONS_TEXT}]))
        epc = Epc(scheme=EpcScheme.RAW, declared_bits=8, value=1, serial_number=1)
        with pytest.raises(EvaluationError) as excinfo:
            evaluate(AddressingMethodId.HYBRID_ONS, [epc], registry)
        assert excinfo.value.stage == "resolve"
        assert excinfo.value.epc == epc

    def test_derive_error_carries_epc(self, wildcard_registry):
        epc = Epc(scheme=EpcScheme.GIAI96, declared_bits=96, serial_number=5678)
        with pytest.raises(EvaluationError) as excinfo:
            evaluate(AddressingMethodId.DIRECT64, [epc], wildcard_registry)
        assert excinfo.value.stage == "derive"
        assert excinfo.value.epc == epc

    def test_evaluation_error_survives_pickle_and_copy(self, wildcard_registry):
        # a process pool sends a worker's exception back pickled; one that
        # cannot be rebuilt breaks the pool instead of re-raising
        epc = Epc(scheme=EpcScheme.GIAI96, declared_bits=96, serial_number=5678)
        with pytest.raises(EvaluationError) as excinfo:
            evaluate(AddressingMethodId.DIRECT64, [epc], wildcard_registry)
        error = excinfo.value
        assert str(error) == (
            "derive: EpcTooWideError: 96-bit EPC does not fit a 64-bit interface id "
            "(epc=giai-96:serial=5678)"
        )
        for restored in (pickle.loads(pickle.dumps(error)), copy.copy(error),
                         copy.deepcopy(error)):
            assert type(restored) is EvaluationError
            assert str(restored) == str(error)
            assert restored.stage == "derive" and restored.epc == epc

    @staticmethod
    def _raw_population_with_giai_at(index):
        population = [
            Epc(scheme=EpcScheme.RAW, declared_bits=64, value=v, serial_number=v)
            for v in range(1 << 40, (1 << 40) + 3000)
        ]
        population[index] = Epc(scheme=EpcScheme.GIAI96, declared_bits=96, serial_number=7)
        return population

    def test_derive_error_inside_a_chunk_carries_the_failing_epc(self, wildcard_registry):
        # 2500 is neither the first nor the last EPC of its chunk
        population = self._raw_population_with_giai_at(2500)
        with pytest.raises(EvaluationError) as excinfo:
            evaluate(AddressingMethodId.DIRECT64, population, wildcard_registry)
        assert excinfo.value.stage == "derive"
        assert excinfo.value.epc is population[2500]

    def test_resolve_error_deep_in_the_population_carries_the_failing_epc(self, registry_file):
        registry = load_registry(registry_file([{"pattern": "raw", "ons_ip": ONS_TEXT}]))
        population = self._raw_population_with_giai_at(2500)
        with pytest.raises(EvaluationError) as excinfo:
            evaluate(AddressingMethodId.DIRECT64, population, registry)
        assert excinfo.value.stage == "resolve"
        assert excinfo.value.epc is population[2500]

    def test_collision_report_is_linear_in_the_population(self, wildcard_registry):
        # an all-ones OR salt sends every EPC to one address: 2000 members
        # make 1,999,000 pairs, which the report counts without listing
        population = generate_population(
            PopulationSpec(scheme=EpcScheme.SGTIN96, count=2000, seed=4)
        )
        report = evaluate(
            AddressingMethodId.OR_PAD, population, wildcard_registry,
            salt=0xFFFF_FFFF_FFFF_FFFF,
        )
        assert report.distinct_addresses == 1
        assert len(report.collision_groups) == 1
        address, epcs = report.collision_groups[0]
        assert epcs == tuple(population)
        assert report.collision_pair_count == 1_999_000
        data = report.to_dict()
        assert data["collision_groups"] == [{
            "address": str(address),
            "members": 2000,
            "examples": [f"sgtin-96:{epc.value:#x}" for epc in population[:4]],
        }]
        assert data["collision_pair_count"] == 1_999_000
        assert report.csv_row().split(",")[3] == "1999000"

    def test_out_of_range_salt_rejected_before_resolving(self, registry_file):
        # the registry cannot resolve a raw EPC, so a resolve error would win;
        # compare binds every method first, even one after a method that applies
        registry = load_registry(registry_file([{"pattern": "sgtin-96", "ons_ip": ONS_TEXT}]))
        epc = Epc(scheme=EpcScheme.RAW, declared_bits=8, value=1, serial_number=1)
        for method, options, message in [
            (AddressingMethodId.XOR_PAD, {"salt": 1 << 64}, "does not fit 64 bits"),
            (AddressingMethodId.ISO_EPC, {"standard": "bogus"}, "'bogus'"),
        ]:
            with pytest.raises(InvalidOptionError, match=message):
                evaluate(method, [epc], registry, **options)
            with pytest.raises(InvalidOptionError, match=message):
                compare([AddressingMethodId.HYBRID_ONS, method], [epc], registry, **options)

    def test_non_int_salt_rejected_before_resolving(self, registry_file):
        # as for an out-of-range salt: the option fails before any EPC resolves
        registry = load_registry(registry_file([{"pattern": "sgtin-96", "ons_ip": ONS_TEXT}]))
        epc = Epc(scheme=EpcScheme.RAW, declared_bits=8, value=1, serial_number=1)
        with pytest.raises(InvalidOptionError, match="salt must be an int, got 1.5"):
            evaluate(AddressingMethodId.XOR_PAD, [epc], registry, 1.5)
        with pytest.raises(InvalidOptionError, match="salt must be an int, got 1.5"):
            compare([AddressingMethodId.HYBRID_ONS, AddressingMethodId.OR_PAD], [epc],
                    registry, 1.5)

    def test_empty_population_rejected(self, wildcard_registry):
        with pytest.raises(ValueError):
            evaluate(AddressingMethodId.HYBRID_ONS, [], wildcard_registry)


class TestCompare:
    def test_resolves_each_epc_once(self, monkeypatch, wildcard_registry):
        calls = []
        lookup = OnsRegistry.lookup

        def counting_lookup(registry, epc):
            calls.append(epc)
            return lookup(registry, epc)

        # on the class: a Frozen registry refuses an attribute of its own
        monkeypatch.setattr(OnsRegistry, "lookup", counting_lookup)
        population = generate_population(
            PopulationSpec(scheme=EpcScheme.SGTIN96, count=2000, seed=5)
        )
        rows = compare(list(AddressingMethodId), population, wildcard_registry)
        assert len(calls) == len(population)
        assert [row.method for row in rows] == list(AddressingMethodId)
        assert [type(row) for row in rows].count(NotApplicable) == 1  # direct64

    def test_failures_counted_over_the_whole_population(self, wildcard_registry):
        # one failure deep in the third chunk, one more in the last chunk
        population = TestEvaluate._raw_population_with_giai_at(2500)
        population[2900] = Epc(scheme=EpcScheme.GIAI96, declared_bits=96, serial_number=8)
        (row,) = compare([AddressingMethodId.DIRECT64], population, wildcard_registry)
        assert row == NotApplicable(
            AddressingMethodId.DIRECT64, 3000, {"EpcTooWideError": 2}, population[2500],
            "EpcTooWideError: 96-bit EPC does not fit a 64-bit interface id",
        )
        assert row.first_epc is population[2500]

    def test_evaluate_raises_the_first_failure_compare_reports(self, wildcard_registry):
        # one failure deep in the third chunk, one more in the last chunk
        population = TestEvaluate._raw_population_with_giai_at(2500)
        population[2900] = Epc(scheme=EpcScheme.GIAI96, declared_bits=96, serial_number=8)
        (row,) = compare([AddressingMethodId.DIRECT64], population, wildcard_registry)
        with pytest.raises(EvaluationError) as excinfo:
            evaluate(AddressingMethodId.DIRECT64, population, wildcard_registry)
        assert excinfo.value.stage == "derive"
        assert excinfo.value.epc is row.first_epc
        assert str(excinfo.value) == (
            f"derive: {row.first_error} (epc={row.first_epc._label()})"
        )

    def test_evaluate_names_the_error_type_and_the_epc_label(self, wildcard_registry):
        epc = Epc(scheme=EpcScheme.GIAI96, declared_bits=96, serial_number=5678)
        with pytest.raises(EvaluationError) as excinfo:
            evaluate(AddressingMethodId.DIRECT64, [epc], wildcard_registry)
        assert str(excinfo.value) == (
            "derive: EpcTooWideError: 96-bit EPC does not fit a 64-bit interface id "
            "(epc=giai-96:serial=5678)"
        )

    def test_evaluate_names_a_parsed_epc_by_its_uri(self, wildcard_registry):
        uri = "urn:epc:tag:giai-96:3.0614141.5678"
        with pytest.raises(EvaluationError) as excinfo:
            evaluate(AddressingMethodId.DIRECT64, [parse_tag_uri(uri)], wildcard_registry)
        assert str(excinfo.value).endswith(f"(epc={uri})")


class TestReports:
    @pytest.fixture
    def report(self, wildcard_registry):
        population = generate_population(
            PopulationSpec(scheme=EpcScheme.SGTIN96, count=100, seed=21)
        )
        return evaluate(AddressingMethodId.HYBRID_ONS, population, wildcard_registry)

    def test_deterministic_except_timing(self, wildcard_registry):
        population = generate_population(
            PopulationSpec(scheme=EpcScheme.SGTIN96, count=100, seed=21)
        )
        d1 = evaluate(AddressingMethodId.HYBRID_ONS, population, wildcard_registry).to_dict()
        d2 = evaluate(AddressingMethodId.HYBRID_ONS, population, wildcard_registry).to_dict()
        d1.pop("timing")
        d2.pop("timing")
        assert json.dumps(d1) == json.dumps(d2)

    def test_json_fields(self, report):
        data = json.loads(json.dumps(report.to_dict()))
        assert set(data) == {
            "method",
            "population_size",
            "distinct_addresses",
            "collision_groups",
            "collision_pair_count",
            "shared_prefix_depth",
            "timing",
        }
        assert set(data["timing"]) == {"total", "mean", "p99"}
        assert data["method"] == "hybrid_ons"

    def test_csv_row_shape(self, report):
        assert CSV_HEADER == "method,population,distinct,collisions,mean_time,p99_time"
        row = report.csv_row().split(",")
        assert row[0] == "hybrid_ons"
        assert int(row[1]) == 100
        assert int(row[2]) == 100
        assert int(row[3]) == 0
        float(row[4])
        float(row[5])

    def test_timing_is_positive(self, report):
        assert report.timing.total > 0
        assert report.timing.mean > 0
        assert report.timing.p99 >= report.timing.mean / 100
