import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from policymap.algebra import (
    ONE,
    ZERO,
    DevicePath,
    DirectedDevice,
    PathSet,
    PhysicalDevice,
)
from policymap.errors import (
    ContextMismatch,
    EmptyPathSet,
    MissingDevicePolicy,
    PolicyParseError,
)
from policymap.policy import (
    ANY_SERVICES,
    EMPTY_SERVICES,
    UNBOUNDED,
    MeasurementValue,
    PolicyContext,
    PolicyRule,
    QosValue,
    SecurityValue,
    ServiceSet,
    compose_parallel,
    compose_serial,
    context_of,
    derive_end_to_end,
    parallel_identity,
    parse_policy,
    parse_services,
    serial_identity,
    value_from_text,
    value_to_text,
)

SSH = ServiceSet.from_ranges([("tcp", 22, 22)])
HTTP = ServiceSet.from_ranges([("tcp", 80, 80)])
HTTPS = ServiceSet.from_ranges([("tcp", 443, 443)])
DNS = ServiceSet.from_ranges([("udp", 53, 53)])


class TestServiceSet:
    def test_overlapping_ranges_merge(self):
        s = ServiceSet.from_ranges([("tcp", 20, 30), ("tcp", 25, 40)])
        assert s.ranges == (("tcp", 20, 40),)

    def test_adjacent_ranges_merge(self):
        s = ServiceSet.from_ranges([("tcp", 20, 21), ("tcp", 22, 25)])
        assert s.ranges == (("tcp", 20, 25),)

    def test_distinct_protocols_kept_apart(self):
        s = ServiceSet.from_ranges([("tcp", 53, 53), ("udp", 53, 53)])
        assert len(s.ranges) == 2

    def test_bounds(self):
        for s in (SSH, HTTP, EMPTY_SERVICES, ANY_SERVICES):
            assert EMPTY_SERVICES.issubset(s)
            assert s.issubset(ANY_SERVICES)

    def test_text_forms(self):
        assert SSH.text() == "tcp/22"
        assert ServiceSet.from_ranges([("tcp", 20, 21)]).text() == "tcp/20-21"
        assert ServiceSet.from_ranges([("udp", 0, 65535)]).text() == "udp/any"
        assert ANY_SERVICES.text() == "any/any"
        assert EMPTY_SERVICES.text() == "none"

    def test_unnormalized_construction_rejected(self):
        # The constructor normalizes; only invalid ranges are rejected.
        assert ServiceSet((("tcp", 30, 40), ("tcp", 20, 25))).ranges == (
            ("tcp", 20, 25),
            ("tcp", 30, 40),
        )
        assert ServiceSet((("tcp", 26, 40), ("tcp", 20, 25))) == ServiceSet.from_ranges(
            [("tcp", 20, 40)]
        )
        with pytest.raises(ValueError):
            ServiceSet((("gre", 20, 25),))
        with pytest.raises(ValueError):
            ServiceSet((("tcp", 25, 20),))


class TestCompositionTables:
    def test_security_serial_is_intersection(self):
        p = SecurityValue(SSH.union(HTTP))
        q = SecurityValue(SSH)
        assert compose_serial(PolicyContext.SECURITY, p, q) == SecurityValue(SSH)

    def test_security_parallel_is_union(self):
        got = compose_parallel(
            PolicyContext.SECURITY, SecurityValue(SSH), SecurityValue(HTTP)
        )
        assert got == SecurityValue(SSH.union(HTTP))

    def test_qos_serial_is_min(self):
        p = QosValue(Fraction(30), HTTP)
        q = QosValue(Fraction(40), HTTP)
        assert compose_serial(PolicyContext.QOS, p, q).bandwidth == Fraction(30)

    def test_qos_parallel_is_sum(self):
        p = QosValue(Fraction(30), HTTP)
        q = QosValue(Fraction(40), HTTP)
        assert compose_parallel(PolicyContext.QOS, p, q).bandwidth == Fraction(70)

    def test_measurement_serial_is_union(self):
        got = compose_serial(
            PolicyContext.MEASUREMENT, MeasurementValue(HTTPS), MeasurementValue(DNS)
        )
        assert got == MeasurementValue(HTTPS.union(DNS))

    def test_measurement_parallel_is_intersection(self):
        got = compose_parallel(
            PolicyContext.MEASUREMENT,
            MeasurementValue(HTTPS.union(DNS)),
            MeasurementValue(HTTPS),
        )
        assert got == MeasurementValue(HTTPS)

    def test_context_mismatch(self):
        with pytest.raises(ContextMismatch):
            compose_serial(PolicyContext.SECURITY, SecurityValue(SSH), MeasurementValue(SSH))
        with pytest.raises(ContextMismatch):
            compose_parallel(PolicyContext.QOS, QosValue(Fraction(1), HTTP), SecurityValue(SSH))

    def test_qos_predicate_mismatch(self):
        with pytest.raises(ContextMismatch):
            compose_serial(
                PolicyContext.QOS, QosValue(Fraction(1), HTTP), QosValue(Fraction(2), DNS)
            )


class TestIdentityLaws:
    @pytest.mark.parametrize("ctx", list(PolicyContext))
    def test_serial_identity(self, ctx):
        value = {
            PolicyContext.SECURITY: SecurityValue(SSH),
            PolicyContext.MEASUREMENT: MeasurementValue(DNS),
            PolicyContext.QOS: QosValue(Fraction(17), HTTP),
        }[ctx]
        identity = serial_identity(ctx)
        assert compose_serial(ctx, identity, value) == value
        assert compose_serial(ctx, value, identity) == value

    @pytest.mark.parametrize("ctx", list(PolicyContext))
    def test_parallel_identity(self, ctx):
        value = {
            PolicyContext.SECURITY: SecurityValue(SSH),
            PolicyContext.MEASUREMENT: MeasurementValue(DNS),
            PolicyContext.QOS: QosValue(Fraction(17), HTTP),
        }[ctx]
        identity = parallel_identity(ctx)
        assert compose_parallel(ctx, identity, value) == value
        assert compose_parallel(ctx, value, identity) == value

    def test_identity_values(self):
        assert serial_identity(PolicyContext.SECURITY) == SecurityValue(ANY_SERVICES)
        assert serial_identity(PolicyContext.MEASUREMENT) == MeasurementValue(EMPTY_SERVICES)
        assert serial_identity(PolicyContext.QOS).bandwidth is UNBOUNDED
        assert parallel_identity(PolicyContext.SECURITY) == SecurityValue(EMPTY_SERVICES)
        assert parallel_identity(PolicyContext.MEASUREMENT) == MeasurementValue(ANY_SERVICES)
        assert parallel_identity(PolicyContext.QOS).bandwidth == Fraction(0)


service_sets = st.builds(
    ServiceSet.from_ranges,
    st.lists(
        st.tuples(
            st.sampled_from(["tcp", "udp", "icmp"]),
            st.integers(0, 65535),
            st.integers(0, 65535),
        ).map(lambda t: (t[0], min(t[1], t[2]), max(t[1], t[2]))),
        max_size=3,
    ),
)


printable_service_sets = st.one_of(service_sets, st.just(ANY_SERVICES))
# Both sides of bandwidth_text's six-place cut: decimals and p/q forms.
bandwidths = st.one_of(
    st.fractions(min_value=0, max_denominator=10**9),
    st.integers(0, 10**15).map(lambda n: Fraction(n, 10**7)),
)
_RULE_PREFIX = {
    PolicyContext.SECURITY: "security Z1 -> Z2 : ",
    PolicyContext.QOS: "qos Z1 -> Z2 : ",
    PolicyContext.MEASUREMENT: "measure Z1 -> Z2 : collect ",
}


class TestValueGrammar:
    @given(printable_service_sets, bandwidths)
    def test_print_then_parse_is_identity(self, services, bandwidth):
        for value in (
            SecurityValue(services),
            MeasurementValue(services),
            QosValue(bandwidth, services),
        ):
            ctx = context_of(value)
            text = value_to_text(value)
            assert value_from_text(ctx, text) == value
            (rule,) = parse_policy(_RULE_PREFIX[ctx] + text).rules
            assert rule.value == value


class TestCompositionProperties:
    @given(service_sets, service_sets, service_sets)
    def test_security_ops_associative_commutative(self, a, b, c):
        for op in (compose_serial, compose_parallel):
            pa, pb, pc = SecurityValue(a), SecurityValue(b), SecurityValue(c)
            ctx = PolicyContext.SECURITY
            assert op(ctx, pa, pb) == op(ctx, pb, pa)
            assert op(ctx, op(ctx, pa, pb), pc) == op(ctx, pa, op(ctx, pb, pc))

    @given(service_sets, service_sets, service_sets)
    def test_measurement_ops_associative_commutative(self, a, b, c):
        for op in (compose_serial, compose_parallel):
            pa, pb, pc = MeasurementValue(a), MeasurementValue(b), MeasurementValue(c)
            ctx = PolicyContext.MEASUREMENT
            assert op(ctx, pa, pb) == op(ctx, pb, pa)
            assert op(ctx, op(ctx, pa, pb), pc) == op(ctx, pa, op(ctx, pb, pc))

    @given(
        st.fractions(min_value=0, max_value=10**6),
        st.fractions(min_value=0, max_value=10**6),
        st.fractions(min_value=0, max_value=10**6),
    )
    def test_qos_ops_associative_commutative(self, x, y, z):
        for op in (compose_serial, compose_parallel):
            pa, pb, pc = (QosValue(v, HTTP) for v in (x, y, z))
            ctx = PolicyContext.QOS
            assert op(ctx, pa, pb) == op(ctx, pb, pa)
            assert op(ctx, op(ctx, pa, pb), pc) == op(ctx, pa, op(ctx, pb, pc))

    @given(service_sets, service_sets, service_sets)
    def test_security_monotone(self, a, b, c):
        small, big = a.intersection(b), a.union(b)
        ctx = PolicyContext.SECURITY
        serial_small = compose_serial(ctx, SecurityValue(small), SecurityValue(c))
        serial_big = compose_serial(ctx, SecurityValue(big), SecurityValue(c))
        assert serial_small.services.issubset(serial_big.services)
        par_small = compose_parallel(ctx, SecurityValue(small), SecurityValue(c))
        par_big = compose_parallel(ctx, SecurityValue(big), SecurityValue(c))
        assert par_small.services.issubset(par_big.services)

    @given(
        st.fractions(min_value=0, max_value=10**6),
        st.fractions(min_value=0, max_value=10**6),
        st.fractions(min_value=0, max_value=10**6),
    )
    def test_qos_monotone(self, x, y, z):
        lo, hi = min(x, y), max(x, y)
        ctx = PolicyContext.QOS
        assert (
            compose_serial(ctx, QosValue(lo, HTTP), QosValue(z, HTTP)).bandwidth
            <= compose_serial(ctx, QosValue(hi, HTTP), QosValue(z, HTTP)).bandwidth
        )
        assert (
            compose_parallel(ctx, QosValue(lo, HTTP), QosValue(z, HTTP)).bandwidth
            <= compose_parallel(ctx, QosValue(hi, HTTP), QosValue(z, HTTP)).bandwidth
        )


def _line(*names_zones):
    """A straight-line path over fresh devices: (name, from, to) triples."""
    steps = []
    for name, i, j in names_zones:
        steps.append(DirectedDevice(PhysicalDevice(name, ("e0", "e1")), i, j, "e0", "e1"))
    return DevicePath(tuple(steps))


class TestDeriveEndToEnd:
    def setup_method(self):
        self.upper = _line(("A", 0, 1), ("C", 1, 2))
        self.lower = _line(("E", 0, 3), ("F", 3, 2))
        self.paths = PathSet.of(self.upper, self.lower)

    def test_uniform_security_value_survives(self):
        policies = {d: SecurityValue(SSH) for d in (*self.upper.steps, *self.lower.steps)}
        got = derive_end_to_end(PolicyContext.SECURITY, policies, self.paths)
        assert got == SecurityValue(SSH)

    def test_parallel_path_rescues_deny(self):
        policies = {d: SecurityValue(SSH) for d in self.upper.steps}
        policies.update({d: SecurityValue(EMPTY_SERVICES) for d in self.lower.steps})
        got = derive_end_to_end(PolicyContext.SECURITY, policies, self.paths)
        assert got == SecurityValue(SSH)

    def test_qos_disjoint_paths_add_up(self):
        policies = {d: QosValue(Fraction(60), HTTP) for d in self.upper.steps}
        policies.update({d: QosValue(Fraction(40), HTTP) for d in self.lower.steps})
        got = derive_end_to_end(PolicyContext.QOS, policies, self.paths)
        assert got.bandwidth == Fraction(100)

    def test_empty_path_contributes_serial_identity(self):
        got = derive_end_to_end(PolicyContext.SECURITY, {}, ONE)
        assert got == SecurityValue(ANY_SERVICES)

    def test_zero_paths_rejected(self):
        with pytest.raises(EmptyPathSet):
            derive_end_to_end(PolicyContext.SECURITY, {}, ZERO)

    def test_missing_device_policy(self):
        with pytest.raises(MissingDevicePolicy):
            derive_end_to_end(
                PolicyContext.SECURITY,
                {self.upper.steps[0]: SecurityValue(SSH)},
                PathSet.of(self.upper),
            )

    def test_uniform_value_on_random_paths_is_exact(self):
        # Placing one value on every device of every path derives exactly
        # that value: intersection of equal sets under union of equal sets.
        rng = random.Random(7)
        from modelgen import random_model, random_service_set
        from policymap.closure import brute_force_paths

        for _ in range(15):
            model = random_model(rng, max_zones=5, max_firewalls=8)
            astar = brute_force_paths(model)
            value = SecurityValue(random_service_set(rng))
            for i in range(model.n):
                for j in range(model.n):
                    if i == j or not astar.cell(i, j):
                        continue
                    devices = {
                        d for p in astar.cell(i, j) for d in p.steps
                    }
                    got = derive_end_to_end(
                        PolicyContext.SECURITY,
                        {d: value for d in devices},
                        astar.cell(i, j),
                    )
                    assert got == value


class TestPolicyParser:
    def test_full_document(self):
        doc = parse_policy(
            "# comment\n"
            "zone Z1 transitive\n"
            "zone Z4 non-transitive\n"
            "\n"
            "security Z1 -> Z3 : tcp/22, tcp/443  # trailing comment\n"
            "qos Z1 -> Z3 : tcp/80 min 12.5MB/s\n"
            "measure Z2 -> Z4 : collect udp/any\n"
        )
        assert doc.transitivity == {"Z1": True, "Z4": False}
        assert len(doc.rules) == 3
        security, qos, measure = doc.rules
        assert security.value == SecurityValue(SSH.union(HTTPS))
        assert qos.value == QosValue(Fraction("12.5"), HTTP)
        assert measure.value == MeasurementValue(ServiceSet.from_ranges([("udp", 0, 65535)]))

    def test_any_protocol_expands(self):
        assert parse_services("any/53") == ServiceSet.from_ranges(
            [(p, 53, 53) for p in ("tcp", "udp", "icmp")]
        )
        assert parse_services("any/any") == ANY_SERVICES

    def test_duplicate_rule_rejected(self):
        text = "security Z1 -> Z2 : tcp/22\nsecurity Z1 -> Z2 : tcp/80\n"
        with pytest.raises(PolicyParseError, match="line 2.*duplicate"):
            parse_policy(text)

    def test_same_pair_different_context_allowed(self):
        doc = parse_policy(
            "security Z1 -> Z2 : tcp/22\nmeasure Z1 -> Z2 : collect tcp/22\n"
        )
        assert len(doc.rules) == 2

    def test_identical_endpoints_rejected(self):
        with pytest.raises(PolicyParseError, match="line 1"):
            parse_policy("security Z1 -> Z1 : tcp/22")

    def test_zone_redeclaration_rejected(self):
        with pytest.raises(PolicyParseError, match="declared twice"):
            parse_policy("zone Z1 transitive\nzone Z1 transitive\n")

    def test_bad_protocol(self):
        with pytest.raises(PolicyParseError, match="protocol"):
            parse_policy("security Z1 -> Z2 : gre/22")

    @pytest.mark.parametrize(
        "rule, match",
        [
            ("security Z1 -> Z2 : tcp/70000", "port"),
            ("security Z1 -> Z2 : tcp/2_2", "port"),
            ("security Z1 -> Z2 : tcp/+22", "port"),
            ("security Z1 -> Z2 : tcp/\u0662\u0662", "port"),
            ("qos Z1 -> Z3 : tcp/80 min 1/0MB/s", "bandwidth"),
            ("qos Z1 -> Z3 : tcp/80 min \u0663MB/s", "bandwidth"),
            ("measure Z1 -> Z2 : udp/any", "collect"),
        ],
        ids=["above-65535", "underscore", "plus", "arabic-indic", "zero-denominator",
             "arabic-indic-bandwidth", "no-collect"],
    )
    def test_bad_value_rejected(self, rule, match):
        with pytest.raises(PolicyParseError, match=f"line 2: .*{match}"):
            parse_policy(f"zone Z1 transitive\n{rule}\n")

    def test_unrecognized_line(self):
        with pytest.raises(PolicyParseError, match="line 1"):
            parse_policy("permit ip any any")

    def test_rule_constructor_rejects_loop(self):
        with pytest.raises(ValueError):
            PolicyRule("Z1", "Z1", SecurityValue(SSH))
