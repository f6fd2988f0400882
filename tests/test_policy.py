import copy
import random
import subprocess
import sys
from dataclasses import fields, replace
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from policymap import policy
from policymap.algebra import (
    EPSILON,
    ONE,
    ZERO,
    DevicePath,
    DirectedDevice,
    PathSet,
    PhysicalDevice,
    device_key,
)
from policymap.errors import (
    ContextMismatch,
    EmptyPathSet,
    MissingDevicePolicy,
    PolicymapError,
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
    fold_classes,
    parallel_identity,
    parse_policy,
    parse_services,
    rule_line,
    serial_identity,
    value_from_text,
    value_to_text,
)

from conftest import hash_seed_env, literal_end_to_end

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
            assert EMPTY_SERVICES.intersection(s) == EMPTY_SERVICES
            assert s.intersection(ANY_SERVICES) == s

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

    @given(
        st.sampled_from(list(PolicyContext)),
        st.from_regex(r"[A-Za-z0-9_.]+", fullmatch=True),
        st.from_regex(r"[A-Za-z0-9_.]+", fullmatch=True),
        printable_service_sets,
        bandwidths,
    )
    def test_rule_line_parses_back(self, ctx, src, dst, services, bandwidth):
        assume(src != dst)
        value = {
            PolicyContext.SECURITY: SecurityValue(services),
            PolicyContext.MEASUREMENT: MeasurementValue(services),
            PolicyContext.QOS: QosValue(bandwidth, services),
        }[ctx]
        line = rule_line(ctx, src, dst, value_to_text(value))
        assert parse_policy(line).rules == (PolicyRule(src, dst, value),)


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
        assert serial_small.services.intersection(serial_big.services) == serial_small.services
        par_small = compose_parallel(ctx, SecurityValue(small), SecurityValue(c))
        par_big = compose_parallel(ctx, SecurityValue(big), SecurityValue(c))
        assert par_small.services.intersection(par_big.services) == par_small.services

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


def _outcome(derive, ctx, device_policies, paths):
    """The derived value, or the type and message of the error raised."""
    try:
        return derive(ctx, device_policies, paths)
    except PolicymapError as exc:
        return type(exc), str(exc)


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
        first, second = self.upper.steps
        message = f"no policy value for device {second.text()}"
        with pytest.raises(MissingDevicePolicy, match=message):
            derive_end_to_end(
                PolicyContext.SECURITY, {first: SecurityValue(SSH)}, PathSet.of(self.upper)
            )

    def test_qos_equal_parallel_paths_count_twice(self):
        # Both paths fold to the same value class; the sum still needs both.
        value = QosValue(Fraction(30), HTTP)
        policies = {d: value for d in (*self.upper.steps, *self.lower.steps)}
        got = derive_end_to_end(PolicyContext.QOS, policies, self.paths)
        assert got == QosValue(Fraction(60), HTTP)
        assert got == literal_end_to_end(PolicyContext.QOS, policies, self.paths)

    def test_each_value_class_folds_once(self, monkeypatch):
        import policymap.policy as policy

        calls = []
        for name in ("compose_serial", "compose_parallel"):
            def counted(ctx, p, q, op=getattr(policy, name), name=name):
                calls.append(name)
                return op(ctx, p, q)
            monkeypatch.setattr(policy, name, counted)
        (a, c), (e, f) = self.upper.steps, self.lower.steps
        cases = (
            (SecurityValue(SSH), SecurityValue(SSH.union(HTTP)), SecurityValue(SSH)),
            (QosValue(Fraction(30), HTTP), QosValue(Fraction(20), HTTP),
             QosValue(Fraction(40), HTTP)),
        )
        for first, second, expected in cases:
            calls.clear()
            policies = {a: first, e: first, c: second, f: second}
            got = derive_end_to_end(context_of(first), policies, self.paths)
            # Both paths reach the one class {first, second}: one serial
            # step folds it, the qos count multiplies it, and no parallel
            # step is left.
            assert calls == ["compose_serial"]
            assert got == expected

    def test_mixed_qos_predicates_raise_as_the_path_by_path_fold(self):
        across = {d: QosValue(Fraction(30), HTTP) for d in self.upper.steps}
        across.update({d: QosValue(Fraction(30), DNS) for d in self.lower.steps})
        along = {d: QosValue(Fraction(30), HTTP) for d in self.lower.steps}
        along.update(
            {self.upper.steps[0]: QosValue(Fraction(10), DNS),
             self.upper.steps[1]: QosValue(Fraction(20), HTTP)}
        )
        for policies in (across, along):
            expected = _outcome(literal_end_to_end, PolicyContext.QOS, policies, self.paths)
            assert expected[0] is ContextMismatch
            assert _outcome(derive_end_to_end, PolicyContext.QOS, policies, self.paths) == expected

    def test_foreign_values_raise_as_the_path_by_path_fold(self):
        # Two one-step parallel paths with one shared foreign value: the
        # second path's parallel step must still meet it and raise.
        one_step = PathSet.of(_line(("A", 0, 1)), _line(("B", 0, 1)))
        for foreign in (MeasurementValue(SSH), [SSH]):
            policies = {p.steps[0]: foreign for p in one_step}
            expected = _outcome(
                literal_end_to_end, PolicyContext.SECURITY, policies, one_step
            )
            assert expected[0] is ContextMismatch
            assert _outcome(
                derive_end_to_end, PolicyContext.SECURITY, policies, one_step
            ) == expected

    def test_qos_sum_with_unbounded_stays_unbounded(self):
        # Fraction + inf goes through float(), which overflows for 10**400.
        huge = QosValue(Fraction(10**400), HTTP)
        unbounded = QosValue(UNBOUNDED, None)
        for p, q in ((unbounded, huge), (huge, unbounded)):
            assert compose_parallel(PolicyContext.QOS, p, q) == QosValue(UNBOUNDED, HTTP)
        policies = {d: huge for d in self.upper.steps}
        got = derive_end_to_end(PolicyContext.QOS, policies, PathSet.of(EPSILON, self.upper))
        assert got == QosValue(UNBOUNDED, HTTP)

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


# Small pools, so that devices share values and value classes repeat.
_POOLS = {
    PolicyContext.SECURITY: [
        SecurityValue(SSH), SecurityValue(SSH.union(HTTP)), SecurityValue(ANY_SERVICES),
    ],
    PolicyContext.MEASUREMENT: [
        MeasurementValue(SSH), MeasurementValue(DNS), MeasurementValue(EMPTY_SERVICES),
    ],
    PolicyContext.QOS: [
        QosValue(Fraction(30), HTTP), QosValue(Fraction(25, 2), HTTP), QosValue(Fraction(0), None),
    ],
}


class TestGroupedDerivation:
    """derive_end_to_end folds each value class once; the path-by-path
    fold is the reference, for values and for errors alike."""

    def _variants(self, rng, ctx, devices):
        pool = _POOLS[ctx]
        yield {d: rng.choice(pool) for d in devices}
        if ctx is PolicyContext.QOS:
            mixed = pool + [QosValue(Fraction(20), DNS)]
            yield {d: rng.choice(mixed) for d in devices}
        others = [v for other, values in _POOLS.items() if other is not ctx for v in values]
        yield {d: rng.choice(others if rng.random() < 0.1 else pool) for d in devices}
        missing = {d: rng.choice(pool) for d in devices}
        del missing[rng.choice(sorted(missing, key=lambda d: d.text()))]
        yield missing

    def test_matches_path_by_path_fold_on_random_models(self):
        from modelgen import random_model
        from policymap.closure import brute_force_paths

        rng = random.Random(0x6E)
        compared = grouped = raised = 0
        for _ in range(40):
            model = random_model(rng, max_zones=6, max_firewalls=9)
            astar = brute_force_paths(model)
            cells = [
                astar.cell(i, j)
                for i in range(model.n)
                for j in range(model.n)
                if i != j and astar.cell(i, j)
            ]
            devices = {d for cell in cells for p in cell for d in p.steps}
            if not devices:
                continue
            for ctx in PolicyContext:
                for policies in self._variants(rng, ctx, devices):
                    for cell in cells:
                        paths = PathSet(cell.paths | {EPSILON}) if rng.random() < 0.2 else cell
                        expected = _outcome(literal_end_to_end, ctx, policies, paths)
                        assert _outcome(derive_end_to_end, ctx, policies, paths) == expected
                        compared += 1
                        raised += isinstance(expected, tuple)
                        classes = {
                            frozenset(policies.get(d) for d in p.steps) for p in paths
                        }
                        grouped += len(classes) < len(paths)
        # Enough cells, with repeated value classes and with errors.
        assert compared > 3000 and grouped > 1000 and raised > 500



# Two physical devices per unordered pair of four zones: an elementary zone
# sequence, with either device on each hop, is always a valid path.
_LINKS = {
    (a, b): [PhysicalDevice(f"{name}{a}{b}", ("e0", "e1")) for name in "PQ"]
    for a in range(4)
    for b in range(a + 1, 4)
}


@st.composite
def _path_sets(draw):
    """A nonempty set of valid paths between any zones, at times with EPSILON."""
    paths = set()
    for _ in range(draw(st.integers(1, 6))):
        zones = draw(st.permutations(range(4)))[: draw(st.integers(1, 4))]
        paths.add(DevicePath(tuple(
            DirectedDevice(_LINKS[min(a, b), max(a, b)][draw(st.integers(0, 1))], a, b, "e0", "e1")
            for a, b in zip(zones, zones[1:])
        )))
    return PathSet(frozenset(paths))


def _class_rows(data, policies, devices, paths):
    """fold_classes' classes and rows for policies over paths, with devices
    as the table: one class per distinct value, the rows in a drawn order."""
    masks: dict = {}
    for k, d in enumerate(devices):
        masks[policies[d]] = masks.get(policies[d], 0) | 1 << k
    number = {d: k for k, d in enumerate(devices)}
    order = data.draw(st.permutations([p.steps for p in paths]))
    return list(masks.items()), [tuple(number[d] for d in steps) for steps in order]


class TestAnyOrderFold:
    """fold_classes takes paths in any order and devices in any table order;
    with its canonical retry it equals the canonical path-by-path fold,
    value or error type and message."""

    @settings(max_examples=120, deadline=None)
    @given(st.data())
    def test_matches_path_by_path_fold(self, data):
        ctx = data.draw(st.sampled_from(list(PolicyContext)))
        paths = data.draw(_path_sets())
        devices = sorted({d for p in paths for d in p.steps}, key=DirectedDevice.text)
        pool = _POOLS[ctx] + [QosValue(Fraction(20), DNS)] * (ctx is PolicyContext.QOS)
        policies = {d: data.draw(st.sampled_from(pool)) for d in devices}
        classes, rows = _class_rows(data, policies, devices, paths)
        expected = _outcome(literal_end_to_end, ctx, policies, paths)
        assert _outcome(
            lambda ctx, classes, rows: fold_classes(ctx, classes, rows, devices),
            ctx, classes, rows,
        ) == expected


_HUGE = Fraction(10**400 + 1, 3)
_COUNTED_POOL = [
    QosValue(UNBOUNDED, HTTP), QosValue(UNBOUNDED, None), QosValue(_HUGE, HTTP),
    QosValue(Fraction(25, 2), HTTP), QosValue(Fraction(0), None), QosValue(_HUGE, DNS),
    QosValue(Fraction(20), DNS), QosValue(Fraction(30), SSH),
]


class TestCountedFold:
    """A qos value class met k times adds k times its serial value: equal to
    the canonical path-by-path fold, value or error type and message."""

    @settings(max_examples=120, deadline=None)
    @given(st.data())
    def test_matches_path_by_path_fold(self, data):
        paths = set()
        for _ in range(data.draw(st.integers(1, 3))):
            paths |= data.draw(_path_sets()).paths
        paths = PathSet(frozenset(paths))
        devices = sorted({d for p in paths for d in p.steps}, key=device_key)
        # One to three values, so that classes repeat, often up to six times.
        pool = data.draw(st.lists(st.sampled_from(_COUNTED_POOL), min_size=1, max_size=3))
        policies = {d: data.draw(st.sampled_from(pool)) for d in devices}
        classes, rows = _class_rows(data, policies, devices, paths)
        expected = _outcome(literal_end_to_end, PolicyContext.QOS, policies, paths)
        assert _outcome(
            lambda ctx, classes, rows: fold_classes(ctx, classes, rows, devices),
            PolicyContext.QOS, classes, rows,
        ) == expected


class TestClassFold:
    """verify's fold over class masks, which walks only the paths that touch
    a class other than the largest, equals the canonical path-by-path fold,
    value or error type and message: single-class cells, minority classes
    covering whole paths, classes split in two of one value, unbounded and
    huge bandwidths."""

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_matches_path_by_path_fold(self, data):
        ctx = data.draw(st.sampled_from(list(PolicyContext)))
        paths = set()
        for _ in range(data.draw(st.integers(1, 3))):
            paths |= data.draw(_path_sets()).paths
        paths = PathSet(frozenset(paths))
        devices = sorted({d for p in paths for d in p.steps}, key=device_key)
        pool = _COUNTED_POOL if ctx is PolicyContext.QOS else _POOLS[ctx]
        chosen = data.draw(st.lists(st.sampled_from(pool), min_size=1, max_size=3))
        policies = {d: data.draw(st.sampled_from(chosen)) for d in devices}
        masks: dict = {}
        for k, d in enumerate(devices):
            masks[policies[d]] = masks.get(policies[d], 0) | 1 << k
        classes = list(masks.items())
        if classes and data.draw(st.booleans()):
            value, mask = classes.pop(0)
            low = mask & -mask
            classes += [(value, low)] + [(value, mask ^ low)] * (mask != low)
        number = {d: k for k, d in enumerate(devices)}
        order = data.draw(st.permutations([p.steps for p in paths]))
        rows = [tuple(number[d] for d in steps) for steps in order]
        expected = _outcome(literal_end_to_end, ctx, policies, paths)
        assert _outcome(
            lambda ctx, classes, rows: policy.fold_classes(ctx, classes, rows, devices),
            ctx, classes, rows,
        ) == expected


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

    def test_each_distinct_value_parsed_once(self, monkeypatch):
        calls = []

        def counting(context, text):
            calls.append((context, text))
            return value_from_text(context, text)

        monkeypatch.setattr(policy, "value_from_text", counting)
        lines = [
            "security Z1 -> Z2 : tcp/22", "security Z2 -> Z1 : tcp/22",
            "measure Z1 -> Z2 : collect tcp/22", "qos Z1 -> Z2 : tcp/22 min 5MB/s",
            "security Z1 -> Z3 : tcp/22", "qos Z2 -> Z1 : tcp/22 min 5MB/s",
        ]
        doc = parse_policy("\n".join(lines))
        assert sorted(calls) == sorted({
            (PolicyContext.SECURITY, "tcp/22"),
            (PolicyContext.MEASUREMENT, "tcp/22"),
            (PolicyContext.QOS, "tcp/22 min 5MB/s"),
        })
        assert list(doc.rules) == [parse_policy(line).rules[0] for line in lines]

    def test_repeated_bad_value_fails_on_its_first_line(self):
        text = "security Z1 -> Z2 : tcp/22\nsecurity Z1 -> Z3 : tcp/99999\nsecurity Z2 -> Z3 : tcp/99999\n"
        with pytest.raises(PolicyParseError) as raised:
            parse_policy(text)
        assert raised.value.line_no == 2
        assert str(raised.value) == "line 2: bad port range '99999'"

    def test_unrecognized_line(self):
        with pytest.raises(PolicyParseError, match="line 1"):
            parse_policy("permit ip any any")

    def test_rule_constructor_rejects_loop(self):
        with pytest.raises(ValueError):
            PolicyRule("Z1", "Z1", SecurityValue(SSH))


_PICKLE_SCRIPT = """
import pickle, sys
from policymap.policy import parse_policy
rules = list(parse_policy(sys.argv[2]).rules)
if sys.argv[1] == "dump":
    sys.stdout.buffer.write(pickle.dumps(rules))
else:
    loaded = pickle.loads(sys.stdin.buffer.read())
    index = {rule: k for k, rule in enumerate(rules)}
    assert loaded == rules
    assert [index.get(rule) for rule in loaded] == list(range(len(rules)))
    assert [hash(rule) for rule in loaded] == [hash(rule) for rule in rules]
    print(len(loaded))
"""


class TestPolicyRuleHash:
    def test_cached_hash_keeps_equality_repr_and_fields(self):
        rule = PolicyRule("Z1", "Z3", QosValue(Fraction(25, 2), HTTP))
        twin = PolicyRule("Z1", "Z3", QosValue(Fraction(25, 2), HTTP))
        assert twin == rule and twin is not rule and hash(twin) == hash(rule)
        moved = replace(rule, src="Z2")
        assert moved != rule and hash(moved) == hash(PolicyRule("Z2", "Z3", rule.value))
        assert [f.name for f in fields(PolicyRule)] == ["src", "dst", "value"]
        assert repr(rule) == (
            "PolicyRule(src='Z1', dst='Z3', value=QosValue(bandwidth=Fraction(25, 2), "
            "service=ServiceSet(ranges=(('tcp', 80, 80),))))"
        )
        for clone in (copy.copy(rule), copy.deepcopy(rule)):
            assert clone == rule and hash(clone) == hash(rule)

    def test_unpickled_rule_hashes_as_in_its_new_process(self):
        # String hashes differ between PYTHONHASHSEEDs, so a hash carried
        # in the pickle would miss every set of the loading process.
        policy = (
            "security Z1 -> Z3 : tcp/22, tcp/443\n"
            "qos Z1 -> Z3 : tcp/80 min 12.5MB/s\n"
            "measure Z2 -> Z4 : collect udp/any\n"
        )

        def run(hash_seed, action, stdin=b""):
            proc = subprocess.run(
                [sys.executable, "-c", _PICKLE_SCRIPT, action, policy],
                input=stdin, capture_output=True, env=hash_seed_env(hash_seed), timeout=60,
            )
            assert proc.returncode == 0, proc.stderr.decode()
            return proc.stdout

        assert run("2", "load", run("1", "dump")) == b"3\n"
