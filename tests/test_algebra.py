import copy
import dataclasses
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from policymap.algebra import (
    EPSILON,
    INVALID,
    ONE,
    ZERO,
    DevicePath,
    DirectedDevice,
    PathSet,
    PhysicalDevice,
    concat_path,
    concat_sets,
    union_sets,
)

from conftest import hash_seed_env

# Four-zone pool mirroring the lab topology: A,B bridge zones 1-2, C,D
# bridge 2-3, E bridges 1-4, F,G bridge 3-4 (0-indexed internally).
_PHYS = {name: PhysicalDevice(name, ("e0", "e1")) for name in "ABCDEFG"}


def dd(name: str, i: int, j: int) -> DirectedDevice:
    return DirectedDevice(_PHYS[name], i, j, "e0", "e1")


def rdd(name: str, i: int, j: int) -> DirectedDevice:
    """Reverse orientation: ingress on e1."""
    return DirectedDevice(_PHYS[name], i, j, "e1", "e0")


A12, B12 = dd("A", 0, 1), dd("B", 0, 1)
C23, D23 = dd("C", 1, 2), dd("D", 1, 2)
E14 = dd("E", 0, 3)
F43, G43 = rdd("F", 3, 2), rdd("G", 3, 2)
F34 = dd("F", 2, 3)


def path(*devices: DirectedDevice) -> DevicePath:
    return DevicePath(tuple(devices))


class TestConcatPath:
    def test_two_step_join(self):
        joined = concat_path(path(A12), path(C23))
        assert joined == path(A12, C23)
        assert joined.text() == "A12C23"

    def test_same_physical_device_is_invalid(self):
        # A oriented 1->3 then 3->2 reuses firewall A's interface.
        a_multi = PhysicalDevice("A", ("e0", "e1", "e2"))
        a13 = DirectedDevice(a_multi, 0, 2, "e0", "e2")
        a32 = DirectedDevice(a_multi, 2, 1, "e2", "e1")
        assert concat_path(path(a13), path(a32)) is INVALID

    def test_epsilon_is_two_sided_identity(self):
        assert concat_path(EPSILON, path(A12)) == path(A12)
        assert concat_path(path(A12), EPSILON) == path(A12)
        assert concat_path(EPSILON, EPSILON) == EPSILON

    def test_chaining_mismatch_is_invalid(self):
        assert concat_path(path(A12), path(F34)) is INVALID

    def test_zone_revisit_is_invalid(self):
        # 0 -> 1 then 1 -> 0 would visit zone 0 twice.
        b21 = rdd("B", 1, 0)
        assert concat_path(path(A12), path(b21)) is INVALID


class TestConcatSets:
    def test_pairwise_product(self):
        product = concat_sets(
            PathSet.of(path(A12), path(B12)), PathSet.of(path(C23), path(D23))
        )
        assert product == PathSet.of(
            path(A12, C23), path(A12, D23), path(B12, C23), path(B12, D23)
        )

    def test_zero_is_absorbing(self):
        s = PathSet.of(path(A12))
        assert concat_sets(s, ZERO) == ZERO
        assert concat_sets(ZERO, s) == ZERO

    def test_all_products_invalid_gives_zero(self):
        a_multi = PhysicalDevice("A", ("e0", "e1", "e2"))
        a13 = DirectedDevice(a_multi, 0, 2, "e0", "e2")
        a32 = DirectedDevice(a_multi, 2, 1, "e2", "e1")
        assert concat_sets(PathSet.of(path(a13)), PathSet.of(path(a32))) == ZERO

    def test_one_is_identity(self):
        s = PathSet.of(path(A12), path(A12, C23))
        assert concat_sets(ONE, s) == s
        assert concat_sets(s, ONE) == s


class TestUnionSets:
    def test_disjoint_union(self):
        assert union_sets(PathSet.of(path(A12)), PathSet.of(path(B12))) == PathSet.of(
            path(A12), path(B12)
        )

    def test_idempotent(self):
        s = PathSet.of(path(A12), path(B12))
        assert union_sets(s, s) == s

    def test_assembles_all_paths_between_far_zones(self):
        via_middle = PathSet.of(
            path(A12, C23), path(A12, D23), path(B12, C23), path(B12, D23)
        )
        via_lab = PathSet.of(path(E14, F43), path(E14, G43))
        combined = union_sets(via_middle, via_lab)
        assert len(combined) == 6
        assert combined.text() == (
            "{A12C23, A12D23, B12C23, B12D23, E14F43, E14G43}"
        )


class TestPathInvariants:
    def test_broken_chaining_rejected(self):
        with pytest.raises(ValueError, match="^broken chaining at step 0: A12 then F34$"):
            DevicePath((A12, F34))

    def test_zone_revisit_rejected(self):
        b21 = rdd("B", 1, 0)
        with pytest.raises(ValueError, match="^zone revisited in path A12B21$"):
            DevicePath((A12, b21))

    def test_device_reuse_rejected(self):
        a_multi = PhysicalDevice("A", ("e0", "e1", "e2"))
        a13 = DirectedDevice(a_multi, 0, 2, "e0", "e2")
        a32 = DirectedDevice(a_multi, 2, 1, "e2", "e1")
        with pytest.raises(ValueError, match="^physical device reused in path A13A32$"):
            DevicePath((a13, a32))

    def test_directed_device_needs_distinct_zones_and_interfaces(self):
        with pytest.raises(ValueError):
            DirectedDevice(_PHYS["A"], 1, 1, "e0", "e1")
        with pytest.raises(ValueError):
            DirectedDevice(_PHYS["A"], 0, 1, "e0", "e0")
        with pytest.raises(ValueError):
            DirectedDevice(_PHYS["A"], 0, 1, "e0", "e9")


from modelgen import pool_paths

POOL_PATHS = pool_paths()

path_sets = st.builds(
    lambda chosen: PathSet(frozenset(chosen)),
    st.frozensets(st.sampled_from(POOL_PATHS), max_size=4),
)


class TestSemiringLaws:
    @given(path_sets, path_sets)
    def test_union_commutative(self, a, b):
        assert union_sets(a, b) == union_sets(b, a)

    @given(path_sets, path_sets, path_sets)
    def test_union_associative(self, a, b, c):
        assert union_sets(union_sets(a, b), c) == union_sets(a, union_sets(b, c))

    @given(path_sets)
    def test_union_idempotent_with_zero_identity(self, a):
        assert union_sets(a, a) == a
        assert union_sets(a, ZERO) == a
        assert union_sets(ZERO, a) == a

    @settings(deadline=None)
    @given(path_sets, path_sets, path_sets)
    def test_concat_associative(self, a, b, c):
        assert concat_sets(concat_sets(a, b), c) == concat_sets(a, concat_sets(b, c))

    @given(path_sets)
    def test_concat_identity_and_absorber(self, a):
        assert concat_sets(a, ONE) == a
        assert concat_sets(ONE, a) == a
        assert concat_sets(a, ZERO) == ZERO
        assert concat_sets(ZERO, a) == ZERO

    @settings(deadline=None)
    @given(path_sets, path_sets, path_sets)
    def test_distributes_left(self, a, b, c):
        assert concat_sets(a, union_sets(b, c)) == union_sets(
            concat_sets(a, b), concat_sets(a, c)
        )

    @settings(deadline=None)
    @given(path_sets, path_sets, path_sets)
    def test_distributes_right(self, a, b, c):
        assert concat_sets(union_sets(b, c), a) == union_sets(
            concat_sets(b, a), concat_sets(c, a)
        )

    @given(path_sets, path_sets)
    def test_product_size_bound(self, a, b):
        assert len(concat_sets(a, b)) <= len(a) * len(b)

    @given(path_sets, path_sets)
    def test_products_are_valid_paths(self, a, b):
        # DevicePath re-validates on construction, so reaching here means
        # every product satisfied chaining/elementarity/distinctness.
        for p in concat_sets(a, b):
            zones = p.zone_sequence()
            assert len(set(zones)) == len(zones)
            assert len(set(p.device_ids())) == len(p.device_ids())

    def test_concat_order_matters_on_witness(self):
        x, y = PathSet.of(path(A12)), PathSet.of(path(C23))
        assert concat_sets(x, y) != concat_sets(y, x)
        assert union_sets(x, y) == union_sets(y, x)


class TestCanonicalText:
    def test_epsilon_and_zero(self):
        assert EPSILON.text() == "ε"
        assert ONE.text() == "{ε}"
        assert ZERO.text() == "{}"

    def test_sorted_by_zone_sequence_then_device(self):
        s = PathSet.of(path(E14, F43), path(A12, C23), path(B12, C23))
        assert s.text() == "{A12C23, B12C23, E14F43}"


# Dumps the diamond's directed devices (pickled, in text order) or loads
# them and looks each one up in a dict built from a fresh model.
_PICKLE_SCRIPT = """
import pickle, sys
from policymap.topology import build_model, load_topology
model = build_model(load_topology(sys.argv[2]), {})
devices = sorted(
    (d for devs in model.conduits.values() for d in devs),
    key=lambda d: (d.text(), d.ingress_interface),
)
if sys.argv[1] == "dump":
    sys.stdout.buffer.write(pickle.dumps(devices))
else:
    loaded = pickle.loads(sys.stdin.buffer.read())
    index = {d: k for k, d in enumerate(devices)}
    assert loaded == devices
    assert [index.get(d) for d in loaded] == list(range(len(devices)))
    assert {hash(d) for d in loaded} == {hash(d) for d in devices}
    print(len(loaded))
"""


class TestDirectedDeviceHash:
    def test_cached_hash_keeps_equality_repr_and_fields(self):
        twin = DirectedDevice(PhysicalDevice("A", ("e0", "e1")), 0, 1, "e0", "e1")
        assert twin == A12 and twin is not A12 and hash(twin) == hash(A12)
        assert A12 != rdd("A", 0, 1) and A12 != dd("A", 1, 0)
        assert [f.name for f in dataclasses.fields(DirectedDevice)] == [
            "physical", "from_zone", "to_zone", "ingress_interface", "egress_interface",
        ]
        assert repr(A12) == (
            "DirectedDevice(physical=PhysicalDevice(device_id='A', "
            "interfaces=('e0', 'e1')), from_zone=0, to_zone=1, "
            "ingress_interface='e0', egress_interface='e1')"
        )
        for clone in (copy.copy(A12), copy.deepcopy(A12)):
            assert clone == A12 and hash(clone) == hash(A12)

    def test_unpickled_device_hashes_as_in_its_new_process(self):
        # String hashes differ between PYTHONHASHSEEDs, so a hash carried
        # in the pickle would miss every dict of the loading process.
        graphml = str(Path(__file__).parent / "data" / "diamond.graphml")

        def run(hash_seed, action, stdin=b""):
            proc = subprocess.run(
                [sys.executable, "-c", _PICKLE_SCRIPT, action, graphml],
                input=stdin, capture_output=True, env=hash_seed_env(hash_seed), timeout=60,
            )
            assert proc.returncode == 0, proc.stderr.decode()
            return proc.stdout

        assert run("2", "load", run("1", "dump")) == b"14\n"
