"""Pinned exact outputs of the fiber sampler, the intertwiner solver, orbit
decisions, reflections on both sides, limit projections, basis completion,
determinants over Q(i) and F_p, random points, the moment map and the
vertex (a, b) packaging off the fiber, the group action with
framing blocks, F_p stratum counts, determinant covariants with their
chi-goodness violations, the block determinants f_S and Phi_ab, and the
Weyl-group layer: Coxeter reports, genericity walls and dominance reduction.

Each case renders its result as canonical JSON (sorted keys, no spaces,
entries through `field.dump`) and compares the sha256 of that text with a
digest recorded from an earlier implementation.  Any change to the assembled
linear systems or to the elimination that changes a sampled point, a
particular solution, a kernel basis or a witness shows up here.
"""

import hashlib
import itertools
import json
import random

import pytest

from quiverlab import (
    QQ,
    QQI,
    BlockFamily,
    DimData,
    FramedPoint,
    GroupElement,
    Mat,
    PrimeField,
    QuiverLabError,
    RootVec,
    WeightVec,
    assemble_ab,
    check_coxeter,
    complete_to_basis,
    count_points_Fq,
    det,
    doubled_quiver,
    dynkin_quiver,
    enumerate_S_XY,
    eval_covariant,
    eval_fS,
    eval_phi_ab,
    genericity,
    group_act,
    hom_space,
    j_embed,
    limit_project,
    moment_map,
    orbit_equivalent,
    random_block_family,
    random_group,
    random_invertible,
    random_matrix,
    rank,
    reduce_to_dominant,
    reflect_point,
    sample_fiber,
    validate_chi_data,
)
from util import MOMENT_POINTS, moment_points, quiver, random_chi_data


def dump_mat(m):
    return [[m.field.dump(x) for x in m.row_list(r)] for r in range(m.rows)]


def dump_blocks(blocks):
    return {str(k): dump_mat(m) for k, m in sorted(blocks.items())}


def digest(obj):
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def sample(name, d, v, lam, seed, field=QQ):
    q = dynkin_quiver(name)
    dims = DimData(WeightVec(d), RootVec(v))
    return sample_fiber(q, dims, WeightVec(lam), seed=seed, field=field)


# (quiver, d, v, lambda, seed, field): the A3 and D4 cases have a vertex with
# v_i = 0 and one with d_i = 0
FIBERS = {
    "A1-Q": ("A1", (2,), (1,), (1,), 0, QQ),
    "A2-Q": ("A2", (2, 1), (1, 1), (0, 0), 3, QQ),
    "A3-Q-v0-d0": ("A3", (1, 0, 1), (1, 1, 0), (1, 2, 3), 5, QQ),
    "A3-Q-unframed": ("A3", (0, 0, 0), (1, 2, 1), (0, 0, 0), 5, QQ),
    "D4-Q-unframed": ("D4", (0, 0, 0, 0), (1, 1, 1, 2), (0, 0, 0, 0), 2, QQ),
    "D4-Q": ("D4", (1, 0, 0, 1), (1, 1, 1, 2), (1, -1, 2, 1), 7, QQ),
    "A2-Qi": ("A2", (1, 1), (1, 1), (1, 2), 11, QQI),
    "A3-Qi-v0-d0": ("A3", (0, 1, 1), (0, 1, 2), (2, 1, -1), 13, QQI),
    "A2-F7": ("A2", (2, 0), (1, 1), (1, 3), 17, PrimeField(7)),
    "A2-F7-unframed": ("A2", (0, 0), (1, 1), (0, 0), 3, PrimeField(7)),
    "A3-F7-v0-d0": ("A3", (1, 0, 2), (1, 1, 0), (0, 0, 5), 19, PrimeField(7)),
    "D4-F101-v0-d0": ("D4", (1, 2, 0, 1), (1, 2, 1, 0), (3, 5, 7, 11), 23, PrimeField(101)),
}

FIBER_DIGESTS = {
    "A1-Q": "7f395931fc3d3e7609d02acc85942526c7436dedca1bfff421c41b7270b3143e",
    "A2-F7": "477c671c53a36e26958238bbcf3fc0223f97f1a2b5a07eeffe5020fa94d3406e",
    "A2-F7-unframed": "56540ba407a415d552480bf34630a1a170fd186c9738bded15fdf3caebf271de",
    "A2-Q": "3a9ca7f51be4872fa35774ec691db839945f7d68b545aba3f095151945f2c3bf",
    "A2-Qi": "5224bc4ba56dcb2dd2abfe5a75f9ff6c33cad4bb7c36792d1c99e7f8dd6e0eec",
    "A3-F7-v0-d0": "46bd5a4f6041d14596d197206a5eb14cc909ce261b1ee694c79c5d73fae93a8c",
    "A3-Q-unframed": "128acc17de801f349c197bd85c6138ceb85982b3baf9b091fb22038f4a83e984",
    "A3-Q-v0-d0": "0863a9c87e9d7e65f6a25be5a64e4409c85e4e0b54c4ab85b38158eaf8b1cb71",
    "A3-Qi-v0-d0": "c19c6b481a1f3d1ee62b39d8672930a20938542b36eee2884dbb5567699d7ad4",
    "D4-F101-v0-d0": "7e309514b8ca022452bb89437c49bae4451b4717359ade3093a0d63aa065c8e8",
    "D4-Q": "66047182c14f31cde0edae35611db8b482f44b1f7a8aa02a323e3a1e36928427",
    "D4-Q-unframed": "3b683057ecfb57a1ca47f53868e892abc237038dbe81960e4a12d0788fdb3d00",
}


@pytest.mark.parametrize("case", sorted(FIBERS))
def test_sample_fiber_pinned(case):
    s = sample(*FIBERS[case])
    assert digest(s.to_json()) == FIBER_DIGESTS[case]


def hom_json(h):
    if not h.exists:
        return {"exists": False}
    return {
        "exists": True,
        "particular": dump_blocks(h.particular.blocks),
        "basis": [dump_blocks(b.blocks) for b in h.basis],
    }


# (fiber case, group seed): hom_space(s, g.s) and hom_space(g.s, s); the
# unframed cases have positive-dimensional hom sets
HOMS = {
    "A3-Q-unframed": ("A3-Q-unframed", 6),
    "D4-Q-unframed": ("D4-Q-unframed", 7),
    "A2-F7-unframed": ("A2-F7-unframed", 8),
    "A2-Q": ("A2-Q", 1),
    "A3-Q-v0-d0": ("A3-Q-v0-d0", 2),
    "D4-Q": ("D4-Q", 3),
    "A2-Qi": ("A2-Qi", 4),
    "A3-F7-v0-d0": ("A3-F7-v0-d0", 5),
}

HOM_DIGESTS = {
    "A2-F7-unframed": "9e5a5a75df15adfea6a1af94f8cb33f37b17b8d9ad75ccf8b1dc057964cd0be2",
    "A2-Q": "1c6256da77e17d26c76a69d14fd010ad9d442e93c2dc4c9d034fd7e710ef0a8e",
    "A2-Qi": "dc36994ba63a0b7e471aa5112720ee4d152572fd74dfb137739a07aaeb01dfa2",
    "A3-F7-v0-d0": "222c829d2a1a8106c35e92ce3b1374843f3e58fd36ed510e79ab94e10d61571f",
    "A3-Q-unframed": "f1c244cd321d47992321581c6f590140fdd3cda18f7a4b3b4d98a8ebfaec6732",
    "A3-Q-v0-d0": "1cce528651d5e9a6d01d231c1466dfa05619c1cd078da7a96e1a18ecc21bcbdc",
    "D4-Q": "39b6544be08f6b60ca644ac4b81d3a0ed2a2394a3534ca67444da1aa5899b5eb",
    "D4-Q-unframed": "663d27d22c7b9f96e6152cfc1905d890936340724d18b4b9a7f152c100a600f9",
    "between-fibers": "cc2828211de0b6e79e1f3a000c69399d170fd78a62a4a849bab52cb6e05a840a",
}

ORBIT_DIGESTS = {
    "A2-F7-unframed": "d3ec628ecf10835bfe3b1f1f19c2129319735d773360972736ed2ea4f7419800",
    "A2-Q": "92a029686129bed0685369d35f3f696b8414871ec7517cf8d8133a4eeb96381f",
    "A2-Qi": "619cc78c0a466fbdf10cd14fd3a8898816757e95298d11e53a217a72a156efc4",
    "A3-F7-v0-d0": "9b50b9185dee1b84acbd12a23c486e89b1de56fc54194f5a0d73c289efe58108",
    "A3-Q-unframed": "5ab09ece5784fe64d8845ea205481aba6481d9d02e2f13870761ff9916c8d82c",
    "A3-Q-v0-d0": "1796096f11f68e120bba434dde410263bd13f7d7f0c61267d6996e4bbf4a262a",
    "D4-Q": "9933656b944ebe54a1f3cde809215edf63c93d53476cfbd72ec86824ad7cbb12",
    "D4-Q-unframed": "c15ca5628b0a8c53a96cfe3b5e4fb1b168f3f7985d4c8d30387d0ba121015141",
}


@pytest.mark.parametrize("case", sorted(HOMS))
def test_hom_space_pinned(case):
    fiber, gseed = HOMS[case]
    s = sample(*FIBERS[fiber])
    t = group_act(random_group(s.quiver, s.dims, s.field, random.Random(gseed)), s)
    got = {"fwd": hom_json(hom_space(s, t)), "bwd": hom_json(hom_space(t, s))}
    assert digest(got) == HOM_DIGESTS[case]


def test_hom_space_between_fibers_pinned():
    s = sample("A2", (1, 1), (1, 1), (1, 2), 0)
    t = sample("A2", (1, 1), (1, 1), (1, 2), 1)
    u = sample("A2", (2, 1), (1, 1), (0, 0), 3)
    got = [hom_json(hom_space(s, t)), hom_json(hom_space(t, s)), hom_json(hom_space(u, u))]
    assert digest(got) == HOM_DIGESTS["between-fibers"]


@pytest.mark.parametrize("case", sorted(HOMS))
def test_orbit_witness_pinned(case):
    fiber, gseed = HOMS[case]
    s = sample(*FIBERS[fiber])
    t = group_act(random_group(s.quiver, s.dims, s.field, random.Random(gseed)), s)
    dec = orbit_equivalent(s, t)
    got = {"kind": dec.kind, "reason": dec.reason, "witness": dump_blocks(dec.witness.blocks)}
    assert digest(got) == ORBIT_DIGESTS[case]


# (fiber case, vertex)
REFLECTIONS = {
    "A2-Q@1": ("A2-Q", 1),
    "A3-Q-v0-d0@2": ("A3-Q-v0-d0", 2),
    "D4-Q@3": ("D4-Q", 3),
    "A2-Qi@2": ("A2-Qi", 2),
}

REFLECT_DIGESTS = {
    "A2-Q@1": "5f32c22be450149b7fa6e992135763348c4e394b2d6b2d8133b156822d7e46c4",
    "A2-Qi@2": "f70fd7a5d9af3437ed0539548cc7c915d64b8915f221da1ede608a76453bd6b7",
    "A3-Q-v0-d0@2": "af3e33690feb040d84df13a69d4b6bcc6c4d22a75cb16c51e424639fe60d6430",
    "D4-Q@3": "55409c0f59b342982003506144fdada9dc4a183903f297cbe025816a17f19443",
}


@pytest.mark.parametrize("case", sorted(REFLECTIONS))
def test_reflect_point_pinned(case):
    fiber, vertex = REFLECTIONS[case]
    spec = FIBERS[fiber]
    s = sample(*spec)
    res = reflect_point(s, vertex, WeightVec(spec[3]))
    got = {
        "point": res.point.to_json(),
        "side": res.side,
        "lam": [str(c) for c in res.lam.coords],
        "section": dump_mat(res.section),
    }
    assert digest(got) == REFLECT_DIGESTS[case]


# the four REFLECTIONS cases again, forced to the cokernel side (a_i is
# injective at each)
COKERNEL_DIGESTS = {
    "A2-Q@1": "22dce0b1489ce65af740c9c68db336471f1956ea3293ecf813c4b4b308402e1b",
    "A2-Qi@2": "812dc4ed9fb8fdba6b45907bf29a663bfe896eeab57425a79a1c164307acdbbd",
    "A3-Q-v0-d0@2": "1cdfabea59d4ebe36b82a9b33245794a6af0b00e7d2aef296aa871265ab3179e",
    "D4-Q@3": "e38c2769360fb1fd6b0b62ac76015c0210eb1639786a7c326499eecf19cf9c55",
}


@pytest.mark.parametrize("case", sorted(REFLECTIONS))
def test_reflect_point_cokernel_pinned(case):
    fiber, vertex = REFLECTIONS[case]
    spec = FIBERS[fiber]
    s = sample(*spec)
    res = reflect_point(s, vertex, WeightVec(spec[3]), side="cokernel")
    got = {
        "point": res.point.to_json(),
        "side": res.side,
        "a_prime": dump_mat(res.a_prime),
        "b_prime": dump_mat(res.b_prime),
        "section": dump_mat(res.section),
    }
    assert digest(got) == COKERNEL_DIGESTS[case]


def embedded(name, d, v, seed, vertex):
    """A zero-level fiber point padded by one dimension at `vertex` (so b_i
    is not onto there) and moved by a random group element."""
    s = sample(name, d, v, (0,) * len(d), seed)
    coords = list(v)
    coords[s.quiver.vertex_index(vertex)] += 1
    big = j_embed(s, RootVec(tuple(coords)))
    g = random_group(s.quiver, big.dims, QQ, random.Random(seed + 1000))
    return group_act(g, big)


# (point builder, vertex): zero-level points on both branches of
# limit_project, b_i not onto and a_i not injective
LIMITS = {
    "A1-embedded": (lambda: embedded("A1", (2,), (1,), 4, 1), 1),
    "A1-delta-zero": (lambda: sample("A1", (1,), (1,), (0,), 2), 1),
    "A2-embedded@1": (lambda: embedded("A2", (2, 1), (1, 1), 3, 1), 1),
    "A2-F7-unframed@1": (lambda: sample(*FIBERS["A2-F7-unframed"]), 1),
    "A2-F7-unframed@2": (lambda: sample(*FIBERS["A2-F7-unframed"]), 2),
    "A3-Q-unframed@1": (lambda: sample(*FIBERS["A3-Q-unframed"]), 1),
    "A3-Q-unframed@2": (lambda: sample(*FIBERS["A3-Q-unframed"]), 2),
    "A3-Q-unframed@3": (lambda: sample(*FIBERS["A3-Q-unframed"]), 3),
    "A3-embedded@2": (lambda: embedded("A3", (1, 1, 1), (1, 1, 1), 9, 2), 2),
}

LIMIT_DIGESTS = {
    "A1-delta-zero": "dec55e56ea444918256d98f1f46b25dd805f238cf4919adc0d870a7f8790bb88",
    "A1-embedded": "2b7e92b6c1308280c8dfc5ee2740c7346019be8008e710089efbb42206838f4e",
    "A2-F7-unframed@1": "4be0fa895cdf18d27d29e7be103bc0a296e1ef2efa7d5e16484a0c3cb16cf761",
    "A2-F7-unframed@2": "f8661eb80d76cf90a2394756d4eec404f1de6c64dfbbc59c56a2079bfaba87b1",
    "A2-embedded@1": "d50e8f9be31923567ffd26783c42496739184d8ac1e68a4945d11d86f090c5fe",
    "A3-Q-unframed@1": "fe8a1885e2b69f91972f2c07d4950ecef29467cf18604fbe896bbc5f3d566e68",
    "A3-Q-unframed@2": "a658ab7e6f1d73cfe57eee407e21855ed69205fd402fd0011a02e89cdb640e14",
    "A3-Q-unframed@3": "a4642f5613c237425bbccece2c8e427a190d7bcc4f5c7ea23a3de984d49a9885",
    "A3-embedded@2": "67b541acdd5a96c50fa7d3b89695be8a4224e32c084a61d0f01ff0ea136c3b34",
}


@pytest.mark.parametrize("case", sorted(LIMITS))
def test_limit_project_pinned(case):
    build, vertex = LIMITS[case]
    assert digest(limit_project(build(), vertex).to_json()) == LIMIT_DIGESTS[case]


def random_columns(field, rng, count):
    """Independent column sets n x k (0 <= k <= n <= 5), about half their
    entries zero, so the completion skips some standard vectors."""
    out = []
    while len(out) < count:
        n = rng.randint(0, 5)
        k = rng.randint(0, n)
        data = [field.random(rng, 4) if rng.random() < 0.5 else field.zero()
                for _ in range(n * k)]
        cols = Mat(field, n, k, data)
        if rank(cols) == k:
            out.append(cols)
    return out


BASIS_FIELDS = {"Q": QQ, "Qi": QQI, "F7": PrimeField(7)}

BASIS_DIGESTS = {
    "F7": "609c3bfe4cec48a0156d4bcdaf25047e1048e154b9916de358a830c982be2ba9",
    "Q": "37516e5b22df0b28496d5fb78824ea062758935b4f21b41d2631b15c789318b3",
    "Qi": "fe0a6f1c3c3356459d20709bcee334dded4d6a3b185d3cfc43ce2def871fd905",
}


@pytest.mark.parametrize("case", sorted(BASIS_FIELDS))
def test_complete_to_basis_pinned(case):
    field = BASIS_FIELDS[case]
    rng = random.Random(31)
    got = [dump_mat(complete_to_basis(c)) for c in random_columns(field, rng, 40)]
    assert digest(got) == BASIS_DIGESTS[case]


def random_square(field, rng, count):
    """Square matrices n <= 6: random ones, and products through n - 1
    (singular), alternately."""
    out = []
    for k in range(count):
        n = rng.randint(0, 6)
        if k % 2 and n > 1:
            out.append(random_matrix(field, n, n - 1, rng, 9) * random_matrix(field, n - 1, n, rng, 9))
        else:
            out.append(random_matrix(field, n, n, rng, 9))
    return out


DET_FIELDS = {"F2": PrimeField(2), "F7": PrimeField(7), "F101": PrimeField(101),
              "F1000003": PrimeField(1000003), "Qi": QQI}

DET_DIGESTS = {
    "F101": "4201543b97df4da050ed31f96d8e65598587d5023019dd2b2201e5e372571148",
    "F1000003": "92ce30e37012b5c7dc11a1c1c06314c96dee71e53bae78b2e18e0ec183923705",
    "F2": "8c8023802d7772cff319d3196db5872693e494f3f84d0ba662c7d38f99a5788e",
    "F7": "2ab1b8662b61b203c3a61f8bafb8c40a641733dd6e2f88eb498ee4bad5441942",
    "Qi": "cb747a56810ee87fd9a84197c4d752006dc99ce256cfa7a53886213d0aba93bf",
}


@pytest.mark.parametrize("case", sorted(DET_FIELDS))
def test_det_pinned(case):
    field = DET_FIELDS[case]
    rng = random.Random(41)
    got = [field.dump(det(a)) for a in random_square(field, rng, 60)]
    assert digest(got) == DET_DIGESTS[case]


# (quiver, d, v, field, seed): FramedPoint.random draws the arrows in
# q.arrows order, then every gamma, then every delta
RANDOM_POINTS = {
    "A2-Q": ("A2", (2, 1), (1, 2), QQ, 1),
    "D4-Q-v0-d0": ("D4", (1, 0, 2, 1), (2, 1, 0, 1), QQ, 2),
    "unsorted-F7": ("unsorted", (1, 0, 2), (1, 2, 1), PrimeField(7), 3),
}

RANDOM_POINT_DIGESTS = {
    "A2-Q": "1f57dd95e25cded766e4390568ea8c3a8eeaafb5f485bd9ab4eaf35d1d4ebc4f",
    "D4-Q-v0-d0": "42d4287e5623fcd5fd298f0aad63a17111657d3bbf0da2489f601146c9673436",
    "unsorted-F7": "46c73bf1e5ac3e05c19fdb05f4a868cdfba2b36725f04f78ae7cd3d587c9cd20",
}


@pytest.mark.parametrize("case", sorted(RANDOM_POINTS))
def test_random_point_pinned(case):
    name, d, v, field, seed = RANDOM_POINTS[case]
    q = quiver(name)
    s = FramedPoint.random(q, DimData(WeightVec(d), RootVec(v)), field, random.Random(seed))
    assert digest(s.to_json()) == RANDOM_POINT_DIGESTS[case]


# util.MOMENT_POINTS: three random points per case, off the fiber
MOMENT_DIGESTS = {
    "A1-F7-v0": "82a48ac43e0bc24646a314ee986c447e41750f8cccc43dd9d407f4fb9a918a5a",
    "A1-Q": "d32c5c9aed1aa0cee801010a67d6c3bebb2dd1365ce26ecd6f7bd51c7d240065",
    "A2-F7-d0": "e3459f9c1eb6819afa9d3874331d5c04e376f90b5b8db316c17606d804dbba24",
    "A2-Qi": "b70aade1ab532c20152c7adc0a7827a1a968e0f3a710a0b79a6ece9c5255c74b",
    "A3-Q-v0-d0": "49938a19a717aedbdccee8887fae24eeb8a21abb021cc3d88080581529b59371",
    "A3-Qi-v0-d0": "9af8ee45101554b52bbe3fc648f94eb3963a9ced97939728ebda40dc8601f9cc",
    "D4-F7": "26edb38b85cfecddaa4abaecc881427d7b9ee42615d734e3806c183e8b2c9ee5",
    "D4-Q-v0-d0": "2fd7eec9eeadee8c257c869875a933864e3a75f91c96758c76da64da5f1b6d4f",
    "unsorted-F7": "2d9f588f2821443818e5b4eb1444b4556f3a8a67b0330267b7d9c09656db38b3",
    "unsorted-Q-v0-d0": "73b1858a2a8595b6c3eecbd2c3ee2a89380d9e8f9166ca2195a6ca237c67b26c",
    "unsorted-Qi": "32822a31fb0c32ddf090b8acc52a002fbd8aa101aa301a1a61b0baf45e093f25",
}

AB_DIGESTS = {
    "A1-F7-v0": "c1158655773e00771bf79dffc385a9d295c91b5bff9cac3d178352184cc1f427",
    "A1-Q": "197bf5edd6143dd20e1134ae1e5362146f1224851509a14e839ad32f7727399b",
    "A2-F7-d0": "1c34f201f7bd7c1a29e88e54bb5763254621d3a32848f057d692bd71ba940db0",
    "A2-Qi": "2f7edfed06354e85fa8e31e6a0f1a7de4a894a89402c400e6ca8ef3e5baab9ab",
    "A3-Q-v0-d0": "bb5cdc6ca92d68a0e19d003aa9cfc2f16edfbb4a945772e7fd42f65a4bfce776",
    "A3-Qi-v0-d0": "b2e0e8d05c6444c183f04a304be1073eff2348241f1962f884c2e4f33c13a655",
    "D4-F7": "f199860b8b366fbf443b47d4af42815e8d95401179d2ad13a3811ed55db3a5c5",
    "D4-Q-v0-d0": "7347c95b85c6ac4ea6a65be6ef3a7542969422512772572e33bb96863d0e8a5b",
    "unsorted-F7": "ee57a3186b84b8ce0af4b3e8c95d637705dbe27cf9a99e410958b9981c028637",
    "unsorted-Q-v0-d0": "6e1078e7b19abd2adba83c622a85c3ee6f9f4c3a66288c2e1fa4774adc2346da",
    "unsorted-Qi": "8500b7eb11beeaabdaf486c7af51d92a838c08633189503b825340cfe9fa0cda",
}


@pytest.mark.parametrize("case", sorted(MOMENT_POINTS))
def test_moment_map_pinned(case):
    got = [dump_blocks(moment_map(s)) for s in moment_points(case)]
    assert digest(got) == MOMENT_DIGESTS[case]


@pytest.mark.parametrize("case", sorted(MOMENT_POINTS))
def test_assemble_ab_pinned(case):
    got = []
    for s in moment_points(case):
        for vert in s.quiver.vertices:
            ab = assemble_ab(s, vert)
            got.append({"vertex": ab.vertex, "layout": ab.layout,
                        "a": dump_mat(ab.a), "b": dump_mat(ab.b)})
    assert digest(got) == AB_DIGESTS[case]


# (fiber case, seed): a random group element with framing blocks acting on
# a fiber point
FRAMED_ACTIONS = {
    "A3-Q-v0-d0": ("A3-Q-v0-d0", 4),
    "D4-Q": ("D4-Q", 5),
    "A3-F7-v0-d0": ("A3-F7-v0-d0", 6),
}

FRAMED_ACTION_DIGESTS = {
    "A3-F7-v0-d0": "743aab91e19316b0ad64c3afb65d99645badc205c3dabeacc5edc5309926e973",
    "A3-Q-v0-d0": "535d40cf4ba3ff72065cb28f11283e323cf7a4fbe35325c172cd5ab6d794220d",
    "D4-Q": "a6b643a7d803588443d181edd200930fe6207609b0ba3058cd726d8dff4579ca",
}


@pytest.mark.parametrize("case", sorted(FRAMED_ACTIONS))
def test_group_act_with_framing_pinned(case):
    fiber, seed = FRAMED_ACTIONS[case]
    s = sample(*FIBERS[fiber])
    q, dims, field = s.quiver, s.dims, s.field
    rng = random.Random(seed)
    blocks = {vert: random_invertible(field, dims.v_of(q, vert), rng, 5) for vert in q.vertices}
    framing = {vert: random_invertible(field, dims.d_of(q, vert), rng, 5) for vert in q.vertices}
    assert digest(group_act(GroupElement(blocks, framing), s).to_json()) == FRAMED_ACTION_DIGESTS[case]


# (quiver, d, v, lambda, p): whole stratum tables of the F_p point count
COUNTS = {
    "A2-zero": ("A2", (1, 1), (1, 1), (0, 0), 3),
    "A2-lambda": ("A2", (1, 1), (1, 1), (1, 2), 3),
    "A2-d0": ("A2", (1, 0), (1, 1), (0, 0), 5),
    "unsorted-zero": ("unsorted", (1, 0, 1), (1, 1, 1), (0, 0, 0), 2),
    "unsorted-lambda": ("unsorted", (1, 0, 1), (1, 1, 1), (1, 0, 1), 3),
}

COUNT_DIGESTS = {
    "A2-d0": "32ac10ab0a8fc116875b315a184eba936aeb5b2cd93ae221146fc4ab47943bfd",
    "A2-lambda": "6b8278c5eeb8adbd8305e086edf09e0cfbc76bfcaa3005be89d5113833375bc7",
    "A2-zero": "e9992b0478af215b90edc58742e5f5bc7d6e811289390567fcacd35f0a31f412",
    "unsorted-lambda": "0090ae398ca8cb64f9c297127ab37c9c8bdded13e4c6ad03c120ad61371b7bbf",
    "unsorted-zero": "bfea06ad95dbad3bf1be47372f757604387fa3f2366201a3778083cc94e60d70",
}


@pytest.mark.parametrize("case", sorted(COUNTS))
def test_count_points_pinned(case):
    name, d, v, lam, p = COUNTS[case]
    r = count_points_Fq(quiver(name), DimData(WeightVec(d), RootVec(v)), WeightVec(lam), p)
    got = {"p": r.p, "space_dimension": r.space_dimension, "total": r.total,
           "strata": [[list(vp), c] for vp, c in r.strata]}
    assert digest(got) == COUNT_DIGESTS[case]


# (quiver, d, v, field, seed, count): random chi-data using all four entry
# kinds (util.random_chi_data), a tenth of them unbalanced, each evaluated at
# a random point and validated against its weight, or one coordinate off it
COVARIANTS = {
    "A2-Q": ("A2", (1, 2), (1, 1), QQ, 21, 40),
    "A3-Q": ("A3", (1, 1, 1), (1, 2, 1), QQ, 22, 40),
    "A2-F7": ("A2", (1, 2), (1, 1), PrimeField(7), 23, 40),
    "A2-F101-v2": ("A2", (2, 1), (1, 2), PrimeField(101), 24, 40),
}

COVARIANT_DIGESTS = {
    "A2-F101-v2": "36574daa31c9d1bd1a381d8ecb0d42140f32d2b4672be17d4c2266859b60160a",
    "A2-F7": "a1ac3f65991dd1cacca65c42c9f8eeeb32e08ef5ee7d3de60aa5cf97877da772",
    "A2-Q": "3da9ed61f7b8bf27744449ddbb50c2289deb2a8c6d39ab4facdaa6d3509b190a",
    "A3-Q": "8926c540a6b1e1cdb980ab19f4d0116295b9ac6d1a0d0eceeec1f6d69aa7e5e9",
}


@pytest.mark.parametrize("case", sorted(COVARIANTS))
def test_covariant_pinned(case):
    name, d, v, field, seed, count = COVARIANTS[case]
    q = dynkin_quiver(name)
    dims = DimData(WeightVec(d), RootVec(v))
    rng = random.Random(seed)
    got = []
    for _ in range(count):
        chi = random_chi_data(q, dims, rng, balanced=rng.random() < 0.9)
        s = FramedPoint.random(q, dims, field, rng)
        m = list(chi.weight())
        if rng.random() < 0.2:
            m[rng.randrange(len(m))] += 1
        try:
            value = field.dump(eval_covariant(chi, s))
        except QuiverLabError as e:
            value = f"{type(e).__name__}: {e}"
        violations = validate_chi_data(chi, WeightVec(tuple(m)), dims, q)
        got.append({"chi": chi.to_json(), "value": value, "violations": violations})
    assert digest(got) == COVARIANT_DIGESTS[case]


def random_bordered_family(y_dims, x_dims, field, rng):
    """A block family with multiplicities 1 or 2, one border row and column
    space, border blocks at a random subset of the slots, and matching random
    phi, alpha and beta for eval_phi_ab; square when sum(y) == sum(x)."""
    def rand(rows, cols):
        return random_matrix(field, rows, cols, rng, 10)

    slots = [(i, j) for i in range(1, len(y_dims) + 1) for j in range(1, len(x_dims) + 1)]
    r = {slot: rng.randint(1, 2) for slot in slots}
    mats = {(i, j, qd): rand(y_dims[i - 1], x_dims[j - 1])
            for (i, j) in slots for qd in range(1, r[i, j] + 1)}
    border_in = {i: rand(y, 1) for i, y in enumerate(y_dims, 1) if rng.random() < 0.85}
    border_out = {j: rand(1, x) for j, x in enumerate(x_dims, 1) if rng.random() < 0.85}
    fam = BlockFamily(tuple(y_dims), tuple(x_dims), mats, r, 1, 1, border_in, border_out)
    phi = {slot: tuple(field.random(rng, 5) for _ in range(rng.randint(1, r[slot])))
           for slot in slots if rng.random() < 0.95}
    extra = rng.randint(0, 2)
    return fam, phi, rand(1, extra), rand(extra, 1)


# (y dims, x dims, field, seed): f_S for every contingency shape at three
# random families, and eval_phi_ab at three random bordered families
BLOCK_DETS = {
    "21x12-Q": ((2, 1), (1, 2), QQ, 31),
    "111x21-Q": ((1, 1, 1), (2, 1), QQ, 32),
    "2x11-F7": ((2,), (1, 1), PrimeField(7), 33),
}

BLOCK_DET_DIGESTS = {
    "111x21-Q": "dd5524ef0d47c675b7a86d7b1ae06694c3272f26fae8e5993b136c3276d23242",
    "21x12-Q": "7dd3d1116163550101a72a8ba382eca4ab31082c0a4241e09e1df0bc9269560a",
    "2x11-F7": "9423374860aa23b5da7636e916d92db9620b6f72939fbfb3f23dfc5bdc563cc1",
}


@pytest.mark.parametrize("case", sorted(BLOCK_DETS))
def test_block_determinants_pinned(case):
    y, x, field, seed = BLOCK_DETS[case]
    rng = random.Random(seed)
    shapes = enumerate_S_XY(y, x)
    got = []
    for _ in range(3):
        fam = random_block_family(y, x, rng, field)
        got.append([field.dump(eval_fS(sh, fam)) for sh in shapes])
        fam, phi, alpha, beta = random_bordered_family(y, x, field, rng)
        got.append(field.dump(eval_phi_ab(fam, phi, alpha, beta)))
    assert digest(got) == BLOCK_DET_DIGESTS[case]


# -- the Weyl-group layer -----------------------------------------------------

WEYL_QUIVERS = {
    "A1": dynkin_quiver("A1"),
    "A2": dynkin_quiver("A2"),
    "A3": dynkin_quiver("A3"),
    "D4": dynkin_quiver("D4"),
    "edgeless": doubled_quiver([1, 2], []),
    "kronecker": doubled_quiver([1, 2], [(1, 2), (1, 2)]),
}


def plain(x):
    """x as plain data: a record becomes the dict of its fields, a tuple or
    list the list of its items."""
    if hasattr(x, "_asdict"):
        x = x._asdict()
    elif hasattr(x, "__dict__"):
        x = vars(x)
    if isinstance(x, dict):
        return {k: plain(v) for k, v in x.items()}
    if isinstance(x, (tuple, list)):
        return [plain(v) for v in x]
    return x


def outcome(fn, *args, **kwargs):
    """fn's result as plain data, or the name and message of the
    QuiverLabError it raises."""
    try:
        return plain(fn(*args, **kwargs))
    except QuiverLabError as e:
        return f"{type(e).__name__}: {e}"


# (quiver, d, v, lambda, m): the full CoxeterReport at trials=3 for seeds 0
# and 5; the Kronecker braid check is skipped (a_12 = 2)
COXETERS = {
    "A1-lambda0-m": ("A1", (2,), (1,), (0,), (1,)),
    "A1-zero": ("A1", (2,), (1,), (0,), (0,)),
    "A2-generic": ("A2", (2, 2), (1, 1), (1, 1), None),
    "A2-nongeneric": ("A2", (2, 2), (1, 1), (1, -1), None),
    "A3": ("A3", (1, 0, 1), (1, 1, 1), (1, 2, 3), None),
    "D4": ("D4", (1, 0, 0, 1), (1, 1, 1, 2), (1, -1, 2, 1), None),
    "edgeless": ("edgeless", (2, 2), (1, 1), (1, 2), None),
    "kronecker": ("kronecker", (1, 1), (1, 1), (1, 1), None),
}

COXETER_DIGESTS = {
    "A1-lambda0-m": "d2b65d6d048ff4ed91eb047c9e36536455737e7f8b946242b51cfe7bd5bc287e",
    "A1-zero": "fd4cfbf4f9e3de5aa32b0b4618288e6efc32c23cbe35de8ef384e828115c5dcf",
    "A2-generic": "5d4a2bac926e30f77d29f1d33788283fccf0649a9b7cb4538b5e40b3022d076b",
    "A2-nongeneric": "f325d99545c1942dbaca0b674d2c4e221f01eb08cdc32ce0a6ff28bfb027f746",
    "A3": "1f4f29c466082e37932f54feee0dcd9151d61256c3efe1ec82cc6f64018eff05",
    "D4": "a09ba3624095b3aa2e23ffea89e50648b2014170aca087a0468b3fa193d9f349",
    "edgeless": "d2e4ed9fd6f38ff8b67654cc590477646d501fed095de65b4c7a774037dd29b0",
    "kronecker": "9af250bd5ddb3f4b57df08d7f3531f92565810563a8e8cdb0cd618d8daaa7582",
}


@pytest.mark.parametrize("case", sorted(COXETERS))
def test_check_coxeter_pinned(case):
    name, d, v, lam, m = COXETERS[case]
    got = [outcome(check_coxeter, WEYL_QUIVERS[name], WeightVec(d), RootVec(v), WeightVec(lam),
                   None if m is None else WeightVec(m), trials=3, seed=seed)
           for seed in (0, 5)]
    assert digest(got) == COXETER_DIGESTS[case]


# (quiver, m, v, d): genericity at every lambda in {0, 1, -1}^n in each mode,
# an unknown mode, and mode Gv without d; Gv and Hinf raise NotFiniteType
# on the Kronecker quiver
GENERICITY = {
    "A2": ("A2", (0, 0), (1, 1), (1, 1)),
    "A3": ("A3", (1, 0, 0), (1, 1, 1), (1, 0, 1)),
    "D4": ("D4", (0, 0, 0, 0), (1, 1, 1, 2), (1, 0, 0, 1)),
    "kronecker": ("kronecker", (0, 1), (1, 1), (1, 0)),
}

GENERICITY_DIGESTS = {
    "A2": "d0b4294a0902292185446d24231ca7e5bc3196e71006941409c1020d378cd334",
    "A3": "5f9635350187c0be2bedcdd0d4b482de3b32fb07398d82ef348e151b7a8796d3",
    "D4": "8b714d329d3ca8e3645a5265adcdcf315b06fb691e7e7273ff187500d47ad0d0",
    "kronecker": "cefdebd69ecd797561bc0613b75b7adaa6317d7da2f34ee8d87720450b965a28",
}


@pytest.mark.parametrize("case", sorted(GENERICITY))
def test_genericity_pinned(case):
    name, m, v, d = GENERICITY[case]
    q = WEYL_QUIVERS[name]
    got = []
    for lam in itertools.product((0, 1, -1), repeat=q.n):
        for mode, dd in [("Uv", d), ("UvTilde", d), ("Gv", d), ("Hinf", d), ("??", d),
                         ("Gv", None)]:
            got.append(outcome(genericity, q, WeightVec(m), WeightVec(lam), RootVec(v),
                               mode=mode, d=None if dd is None else WeightVec(dd)))
    assert digest(got) == GENERICITY_DIGESTS[case]


# (quiver, lambda, m): reduce_to_dominant at every d in {0, 1, 2}^n and v in
# {-1, ..., 2}^n; the "m-short" case raises on every input
REDUCTIONS = {
    "A2": ("A2", (1, 0), None),
    "A2-m": ("A2", (0, 1), (1, 2)),
    "A2-m-short": ("A2", (1, 1), (1,)),
    "A3-m": ("A3", (1, 0, -1), (0, 1, 1)),
}

REDUCTION_DIGESTS = {
    "A2": "e91ea9b8174e37b8989ffaee72df8d4962c1ddea17143dc69b6089f768f2f0b3",
    "A2-m": "2cecaad4cb1e6cb1d17e46a1a772d37bb2436d843abb9a0759204e63e8d9dfae",
    "A2-m-short": "6baba4fa42afe69ac55e986eb1630164c621b7b563e213c06ae8bbf5fde441d6",
    "A3-m": "9fa377fadabeb028121da4941cd140e02da27b0d0ca9c7e02afee284720e83c6",
}


@pytest.mark.parametrize("case", sorted(REDUCTIONS))
def test_reduce_to_dominant_pinned(case):
    name, lam, m = REDUCTIONS[case]
    q = WEYL_QUIVERS[name]
    got = [outcome(reduce_to_dominant, q, WeightVec(d), RootVec(v), WeightVec(lam),
                   None if m is None else WeightVec(m))
           for d in itertools.product(range(3), repeat=q.n)
           for v in itertools.product(range(-1, 3), repeat=q.n)]
    assert digest(got) == REDUCTION_DIGESTS[case]
