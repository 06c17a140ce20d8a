"""Tests for the labeled-graph censuses and partite distance."""

import hashlib
import math

import pytest

from cliquefree.enumeration import (
    PartiteCensus,
    _clique_masks,
    _mono_masks,
    partite_census,
)
from cliquefree.experiments import dump_json
from cliquefree.graphs import sample_graph
from cliquefree.rng import sub_seed

from oracles import (
    distance_to_partite_brute,
    edge_set,
    max_clique_size_in,
)


def _all_graphs(m):
    """Every labeled graph on m vertices as (mask, edge list)."""
    pairs = [(u, v) for v in range(m) for u in range(v)]
    for mask in range(1 << len(pairs)):
        yield mask, [p for t, p in enumerate(pairs) if (mask >> t) & 1]


def _brute_census(m, r):
    free = 0
    hist = {}
    for _, edges in _all_graphs(m):
        en = edge_set(m, edges)
        if max_clique_size_in(m, en, range(m)) >= r + 1:
            continue
        free += 1
        d = distance_to_partite_brute(m, en, r)
        hist[d] = hist.get(d, 0) + 1
    return free, hist


# -- full sweeps ---------------------------------------------------------------


@pytest.mark.parametrize("m,r", [(2, 2), (3, 2), (4, 2), (4, 3), (5, 3)])
def test_full_census_matches_bruteforce(m, r):
    got = partite_census(m, r)
    free, hist = _brute_census(m, r)
    assert got.mode == "full"
    assert got.total == 1 << (m * (m - 1) // 2)
    assert got.clique_free == free
    assert got.distance_histogram == hist


def test_full_census_known_triangle_free_counts():
    # labeled triangle-free graph counts for m = 2..7
    want = {2: 2, 3: 7, 4: 41, 5: 388, 6: 5789, 7: 133501}
    for m, count in want.items():
        got = partite_census(m, 2)
        assert got.clique_free == count, m


def test_full_census_bipartite_fractions():
    # every triangle-free graph on up to 4 vertices is bipartite; the
    # twelve labeled 5-cycles are the first non-bipartite ones
    assert partite_census(3, 2).exact_partite_fraction == 1.0
    assert partite_census(4, 2).exact_partite_fraction == 1.0
    c5 = partite_census(5, 2)
    assert c5.distance_histogram == {0: 376, 1: 12}
    assert c5.exact_partite_fraction == pytest.approx(376 / 388)


def test_full_census_caps():
    with pytest.raises(ValueError, match="full sweep"):
        partite_census(8, 2)
    with pytest.raises(ValueError, match="m >= 2"):
        partite_census(1, 2)
    with pytest.raises(ValueError, match="m >= 2"):
        partite_census(4, 1)


# -- sampled censuses -------------------------------------------------------------


def test_sampled_census_deterministic():
    a = partite_census(8, 2, sample_size=40, seed=9)
    b = partite_census(8, 2, sample_size=40, seed=9)
    c = partite_census(8, 2, sample_size=40, seed=10)
    assert a.mode == "sample" and a.total == 40 and a.seed == 9
    assert a.distance_histogram == b.distance_histogram
    assert a.clique_free == b.clique_free
    assert (a.clique_free, a.distance_histogram) != (c.clique_free, c.distance_histogram)


def test_sampled_census_matches_per_graph_computation():
    # replicate i uses the edge coins of sub_seed(seed, i), so the census
    # must agree with solving each sampled graph individually
    m, r, reps, seed = 7, 2, 25, 4
    free = 0
    hist = {}
    for i in range(reps):
        g = sample_graph(m, sub_seed(seed, i))
        en = edge_set(m, g.edges())
        if max_clique_size_in(m, en, range(m)) >= r + 1:
            continue
        free += 1
        d = distance_to_partite_brute(m, en, r)
        hist[d] = hist.get(d, 0) + 1
    got = partite_census(m, r, sample_size=reps, seed=seed)
    assert got.clique_free == free
    assert got.distance_histogram == hist


def test_sampled_census_caps():
    with pytest.raises(ValueError, match="sample_size"):
        partite_census(6, 2, sample_size=0)
    with pytest.raises(ValueError, match="sampling supports"):
        partite_census(12, 2, sample_size=5)
    with pytest.raises(ValueError, match="colorings"):
        partite_census(7, 15, sample_size=5)


def test_census_as_dict_and_nan_fraction():
    d = partite_census(4, 2).as_dict()
    assert d["clique_free"] == 41
    assert d["distance_histogram"]["0"] == 41
    assert d["mode"] == "full"
    empty = PartiteCensus(
        m=3, r=2, mode="sample", total=1, clique_free=0, distance_histogram={}
    )
    assert math.isnan(empty.exact_partite_fraction)


# -- byte-level goldens ----------------------------------------------------------
# sha256 digests recorded when the masks were still packed by a pure-Python
# loop over colorings and the samples drawn straight from the coin stream;
# they pin every census and every mask byte for byte.


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


FULL_GRID = [
    (m, r) for m in range(2, 8) for r in range(2, 5) if (m, r) not in ((7, 3), (7, 4))
]
SAMPLED_GRID = [
    (m, r, seed)
    for m in range(8, 12)
    for r in range(2, 5)
    if r ** (m - 1) <= 10 ** 6
    for seed in (3, 20261018)
]


def test_full_census_json_golden():
    text = "".join(dump_json(partite_census(m, r).as_dict()) for m, r in FULL_GRID)
    assert _digest(text.encode()) == (
        "e1e6dc6ef0b4686bfc7f68316369c86a3c818d84c2cf22117cbc9a0e36b19a8f"
    )


def test_sampled_census_json_golden():
    text = "".join(
        dump_json(partite_census(m, r, sample_size=200, seed=seed).as_dict())
        for m, r, seed in SAMPLED_GRID
    )
    assert _digest(text.encode()) == (
        "206ce9415192cedc696336a22c7b27e990e043ecd18ea0faf175dfa42a8e9af2"
    )


# (m, r, clique masks, coloring masks); r >= 256 needs labels wider than a byte
MASK_GOLDEN = [
    (2, 2,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
     "4cbbd8ca5215b8d161aec181a74b694f4e24b001d5b081dc0030ed797a8973e0"),
    (2, 3,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
     "32edb6022c0921d99aa347e9cda5dc2db413f5574eebaaa8592234308ffebd2b"),
    (2, 4,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
     "01d0fabd251fcbbe2b93b4b927b26ad2a1a99077152e45ded1e678afa45dbec5"),
    (3, 2,
     "aae89fc0f03e2959ae4d701a80cc3915918c950b159f6abb6c92c1433b1a8534",
     "f3b03540ec06fb9a1a9d98038b43da303c681de3e5cdc67762d1098e0309ccc4"),
    (3, 3,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
     "6307e39d799206d13c3cd7262e05bd3f0cd47247b4ffaba71ad5c9b30e321de7"),
    (3, 4,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
     "bc289262498ea9d2f6c635dbf0c973e6fb1d966642d80f285df8b731dde7d13c"),
    (4, 2,
     "34964a960e3ffd779d8275addd7b078c082d24a28d65802a3b0c0702e645619d",
     "fc6cc40fabf06b4533fa5a94611b8ab2a42d802c531158a188ce2b57a64cda63"),
    (4, 3,
     "8250ab532e40d24a67c08f58e0cd1d76cef63a045599ae5dc9279472cada42dd",
     "6ea720df9f6a907d70ebdc7e3925b05de14bf10bc01696af7bb71de2fb71c5af"),
    (4, 4,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
     "c2d0d1874e434f2168cd7ee870689f69429cfffacf8c3602fe72b07261a33ad1"),
    (5, 2,
     "1076e592c280bc4970ff99ed3957bd77282681dc54c4dceb05c67faf04dcf090",
     "5ff93c10ed4254575f59f8b30c98ab300fe63b9950299d107d3294ef52048d2d"),
    (5, 3,
     "859df9fd322af0f0e82aac44c9ccb00fd50330de979273fe72836d9636fc5098",
     "bbd6d3ada4ef0789e047adc16f377ab03b2aaf4a2d3e3bd53035485bae3fe5f4"),
    (5, 4,
     "5ce0fabd6443e12efeb4a11a2be63dafeafcb069702562729672c1ef7449a55a",
     "054aebca86eb67b5cef20d3057344b085f94a1f0217bba5d3a1900a807f30b38"),
    (6, 2,
     "cdac685686f9ba1dcaec8b65f68831876fc124901497419d7436a007d644d7aa",
     "4b45837fb3f43a3718a781a5e05b7b1163d120a778eca7df123fb0a2df54adc0"),
    (6, 3,
     "a3a2f443ab8c116b7600b57fcdde792ae38ca669a0482786df76afed3abdea3c",
     "fda68bfba22012cd13ddee9773f71ed36f8596f3c1478bea7ca0098d28178d39"),
    (6, 4,
     "0066440997ab100df6c78991b464826b5259ed9d9e56d5a410fe0ac7f2498bbb",
     "13a9bf3116afca4232127ee6d2827acf30c04459936ad58c1d0738996e7f75f1"),
    (7, 2,
     "dec8fa136fb4088894f98d2ac75cc1c55573221cf31a1760da30b9b3cac1447a",
     "bc5b6da0b83e2dc5c46a2bb07b6eaa1cfc39b08e167b45429467137a72335d1d"),
    (7, 3,
     "631eda7f45fb1afc19c28a20687b5a5298babbe27d3bb1ccb7aa90bb7c785a8d",
     "5df39affa7564db4fd0d2e669aed73d650918aaf73dac743f6e5f904e964d57e"),
    (7, 4,
     "ef7adf21cbdcb7f0b9db869f56bcb37e99dcae7dae2b26524ff1b787745add45",
     "ef20946753cbbc91f35f014a2d559f424db19930a2947f3a9b45f48bc2bb354a"),
    (8, 2,
     "7faa14a010307e011b7c01e3f2f6bd1496b6fa589a00a2134ef9909687a975a3",
     "82aaa0e77c97f294ea39826fe6ce2449ec8807defd967bb832fac39d3b4d2f83"),
    (8, 3,
     "23a4412b95972aaf0cae9ea7fdc0772d0bbf9eddcfcaa9438060dd8d610cbb18",
     "fdd0ae3a5eb779f00ae4a275f890623690f47d5a1268ee558a159ab392dccc9d"),
    (8, 4,
     "99a9f8572a753d8e8ec5ef9f38b3d79aedf801885afc265ce6d4cab2524906f1",
     "d4cd5c5eafb1f21fcea90214b91a9a7f464230c527dbcf74dbdcb66f4ab4786d"),
    (9, 2,
     "e66894f90a6fd235d7ae4bed0170444fb139db7667f4c8eb900e92defc375876",
     "5c4cbb3ccbe33abb150cff800574bee261b52663008735a7fa15dbbfe57455b9"),
    (9, 3,
     "0a92a50f8950fb5aa7b97356e52b806651bbc043b158d8f3517d1bf351016707",
     "773a6b3c8910c4221c7f8d30ddab172fe2886b3fb9fa04b47ccdc04210574f03"),
    (9, 4,
     "50c29f7c38be0e70f597aafe09468e05f24119914f0b843a6c3151b4cd4cf8b8",
     "52f0ee8ac59bc3792233d1db8d6cd19574ed572a976b3790916e356df2a9405b"),
    (2, 1000,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
     "c8a54ca48fd4a71ee99828705973d3554e4cbcccd97e60266547c08c4b591b6f"),
    (3, 300,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
     "8ce6bc338a5e6fd2388734cbfd597a60898c555368597f8eca6e29fe3cbaac89"),
    (4, 150,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
     "43aa7c0210f378fd9970e483b3efd5bb1666162a99d44b29231ffbc1d37ab8de"),
    (3, 2000,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
     "4b708c4391ae0771876b6d3dae83cf4ceee5029deb643ac5cfe99e5294702239"),
]


def test_mask_golden():
    got = [
        (m, r, _digest(_clique_masks(m, r).tobytes()),
         _digest(_mono_masks(m, r).tobytes()))
        for m, r, _, _ in MASK_GOLDEN
    ]
    assert got == MASK_GOLDEN
