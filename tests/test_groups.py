"""Product groups, element indexing, bitmap sets, and RLE serialization."""

import numpy as np
import pytest

from chroma.groups import (
    CrtSplit,
    ElementSet,
    make_group,
    parse_group_literal,
)


def test_index_coords_roundtrip_exhaustive():
    g = make_group([4, 9, 25])
    assert g.order == 900
    idx = np.arange(g.order)
    coords = g.indices_to_coords(idx)
    assert coords.shape == (g.order, 3)
    # row-major: the last factor varies fastest
    want = [(a, b, c) for a in range(4) for b in range(9) for c in range(25)]
    assert [tuple(row) for row in coords.tolist()] == want
    assert np.array_equal(g.coords_to_indices(coords), idx)
    # coordinates are reduced modulo their factor on the way in
    assert np.array_equal(g.coords_to_indices(coords + [4, -9, 50]), idx)


def test_crt_split_is_additive_bijection():
    split = CrtSplit(105, (3, 5, 7))
    seen = set()
    for x in range(105):
        coords = split.to_coords(x)
        assert split.to_scalar(coords) == x
        seen.add(tuple(coords))
    assert len(seen) == 105
    # homomorphism: splitting commutes with addition
    for x in range(0, 105, 11):
        for y in range(0, 105, 13):
            cx, cy = split.to_coords(x), split.to_coords(y)
            s = [(a + b) % m for a, b, m in zip(cx, cy, (3, 5, 7))]
            assert split.to_scalar(s) == (x + y) % 105


def test_literal_roundtrip():
    for text, moduli in [
        ("Z(7)", (7,)),
        ("Z(3)^4", (3, 3, 3, 3)),
        ("Z(2)xZ(3)", (2, 3)),
        ("Z(15015)", (15015,)),
    ]:
        g = parse_group_literal(text)
        assert g.moduli == moduli
        assert parse_group_literal(g.literal) == g


def test_literal_rejects_garbage():
    for bad in ["", "Z7", "Z(0)", "Z(3)^", "Q(5)", "Z(3)+Z(4)", "Zm(15015)"]:
        with pytest.raises(ValueError):
            parse_group_literal(bad)


def test_element_set_algebra_matches_python_sets(rng):
    g = make_group([360])
    for _ in range(25):
        a_idx = set(map(int, rng.integers(0, 360, size=40)))
        b_idx = set(map(int, rng.integers(0, 360, size=40)))
        a = ElementSet.from_indices(g, sorted(a_idx))
        b = ElementSet.from_indices(g, sorted(b_idx))
        assert set(a.indices().tolist()) == a_idx
        assert a.count == len(a_idx)
        assert set(a.union(b).indices().tolist()) == (a_idx | b_idx)
        assert set(a.intersection(b).indices().tolist()) == (a_idx & b_idx)
        assert set(a.negated().indices().tolist()) == {(-x) % 360 for x in a_idx}
        sym = a.symmetrized_without_zero()
        assert set(sym.indices().tolist()) == (
            (a_idx | {(-x) % 360 for x in a_idx}) - {0}
        )


def test_element_sets_are_read_only(tmp_path):
    g = make_group([10])
    bits = np.zeros(g.order, dtype=bool)
    bits[[3, 7]] = True
    s = ElementSet(g, bits)
    bits[3] = False                 # the constructor copied its input
    assert s.indices().tolist() == [3, 7]
    t = ElementSet.from_indices(g, [1, 3])
    s.save(tmp_path / "s.rle")
    built = {
        "constructor": s,
        "from_indices": t,
        "from_rle_text": ElementSet.from_rle_text(s.to_rle_text()),
        "load": ElementSet.load(tmp_path / "s.rle"),
        "union": s.union(t),
        "intersection": s.intersection(t),
        "negated": s.negated(),
        "symmetrized_without_zero": s.symmetrized_without_zero(),
    }
    for name, eset in built.items():
        before = eset.indices().tolist()
        with pytest.raises(ValueError, match="read-only"):
            eset.mask()[0] = True
        with pytest.raises(ValueError, match="read-only"):
            eset.mask()[before] = False
        assert eset.indices().tolist() == before, name
    assert s.indices().tolist() == [3, 7] and t.indices().tolist() == [1, 3]


def test_rle_roundtrip_various_shapes(rng):
    g = make_group([3, 5, 7])
    cases = [
        ElementSet(g, np.zeros(g.order, dtype=bool)),
        ElementSet(g, np.ones(g.order, dtype=bool)),
        ElementSet.from_indices(g, [0]),
        ElementSet.from_indices(g, [g.order - 1]),
        ElementSet.from_indices(g, sorted(set(map(int, rng.integers(0, g.order, 40))))),
    ]
    for s in cases:
        back = ElementSet.from_rle_text(s.to_rle_text())
        assert back == s


def oracle_rle_runs(bits):
    """value:length runs of a bitmap, walked one bit at a time."""
    runs = []
    for b in map(int, bits):
        if runs and runs[-1][0] == b:
            runs[-1][1] += 1
        else:
            runs.append([b, 1])
    return " ".join(f"{v}:{n}" for v, n in runs)


@pytest.mark.parametrize("moduli", [(2,), (97,), (3, 5, 7), (1009,)])
def test_rle_text_matches_run_oracle(moduli, rng):
    g = make_group(moduli)
    masks = [np.zeros(g.order, dtype=bool), np.ones(g.order, dtype=bool)]
    masks += [rng.random(g.order) < density for density in (0.05, 0.5, 0.95)]
    for mask in masks:
        s = ElementSet(g, mask)
        text = s.to_rle_text()
        assert text == f"BITS1 {g.literal}\n{oracle_rle_runs(mask)}\n"
        assert ElementSet.from_rle_text(text) == s


def test_rle_file_roundtrip(tmp_path):
    g = parse_group_literal("Z(11)xZ(13)")
    s = ElementSet.from_indices(g, [0, 1, 2, 50, 51, 142])
    path = tmp_path / "set.rle"
    s.save(path)
    assert ElementSet.load(path) == s
    # header is human-readable and self-describing
    assert open(path).readline().startswith("BITS1 ")


def test_rle_rejects_malformed():
    with pytest.raises(ValueError):
        ElementSet.from_rle_text("")
    with pytest.raises(ValueError):
        ElementSet.from_rle_text("NOPE Z(4)\n1:4\n")
    with pytest.raises(ValueError):
        ElementSet.from_rle_text("BITS1 Z(4)\n1:3\n")  # covers 3 of 4
    with pytest.raises(ValueError):
        ElementSet.from_rle_text("BITS1 Z(4)\n1:5\n")  # runs overflow
    with pytest.raises(ValueError):
        ElementSet.from_rle_text("BITS1 Z(4)\n2:4\n")  # bad bit value
