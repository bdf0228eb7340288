"""Gosset generators against independent oracles, duals, abelianization."""

import hashlib
import json
import pickle
import tracemalloc
from itertools import combinations, product
from typing import Dict, FrozenSet, Iterable, List, Sequence, Tuple

import numpy as np
import pytest
from scipy.spatial import ConvexHull

from cuspforge import PipelineConfig, pipeline, polytopes, run_pipeline
from cuspforge import lattice as lattice_module
from cuspforge.cli import main
from cuspforge.errors import ValidationError
from cuspforge.lattice import IDEAL, REAL, FaceLattice
from cuspforge.polytopes import (
    _E_ROOTS_2X,
    _WEIGHT_NODES,
    CROSS,
    SIMPLEX,
    _dot,
    _fundamental_weight_vector,
    abelianization_rank,
    gosset,
    ideal_dual,
    ideal_polytope_from_lattice,
    ingest_gosset,
    racg_data,
)

from dense_oracles import (
    FaceLatticeOracle, antipodal_pairs, facet_vertex_sets, facets_by_maximization, fundamental_weight_oracle,
    graded_faces, lattice_check_oracle, orbit_facet_data, orbit_per_round_oracle, simplex_lattice,
    validate_links_oracle, weyl_orbit,
)


def hull_facets(points):
    """Facet vertex sets from qhull, merging simplices on one hyperplane."""
    pts = np.asarray(points, dtype=float)
    hull = ConvexHull(pts)
    groups = {}
    for simplex, eq in zip(hull.simplices, hull.equations):
        key = tuple(np.round(eq, 6))
        groups.setdefault(key, set()).update(int(i) for i in simplex)
    return sorted(sorted(g) for g in groups.values())


def test_prism_matches_hull_oracle():
    G = gosset(3)
    assert hull_facets(G.vertex_coordinates) == sorted(
        sorted(f) for f in facet_vertex_sets(G)
    )
    assert sorted(G.facet_types) == [CROSS] * 3 + [SIMPLEX] * 2


def test_rectified_simplex_matches_hull_oracle():
    G = gosset(4)
    assert hull_facets(np.array(G.vertex_coordinates)[:, :4]) == sorted(
        sorted(f) for f in facet_vertex_sets(G)
    )
    assert G.facet_types.count(SIMPLEX) == 5
    assert G.facet_types.count(CROSS) == 5


def test_demicube_matches_hull_oracle():
    G = gosset(5)
    assert hull_facets(G.vertex_coordinates) == sorted(
        sorted(f) for f in facet_vertex_sets(G)
    )
    assert G.facet_types.count(SIMPLEX) == 16
    assert G.facet_types.count(CROSS) == 10


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_facet_sizes_and_ideal_links(n):
    G = gosset(n)
    for fv, kind in zip(facet_vertex_sets(G), G.facet_types):
        assert len(fv) == (n if kind == SIMPLEX else 2 * (n - 1))
    P = ideal_dual(G)
    for v in P.ideal_vertices:
        assert len(v) == 2 * (n - 1)
        pairs = P.axes_of(v)
        assert len(pairs) == n - 1


@pytest.mark.parametrize("n", [3, 4, 5])
def test_fvector_symmetry_between_g_and_p(n):
    G = gosset(n)
    P = ideal_dual(G)
    gf = G.lattice.f_vector()
    pf = P.lattice.f_vector()
    assert pf == tuple(reversed(gf))
    assert pf[-1] == G.num_vertices
    assert gf[-1] == len(P.lattice.faces_of_rank(0))


def test_dual_reconstructs_gosset_facets():
    G = gosset(4)
    P = ideal_dual(G)
    # vertices of P, read back as vertex sets over the facets of P,
    # are exactly the facets of G
    recovered = sorted(sorted(s) for s in P.lattice.faces_of_rank(0))
    assert recovered == sorted(sorted(f) for f in facet_vertex_sets(G))


def test_abelianization_ranks():
    assert abelianization_rank(racg_data(ideal_dual(gosset(3)))) == 6
    cube_like = racg_data(ideal_dual(gosset(4)))
    assert abelianization_rank(cube_like) == 10


def test_lattice_property_spot_checks():
    assert lattice_check_oracle(gosset(3).lattice)
    assert lattice_check_oracle(gosset(4).lattice)
    assert lattice_check_oracle(gosset(5).lattice, max_pairs=4000)


def _face_counts(lattice):
    # the f-vector of a complete lattice; rank counts of a partial one
    return tuple(sum(1 for k, _ in lattice.faces if k == r) for r in range(lattice.rank))


@pytest.mark.parametrize("n, passes", [(4, 1), (8, 2)], ids=["4", "8"])
def test_ingestion_roundtrip(tmp_path, monkeypatch, n, passes):
    # serialization forgets vertex ids, so ingestion re-canonicalizes:
    # invariants survive, and the JSON reaches a fixed point after one
    # pass for G^4 and two for G^8 (vertex and facet orders settle in turn)
    G = gosset(n)
    text = G.lattice.to_json()
    H = ingest_gosset(text, n)
    assert sorted(H.facet_types) == sorted(G.facet_types)
    assert _face_counts(H.lattice) == _face_counts(G.lattice)
    assert H.lattice.is_complete() == G.lattice.is_complete() == (n <= 6)
    canonical = H.lattice.to_json()
    for _ in range(passes - 1):
        canonical = ingest_gosset(canonical, n).lattice.to_json()
    assert ingest_gosset(canonical, n).lattice.to_json() == canonical
    # via the data directory hook
    path = tmp_path / f"gosset{n}.json"
    path.write_text(text)
    monkeypatch.setenv("CUSPFORGE_DATA", str(tmp_path))
    H2 = gosset(n)
    assert sorted(H2.facet_types) == sorted(G.facet_types)
    assert _face_counts(H2.lattice) == _face_counts(G.lattice)


def test_ingestion_rejects_wrong_rank():
    with pytest.raises(ValidationError):
        ingest_gosset(gosset(3).lattice.to_json(), 4)


def test_gosset_range_errors():
    with pytest.raises(ValidationError):
        gosset(2)
    with pytest.raises(ValidationError):
        gosset(9)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_builtin_gosset_honours_a_partial_lattice(n):
    partial, full = gosset(n, full_lattice=False), gosset(n)
    assert full.lattice.is_complete() and gosset(n, full_lattice=True).lattice == full.lattice
    assert partial.lattice.ranks_present() == [0, n - 1]  # vertices and facets only
    for k in (0, n - 1):
        assert partial.lattice.faces_of_rank(k) == full.lattice.faces_of_rank(k)
    assert ideal_dual(partial).ideal_vertices == ideal_dual(full).ideal_vertices


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 8])
def test_ideal_polytope_from_lattice_matches_generator(n):
    P = ideal_dual(gosset(n))
    assert ideal_polytope_from_lattice(P.lattice) == P


@pytest.mark.parametrize("n,full", [(3, None), (4, None), (5, None), (6, None), (7, True)])
def test_dual_vertex_links_pass_the_link_oracle(n, full):
    P = ideal_dual(gosset(n, full_lattice=full))
    validate_links_oracle(P.lattice, set(P.ideal_vertices))
    assert ideal_polytope_from_lattice(P.lattice) == P


def test_e6_orbit_generator_structure():
    G = gosset(6)
    assert G.num_vertices == 27
    assert G.facet_types.count(CROSS) == 27
    assert G.facet_types.count(SIMPLEX) == 72
    assert G.lattice.euler_characteristic() == 1 - (-1) ** 6
    P = ideal_dual(G)
    assert len(P.ideal_vertices) == 27
    assert all(len(v) == 10 for v in P.ideal_vertices)


def test_e7_orbit_generator_structure():
    G = gosset(7)
    assert G.num_vertices == 56
    assert G.facet_types.count(SIMPLEX) == 576
    assert G.facet_types.count(CROSS) == 126
    P = ideal_dual(G)
    assert len(P.ideal_vertices) == 126
    assert P.num_facets == 56


# sha256 of ideal_dual(gosset(7, full_lattice=True)): its lattice JSON, the
# JSON of its sorted ideal vertices and axes, and of the commuting pairs of
# its reflection group (the facet adjacency)
E7_FULL_DUAL_SHA256 = {
    "lattice": "3c413bb8a8bdc1ec17067cdaee800476e440864029f34fc1de811ffb693379fb",
    "ideal_vertices": "fc7d5c5fe050b7693ce79c331251d2c6ec183dfdf1cb98d474b583627cfb76aa",
    "axes": "7b48da1443d639c267a2e8815f68291d293d1752c9d1fbcccb70c88107f8a754",
    "facet_adjacency": "5870146564fec0a6e23cfe3984f7cc2fedb4944b3e3ca60ec433a48476e168cc",
}


def test_ideal_dual_of_the_full_e7_lattice_keeps_its_output():
    P = ideal_dual(gosset(7, full_lattice=True))
    docs = {
        "lattice": P.lattice.to_json(),
        "ideal_vertices": json.dumps([sorted(v) for v in P.ideal_vertices]),
        "axes": json.dumps(sorted([sorted(v), [list(p) for p in a]] for v, a in P.axes.items())),
        "facet_adjacency": json.dumps(sorted(sorted(s) for s in racg_data(P).commuting_pairs)),
    }
    assert {k: hashlib.sha256(v.encode()).hexdigest() for k, v in docs.items()} == E7_FULL_DUAL_SHA256


def test_e7_full_lattice():
    G = gosset(7, full_lattice=True)
    assert G.lattice.f_vector() == (56, 756, 4032, 10080, 12096, 6048, 702)
    assert all(d == len(v) - 1 for v, d in graded_faces(G) if d < 6)


# Set-based assembly checks, the scalar orbit closure and the face
# closure by intersection, kept as oracles for the array versions in
# cuspforge.polytopes.


def _antipodal_oracle(
    facet_vertex_sets: Sequence[FrozenSet[int]],
    facet_types: Sequence[str],
    num_vertices: int,
) -> List[Tuple[Tuple[int, int], ...]]:
    """Diagonals of each cross facet: vertex pairs whose only common facet
    is that facet.  Validates the perfect-matching (cube-dual) structure."""
    at: List[set] = [set() for _ in range(num_vertices)]
    for i, fv in enumerate(facet_vertex_sets):
        for v in fv:
            at[v].add(i)
    out: List[Tuple[Tuple[int, int], ...]] = []
    for i, (fv, kind) in enumerate(zip(facet_vertex_sets, facet_types)):
        if kind != CROSS:
            out.append(())
            continue
        partner: Dict[int, int] = {}
        pairs = []
        for v, w in combinations(sorted(fv), 2):
            common = len(at[v] & at[w])
            if common < 1:
                raise ValidationError("cross facet vertices share no facet")
            if common == 1:
                if v in partner or w in partner:
                    raise ValidationError(f"facet {i}: vertex in two antipodal pairs")
                partner[v] = w
                partner[w] = v
                pairs.append((v, w))
        if len(partner) != len(fv):
            raise ValidationError(f"facet {i}: antipodal pairs do not form a matching")
        out.append(tuple(sorted(pairs)))
    return out


def _ridge_oracle(
    n: int,
    facet_vertex_sets: Sequence[FrozenSet[int]],
    facet_types: Sequence[str],
    antipodal: Sequence[Tuple[Tuple[int, int], ...]],
) -> int:
    """Every ridge of every facet must be shared by exactly two facets.

    This is the completeness oracle for the facet list: a missing facet
    would leave some ridge covered once.  Returns the ridge count.
    """
    count: Dict[FrozenSet[int], int] = {}
    for i, (fv, kind) in enumerate(zip(facet_vertex_sets, facet_types)):
        if kind == SIMPLEX:
            for v in fv:
                r = fv - {v}
                count[r] = count.get(r, 0) + 1
        else:
            for ridge in product(*antipodal[i]):
                r = frozenset(ridge)
                count[r] = count.get(r, 0) + 1
    bad = [r for r, c in count.items() if c != 2]
    if bad:
        raise ValidationError(f"{len(bad)} ridges not shared by exactly two facets")
    return len(count)


def _orbit_oracle(start: Tuple[int, ...], roots: Sequence[Tuple[int, ...]]) -> List[Tuple[int, ...]]:
    """Orbit of a vector under the simple reflections, by closure."""
    seen = {start}
    frontier = [start]
    while frontier:
        nxt = []
        for x in frontier:
            for a in roots:
                d = _dot(x, a)
                if d % 4:
                    raise ValidationError("orbit vector left the reflection lattice")
                if d == 0:
                    continue
                q = d // 4
                y = tuple(x[t] - q * a[t] for t in range(8))
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    return sorted(seen)


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
def test_bitset_assembly_checks_match_set_oracles(n):
    G = gosset(n)
    fv, types = facet_vertex_sets(G), G.facet_types
    rows = polytopes._antipodal_pairs(G.simplex_rows, G.cross_rows, G.cross)
    pairs = [()] * len(types)
    for i, p in zip(np.flatnonzero(G.cross).tolist(), rows.tolist()):
        pairs[i] = tuple(map(tuple, p))
    assert pairs == _antipodal_oracle(fv, types, G.num_vertices)
    assert tuple(pairs) == antipodal_pairs(G)
    assert polytopes._ridge_check(G.simplex_rows, rows) == _ridge_oracle(n, fv, types, pairs)


@pytest.mark.parametrize("n", [6, 7, 8])
def test_vectorised_orbit_matches_scalar_closure(n):
    roots = _E_ROOTS_2X[:n]
    for node in _WEIGHT_NODES[n]:
        start = _fundamental_weight_vector(roots, node)
        orbit = weyl_orbit(start, roots)
        assert orbit == _orbit_oracle(start, roots)
        assert all(type(x) is int for x in orbit[0])
        X, _ = polytopes._orbit(start, np.array(roots))
        assert len(np.unique(X, axis=0)) == len(X)  # each vector listed once


@pytest.mark.parametrize("n", [6, 7, 8])
def test_integer_fundamental_weights_match_the_fraction_solve(n):
    for node in range(1, n + 1):
        assert _fundamental_weight_vector(_E_ROOTS_2X[:n], node) == fundamental_weight_oracle(_E_ROOTS_2X[:n], node)


@pytest.mark.parametrize("n", [6, 7])
def test_carried_facet_rows_match_the_maximization_route(n):
    """Each normal's carried row, sorted, is the vertex set maximizing it."""
    roots = _E_ROOTS_2X[:n]
    R = np.array(roots)
    v_node, c_node, s_node = _WEIGHT_NODES[n]
    V, _ = polytopes._orbit(_fundamental_weight_vector(roots, v_node), R)
    perms = polytopes._reflection_perms(V, R)
    for node, width in ((c_node, 2 * (n - 1)), (s_node, n)):
        normal = _fundamental_weight_vector(roots, node)
        height = V @ np.array(normal)
        normals, rows = polytopes._orbit(normal, R, np.flatnonzero(height == height.max()), perms)
        assert rows.shape[1] == width
        facets = facets_by_maximization(list(map(tuple, V.tolist())), list(map(tuple, normals.tolist())))
        assert np.sort(rows, axis=1).tolist() == [sorted(f) for f in facets]


def test_orbit_start_off_the_dominant_chamber_is_refused():
    # s_8 applied to the dominant weight omega_8 = (0, 0, 0, 0, 0, 0, 2, 2)
    start = (0, 0, 0, 0, 0, 2, 0, 2)
    assert [_dot(start, a) for a in _E_ROOTS_2X][-2:] == [4, -4]
    with pytest.raises(ValidationError, match="^orbit start is not dominant$"):
        weyl_orbit(start, _E_ROOTS_2X)


def test_orbit_off_the_reflection_lattice_is_refused():
    start = (1, 0, 0, 0, 0, 0, 0, 0)
    for closure in (weyl_orbit, _orbit_oracle):
        with pytest.raises(ValidationError, match="orbit vector left the reflection lattice"):
            closure(start, _E_ROOTS_2X)


def test_orbit_keys_refuse_entries_past_int64():
    # 2 * 200 + 1 = 401 and 401^8 > 2^63: keys would collide
    with pytest.raises(ValidationError, match="^orbit vector too long for int64 keys$"):
        weyl_orbit((200, 0, 0, 0, 0, 0, 0, 0), _E_ROOTS_2X)


def test_orbit_root_set_off_the_reflection_lattice_is_refused():
    # (2, 2, 0, ...) halved has products -2 with its neighbours, but every
    # product with the dominant start omega_8 is still a multiple of 4, so
    # only the Gram check before the first round sees it
    roots = list(_E_ROOTS_2X)
    roots[1] = (1, 1, 0, 0, 0, 0, 0, 0)
    start = (0, 0, 0, 0, 0, 0, 2, 2)
    assert all(_dot(start, a) % 4 == 0 and _dot(start, a) >= 0 for a in roots)
    with pytest.raises(ValidationError, match="^orbit vector left the reflection lattice$"):
        weyl_orbit(start, roots)


@pytest.mark.parametrize("n", [6, 7, 8])
def test_orbit_reuses_exact_root_products(n):
    """Each round's products, read off the parents', are X @ R.T, and the
    orbit and its carried rows are the per-round recomputation's."""
    roots = _E_ROOTS_2X[:n]
    R = np.array(roots)
    V, _ = polytopes._orbit(_fundamental_weight_vector(roots, _WEIGHT_NODES[n][0]), R)
    perms = polytopes._reflection_perms(V, R)
    for node in _WEIGHT_NODES[n]:
        start = _fundamental_weight_vector(roots, node)
        height = V @ np.array(start)
        seed = np.flatnonzero(height == height.max())
        sizes = []
        for X, rows, D in polytopes._orbit_rounds(start, R, seed, perms):
            assert np.array_equal(D, X @ R.T) and len(rows) == len(X)
            sizes.append(len(X))
        X, rows = polytopes._orbit(start, R, seed, perms)
        assert sum(sizes) == len(X)
        want_X, want_rows = orbit_per_round_oracle(start, R, seed, perms)
        assert np.array_equal(X, want_X) and np.array_equal(rows, want_rows)


def faces_from_facet_vertex_sets(
    facet_vertex_sets: Sequence[Iterable[int]],
) -> List[Tuple[FrozenSet[int], int]]:
    """All faces of a polytope from its facet vertex sets, with dimensions.

    Faces are generated by closing under intersection with facets;
    dimensions are graded by longest chains from the vertices upward.
    """
    facets = [frozenset(f) for f in facet_vertex_sets]
    store = set(facets)
    frontier = list(facets)
    while frontier:
        nxt = []
        for face in frontier:
            for f in facets:
                c = face & f
                if c and c != face and c not in store:
                    store.add(c)
                    nxt.append(c)
        frontier = nxt
    dim: Dict[FrozenSet[int], int] = {}
    for face in sorted(store, key=lambda s: (len(s), tuple(sorted(s)))):
        children = []
        for f in facets:
            c = face & f
            if c and c != face and c in store:
                children.append(c)
        maximal = [c for c in children if not any(c < d for d in children)]
        if not maximal:
            if len(face) != 1:
                raise ValidationError(f"minimal face {sorted(face)} is not a vertex")
            dim[face] = 0
        else:
            ds = {dim[c] for c in maximal}
            if len(ds) != 1:
                raise ValidationError("face poset is not graded")
            dim[face] = ds.pop() + 1
    return sorted(dim.items(), key=lambda kv: (kv[1], tuple(sorted(kv[0]))))


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_listed_faces_match_intersection_closure(n):
    G = gosset(n)
    graded = faces_from_facet_vertex_sets(facet_vertex_sets(G))
    assert graded_faces(G) == tuple(graded)
    fv = facet_vertex_sets(G)
    faces = [(d, frozenset(i for i, f in enumerate(fv) if vset <= f)) for vset, d in graded]
    assert G.lattice == FaceLattice(n, len(fv), faces)


def _assemble_sets(n, num_vertices, facets, full_lattice):
    """``polytopes._assemble`` on (vertex set, type) pairs."""
    S, C = (np.array([sorted(f) for f, t in facets if t == kind], dtype=np.int64).reshape(-1, width)
            for kind, width in ((SIMPLEX, n), (CROSS, 2 * (n - 1))))
    return polytopes._assemble(n, num_vertices, S, C, None, full_lattice=full_lattice)


def test_full_lattice_refuses_two_facets_on_one_vertex_set():
    # an isolated pair of equal simplices passes the antipodal and ridge
    # checks; no face lies on one of them alone
    G = gosset(4)
    pillow = frozenset(range(G.num_vertices, G.num_vertices + 4))
    facets = list(zip(facet_vertex_sets(G), G.facet_types)) + [(pillow, SIMPLEX)] * 2
    for full in (False, True):
        with pytest.raises(ValidationError):
            _assemble_sets(4, G.num_vertices + 4, facets, full)
    with pytest.raises(ValidationError, match="is not a vertex"):
        faces_from_facet_vertex_sets([f for f, _ in facets])


def _g5_facets():
    G = gosset(5)
    return list(zip(facet_vertex_sets(G), G.facet_types))


def _without_first(facets):
    return facets[1:]


def _without_last(facets):
    return facets[:-1]


def _cross_vertex_moved(facets):
    f0, kind = facets[0]
    assert kind == CROSS and max(f0) < 15
    return [(f0 - {max(f0)} | {15}, kind)] + facets[1:]


def _edge_on_one_facet(facets):
    # vertices 0 and 1 of cross facet 0 are not antipodal; dropping the
    # other facets through edge 01 leaves 0 with two one-facet partners
    f0, kind = facets[0]
    assert kind == CROSS and {0, 1} <= f0
    return facets[:1] + [(f, t) for f, t in facets[1:] if not {0, 1} <= f]


def _counts_message(simplices, crosses):
    return (f"ingested lattice has 16 vertices, {simplices} simplex and {crosses} cross facets; "
            "G^5 has 16, 16 and 10")


REFUSED_G5 = [
    (_without_first, "16 ridges not shared by exactly two facets"),
    (_without_last, "16 ridges not shared by exactly two facets"),
    (_cross_vertex_moved, "facet 0: antipodal pairs do not form a matching"),
    (_edge_on_one_facet, "facet 0: vertex in two antipodal pairs"),
]

# ingestion refuses a facet list without G^5's counts before the assembly
INGESTED_G5 = {
    _without_first: _counts_message(16, 9),
    _without_last: _counts_message(16, 9),
    _edge_on_one_facet: _counts_message(14, 8),
}


@pytest.mark.parametrize("mutate,message", REFUSED_G5)
def test_assembly_refuses_broken_facet_lists(tmp_path, monkeypatch, capsys, mutate, message):
    facets = mutate(_g5_facets())
    with pytest.raises(ValidationError) as err:
        _assemble_sets(5, 16, facets, False)
    assert str(err.value) == message
    # the same facets as a face-lattice file: vertices by their facet sets
    faces = [(0, frozenset(i for i, (f, _) in enumerate(facets) if v in f)) for v in range(16)]
    faces += [(4, frozenset({i})) for i in range(len(facets))]
    text = FaceLattice(5, len(facets), faces).to_json()
    message = INGESTED_G5.get(mutate, message)
    with pytest.raises(ValidationError) as err:
        ingest_gosset(text, 5)
    assert str(err.value) == message
    (tmp_path / "gosset5.json").write_text(text)
    monkeypatch.setenv("CUSPFORGE_DATA", str(tmp_path))
    capsys.readouterr()
    assert main(["gosset", "--n", "5", "--out", str(tmp_path / "g5.json")]) == 2
    assert json.loads(capsys.readouterr().err.splitlines()[0]) == {"code": 2, "error": message}


def test_assembly_refuses_a_vertex_on_no_facet():
    with pytest.raises(ValidationError, match="^some vertex lies on no facet$"):
        _assemble_sets(5, 17, _g5_facets(), False)


# -- the Wythoff generator against the maximization route ------------------


def _facet_lattices_oracle(n, facets, num_vertices):
    """G's and P's lattice documents from a facet list in canonical order,
    through the per-face constructor: each vertex by the facets through it
    (partial) or each face of the intersection closure by the facets that
    hold it (full), and P's faces dual to G's."""
    fv = [f for f, _ in facets]
    marks = {f: IDEAL if kind == CROSS else REAL for f, kind in facets}
    if n <= 6:
        graded = faces_from_facet_vertex_sets(fv)
        g_faces = [(d, frozenset(i for i, f in enumerate(fv) if vs <= f)) for vs, d in graded]
        p_faces = [(n - 1 - d, vs) for vs, d in graded]
    else:
        g_faces = [(0, frozenset(i for i, f in enumerate(fv) if v in f)) for v in range(num_vertices)]
        g_faces += [(n - 1, {i}) for i in range(len(fv))]
        p_faces = [(0, f) for f in fv] + [(n - 1, {v}) for v in range(num_vertices)]
    return (FaceLatticeOracle(n, len(fv), g_faces).to_json(),
            FaceLatticeOracle(n, num_vertices, p_faces, marks).to_json())


@pytest.mark.parametrize("n", [6, 7, 8])
def test_wythoff_facets_match_the_maximization_route(n):
    vertices, facets = orbit_facet_data(n)
    facets.sort(key=lambda ft: sorted(ft[0]))
    fv, types = [f for f, _ in facets], [t for _, t in facets]
    G = gosset(n)
    assert G.vertex_coordinates == tuple(vertices)
    assert G.facet_types == tuple(types)
    assert facet_vertex_sets(G) == tuple(fv)
    assert G.simplex_rows.tolist() == [sorted(f) for f, t in facets if t == SIMPLEX]
    assert G.cross_rows.tolist() == [sorted(f) for f, t in facets if t == CROSS]
    assert antipodal_pairs(G) == tuple(_antipodal_oracle(fv, types, len(vertices)))
    P = ideal_dual(G)
    assert P.ideal_vertices == tuple(sorted((f for f, t in facets if t == CROSS), key=sorted))
    assert P.axes == {f: p for f, p in zip(fv, antipodal_pairs(G)) if p}
    assert (G.lattice.to_json(), P.lattice.to_json()) == _facet_lattices_oracle(n, facets, len(vertices))


@pytest.mark.parametrize("nodes, message", [
    ((1, 6, 3), "weight-orbit facet has 2 vertices; expected 6 or 10"),
    ((1, 6, 6), "duplicate facets from distinct orbit normals"),
])
def test_generator_refusals_match_the_maximization_route(monkeypatch, nodes, message):
    # a wrong node gives faces of another size, a repeated one each facet twice
    monkeypatch.setitem(_WEIGHT_NODES, 6, nodes)
    for generate in (gosset, orbit_facet_data):
        with pytest.raises(ValidationError) as err:
            generate(6)
        assert str(err.value) == message


def test_reflection_permutations_refuse_a_vertex_set_not_closed():
    roots = _E_ROOTS_2X[:6]
    R = np.array(roots)
    V = np.array(weyl_orbit(_fundamental_weight_vector(roots, 1), roots))
    perms = polytopes._reflection_perms(V, R)
    assert all(sorted(p) == list(range(len(V))) for p in perms.tolist())
    assert (np.take_along_axis(perms, perms, axis=1) == np.arange(len(V))).all()  # involutions
    with pytest.raises(ValidationError, match="^vertex set not closed under the reflections$"):
        polytopes._reflection_perms(V[1:], R)


def test_ridge_keys_refuse_rows_past_int64():
    # 1001^7 > 2^63: keys of 7-vertex ridges over 1001 vertices would wrap
    S = np.array([[0, 1, 2, 3, 4, 5, 6, 1000]])
    with pytest.raises(ValidationError, match="^ridge rows too long for int64 keys$"):
        polytopes._ridge_check(S, np.zeros((0, 7, 2), dtype=np.int64))


@pytest.mark.parametrize("copies", [0, 2, 3], ids=["dropped", "twice", "thrice"])
def test_ridge_check_counts_ridges_off_two_facets(copies):
    """G^5 with its first simplex facet listed ``copies`` times: its five
    ridges lie on 1, 3 or 4 facets.  At 4 the key count stays even and the
    keys pair up, so only unequal neighbouring pairs catch it."""
    G = gosset(5)
    S = np.concatenate([G.simplex_rows[:1]] * copies + [G.simplex_rows[1:]])
    fv = [frozenset(r) for r in S.tolist() + G.cross_rows.tolist()]
    types = [SIMPLEX] * len(S) + [CROSS] * len(G.cross_rows)
    antipodal = [()] * len(S) + [tuple(map(tuple, p)) for p in G.pair_rows.tolist()]
    with pytest.raises(ValidationError) as want:
        _ridge_oracle(5, fv, types, antipodal)
    assert str(want.value) == "5 ridges not shared by exactly two facets"
    if copies == 3:
        assert (len(S) * 5 + len(G.pair_rows) * 16) % 2 == 0
    with pytest.raises(ValidationError) as err:
        polytopes._ridge_check(S, G.pair_rows)
    assert str(err.value) == str(want.value)


def test_gosset8_traced_peak_stays_under_9_mib(monkeypatch):
    monkeypatch.delenv("CUSPFORGE_DATA", raising=False)
    gosset(8)  # lazy imports and numpy set-up outside the trace
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        gosset(8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 9 * 2**20


@pytest.mark.parametrize("n", [3, 7])
def test_gosset_views_stay_out_of_equality_hash_and_pickles(n):
    G = gosset(n)
    blob, h = pickle.dumps(G), hash(G)
    assert not G._views
    G.facet_types
    assert G._views
    assert pickle.dumps(G) == blob and hash(G) == h
    back = pickle.loads(blob)
    assert not back._views and back == G and hash(back) == h
    assert back.facet_types == G.facet_types
    assert facet_vertex_sets(back) == facet_vertex_sets(G) and graded_faces(back) == graded_faces(G)
    assert gosset(n) == G and G != gosset(n + 1)


@pytest.mark.parametrize("n", [3, 7])
def test_ideal_polytope_views_stay_out_of_equality_hash_and_pickles(n):
    P = ideal_dual(gosset(n))
    blob, h = pickle.dumps(P), hash(P)
    assert not P._views
    P.ideal_vertices, P.axes
    assert set(P._views) == {"ideal_vertices", "axes"}
    assert pickle.dumps(P) == blob and hash(P) == h
    back = pickle.loads(blob)
    assert not back._views and back == P and hash(back) == h
    assert back.ideal_vertices == P.ideal_vertices and back.axes == P.axes
    # the views read the rows in order, which is sorted order
    assert P.ideal_vertices == tuple(sorted(P.ideal_vertices, key=sorted))
    assert list(P.axes.values()) == [tuple(map(tuple, p)) for p in P.axis_rows.tolist()]
    assert ideal_dual(gosset(n)) == P and P != ideal_dual(gosset(n + 1))


@pytest.mark.parametrize("n,full", [(3, None), (5, None), (6, None), (7, True), (8, None)])
def test_ideal_dual_adopts_the_facet_order_without_sorting(monkeypatch, n, full):
    G = gosset(n, full_lattice=full)
    seen = []
    ascending = lattice_module._ascending
    monkeypatch.setattr(lattice_module, "_ascending", lambda rows: seen.append(ascending(rows)) or seen[-1])
    P = ideal_dual(G)
    assert seen and all(seen)  # every rank block arrived in order
    monkeypatch.setattr(lattice_module, "_ascending", lambda rows: False)
    assert ideal_dual(G) == P
    assert P.ideal_rows is G.cross_rows and P.axis_rows is G.pair_rows


def test_census_pipeline_builds_no_per_vertex_view(tmp_path, monkeypatch):
    built = []

    def spy(make):
        return lambda *args: built.append(make(*args)) or built[-1]

    monkeypatch.setattr(pipeline, "ideal_dual", spy(ideal_dual))
    monkeypatch.setattr(pipeline, "cusp_census", spy(pipeline.cusp_census))
    result = run_pipeline(PipelineConfig(n=8, census_only=True, outdir=str(tmp_path)))
    P, census = built
    assert result.facts["ideal_vertices"] == 2160 and result.census is census
    assert not P._views and "entries" not in census._views


def test_census_pipeline_builds_no_per_facet_view(tmp_path, monkeypatch):
    built = []

    def spy(n):
        built.append(gosset(n))
        return built[-1]

    monkeypatch.setattr(pipeline, "gosset", spy)
    run_pipeline(PipelineConfig(n=8, census_only=True, outdir=str(tmp_path)))
    (G,) = built
    assert "facet_types" not in G._views and not G._views


def test_ingestion_refuses_a_lattice_with_other_counts():
    for n in range(3, 8):
        ingest_gosset(gosset(n).lattice.to_json(), n)
    message = r"^ingested lattice has 4 vertices, 4 simplex and 0 cross facets; G\^3 has 6, 2 and 3$"
    with pytest.raises(ValidationError, match=message):
        ingest_gosset(simplex_lattice(3).to_json(), 3)
    with pytest.raises(ValidationError, match="^gosset polytopes exist for 3 <= n <= 8 only$"):
        ingest_gosset(simplex_lattice(9).to_json(), 9)
