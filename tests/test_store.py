"""The one value store: equality, hashing and pickles read the fields by
value, never the views, and no other class defines its own."""

import dataclasses
import importlib
import inspect
import pickle
import pkgutil

import numpy as np

import cuspforge
from cuspforge.cubical import CubicalComplex
from cuspforge.moment_angle import CuspCensus
from cuspforge.polytopes import IdealPolytope, gosset, ideal_dual
from cuspforge.simplicial import SimplicialComplex, octahedron_boundary
from cuspforge.store import Store, by_value


def test_arrays_with_equal_bytes_but_another_dtype_or_shape_differ():
    wide = np.array([[1, 0]], dtype=np.uint8)
    narrow = np.array([[1]], dtype=np.uint16)
    tall = np.array([[1], [0]], dtype=np.uint8)
    assert wide.tobytes() == narrow.tobytes() == tall.tobytes()
    census = CuspCensus(3, 2, wide, (0,), (True,))
    for rows in (narrow, tall):
        other = CuspCensus(3, 2, rows, (0,), (True,))
        assert other != census and by_value(other.__getstate__()) != by_value(census.__getstate__())
    assert CuspCensus(3, 2, wide.copy(), (0,), (True,)) == census
    P = ideal_dual(gosset(3))
    retyped = IdealPolytope(P.n, P.lattice, P.ideal_rows.astype(np.int32), P.axis_rows)
    assert retyped != P and IdealPolytope(P.n, P.lattice, P.ideal_rows.copy(), P.axis_rows) == P


def test_simplicial_views_stay_out_of_equality_hash_and_pickles():
    K = octahedron_boundary()
    blob, h = pickle.dumps(K), hash(K)
    assert set(K._views) == {"faces"}  # the closure, from the constructor's one pass
    assert (0, 2) in K.faces_of_dim(1) and K.f_vector() == (6, 12, 8) and len(K.facets) == 8
    assert set(K._views) == {"faces", ("faces_of_dim", 1), "facets"}
    assert pickle.dumps(K) == blob and hash(K) == h
    back = pickle.loads(blob)
    assert not back._views and back == K and hash(back) == h
    assert back.f_vector() == K.f_vector() and back.faces_of_dim(1) == K.faces_of_dim(1)
    assert SimplicialComplex(K.vertex_count, reversed(K.facets)) == K
    assert SimplicialComplex(K.vertex_count + 1, K.facets) != K


def test_object_sign_arrays_compare_and_hash_by_value_after_a_pickle():
    top = 1 << 62  # the sign bit of axis 62 needs ambient 63, past int64 sign arrays
    Z = CubicalComplex(63, [((), 0), ((), top), ((61,), 0), ((61,), top), ((), 1 << 61), ((), top | 1 << 61)])
    assert all(signs.dtype == object for d in range(Z.dim + 1) for _, _, signs in Z.support_runs(d))
    back = pickle.loads(pickle.dumps(Z))
    assert back == Z and hash(back) == hash(Z)
    assert back.cells_of_dim(1) == Z.cells_of_dim(1)
    moved = CubicalComplex(63, [((), 1), ((), top | 1), ((61,), 1), ((61,), top | 1),
                                ((), 1 | 1 << 61), ((), top | 1 | 1 << 61)])
    assert moved != Z and moved.cell_counts() == Z.cell_counts()


def _library_classes():
    for info in pkgutil.iter_modules(cuspforge.__path__):
        module = importlib.import_module(f"cuspforge.{info.name}")
        for cls in vars(module).values():
            if inspect.isclass(cls) and cls.__module__ == module.__name__:
                yield cls


def test_only_the_store_defines_equality_hashing_and_pickles():
    classes = list(_library_classes())
    assert Store in classes and CubicalComplex in classes
    own = {(cls.__qualname__, name) for cls in classes
           if cls is not Store and not dataclasses.is_dataclass(cls)
           for name in ("__eq__", "__hash__", "__getstate__", "__setstate__") if name in vars(cls)}
    assert not own

