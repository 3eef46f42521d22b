import gsqg


def test_all_names_resolve():
    assert len(set(gsqg.__all__)) == len(gsqg.__all__)
    missing = [name for name in gsqg.__all__ if not hasattr(gsqg, name)]
    assert not missing


def test_star_import_binds_all_names():
    namespace = {}
    exec("from gsqg import *", namespace)
    assert set(gsqg.__all__) <= namespace.keys()
