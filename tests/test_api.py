import qccd


def test_every_exported_name_resolves():
    missing = [name for name in qccd.__all__ if not hasattr(qccd, name)]
    assert missing == []
    assert len(set(qccd.__all__)) == len(qccd.__all__)


def test_star_import_runs_in_a_fresh_namespace():
    namespace = {}
    exec("from qccd import *", namespace)
    assert set(qccd.__all__) <= set(namespace)
