import germapprox as ga


def test_public_names_resolve_once():
    assert len(ga.__all__) == len(set(ga.__all__))
    missing = [n for n in ga.__all__ if not hasattr(ga, n)]
    assert missing == []
    namespace = {}
    exec("from germapprox import *", namespace)
    assert set(ga.__all__) <= set(namespace)
