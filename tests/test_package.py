import temsim


def test_all_names_resolve_once():
    # every exported name exists on the package, and none is listed twice
    assert len(set(temsim.__all__)) == len(temsim.__all__)
    assert [name for name in temsim.__all__ if not hasattr(temsim, name)] == []
