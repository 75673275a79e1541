import entorder


def test_all_is_sorted_unique_and_resolves():
    names = entorder.__all__
    assert names == sorted(names)
    assert len(set(names)) == len(names)
    missing = [name for name in names if not hasattr(entorder, name)]
    assert missing == []
