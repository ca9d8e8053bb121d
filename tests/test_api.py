import sumchoice


def test_all_names_resolve_once():
    assert len(sumchoice.__all__) == len(set(sumchoice.__all__))
    missing = [name for name in sumchoice.__all__ if not hasattr(sumchoice, name)]
    assert missing == []
