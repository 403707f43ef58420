import types

import dtmask


def test_all_lists_exactly_the_public_names():
    public = {
        name
        for name, value in vars(dtmask).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert set(dtmask.__all__) == public
    assert len(dtmask.__all__) == len(public)


def test_no_oracle_is_public():
    # reference implementations live with the tests, not in the package
    assert [name for name in dtmask.__all__ if name.endswith("_oracle")] == []
