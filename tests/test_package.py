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
