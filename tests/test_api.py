"""The package's public surface."""

import types

import saddleflow


def test_all_lists_every_public_name():
    public = {
        name for name, value in vars(saddleflow).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert set(saddleflow.__all__) == public
    assert len(saddleflow.__all__) == len(public)
