"""The package's export list."""
import types

import photonsim


def test_export_list_is_every_public_name():
    for name in photonsim.__all__:
        assert hasattr(photonsim, name), name
    public = {name for name, value in vars(photonsim).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert sorted(photonsim.__all__) == sorted(public | {"__version__"})
