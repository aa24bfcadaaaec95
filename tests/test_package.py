import types

import meterdelta


def test_all_lists_exactly_the_public_names():
    public = {name for name, value in vars(meterdelta).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert sorted(meterdelta.__all__) == sorted(public)
    namespace = {}
    exec("from meterdelta import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(meterdelta.__all__)
