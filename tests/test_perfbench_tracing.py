"""The benchmark's traced run can wrap every layer boundary it names.

``perfbench/tracing.py`` replaces each traced method in its owner's own
``__dict__`` and puts the original back afterwards.  A method that moves
to a base class, a mixin or a module-level function would no longer be
found there, and only the traced benchmark run would notice.  This test
reads the target list (importing the module wraps nothing) so tier-1
notices instead.
"""

from __future__ import annotations

from tests.test_golden_digests import _import_perfbench


def test_every_traced_attribute_is_defined_on_its_owner():
    targets = _import_perfbench("tracing")._targets()
    assert targets
    missing = [
        f"{getattr(owner, '__name__', owner)}.{attr} ({span})"
        for owner, attr, span in targets
        if attr not in vars(owner)
    ]
    assert not missing, f"traced attributes not defined on their owner: {missing}"
