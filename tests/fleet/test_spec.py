"""Shard planning, content-address keys, and spec validation."""

import ast
from pathlib import Path

import pytest

import repro
from repro.fleet import FleetSpec, ShardRange, code_version, shard_key
from repro.fleet.spec import _VERSIONED_MODULES

#: The modules that compute a shard's bytes; everything they import
#: shapes those bytes too.
SHARD_ROOTS = (
    "repro.inspector.generate",
    "repro.inspector.entropy",
    "repro.inspector.schema",
    "repro.core.fingerprint",
    "repro.fleet.merge",
)


def _source_of(module):
    """The source file of a ``repro`` module or package, or ``None``."""
    path = Path(repro.__file__).parent.joinpath(*module.split(".")[1:])
    for candidate in (path / "__init__.py", path.with_suffix(".py")):
        if candidate.is_file():
            return candidate
    return None


def _repro_imports(module):
    """Every ``repro`` module named by an import anywhere in ``module``."""
    names = set()
    for node in ast.walk(ast.parse(_source_of(module).read_text("utf-8"))):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            names.add(node.module)
            names.update(f"{node.module}.{alias.name}" for alias in node.names)
    return {name for name in names
            if name.startswith("repro.") and _source_of(name) is not None}


def import_closure(roots):
    seen, pending = set(), list(roots)
    while pending:
        module = pending.pop()
        if module not in seen:
            seen.add(module)
            pending.extend(_repro_imports(module))
    return seen


class TestShardPlanning:
    def test_shards_cover_population_exactly(self, small_spec):
        shards = small_spec.shards()
        assert [s.index for s in shards] == [0, 1, 2]
        assert shards[0].start == 0
        assert shards[-1].stop == small_spec.households
        for prev, cur in zip(shards, shards[1:]):
            assert prev.stop == cur.start

    def test_ragged_tail_shard(self):
        spec = FleetSpec(seed=1, households=100, shard_size=30)
        shards = spec.shards()
        assert [s.households for s in shards] == [30, 30, 30, 10]

    def test_single_shard_when_size_exceeds_population(self):
        spec = FleetSpec(seed=1, households=10, shard_size=256)
        assert [(s.start, s.stop) for s in spec.shards()] == [(0, 10)]

    def test_invalid_spec_rejected(self):
        with pytest.raises(ValueError):
            FleetSpec(households=0)
        with pytest.raises(ValueError):
            FleetSpec(shard_size=0)

    def test_spec_round_trips_through_dict(self, small_spec):
        assert FleetSpec.from_dict(small_spec.to_dict()) == small_spec


class TestShardKey:
    def test_key_ignores_shard_partition(self, small_spec):
        """The same household range is the same content under any
        shard_size, so re-partitioning reuses the cache."""
        other = FleetSpec(**{**small_spec.to_dict(), "shard_size": 48})
        shard = ShardRange(index=0, start=0, stop=32)
        renumbered = ShardRange(index=7, start=0, stop=32)
        assert shard_key(small_spec, shard) == shard_key(other, shard)
        assert shard_key(small_spec, shard) == shard_key(small_spec, renumbered)

    def test_key_varies_with_generation_inputs(self, small_spec):
        shard = ShardRange(index=0, start=0, stop=32)
        base = shard_key(small_spec, shard)
        reseeded = FleetSpec(**{**small_spec.to_dict(), "seed": 99})
        ablated = FleetSpec(**{**small_spec.to_dict(), "validate_oui": False})
        assert shard_key(reseeded, shard) != base
        assert shard_key(ablated, shard) != base
        assert shard_key(small_spec, ShardRange(0, 0, 33)) != base

    def test_key_includes_code_version(self, small_spec, monkeypatch):
        shard = ShardRange(index=0, start=0, stop=32)
        base = shard_key(small_spec, shard)
        monkeypatch.setattr("repro.fleet.spec.code_version", lambda: "deadbeef")
        assert shard_key(small_spec, shard) != base

    def test_code_version_is_stable_hex(self):
        version = code_version()
        assert version == code_version()
        int(version, 16)  # hex digest

    def test_code_version_covers_the_generator_import_closure(self):
        """An edit to any module a shard's bytes come from (a codec the
        generator encodes with, say) must change the cache key."""
        closure = import_closure(SHARD_ROOTS)
        assert {"repro.protocols.dns", "repro.net.mac"} <= closure
        assert sorted(closure - set(_VERSIONED_MODULES)) == []
