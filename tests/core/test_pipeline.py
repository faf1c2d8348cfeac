"""Tests for the caching pipeline."""

import pytest

from repro.core import ArtifactCache, Pipeline, PipelineStep
from repro.core.pipeline import PipelineError


def counting_step(name, calls, value=1, params=None, depends_on=()):
    def fn(context, **kw):
        calls.append(name)
        upstream = sum(context[d] for d in depends_on)
        return value + upstream + sum(kw.values())

    return PipelineStep(name=name, fn=fn, params=params or {}, depends_on=depends_on)


class TestConstruction:
    def test_empty_rejected(self):
        with pytest.raises(PipelineError):
            Pipeline([])

    def test_duplicate_names_rejected(self):
        calls = []
        with pytest.raises(PipelineError):
            Pipeline([counting_step("a", calls), counting_step("a", calls)])

    def test_forward_dependency_rejected(self):
        calls = []
        with pytest.raises(PipelineError):
            Pipeline(
                [
                    counting_step("a", calls, depends_on=("b",)),
                    counting_step("b", calls),
                ]
            )


class TestExecution:
    def test_values_flow(self):
        calls = []
        p = Pipeline(
            [
                counting_step("gen", calls, value=10),
                counting_step("analyze", calls, value=1, depends_on=("gen",)),
            ]
        )
        out = p.run()
        assert out["gen"] == 10
        assert out["analyze"] == 11

    def test_cache_prevents_recompute(self):
        calls = []
        cache = ArtifactCache()
        steps = [counting_step("gen", calls, value=5)]
        Pipeline(steps, cache).run()
        Pipeline(steps, cache).run()
        assert calls == ["gen"]
        assert cache.hits == 1 and cache.misses == 1

    def test_force_bypasses_cache(self):
        calls = []
        cache = ArtifactCache()
        steps = [counting_step("gen", calls)]
        Pipeline(steps, cache).run()
        Pipeline(steps, cache).run(force=True)
        assert calls == ["gen", "gen"]

    def test_param_change_invalidates(self):
        calls = []
        cache = ArtifactCache()
        Pipeline([counting_step("gen", calls, params={"seed": 1})], cache).run()
        Pipeline([counting_step("gen", calls, params={"seed": 2})], cache).run()
        assert calls == ["gen", "gen"]

    def test_upstream_change_invalidates_downstream(self):
        calls = []
        cache = ArtifactCache()

        def build(seed):
            return [
                counting_step("gen", calls, params={"seed": seed}),
                counting_step("analyze", calls, depends_on=("gen",)),
            ]

        Pipeline(build(1), cache).run()
        Pipeline(build(2), cache).run()
        assert calls.count("analyze") == 2

    def test_downstream_change_keeps_upstream_cached(self):
        calls = []
        cache = ArtifactCache()

        def build(k):
            return [
                counting_step("gen", calls),
                counting_step("analyze", calls, params={"k": k}, depends_on=("gen",)),
            ]

        Pipeline(build(1), cache).run()
        Pipeline(build(2), cache).run()
        assert calls.count("gen") == 1
        assert calls.count("analyze") == 2

    def test_none_result_rejected(self):
        step = PipelineStep(name="bad", fn=lambda context: None)
        with pytest.raises(PipelineError):
            Pipeline([step]).run()


class TestFnIdentity:
    """The cache key must include the step function's identity (qualname +
    code hash): same-named steps with different bodies may not collide."""

    def test_different_fn_same_name_invalidates(self):
        cache = ArtifactCache()

        def v1(context):
            return "first"

        def v2(context):
            return "second"

        assert Pipeline([PipelineStep(name="gen", fn=v1)], cache).run()["gen"] == "first"
        # Regression: before fn identity entered the key, this returned the
        # stale "first" from v1's cache entry.
        assert Pipeline([PipelineStep(name="gen", fn=v2)], cache).run()["gen"] == "second"

    def test_same_qualname_different_code_invalidates(self):
        cache = ArtifactCache()

        def make(version):
            if version == 1:
                def fn(context):
                    return "v1"
            else:
                def fn(context):
                    return "v2"
            return fn

        assert Pipeline([PipelineStep(name="gen", fn=make(1))], cache).run()["gen"] == "v1"
        assert Pipeline([PipelineStep(name="gen", fn=make(2))], cache).run()["gen"] == "v2"

    def test_identical_factory_closures_share_key(self):
        # Closures minted twice from one factory have the same code object,
        # so re-building the pipeline still hits the cache.
        cache = ArtifactCache()
        calls = []
        Pipeline([counting_step("gen", calls, value=3)], cache).run()
        out = Pipeline([counting_step("gen", calls, value=3)], cache).run()
        assert out["gen"] == 3
        assert calls == ["gen"]

    def test_fingerprint_stable_for_same_fn(self):
        from repro.core.pipeline import fingerprint_callable

        def fn(context):
            return [1, (2, "x")]

        assert fingerprint_callable(fn) == fingerprint_callable(fn)

    def test_fingerprint_independent_of_hash_seed(self):
        # ``kind in {...}`` compiles to a frozenset constant, whose repr
        # follows PYTHONHASHSEED. The key must not, or a durable cache
        # never hits across interpreter runs.
        import os
        import subprocess
        import sys
        from pathlib import Path

        import repro

        script = (
            "from repro.core.pipeline import fingerprint_callable\n"
            "def classify(kind):\n"
            "    return 1 if kind in {'alpha', 'beta', 'gamma', 'delta'} else 0\n"
            "assert any(isinstance(c, frozenset) for c in classify.__code__.co_consts)\n"
            "print(fingerprint_callable(classify))\n"
        )
        src = str(Path(repro.__file__).resolve().parents[1])
        prints = set()
        for seed in ("1", "2", "3", "4"):
            env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
            done = subprocess.run(
                [sys.executable, "-c", script], env=env, capture_output=True, text=True,
                check=True,
            )
            prints.add(done.stdout.strip())
        assert len(prints) == 1

    @pytest.mark.parametrize(
        "const", [None, 1.5, "x", b"y", (), (1,), (1, ("a", (2.5, None))), (True, ...)]
    )
    def test_non_frozenset_constants_hash_as_their_repr(self, const):
        # Existing cache keys do not move: only frozensets changed form.
        from repro.core.pipeline import _const_repr

        assert _const_repr(const) == repr(const)
        assert _const_repr(frozenset({"b", "a"})) == "frozenset({'a', 'b'})"


class TestCorruptCache:
    """Corrupt or truncated disk entries are misses, not crashes."""

    def test_garbage_bytes_is_miss_and_evicted(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        cache.put("k", {"a": 1})
        path = tmp_path / "k.pkl"
        path.write_bytes(b"these are not pickle bytes")
        assert cache.get("k") is None
        assert cache.misses == 1
        assert not path.exists()  # bad entry dropped

    def test_truncated_pickle_is_miss(self, tmp_path):
        import pickle

        cache = ArtifactCache(tmp_path)
        blob = pickle.dumps(list(range(1000)), protocol=pickle.HIGHEST_PROTOCOL)
        (tmp_path / "k.pkl").write_bytes(blob[: len(blob) // 2])
        assert cache.get("k") is None
        assert not (tmp_path / "k.pkl").exists()

    def test_pipeline_recovers_from_corrupt_entry(self, tmp_path):
        calls = []
        steps = [counting_step("gen", calls, value=9)]
        cache = ArtifactCache(tmp_path)
        Pipeline(steps, cache).run()
        [entry] = list(tmp_path.glob("*.pkl"))
        entry.write_bytes(b"\x80garbage")
        out = Pipeline(steps, ArtifactCache(tmp_path)).run()
        assert out["gen"] == 9
        assert calls == ["gen", "gen"]  # recomputed, no crash

    def test_put_is_atomic_no_temp_left_behind(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        cache.put("k", {"x": 2})
        assert [p.name for p in tmp_path.iterdir()] == ["k.pkl"]
        assert cache.get("k") == {"x": 2}


class TestDiskCache:
    def test_persists_across_instances(self, tmp_path):
        calls = []
        steps = [counting_step("gen", calls, value=3)]
        Pipeline(steps, ArtifactCache(tmp_path)).run()
        out = Pipeline(steps, ArtifactCache(tmp_path)).run()
        assert out["gen"] == 3
        assert calls == ["gen"]

    def test_clear(self, tmp_path):
        calls = []
        steps = [counting_step("gen", calls)]
        cache = ArtifactCache(tmp_path)
        Pipeline(steps, cache).run()
        cache.clear()
        Pipeline(steps, cache).run()
        assert calls == ["gen", "gen"]

    def test_get_miss_returns_none(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        assert cache.get("nope") is None
        assert cache.misses == 1
