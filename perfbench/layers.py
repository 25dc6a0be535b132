"""Per-layer metrics from the spans of one traced pass.

A layer is one toolkit module. Times ending in `_s` are sums of span
durations; `_ms_p50`/`_p99` are per-call percentiles; counts come from
fields the span tags below attach to a span from the call's arguments or
result. A layer the workload does not run reports zero work and zero time.
"""

from __future__ import annotations

import os
from collections import defaultdict

import measure


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _model_counts(args, kwargs, model) -> dict:
    """Trees, nodes and split candidates of a fitted forest.

    A node evaluated m_features candidate features when it was impure, had
    at least min_samples_split rows and sat above max_depth: exactly the
    nodes `fit_tree` did not turn into leaves before searching.
    """
    if model is None:
        return {}
    params = model.params
    m_features = params.resolve_max_features(len(model.feature_names))
    searched = 0
    for tree in model.trees:
        searched += int(
            (
                (tree.impurity != 0.0)
                & (tree.n_samples >= params.min_samples_split)
                & (tree.depth < params.max_depth)
            ).sum()
        )
    jobs = kwargs.get("jobs", args[2] if len(args) > 2 else 1)
    return {
        "trees": len(model.trees),
        "nodes": sum(int(tree.feature.size) for tree in model.trees),
        "split_candidates": searched * m_features,
        "pool": int(jobs > 1 and params.n_estimators > 1),
    }


def _read_record_counts(args, kwargs, record) -> dict:
    paths = (_arg(args, kwargs, 0, "signal_path"), _arg(args, kwargs, 1, "meta_path"))
    return {"bytes": sum(os.path.getsize(p) for p in paths)}


# span name -> fn(args, kwargs, result) -> count fields for that span
TAGS = {
    "io.atomic_write_text": lambda a, k, r: {
        "bytes": len(_arg(a, k, 1, "text").encode("utf-8"))
    },
    "io.write_record": lambda a, k, r: {"samples": int(_arg(a, k, 0, "record").samples.size)},
    "io.read_record": _read_record_counts,
    "dsp.mfcc": lambda a, k, r: {"frames": int(r.coefficients.shape[1])} if r is not None else {},
    "forest.fit_forest": _model_counts,
    "forest.predict_proba": lambda a, k, r: {"rows": int(r.shape[0])} if r is not None else {},
    "cli.main": lambda a, k, r: {"command": _arg(a, k, 0, "argv")[0]},
}

SPLIT_SEARCH = "forest._best_split_for_feature"


class Spans:
    def __init__(self, spans: list[dict]) -> None:
        self.by_name: dict[str, list[dict]] = defaultdict(list)
        self.children: dict[str, list[dict]] = defaultdict(list)
        self.by_id = {span["id"]: span for span in spans}
        for span in spans:
            self.by_name[span["name"]].append(span)
            self.children[span["parent"]].append(span)

    def durations(self, name: str) -> list[float]:
        return [s["end"] - s["start"] for s in self.by_name.get(name, ())]

    def total(self, name: str) -> float:
        return sum(self.durations(name))

    def p50_ms(self, name: str) -> float:
        values = self.durations(name)
        return measure.percentile(values, 50) * 1e3 if values else 0.0

    def count(self, name: str, key: str) -> int:
        return sum(s.get(key, 0) for s in self.by_name.get(name, ()))

    def self_time(self, span: dict) -> float:
        children = [(c["start"], c["end"]) for c in self.children[span["id"]]]
        return measure.self_time(span["start"], span["end"], children)

    def self_total(self, name: str) -> float:
        return sum(self.self_time(span) for span in self.by_name.get(name, ()))

    def has_ancestor(self, span_id, name: str) -> bool:
        span = self.by_id.get(span_id)
        while span is not None:
            if span["name"] == name:
                return True
            span = self.by_id.get(span["parent"])
        return False

    def descendants(self, span: dict, prefix: str) -> list[dict]:
        found, todo = [], list(self.children[span["id"]])
        while todo:
            child = todo.pop()
            if child["name"].startswith(prefix):
                found.append(child)
            todo.extend(self.children[child["id"]])
        return found

    def uncovered(self, spans, prefix: str) -> float:
        """Sum over `spans` of the time their `prefix` descendants leave free."""
        return sum(
            measure.self_time(
                s["start"], s["end"], [(d["start"], d["end"]) for d in self.descendants(s, prefix)]
            )
            for s in spans
        )

    def layer_total(self, layer: str) -> float:
        """Time inside a layer: its spans not nested in a span of the same layer."""
        prefix = layer + "."
        total = 0.0
        for span in self.by_id.values():
            if not span["name"].startswith(prefix):
                continue
            parent = self.by_id.get(span["parent"])
            if parent is None or not parent["name"].startswith(prefix):
                total += span["end"] - span["start"]
        return total


def _rate(count: float, seconds: float) -> float:
    return count / seconds if seconds > 0 else 0.0


def per_layer(spans: list[dict], timers: dict, events: dict, workers: int):
    """Returns ({metric: (value, unit)}, [notes])."""
    s = Spans(spans)
    notes: list[str] = []
    split = [v for k, v in timers.items() if k.startswith(SPLIT_SEARCH + "@")]
    split_calls = sum(calls for calls, _ in split)
    split_s = sum(seconds for _, seconds in split)
    fit_tree = s.durations("forest.fit_tree")
    fit_forest_s = s.total("forest.fit_forest")
    trees = s.count("forest.fit_forest", "trees")
    pools = s.count("forest.fit_forest", "pool")
    synth = s.durations("simkit.synth_walk") + s.durations("simkit.synth_legshake")
    push_s = s.total("legshake.ShakeDetector.push")
    windows = len(s.by_name.get("legshake.band_ratio", ()))
    mains = s.by_name.get("cli.main", ())
    detect_mains = [m for m in mains if m.get("command") == "detect"]
    stage_mains = [m for m in mains if m.get("command") != "detect"]
    if pools and not workers:
        notes.append(
            "pools were started but no worker process reported spans (workers not "
            "forked?): fit_tree, split search and pooled synthesis are NOT OBSERVED "
            "and read 0"
        )
    metrics = {
        "experiments.load_config_ms": (s.p50_ms("experiments.load_config"), "ms"),
        "experiments.build_plans_ms": (s.p50_ms("experiments.build_plans"), "ms"),
        "experiments.synthesize_record_ms_p50": (s.p50_ms("experiments.synthesize_record"), "ms"),
        "experiments.run_simulate_s": (s.total("experiments.run_simulate"), "s"),
        "experiments.run_featurize_s": (s.total("experiments.run_featurize"), "s"),
        "experiments.run_train_s": (s.total("experiments.run_train"), "s"),
        "experiments.run_report_s": (s.total("experiments.run_report"), "s"),
        "experiments.run_eval_s": (s.total("experiments.run_eval"), "s"),
        "simkit.synth_s": (s.layer_total("simkit"), "s"),
        "simkit.synth_ms_p50": (measure.percentile(synth, 50) * 1e3 if synth else 0.0, "ms"),
        "simkit.records": (len(s.by_name.get("io.write_record", ())), "count"),
        "simkit.samples": (s.count("io.write_record", "samples"), "count"),
        "io.write_record_s": (s.total("io.write_record"), "s"),
        "io.write_record_ms_p50": (s.p50_ms("io.write_record"), "ms"),
        "io.bytes_written": (s.count("io.atomic_write_text", "bytes"), "B"),
        "io.read_record_s": (s.total("io.read_record"), "s"),
        "io.bytes_read": (s.count("io.read_record", "bytes"), "B"),
        "io.read_features_s": (s.total("io.read_features"), "s"),
        "dsp.featurize_s": (s.total("dsp.featurize"), "s"),
        "dsp.featurize_ms_p50": (s.p50_ms("dsp.featurize"), "ms"),
        "dsp.frames": (s.count("dsp.mfcc", "frames"), "count"),
        "forest.fit_tree_s": (sum(fit_tree), "s"),
        "forest.fit_tree_ms_p50": (
            measure.percentile(fit_tree, 50) * 1e3 if fit_tree else 0.0, "ms"
        ),
        "forest.fit_tree_ms_p99": (
            measure.percentile(fit_tree, measure.tail_percentile(len(fit_tree))) * 1e3
            if fit_tree else 0.0,
            "ms",
        ),
        "forest.trees": (trees, "count"),
        "forest.nodes": (s.count("forest.fit_forest", "nodes"), "count"),
        "forest.split_candidates": (s.count("forest.fit_forest", "split_candidates"), "count"),
        "forest.split_candidates_per_s": (
            _rate(s.count("forest.fit_forest", "split_candidates"), sum(fit_tree)), "1/s"
        ),
        "forest.split_search_s": (split_s, "s"),
        "forest.split_search_calls": (split_calls, "count"),
        "forest.fit_forest_calls": (len(s.by_name.get("forest.fit_forest", ())), "count"),
        "forest.pools_started": (pools, "count"),
        "forest.fit_forest_s": (fit_forest_s, "s"),
        "forest.trees_per_s": (_rate(trees, fit_forest_s), "1/s"),
        "forest.cross_validate_s": (s.total("forest.cross_validate"), "s"),
        "forest.predict_proba_s": (s.total("forest.predict_proba"), "s"),
        "forest.predict_rows_per_s": (
            _rate(s.count("forest.predict_proba", "rows"), s.total("forest.predict_proba")), "1/s"
        ),
        "forest.load_model_s": (s.total("forest.load_model"), "s"),
        "forest.save_model_s": (s.total("forest.save_model"), "s"),
        "legshake.push_s": (push_s, "s"),
        "legshake.windows": (windows, "count"),
        "legshake.windows_per_s": (_rate(windows, push_s), "1/s"),
        "legshake.band_ratio_s": (s.total("legshake.band_ratio"), "s"),
        "legshake.band_ratio_us_p50": (s.p50_ms("legshake.band_ratio") * 1e3, "us"),
        "legshake.events_opened": (events["open"], "count"),
        "legshake.events_closed": (events["close"], "count"),
        "cli.detect_parse_s": (s.uncovered(detect_mains, "legshake.ShakeDetector.push"), "s"),
        "cli.stage_overhead_s": (s.uncovered(stage_mains, "experiments.run_"), "s"),
    }
    # The ROADMAP's profile shares (mood, jobs=1) next to the traced ones.
    # Each numerator is the self time of the function holding the claimed
    # work, so wrapped callees (file writes, JSON) are left out.
    featurize_reads = [
        read
        for stage in s.by_name.get("experiments.run_featurize", ())
        for read in s.descendants(stage, "io.read_record")
    ]
    train_split = sum(
        seconds
        for key, (_, seconds) in timers.items()
        if key.startswith(SPLIT_SEARCH + "@")
        and s.has_ancestor(key.partition("@")[2], "experiments.run_train")
    )
    shares = {
        "share.format_of_simulate": (
            0.85, '"%.8e" formatting = io.write_record self time / run_simulate',
            s.self_total("io.write_record"), s.total("experiments.run_simulate"),
        ),
        "share.loadtxt_of_featurize": (
            2 / 3, "np.loadtxt = io.read_record self time / run_featurize",
            sum(s.self_time(read) for read in featurize_reads),
            s.total("experiments.run_featurize"),
        ),
        "share.split_search_of_train": (
            0.84, "split search / run_train", train_split, s.total("experiments.run_train"),
        ),
    }
    for name, (claimed, how, part, whole) in shares.items():
        metrics[name] = (part / whole if whole > 0 else 0.0, "ratio")
        if whole > 0:
            pooled = " (summed over pool workers)" if workers and "split" in name else ""
            notes.append(
                f"{name}: {how} = {part / whole:.1%}{pooled}; ROADMAP {claimed:.0%} "
                f"(mood, jobs=1); gap {part / whole - claimed:+.1%}"
            )
    return metrics, notes
