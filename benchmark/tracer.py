"""Span tracing of the injflow layers from outside the program.

The tracer rebinds public functions and methods of the injflow modules to
timing wrappers inside the benchmark process only, and restores them on
`uninstall`.  Names that a module bound at import time are wrapped in every
namespace that holds them (`training.lipschitz_estimate` comes from
`network`, `training.pairwise_sq_dists` and `metrics.pairwise_sq_dists`
from `_util`), otherwise calls through those names would go unseen.

A span is (name, start, end, parent index, job id).  Spans stay in memory
until the benchmark writes them out; `summarise` turns them into per-name
call counts, inclusive time and self time (duration minus the part covered
by child spans).
"""

from __future__ import annotations

import functools
import gzip
import time
from collections import defaultdict

# (module attribute path, span name).  A path "mod:Class.method" wraps a
# method on the class; "mod:func" rebinds a module-level function.  A call
# whose first argument is a network labels that network's stages (T0, R1,
# T1, ...), so flow-block spans can be split per stage.
_FUNCTION_SPANS = (
    ("geometry:ManifoldTarget.map_points", "geometry.map_points"),
    ("geometry:load_points_csv", "geometry.csv_read"),
    ("geometry:sample_circle", "geometry.sample_circle"),
    ("training:sample_circle", "geometry.sample_circle"),
    ("expansive:ExpansiveLayer.__call__", "expansive.forward"),
    ("expansive:LinearExpansive.forward_with_cache", "expansive.fwd"),
    ("expansive:LinearExpansive.vjp", "expansive.vjp"),
    ("expansive:InjectiveRelu.forward_with_cache", "expansive.fwd"),
    ("expansive:InjectiveRelu.vjp", "expansive.vjp"),
    ("network:InjectiveNetwork.forward", "network.forward"),
    ("network:InjectiveNetwork.forward_with_cache", "network.fwd"),
    ("network:InjectiveNetwork.vjp", "network.vjp"),
    ("network:InjectiveNetwork.load_checkpoint", "network.load_checkpoint"),
    ("network:lipschitz_estimate", "network.lipschitz_estimate"),
    ("training:lipschitz_estimate", "network.lipschitz_estimate"),
    ("training:build_obstruction_network", "network.build"),
    ("training:build_layerwise_toy_network", "network.build"),
    ("_util:pairwise_sq_dists", "util.pairwise_sq_dists"),
    ("training:pairwise_sq_dists", "util.pairwise_sq_dists"),
    ("metrics:pairwise_sq_dists", "util.pairwise_sq_dists"),
    ("training:run_obstruction_experiment", "training.experiment"),
    ("training:run_layerwise_toy", "training.experiment"),
    ("training:_run_phases", "training.schedule"),
    ("training:compute_gradients", "training.compute_gradients"),
    ("training:chamfer_loss_and_grad", "training.chamfer"),
    ("training:sliced_w2sq_loss_and_grad", "training.sliced_loss"),
    ("training:Adam.step", "training.adam"),
    ("training:TrainingTrace.to_csv", "cli.write"),
    ("metrics:directed_supinf", "metrics.directed_supinf"),
    ("metrics:wasserstein2_sliced", "metrics.sliced_w2"),
    ("metrics:estimate_embedding_gap", "metrics.estimate_gap"),
    ("metrics:fit_candidate_alignment", "metrics.fit_alignment"),
    ("metrics:embedding_gap_upper", "metrics.gap_upper"),
    ("metrics:wasserstein2_exact", "metrics.w2_exact"),
    ("metrics:wasserstein_bound_check", "metrics.bound_check"),
    ("projection:project_to_range", "projection.project"),
    ("projection:relu_pseudo_inverse", "projection.relu_pinv"),
    ("projection:linear_pseudo_inverse", "projection.linear_pinv"),
    ("cli:main", "cli.main"),
    ("cli:_write_table", "cli.write"),
    ("cli:_write_summary", "cli.write"),
)

_FLOW_BLOCK_SPANS = (
    ("forward", "forward"),
    ("inverse", "inverse"),
    ("forward_with_cache", "fwd"),
    ("vjp", "vjp"),
)


class Tracer:
    """Collects spans while installed; one instance per benchmark process."""

    def __init__(self, package):
        self._pkg = package
        self.spans: list = []
        self._stack: list = []
        self._patches: list = []
        self._labels: dict = {}
        self.job = -1

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        mods = {name: getattr(self._pkg, name) for name in
                ("geometry", "expansive", "flows", "network", "training",
                 "metrics", "projection", "cli", "_util")}
        for path, span in _FUNCTION_SPANS:
            mod_name, attr = path.split(":")
            owner = mods[mod_name]
            if "." in attr:
                cls_name, attr = attr.split(".")
                owner = getattr(owner, cls_name)
            self._patch(owner, attr, lambda fn, _s=span: self._wrap(fn, _s))
        block_cls = mods["flows"].FlowBlock
        for attr, op in _FLOW_BLOCK_SPANS:
            self._patch(block_cls, attr,
                        lambda fn, _op=op: self._wrap_block(fn, _op))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
        self._labels.clear()

    def _patch(self, owner, attr, make_wrapper) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        if isinstance(original, classmethod):
            replacement = classmethod(make_wrapper(original.__func__))
        else:
            replacement = make_wrapper(original)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, replacement)

    # -- wrappers ------------------------------------------------------------

    def _enter(self):
        idx = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(idx)
        return idx, parent

    def _exit(self, idx, parent, name, start) -> None:
        end = time.perf_counter()
        self._stack.pop()
        self.spans[idx] = (name, start, end, parent, self.job)

    def _label_stages(self, net) -> None:
        labels = self._labels
        if id(net) in labels:
            return
        labels[id(net)] = net
        flow_k = exp_k = 0
        for stage in net.stages:
            if hasattr(stage, "layers"):
                labels[id(stage)] = f"T{flow_k}"
                flow_k += 1
            else:
                exp_k += 1
                labels[id(stage)] = f"R{exp_k}"

    def _wrap(self, fn, name):
        net_cls = self._pkg.network.InjectiveNetwork

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if args and isinstance(args[0], net_cls):
                self._label_stages(args[0])
            idx, parent = self._enter()
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit(idx, parent, name, start)
        return traced

    def _wrap_block(self, fn, op):
        labels = self._labels

        @functools.wraps(fn)
        def traced(block, *args, **kwargs):
            idx, parent = self._enter()
            start = time.perf_counter()
            try:
                return fn(block, *args, **kwargs)
            finally:
                label = labels.get(id(block), "T?")
                self._exit(idx, parent, f"flows.{label}.{op}", start)
        return traced

    # -- root spans and output -------------------------------------------------

    def root(self, name: str, fn, *args):
        """Run fn(*args) under a root span owned by the benchmark."""
        return self._wrap(fn, name)(*args)

    def write_csv_gz(self, path) -> None:
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("name,start_s,end_s,parent,job\n")
            for name, start, end, parent, job in self.spans:
                fh.write(f"{name},{start:.9f},{end:.9f},{parent},{job}\n")


def summarise(spans, jobs) -> dict:
    """{job: {name: [calls, total_s, self_s]}} for the given job ids.

    Self time is a span's duration minus the durations of its direct
    children; the root spans' descendants therefore partition their time.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent, job in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out = {job: defaultdict(lambda: [0, 0.0, 0.0]) for job in jobs}
    for i, (name, start, end, parent, job) in enumerate(spans):
        if job not in out:
            continue
        entry = out[job][name]
        entry[0] += 1
        entry[1] += end - start
        entry[2] += end - start - child_time[i]
    return {job: dict(table) for job, table in out.items()}


def root_names(spans):
    """Name of each span's root span: the benchmark's span around one CLI call."""
    root_of = [None] * len(spans)
    for i, (name, start, end, parent, job) in enumerate(spans):
        root_of[i] = name if parent < 0 else root_of[parent]
    return root_of
