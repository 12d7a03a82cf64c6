"""Per-layer tracing, installed from outside the program.

The tracer wraps public functions of the ddgen modules in place and records
a span (name, start, end, parent, phase) around each call. Functions called
once per dataset row are only summed, not recorded one by one. Every
autodiff node is tagged with the model block that created it, and each
node's backward closure is timed when ``Tensor.backward`` runs, so backward
time splits by op and by block. A hook whose target no longer exists is
listed as absent and its metrics read 0.
"""

from __future__ import annotations

import importlib
import json
import statistics
import time

MODULES = ("cli", "gscm", "chanstats", "trainer", "htransformer", "adtensor")

# (module, attribute, span name); span names double as metric sources
SPANS = (
    ("gscm", "synthesize_dataset", "gscm.synthesize"),
    ("gscm", "gen_trajectory", "gscm.trajectory"),
    ("gscm", "write_dataset", "gscm.write"),
    ("gscm", "read_dataset", "gscm.read"),
    ("cli", "_file_sha256", "cli.manifest"),
    ("cli", "_write_manifest", "cli.manifest"),
    ("chanstats", "cdf_pair", "chanstats.cdf"),
    ("chanstats", "cdf_mse_db", "chanstats.cdf"),
    ("trainer", "train", "trainer.train"),
    ("trainer", "gather_window_arrays", "trainer.gather"),
    ("trainer", "save_train_checkpoint", "trainer.checkpoint"),
    ("trainer", "load_train_checkpoint", "trainer.load_checkpoint"),
    ("trainer", "evaluate_model", "trainer.evaluate_model"),
    ("trainer", "collect_window_stats", "trainer.pool"),
    ("trainer", "AdamW.step", "trainer.optimizer"),
    ("htransformer", "init_params", "htransformer.init"),
)
PHASES = (("cli", "cmd_gen", "gen"), ("cli", "cmd_train", "train"),
          ("cli", "cmd_evaluate", "evaluate"))
# (module, attribute, span name, block tag given to the nodes it creates)
SCOPES = (
    ("htransformer", "hybrid_forward", "htransformer.forward", "other"),
    ("htransformer", "bilstm_forward", "htransformer.bilstm", "bilstm"),
    ("trainer", "stats_loss", "trainer.loss", "loss"),
    ("trainer", "predictive_loss", "trainer.loss", "loss"),
)
ATTENTION_SITES = {"attn": "enc_attn", "self": "dec_self_attn",
                   "cross": "dec_cross_attn"}
BLOCKS = ("enc_attn", "dec_self_attn", "dec_cross_attn", "bilstm", "other")
PER_ROW = ("chanstats", "stats_from_row")


def _attention_block(args, kwargs):
    prefix = args[3] if len(args) > 3 else kwargs.get("prefix", "")
    return ATTENTION_SITES.get(prefix.rsplit(".", 1)[-1], "other")


def _owner(arr):
    while getattr(arr, "base", None) is not None:
        arr = arr.base
    return arr


class Tracer:
    def __init__(self):
        self.modules = {}
        self.spans = []       # [name, start, end, parent index, phase]
        self.open = []        # indices of spans still running
        self.phase = None
        self.per_row = {}     # phase -> [seconds, calls]
        self.scope = []       # block tags of the model code now running
        self.tags = {}        # id(node) -> block tag at creation
        self.bwd = {}         # (op, block) -> backward seconds
        self.step_nodes = []
        self.step_graph_bytes = []
        self.rows = 0
        self.absent = []
        self.t0 = time.perf_counter()

    # -- installation -----------------------------------------------------

    def _resolve(self, module, attr):
        mod = self.modules.get(module)
        if mod is None:
            return None, None, None
        owner, _, name = attr.rpartition(".")
        obj = getattr(mod, owner, None) if owner else mod
        fn = getattr(obj, name, None) if obj is not None else None
        return obj, name, fn

    def _patch(self, module, attr, make):
        obj, name, fn = self._resolve(module, attr)
        if fn is None:
            self.absent.append("%s.%s" % (module, attr))
            return
        wrapped = make(fn)
        setattr(obj, name, wrapped)
        # modules that imported the function by name hold their own binding
        for mod in self.modules.values():
            for key, val in list(vars(mod).items()):
                if val is fn:
                    setattr(mod, key, wrapped)

    def install(self):
        for name in MODULES:
            try:
                self.modules[name] = importlib.import_module("ddgen." + name)
            except ImportError:
                self.absent.append("ddgen." + name)
        for module, attr, span in SPANS:
            self._patch(module, attr, lambda fn, s=span: self._span(fn, s))
        for module, attr, phase in PHASES:
            self._patch(module, attr, lambda fn, p=phase:
                        self._span(fn, "cli." + p, phase=p))
        for module, attr, span, tag in SCOPES:
            self._patch(module, attr,
                        lambda fn, s=span, t=tag: self._span(fn, s, tag=t))
        self._patch("htransformer", "projected_mha",
                    lambda fn: self._span(fn, None, tag=_attention_block))
        self._patch(*PER_ROW, self._per_row)
        self._install_tensor_hooks()

    def _span(self, fn, name, phase=None, tag=None):
        tracer = self

        def wrapper(*args, **kwargs):
            block = tag(args, kwargs) if callable(tag) else tag
            if block == "other" and not tracer.scope:
                tracer.tags.clear()  # a new forward pass: old graphs are done
            rec = [name or "htransformer." + block, time.perf_counter(), None,
                   tracer.open[-1] if tracer.open else -1,
                   phase or tracer.phase]
            tracer.open.append(len(tracer.spans))
            tracer.spans.append(rec)
            outer = tracer.phase
            tracer.phase = rec[4]
            if block:
                tracer.scope.append(block)
            try:
                out = fn(*args, **kwargs)
            finally:
                if block:
                    tracer.scope.pop()
                tracer.phase = outer
                tracer.open.pop()
                rec[2] = time.perf_counter()
            if rec[0] == "gscm.synthesize":
                tracer.rows += len(out.rows)
            return out
        return wrapper

    def _per_row(self, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            t = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                acc = tracer.per_row.setdefault(tracer.phase, [0.0, 0])
                acc[0] += time.perf_counter() - t
                acc[1] += 1
        return wrapper

    def _install_tensor_hooks(self):
        Tensor = getattr(self.modules.get("adtensor"), "Tensor", None)
        if Tensor is None or not hasattr(Tensor, "backward"):
            self.absent.append("adtensor.Tensor")
            return
        tracer, tags, scope, bwd = self, self.tags, self.scope, self.bwd
        init, backward = Tensor.__init__, Tensor.backward

        def tagged_init(node, *args, **kwargs):
            init(node, *args, **kwargs)
            tags[id(node)] = scope[-1] if scope else None

        def timed(fn, key):
            def run(g):
                t = time.perf_counter()
                fn(g)
                bwd[key] = bwd.get(key, 0.0) + time.perf_counter() - t
            return run

        def traced_backward(node, *args, **kwargs):
            nodes = _graph(node)
            for n in nodes:
                if n._backward is not None:
                    fn = n._backward
                    op = getattr(fn, "__qualname__", "?").split(".")[0]
                    n._backward = timed(fn, (op, tags.get(id(n))))
            out = tracer._span(backward, "adtensor.backward")(node, *args,
                                                              **kwargs)
            if tracer.phase == "train":
                tracer.step_nodes.append(len(nodes))
                tracer.step_graph_bytes.append(_graph_bytes(nodes))
            return out

        Tensor.__init__ = tagged_init
        Tensor.backward = traced_backward

    # -- results ----------------------------------------------------------

    def _sum(self, name, phase=None):
        return sum(e - s for n, s, e, _, p in self.spans
                   if n == name and (phase is None or p == phase))

    def _self_time(self, name):
        child = [0.0] * len(self.spans)
        for _, s, e, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += e - s
        return sum(e - s - child[i]
                   for i, (n, s, e, _, _) in enumerate(self.spans)
                   if n == name)

    def _bwd(self, op=None, block=None):
        return sum(v for (o, b), v in self.bwd.items()
                   if op in (None, o) and block in (None, b))

    def _per_row_s(self, phase):
        return self.per_row.get(phase, [0.0, 0])[0]

    def metrics(self):
        m = {
            "gscm.trajectory_s": self._sum("gscm.trajectory"),
            "gscm.sample_s": self._self_time("gscm.synthesize"),
            "gscm.write_s": self._sum("gscm.write"),
            "gscm.read_s": self._sum("gscm.read"),
            "gscm.rows": self.rows,
            "cli.manifest_s": self._sum("cli.manifest"),
            "cli.report_s": self._self_time("cli.evaluate"),
            "chanstats.row_stats_s.setup": self._per_row_s("train"),
            "chanstats.row_stats_s.eval": self._per_row_s("evaluate"),
            "chanstats.row_stats_calls": sum(
                c for _, c in self.per_row.values()),
            "chanstats.cdf_s": self._sum("chanstats.cdf"),
            "trainer.loss.fwd_s": self._sum("trainer.loss", "train"),
            "trainer.loss.bwd_s": self._bwd(block="loss"),
            "trainer.gather_s": self._sum("trainer.gather", "train"),
            "trainer.optimizer_s": self._sum("trainer.optimizer"),
            "trainer.checkpoint_s": self._sum("trainer.checkpoint"),
            "trainer.steps": len(self.step_nodes),
            "htransformer.forward_s": self._sum("htransformer.forward"),
            "adtensor.backward_s": self._sum("adtensor.backward", "train"),
            "adtensor.nodes_per_step": (statistics.median(self.step_nodes)
                                        if self.step_nodes else 0),
            "adtensor.graph_mb": max(self.step_graph_bytes, default=0) / 2**20,
        }
        for block in BLOCKS:
            m["htransformer.%s.fwd_s" % block] = (
                self._self_time("htransformer.forward") if block == "other"
                else self._sum("htransformer." + block))
            m["htransformer.%s.bwd_s" % block] = self._bwd(block=block)
        for op in ("narrow", "gather_last", "matmul"):
            m["adtensor.%s.bwd_s" % op] = self._bwd(op=op)
        return m

    def write(self, path):
        """Spans as JSON lines (times in seconds from tracer start), then one
        line with the summed per-row calls, backward table and absent hooks."""
        with open(path, "w") as f:
            for name, s, e, parent, phase in self.spans:
                f.write(json.dumps({"name": name, "start": s - self.t0,
                                    "end": e - self.t0, "parent": parent,
                                    "phase": phase}) + "\n")
            f.write(json.dumps({
                "per_row": {"chanstats.row_stats": self.per_row},
                "backward_by_op_block": {"%s/%s" % k: v
                                         for k, v in sorted(self.bwd.items(),
                                                            key=str)},
                "absent": self.absent}) + "\n")


def _graph(root):
    seen, order, stack = set(), [], [root]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        order.append(node)
        stack.extend(node._parents)
    return order


def _graph_bytes(nodes):
    """Bytes of the distinct buffers behind every node's value and gradient."""
    owners = {}
    for n in nodes:
        for arr in (n.data, n.grad):
            if arr is not None:
                base = _owner(arr)
                owners[id(base)] = getattr(base, "nbytes", 0)
    return sum(owners.values())
