"""``tree_lantern``: the Table 3 TreeLSTM staged to the Lantern backend
by ``repro.function(backend="lantern")``, one tree per call.

Each call runs ``call_with_grad`` on one tree and applies the SGD
update.  One trace serves every tree (trees key by kind); small trees
are marshalling-bound and large ones compute-bound.
"""

from __future__ import annotations

import numpy as np

import common
import inputs

import repro
import repro.autograph as ag
from repro.datasets.treebank import Tree
from repro.lantern import LanternTreeLSTM
from repro.lantern.ir import Param

#: Every CHECK_EVERY-th tree's loss is checked against the NumPy
#: forward (the rest are checked for a finite loss).
CHECK_EVERY = 4
#: Leaves of the tree the cold compile's first result runs on.
COMPILE_LEAVES = 25


class _Model:
    """The JIT-staged model plus its training step and checker."""

    def __init__(self, seed, trees):
        self.trees = trees
        self.params = {name: Param(name, value.copy())
                       for name, value in inputs.tree_params(seed).items()}
        module = common.fresh_programs()
        self.fn = repro.function(module.make_tree_loss(self.params),
                                 backend="lantern")
        self.cf = None
        self.snapshot = None

    def compile(self, k):
        tree = self.trees[k]
        self.cf = self.fn.get_concrete_function(tree, tree.label)
        return self.step(k)

    def prepare(self, k, force=False):
        self.snapshot = ({n: p.value.copy() for n, p in self.params.items()}
                         if force or k % CHECK_EVERY == 0 else None)

    def step(self, k):
        tree = self.trees[k]
        loss = self.cf.call_with_grad(tree, tree.label)
        for param in self.cf.params.values():
            param.value[...] -= inputs.TREE_LR * param.grad
        return float(np.asarray(loss.numpy()))

    def check(self, k, loss):
        if self.snapshot is None:
            return bool(np.isfinite(loss))
        tree = self.trees[k]
        expected = inputs.treelstm_loss_ref(self.snapshot, tree, tree.label)
        return inputs.tree_check(loss, expected)


class _Data:
    def __init__(self, seed):
        self.seed = seed
        self.trees = inputs.tree_inputs(seed, Tree)
        self.nodes = [inputs.tree_nodes(t) for t in self.trees]
        # The first result runs on a tree of a fixed size, so compile_s
        # does not depend on which tree the seed put first.
        self.compile_k = self.nodes.index(2 * COMPILE_LEAVES - 1)


def make(seed):
    return _Data(seed)


def _first_call(data):
    """A fresh program copy through its first, checked loss: the cold
    compile.  Returns ``(model, seconds)``."""
    model = _Model(data.seed, data.trees)
    k = data.compile_k
    model.prepare(k, force=True)
    loss, elapsed = common.timed(lambda: model.compile(k))
    if not model.check(k, loss):
        raise AssertionError("tree_lantern: first loss is wrong")
    return model, elapsed


def build(data):
    return _first_call(data)[0]


def cold_compile(data, ready):
    return _first_call(data)[1]


def measure(data, model, tally, seconds):
    lat, ks, cal = common.closed_loop(model.step, model.check,
                                      len(data.trees), seconds, tally,
                                      prepare=model.prepare)
    return common.loop_samples(lat, sum(data.nodes[k] for k in ks), cal)


def peak_rss_mb(ready):
    return common.peak_rss_mb()


def close(ready):
    pass


def _count_instructions(block):
    count = 0
    for instr in block.instructions:
        count += 1
        if instr[0] == "if":
            count += _count_instructions(instr[3])
            count += _count_instructions(instr[4])
    return count


def traced(tr, seconds, data, model, tally):
    m = {}
    seed, trees, nodes = data.seed, data.trees, data.nodes

    params = {n: Param(n, v) for n, v in inputs.tree_params(seed).items()}
    m["autograph.convert_ms"] = common.probe_ms(
        tr, "to_graph", "autograph",
        lambda: ag.to_graph(common.fresh_programs().make_tree_loss(params)))
    m["function.trace_ms"] = common.probe_ms(
        tr, "get_concrete_function", "function",
        lambda: _Model(seed, trees).compile(data.compile_k))

    def stage_handwritten():
        hand = LanternTreeLSTM(inputs.TREE_HIDDEN, inputs.TREE_CLASSES,
                               params_np=inputs.tree_params(seed))
        hand.compile()
        return hand

    m["lantern.stage_ms"] = common.probe_ms(
        tr, "LanternTreeLSTM.compile", "lantern", stage_handwritten)
    hand = stage_handwritten()
    m["lantern.ir_instructions"] = sum(
        _count_instructions(f.block) for f in hand.program.functions.values())

    n = len(trees)
    cf, fn = model.cf, model.fn
    faults, dispatch_s = [], []

    def untraced(i):
        k = i % n
        model.prepare(k)
        f0 = common.minor_faults()
        loss = model.step(k)
        faults.append(common.minor_faults() - f0)
        return k, loss

    def traced_step(i):
        k = i % n
        model.prepare(k)
        tree = trees[k]
        with tr.span("tree_step", "function", op=f"tree:{i}"):
            with tr.span("call_with_grad", "lantern"):
                loss = cf.call_with_grad(tree, tree.label)
            with tr.span("sgd_update", "benchmark"):
                for param in cf.params.values():
                    param.value[...] -= inputs.TREE_LR * param.grad
        return k, float(np.asarray(loss.numpy()))

    def grad_only(i):
        tree = trees[i % n]
        cf.call_with_grad(tree, tree.label)

    def forward(i):
        tree = trees[i % n]
        cf.call_flat([tree, tree.label])

    def dispatch(i):
        # Paired in one op, so both calls meet the same tree and state.
        tree = trees[i % n]
        _, with_function = common.timed(lambda: fn(tree, tree.label))
        _, bare_call = common.timed(
            lambda: cf.call_flat([tree, tree.label]))
        dispatch_s.append(with_function - bare_call)

    def handstaged(i):
        with tr.span("handstaged_train_step", "lantern.reference",
                     op=f"hand:{i}"):
            hand.train_step(trees[i % n], learning_rate=inputs.TREE_LR)

    variants = {"e2e": untraced, "traced": traced_step, "grad": grad_only,
                "forward": forward, "dispatch": dispatch,
                "hand": handstaged}
    samples, indices = common.rotate_blocks(
        variants, seconds, model.check, tally)

    # Tree sizes vary by 20x and each block sees other trees, so rows
    # that compare variants use seconds per tree node.
    def per_node(name):
        return (sum(samples[name])
                / sum(nodes[i % n] for i in indices[name]))

    m["function.traces"] = fn.trace_count
    m["function.dispatch_us"] = common.median(dispatch_s) * 1e6
    m["lantern.call_with_grad_ms_p50"] = common.median(samples["grad"]) * 1e3
    m["lantern.forward_ms_p50"] = common.median(samples["forward"]) * 1e3
    m["lantern.handstaged_ms_p50"] = common.median(samples["hand"]) * 1e3
    m["lantern.jit_vs_handstaged"] = per_node("e2e") / per_node("hand")
    m["alloc.minor_faults_per_call"] = sum(faults) / len(faults)
    m["alloc.bytes_per_call"] = common.peak_alloc_bytes(
        [lambda k=k: grad_only(k) for k in range(min(n, 8))])
    m["trace.overhead_ratio"] = per_node("traced") / per_node("e2e")
    m["trace.calls"] = len(samples["e2e"])
    return m, {}
