"""The user programs the benchmark stages, written as a user would.

Each workload loads this file as a fresh module
(``common.fresh_programs``) for every cold compile: AutoGraph caches
conversions by code object, so a new copy of the same source is the
only honest way to pay conversion, tracing, optimization and planning
again.  The functions take their model state as arguments or closures;
no input data lives here.
"""

from repro import framework as fw
from repro.framework import ops
from repro.lantern import ops as lt

CHAIN_STAGES = 6


def chain(x):
    """Six stages of ``tanh(x*x + exp(-x))``: a pure elementwise chain."""
    for _ in range(CHAIN_STAGES):
        x = ops.tanh(ops.add(ops.multiply(x, x), ops.exp(ops.negative(x))))
    return x


def train(x, y, w0, b0, num_steps, learning_rate):
    """Table 2: the imperative SGD loop, staged as one in-graph while."""
    w = w0
    b = b0
    i = 0
    while i < num_steps:
        logits = ops.add(ops.matmul(x, w), b)
        loss = ops.reduce_mean(ops.softmax_cross_entropy_with_logits(y, logits))
        dw, db = fw.gradients(loss, [w, b])
        w = ops.subtract(w, ops.multiply(dw, learning_rate))
        b = ops.subtract(b, ops.multiply(db, learning_rate))
        i = i + 1
    return w, b


def make_tree_loss(p):
    """Table 3: the TreeLSTM as recursive closures over Lantern Params."""

    def embed(tree):
        if tree.is_leaf:
            c = lt.tanh(tree.embedding)
            h = lt.tanh(c)
        else:
            c_l, h_l = embed(tree.left)
            c_r, h_r = embed(tree.right)
            x = lt.concat1(h_l, h_r)
            i = lt.sigmoid(lt.matmul(x, p["w_i"]) + p["b_i"])
            fl = lt.sigmoid(lt.matmul(x, p["w_fl"]) + p["b_f"])
            fr = lt.sigmoid(lt.matmul(x, p["w_fr"]) + p["b_f"])
            o = lt.sigmoid(lt.matmul(x, p["w_o"]) + p["b_o"])
            g = lt.tanh(lt.matmul(x, p["w_g"]) + p["b_g"])
            c = i * g + fl * c_l + fr * c_r
            h = o * lt.tanh(c)
        return c, h

    def tree_loss(tree, label):
        c, h = embed(tree)
        logits = lt.matmul(h, p["w_out"]) + p["b_out"]
        return lt.xent(logits, label)

    return tree_loss


def make_mlp(weights, w_out):
    """The served model: a deep tanh MLP over closed-over weights."""

    def score(x):
        h = x
        for w in weights:
            h = ops.tanh(ops.matmul(h, w))
        return ops.matmul(h, w_out)

    return score
