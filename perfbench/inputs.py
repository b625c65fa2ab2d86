"""Seeded workload inputs and the independent NumPy references that
check the program's outputs.

Everything here is plain NumPy: the references never go through the
compiler under test.  The same seed always gives the same inputs.
"""

from __future__ import annotations

import numpy as np

CHAIN_SIZE = 384
CHAIN_POOL = 8
CHAIN_STAGES = 6

TRAIN_BATCH = 200
TRAIN_DIM = 784
TRAIN_CLASSES = 10
TRAIN_STEPS = 50
TRAIN_LR = 0.3
TRAIN_POOL = 4

TREE_HIDDEN = 64
TREE_CLASSES = 5
TREE_MIN_LEAVES = 2
TREE_MAX_LEAVES = 48
TREE_LR = 0.05

MLP_FEATURES = 128
MLP_HIDDEN = 256
MLP_LAYERS = 16
MLP_POOL = 64

# Salts keep the workloads' random streams apart for one seed.
_SALT = {"chain": 1, "train": 2, "tree": 3, "tree_params": 4, "mlp": 5,
         "mlp_inputs": 6}


def rng_for(seed, what):
    return np.random.default_rng([int(seed), _SALT[what]])


def allclose(actual, expected, rtol, atol):
    actual = np.asarray(actual)
    expected = np.asarray(expected)
    return (actual.shape == expected.shape
            and bool(np.all(np.isfinite(actual)))
            and bool(np.allclose(actual, expected, rtol=rtol, atol=atol)))


# -- chain_384 -------------------------------------------------------------------


def chain_inputs(seed):
    rng = rng_for(seed, "chain")
    return [rng.normal(0.0, 1.0, size=(CHAIN_SIZE, CHAIN_SIZE))
            .astype(np.float32) for _ in range(CHAIN_POOL)]


def chain_ref(x):
    for _ in range(CHAIN_STAGES):
        x = np.tanh(x * x + np.exp(-x))
    return x


def chain_check(out, expected):
    # float32 kernels may differ from NumPy's by an ulp per op; six
    # stages can amplify that a few dozen times.
    return allclose(out, expected, rtol=1e-4, atol=1e-5)


# -- train_loop ------------------------------------------------------------------


def train_inputs(seed):
    """Synthetic-MNIST batches: class prototypes plus noise, squashed
    into a pixel-like range, with one-hot labels."""
    rng = rng_for(seed, "train")
    prototypes = rng.normal(0.0, 1.0, size=(TRAIN_CLASSES, TRAIN_DIM))
    batches = []
    for _ in range(TRAIN_POOL):
        labels = rng.integers(0, TRAIN_CLASSES, size=TRAIN_BATCH)
        noise = rng.normal(0.0, 0.5, size=(TRAIN_BATCH, TRAIN_DIM))
        images = 1.0 / (1.0 + np.exp(-(prototypes[labels] + noise)))
        onehot = np.eye(TRAIN_CLASSES, dtype=np.float32)[labels]
        batches.append((images.astype(np.float32), onehot))
    return batches


def sgd_ref(x, y, steps=TRAIN_STEPS, lr=TRAIN_LR):
    """Hand-written NumPy SGD on mean softmax cross-entropy from zero
    weights: the same math as the staged loop."""
    x = x.astype(np.float32)
    w = np.zeros((x.shape[1], y.shape[1]), np.float32)
    b = np.zeros((y.shape[1],), np.float32)
    n = np.float32(x.shape[0])
    lr = np.float32(lr)
    for _ in range(steps):
        logits = x @ w + b
        shifted = logits - logits.max(axis=1, keepdims=True)
        e = np.exp(shifted)
        p = e / e.sum(axis=1, keepdims=True)
        dlogits = (p - y) / n
        w = w - (x.T @ dlogits) * lr
        b = b - dlogits.sum(axis=0) * lr
    return w, b


def train_check(out, expected):
    (w, b), (w_ref, b_ref) = out, expected
    return (allclose(w, w_ref, rtol=1e-3, atol=1e-5)
            and allclose(b, b_ref, rtol=1e-3, atol=1e-5))


# -- tree_lantern ------------------------------------------------------------------


def _random_tree(rng, tree_cls, n_leaves, dim):
    if n_leaves == 1:
        emb = rng.normal(0.0, 1.0, size=(1, dim)).astype(np.float32)
        return tree_cls(embedding=emb, label=int(rng.integers(TREE_CLASSES)))
    split = int(rng.integers(1, n_leaves))
    left = _random_tree(rng, tree_cls, split, dim)
    right = _random_tree(rng, tree_cls, n_leaves - split, dim)
    return tree_cls(left=left, right=right,
                    label=int(rng.integers(TREE_CLASSES)))


def tree_inputs(seed, tree_cls):
    """Labelled binary parse trees built from the program's ``tree_cls``
    node type: every leaf count from 2 to 48 twice, in seeded order and
    with seeded shapes, so the work in the pool does not depend on the
    seed while the trees do."""
    rng = rng_for(seed, "tree")
    counts = np.repeat(np.arange(TREE_MIN_LEAVES, TREE_MAX_LEAVES + 1), 2)
    rng.shuffle(counts)
    return [_random_tree(rng, tree_cls, int(n), TREE_HIDDEN) for n in counts]


def tree_nodes(tree):
    if tree.is_leaf:
        return 1
    return 1 + tree_nodes(tree.left) + tree_nodes(tree.right)


def tree_params(seed, hidden=TREE_HIDDEN, classes=TREE_CLASSES):
    rng = rng_for(seed, "tree_params")

    def glorot(shape):
        limit = np.sqrt(6.0 / (shape[0] + shape[1]))
        return rng.uniform(-limit, limit, size=shape).astype(np.float32)

    d2 = 2 * hidden
    return {
        "w_i": glorot((d2, hidden)), "w_fl": glorot((d2, hidden)),
        "w_fr": glorot((d2, hidden)), "w_o": glorot((d2, hidden)),
        "w_g": glorot((d2, hidden)),
        "b_i": np.zeros((1, hidden), np.float32),
        "b_f": np.ones((1, hidden), np.float32),
        "b_o": np.zeros((1, hidden), np.float32),
        "b_g": np.zeros((1, hidden), np.float32),
        "w_out": glorot((hidden, classes)),
        "b_out": np.zeros((1, classes), np.float32),
    }


def _sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def treelstm_loss_ref(p, tree, label):
    """NumPy TreeLSTM forward and cross-entropy, in float64."""
    p = {k: np.asarray(v, np.float64) for k, v in p.items()}

    def embed(node):
        if node.is_leaf:
            c = np.tanh(node.embedding.astype(np.float64))
            return c, np.tanh(c)
        c_l, h_l = embed(node.left)
        c_r, h_r = embed(node.right)
        x = np.concatenate([h_l, h_r], axis=1)
        i = _sigmoid(x @ p["w_i"] + p["b_i"])
        fl = _sigmoid(x @ p["w_fl"] + p["b_f"])
        fr = _sigmoid(x @ p["w_fr"] + p["b_f"])
        o = _sigmoid(x @ p["w_o"] + p["b_o"])
        g = np.tanh(x @ p["w_g"] + p["b_g"])
        c = i * g + fl * c_l + fr * c_r
        return c, o * np.tanh(c)

    _, h = embed(tree)
    logits = (h @ p["w_out"] + p["b_out"]).reshape(-1)
    shifted = logits - logits.max()
    return float(np.log(np.exp(shifted).sum()) - shifted[int(label)])


def tree_check(loss, expected):
    return allclose(loss, expected, rtol=1e-4, atol=1e-5)


# -- serve_mlp -----------------------------------------------------------------------


def mlp_params(seed):
    rng = rng_for(seed, "mlp")
    # The 0.1 scale keeps tanh out of saturation through 16 layers.
    weights = [0.1 * rng.normal(size=(MLP_FEATURES, MLP_HIDDEN))
               .astype(np.float32)]
    weights += [0.1 * rng.normal(size=(MLP_HIDDEN, MLP_HIDDEN))
                .astype(np.float32) for _ in range(MLP_LAYERS - 1)]
    w_out = rng.normal(size=(MLP_HIDDEN, 1)).astype(np.float32)
    return weights, w_out


def mlp_inputs(seed):
    rng = rng_for(seed, "mlp_inputs")
    return rng.normal(size=(MLP_POOL, MLP_FEATURES)).astype(np.float32)


def mlp_ref(weights, w_out, x):
    h = np.asarray(x, np.float64)
    for w in weights:
        h = np.tanh(h @ w)
    return h @ w_out


def mlp_check(out, expected):
    # float32 through 16 layers of 256-term dot products; a batched
    # matmul sums in another order than a batch of one.
    return allclose(np.asarray(out).reshape(-1),
                    np.asarray(expected).reshape(-1), rtol=1e-3, atol=1e-4)
