"""Gradient correctness, optimization behavior, and training determinism."""

import hashlib
import logging

import numpy as np
import pytest

from abstractnet import (
    LabeledDataset,
    Network,
    TrainConfig,
    TrainingError,
    ValidationError,
    accuracy,
    init_network,
    loss_and_grads,
    make_synthetic_digits,
    split_dataset,
    train,
)
from helpers import reference_synthetic_digits, reference_train


def numeric_grads(net, x, y, h=1e-6):
    """Central differences on every parameter."""
    ws = [w.copy() for w in net.weights]
    bs = [b.copy() for b in net.biases]

    def loss_at(ws_, bs_):
        probe = Network(tuple(ws_), tuple(bs_), "identity")
        return loss_and_grads(probe, x, y)[0]

    dws, dbs = [], []
    for j in range(len(ws)):
        g = np.zeros_like(ws[j])
        for idx in np.ndindex(*ws[j].shape):
            bumped = [w.copy() for w in ws]
            bumped[j][idx] += h
            up = loss_at(bumped, bs)
            bumped[j][idx] -= 2 * h
            down = loss_at(bumped, bs)
            g[idx] = (up - down) / (2 * h)
        dws.append(g)
        gb = np.zeros_like(bs[j])
        for idx in np.ndindex(*bs[j].shape):
            bumped = [b.copy() for b in bs]
            bumped[j][idx] += h
            up = loss_at(ws, bumped)
            bumped[j][idx] -= 2 * h
            down = loss_at(ws, bumped)
            gb[idx] = (up - down) / (2 * h)
        dbs.append(gb)
    return dws, dbs


def test_gradients_match_central_differences():
    rng = np.random.default_rng(5)
    net = init_network((2, 3, 2), seed=1)
    x = rng.normal(size=(4, 2))
    y = np.array([0, 1, 1, 0])
    _, dws, dbs = loss_and_grads(net, x, y)
    nws, nbs = numeric_grads(net, x, y)
    for got, want in zip(dws, nws):
        assert np.allclose(got, want, rtol=1e-5, atol=1e-7)
    for got, want in zip(dbs, nbs):
        assert np.allclose(got, want, rtol=1e-5, atol=1e-7)


def test_loss_and_grads_validation():
    net = init_network((2, 3, 2), seed=0)
    x = np.zeros((2, 2))
    with pytest.raises(ValidationError):
        loss_and_grads(net, x, np.array([0]))  # label count mismatch
    with pytest.raises(ValidationError):
        loss_and_grads(net, x, np.array([0, 2]))  # label out of range
    relu_net = Network(net.weights, net.biases, "relu")
    with pytest.raises(ValidationError):
        loss_and_grads(relu_net, x, np.array([0, 1]))
    with pytest.raises(ValidationError, match="labels must be integers"):
        loss_and_grads(net, x, np.array([0.7, 1.2]))
    with pytest.raises(ValidationError, match="non-finite"):
        loss_and_grads(net, np.array([[0.0, np.nan], [1.0, 0.0]]), np.array([0, 1]))
    with pytest.raises(ValidationError, match="2 features"):
        loss_and_grads(net, np.zeros((2, 3)), np.array([0, 1]))
    # integer-valued float labels and a single unbatched sample stay valid
    loss, _, _ = loss_and_grads(net, x, np.array([0.0, 1.0]))
    assert loss == loss_and_grads(net, x, np.array([0, 1]))[0]
    assert np.isfinite(loss_and_grads(net, np.zeros(2), 1)[0])


def test_loss_and_grads_returns_fresh_arrays():
    net = init_network((2, 3, 2), seed=0)
    x = np.array([[1.0, -1.0], [0.5, 2.0]])
    _, dws_a, dbs_a = loss_and_grads(net, x, np.array([0, 1]))
    kept = [g.copy() for g in dws_a + dbs_a]
    _, dws_b, dbs_b = loss_and_grads(net, x[::-1], np.array([0, 0]))
    for a, b in zip(dws_a + dbs_a, dws_b + dbs_b):
        assert not np.shares_memory(a, b)
    for a, k in zip(dws_a + dbs_a, kept):
        assert np.array_equal(a, k)


def test_init_network_shapes_and_bound():
    net = init_network((4, 7, 3), seed=2)
    assert net.layer_sizes == (4, 7, 3)
    assert all(np.all(b == 0.0) for b in net.biases)
    for w, fan_in in zip(net.weights, (4, 7)):
        assert np.all(np.abs(w) <= np.sqrt(6.0 / fan_in))
    a = init_network((4, 7, 3), seed=2)
    for wa, wb in zip(a.weights, net.weights):
        assert np.array_equal(wa, wb)
    with pytest.raises(ValidationError):
        init_network((4,))
    with pytest.raises(ValidationError):
        init_network((4, 0, 3))


def test_zero_epochs_returns_seeded_init():
    ds = make_synthetic_digits(40, seed=0)
    cfg = TrainConfig(hidden=(5,), epochs=0, seed=11)
    net = train(ds, cfg)
    ref = init_network((64, 5, ds.num_classes), seed=11)
    for got, want in zip(net.weights, ref.weights):
        assert np.array_equal(got, want)


def test_first_sgd_step_reduces_batch_loss():
    rng = np.random.default_rng(3)
    net = init_network((3, 6, 2), seed=4)
    x = rng.normal(size=(8, 3))
    y = rng.integers(0, 2, size=8)
    loss0, dws, dbs = loss_and_grads(net, x, y)
    lr = 0.05
    stepped = Network(
        tuple(w - lr * g for w, g in zip(net.weights, dws)),
        tuple(b - lr * g for b, g in zip(net.biases, dbs)),
        "identity",
    )
    loss1 = loss_and_grads(stepped, x, y)[0]
    assert loss1 < loss0


def separable_dataset(n=60, seed=0):
    rng = np.random.default_rng(seed)
    half = n // 2
    a = rng.normal(loc=(2.0, 2.0), scale=0.3, size=(half, 2))
    b = rng.normal(loc=(-2.0, -2.0), scale=0.3, size=(half, 2))
    inputs = np.vstack([a, b])
    labels = np.array([0] * half + [1] * half)
    return LabeledDataset(inputs, labels)


def test_training_solves_separable_problem():
    ds = separable_dataset()
    cfg = TrainConfig(hidden=(8,), epochs=50, batch_size=8, learning_rate=0.01, seed=0)
    net = train(ds, cfg)
    assert accuracy(net, ds) == 1.0
    assert net.output_activation == "identity"
    assert net.layer_sizes == (2, 8, 2)


def test_sgd_optimizer_also_learns():
    ds = separable_dataset()
    cfg = TrainConfig(
        hidden=(8,), epochs=50, batch_size=8, learning_rate=0.05, optimizer="sgd", seed=0
    )
    net = train(ds, cfg)
    assert accuracy(net, ds) >= 0.95


# (optimizer, learning rate, batch size) -> the epoch and message the
# per-array trainer raised; the flat finite check must fire at the same step
DIVERGENCE_CASES = [
    ("sgd", 1e12, 60, 12, "validation loss diverged at epoch 12"),
    ("sgd", 1e308, 60, 0, "parameters diverged at epoch 0"),
    ("adam", 1e308, 8, 0, "parameters diverged at epoch 0"),
    ("adam", 1e300, 8, 0, "loss diverged at epoch 0"),
]


def test_divergence_raises_training_error():
    ds = separable_dataset()
    for optimizer, lr, batch_size, epoch, message in DIVERGENCE_CASES:
        # absurd learning rate blows the parameters up; patience high enough
        # that early stopping cannot end the run before the overflow
        cfg = TrainConfig(
            hidden=(8,),
            epochs=50,
            batch_size=batch_size,
            learning_rate=lr,
            optimizer=optimizer,
            seed=0,
            patience=50,
        )
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(TrainingError) as info:
                train(ds, cfg)
            with pytest.raises(TrainingError) as ref:
                reference_train(ds, cfg)
        assert (info.value.epoch, str(info.value)) == (epoch, message)
        assert (ref.value.epoch, str(ref.value)) == (epoch, message)


def test_training_is_deterministic():
    ds = make_synthetic_digits(80, seed=1)
    cfg = TrainConfig(hidden=(10,), epochs=3, batch_size=16, seed=7)
    a = train(ds, cfg)
    b = train(ds, cfg)
    assert a.to_json() == b.to_json()
    c = train(ds, TrainConfig(hidden=(10,), epochs=3, batch_size=16, seed=8))
    assert a.to_json() != c.to_json()


def test_train_config_validation():
    with pytest.raises(ValidationError):
        TrainConfig(hidden=(0,))
    with pytest.raises(ValidationError):
        TrainConfig(hidden=(4,), epochs=-1)
    with pytest.raises(ValidationError):
        TrainConfig(hidden=(4,), optimizer="rmsprop")
    with pytest.raises(ValidationError):
        TrainConfig(hidden=(4,), val_fraction=1.5)
    for lr in (np.nan, np.inf):
        with pytest.raises(ValidationError, match="learning_rate"):
            TrainConfig(hidden=(4,), learning_rate=lr)
    with pytest.raises(ValidationError, match="seed"):
        TrainConfig(hidden=(4,), seed=-1)
    with pytest.raises(ValidationError, match="epochs"):
        TrainConfig(hidden=(4,), epochs=2.5)
    with pytest.raises(ValidationError, match="batch_size"):
        TrainConfig(hidden=(4,), batch_size=8.0)
    with pytest.raises(ValidationError, match="patience"):
        TrainConfig(hidden=(4,), patience=1.5)
    with pytest.raises(ValidationError, match="hidden"):
        TrainConfig(hidden=(4.5,))
    with pytest.raises(ValidationError, match="seed"):
        make_synthetic_digits(10, seed=-1)
    with pytest.raises(ValidationError, match="noise"):
        make_synthetic_digits(10, noise=np.inf)
    # numpy integers stay valid
    TrainConfig(hidden=(np.int64(4),), epochs=np.int32(2), batch_size=np.int64(8),
                patience=np.int64(2), seed=np.int64(3))
    make_synthetic_digits(np.int64(3), seed=np.int64(1))
    single_class = LabeledDataset(np.zeros((4, 2)), np.zeros(4, dtype=int))
    with pytest.raises(ValidationError):
        train(single_class, TrainConfig(hidden=(4,)))


def test_train_matches_per_array_reference():
    # Adam and SGD, 0-3 hidden layers, batch sizes that do (27) and do not (16)
    # divide the 135-row training split, early-stopped, full-length and
    # zero-epoch runs: the flat-buffer trainer reproduces every net bit for bit
    ds = make_synthetic_digits(150, seed=4)
    assert len(split_dataset(ds, 0.1, 5)[0]) == 135
    stopped_early = ran_every_epoch = 0
    for optimizer, lr in (("adam", 0.01), ("sgd", 0.2)):
        for hidden in ((), (6,), (7, 5), (6, 5, 4)):
            for batch_size in (27, 16):
                for epochs, patience in ((0, 3), (3, 10), (25, 1)):
                    cfg = TrainConfig(hidden=hidden, epochs=epochs, batch_size=batch_size,
                                      learning_rate=lr, optimizer=optimizer,
                                      patience=patience, seed=5)
                    ref, epochs_run = reference_train(ds, cfg)
                    assert train(ds, cfg).to_json() == ref.to_json(), cfg
                    stopped_early += epochs_run < epochs
                    ran_every_epoch += 0 < epochs_run == epochs
    assert stopped_early >= 4 and ran_every_epoch >= 4


def test_synthetic_digits_match_per_row_reference():
    for n in (1, 7, 64, 500):
        for seed in (0, 3):
            for noise in (0.0, 0.15, 0.5):
                got = make_synthetic_digits(n, seed=seed, noise=noise)
                want = reference_synthetic_digits(n, seed=seed, noise=noise)
                assert got.inputs.tobytes() == want.inputs.tobytes()
                assert np.array_equal(got.labels, want.labels)


def test_trained_net_bytes_are_pinned():
    # digest of the net the per-array trainer wrote for this configuration,
    # its arrays base64-encoded
    ds = make_synthetic_digits(300, seed=9)
    cfg = TrainConfig(hidden=(12, 8), epochs=6, batch_size=20, learning_rate=0.01, seed=3)
    digest = hashlib.sha256(train(ds, cfg).to_json().encode()).hexdigest()
    assert digest == "c6916d72824a151ceacc734e7c2dc2e302fc8bc5a6e989ed7cabf4fe3c8748c1"


def test_training_logs_each_epoch_and_the_early_stop(caplog):
    ds = make_synthetic_digits(150, seed=4)
    cfg = TrainConfig(hidden=(6,), epochs=40, batch_size=27, learning_rate=0.01, patience=1, seed=5)
    _, epochs_run = reference_train(ds, cfg)
    assert epochs_run < cfg.epochs
    with caplog.at_level(logging.DEBUG, logger="abstractnet.trainer"):
        train(ds, cfg)
    records = [r for r in caplog.records if r.name == "abstractnet.trainer"]
    epochs = [r for r in records if r.levelno == logging.DEBUG]
    assert [r.getMessage().split(":")[0] for r in epochs] == [
        f"epoch {e}" for e in range(epochs_run)
    ]
    (stop,) = [r for r in records if r.levelno == logging.INFO]
    assert stop.getMessage().startswith(f"early stop after epoch {epochs_run - 1} of 40")
