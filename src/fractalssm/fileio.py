"""Serialization of operators, models, discrete systems, and sequences.

JSON for matrices and model weights (schema-versioned, human-diffable),
CSV for time series.  Floats are written with Python's shortest
round-trip representation, so write-then-read reproduces every value
bit-exactly; complex numbers are two-element [re, im] arrays.
"""

from __future__ import annotations

import csv
import json
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from .operators import HippoOperators, check_alpha, check_quadrature_order, check_state_dim
from .spectral import SpectralInit
from .ssm import (DiscreteDiagonalSSM, FilterBankConfig, LayerWeights, SequenceBatch,
                  check_step)

__all__ = [
    "SchemaError",
    "OPERATOR_SCHEMA",
    "MODEL_SCHEMA",
    "DSSM_SCHEMA",
    "write_operator_file",
    "read_operator_file",
    "write_model_file",
    "read_model_file",
    "write_dssm_file",
    "read_dssm_file",
    "write_sequence_csv",
    "read_sequence_csv",
]

OPERATOR_SCHEMA = "fractal-op/1"
MODEL_SCHEMA = "fractal-model/1"
DSSM_SCHEMA = "fractal-dssm/1"


class SchemaError(ValueError):
    """Raised when a file fails schema or shape validation."""


def _complex_out(z: np.ndarray) -> list:
    z = np.asarray(z, dtype=complex)
    return [[float(c.real), float(c.imag)] for c in z.ravel()]


def _complex_in(pairs, shape) -> np.ndarray:
    flat = np.array([complex(re, im) for re, im in pairs])
    if flat.size != int(np.prod(shape)):
        raise SchemaError(f"expected {int(np.prod(shape))} complex entries, got {flat.size}")
    return flat.reshape(shape)


def _real_in(values, shape) -> np.ndarray:
    arr = np.asarray([float(v) for v in values])
    if arr.size != int(np.prod(shape)):
        raise SchemaError(f"expected {int(np.prod(shape))} entries, got {arr.size}")
    return arr.reshape(shape)


def _load(path, expected_schema: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"{path}: not valid JSON ({exc})") from exc
    if doc.get("schema_version") != expected_schema:
        raise SchemaError(
            f"{path}: schema_version {doc.get('schema_version')!r} != {expected_schema!r}")
    return doc


@contextmanager
def _malformed(path, what: str):
    """Report a missing field, a wrong type or an out-of-range value as SchemaError."""
    try:
        yield
    except SchemaError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise SchemaError(f"{path}: malformed {what} ({exc})") from exc


def _dump(path, doc: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


def write_operator_file(path, ops: HippoOperators) -> None:
    _dump(path, {
        "schema_version": OPERATOR_SCHEMA,
        "alpha": ops.alpha,
        "n": ops.n,
        "a": [float(v) for v in ops.a.ravel()],
        "b": [float(v) for v in ops.b],
        "quadrature_order": ops.quadrature_order,
    })


def read_operator_file(path) -> HippoOperators:
    doc = _load(path, OPERATOR_SCHEMA)
    with _malformed(path, "operator file"):
        alpha, n = float(doc["alpha"]), int(doc["n"])
        order = int(doc["quadrature_order"])
        check_alpha(alpha)
        check_state_dim(n)
        check_quadrature_order(n, order)
        return HippoOperators(alpha=alpha, n=n, a=_real_in(doc["a"], (n, n)),
                              b=_real_in(doc["b"], (n,)), quadrature_order=order)


def _init_out(init: SpectralInit) -> dict:
    return {
        "alpha": init.alpha,
        "n": init.n,
        "lambda": _complex_out(init.eigenvalues),
        "v": [float(x) for x in init.v.ravel()],
        "v_inv": [float(x) for x in init.v_inv.ravel()],
        "b_tilde": _complex_out(init.b_tilde),
        "input_width": init.b_tilde.shape[1],
        "cond_v": init.cond_v,
    }


def _init_in(doc: dict) -> SpectralInit:
    n = int(doc["n"])
    width = int(doc["input_width"])
    return SpectralInit(
        alpha=float(doc["alpha"]), n=n,
        eigenvalues=_complex_in(doc["lambda"], (n,)),
        v=_real_in(doc["v"], (n, n)),
        v_inv=_real_in(doc["v_inv"], (n, n)),
        b_tilde=_complex_in(doc["b_tilde"], (n, width)),
        cond_v=float(doc["cond_v"]),
    )


def write_model_file(path, config: FilterBankConfig, inits: list[SpectralInit],
                     weights: LayerWeights) -> None:
    d = weights.d
    doc = {
        "schema_version": MODEL_SCHEMA,
        "config": {
            "channels": config.channels,
            "block_state": config.block_state,
            "alphas": list(config.alphas),
            "delta": list(config.delta),
            "input_width": config.input_width,
            "output_width": config.output_width,
        },
        "channels": [_init_out(init) for init in inits],
        "weights": {
            "c_tilde": _complex_out(weights.c_tilde),
            "w_out": [float(x) for x in np.asarray(weights.w_out).ravel()],
            "w_gate": [float(x) for x in np.asarray(weights.w_gate).ravel()],
            "d": float(d) if np.isscalar(d) else [float(x) for x in np.asarray(d).ravel()],
        },
    }
    _dump(path, doc)


def read_model_file(path):
    doc = _load(path, MODEL_SCHEMA)
    with _malformed(path, "model file"):
        cfg = doc["config"]
        config = FilterBankConfig(
            channels=int(cfg["channels"]), block_state=int(cfg["block_state"]),
            alphas=tuple(float(a) for a in cfg["alphas"]),
            delta=tuple(float(d) for d in cfg["delta"]),
            input_width=int(cfg["input_width"]), output_width=int(cfg["output_width"]),
        )
        inits = [_init_in(ch) for ch in doc["channels"]]
        if len(inits) != config.channels:
            raise SchemaError(f"{path}: expected {config.channels} channels, "
                              f"got {len(inits)}")
        for init, alpha in zip(inits, config.alphas):
            if init.n != config.block_state or init.b_tilde.shape[1] != config.input_width:
                raise SchemaError(f"{path}: channel shapes do not match the config")
            if init.alpha != alpha:
                raise SchemaError(f"{path}: channel alpha {init.alpha} does not match "
                                  f"the config's {alpha}")
        w = doc["weights"]
        m, total = config.output_width, config.total_state
        d_raw = w["d"]
        weights = LayerWeights(
            c_tilde=_complex_in(w["c_tilde"], (m, total)),
            w_out=_real_in(w["w_out"], (m, m)),
            w_gate=_real_in(w["w_gate"], (m, config.input_width)),
            d=float(d_raw) if np.isscalar(d_raw) else _real_in(
                d_raw, (m, config.input_width)),
        )
    return config, inits, weights


def write_dssm_file(path, ssm: DiscreteDiagonalSSM) -> None:
    _dump(path, {
        "schema_version": DSSM_SCHEMA,
        "n": ssm.lambda_bar.shape[0],
        "input_width": ssm.b_bar.shape[1],
        "delta": ssm.delta,
        "lambda_bar": _complex_out(ssm.lambda_bar),
        "b_bar": _complex_out(ssm.b_bar),
    })


def read_dssm_file(path) -> DiscreteDiagonalSSM:
    doc = _load(path, DSSM_SCHEMA)
    with _malformed(path, "discrete-system file"):
        n, width = int(doc["n"]), int(doc["input_width"])
        delta = float(doc["delta"])
        check_step(delta)
        return DiscreteDiagonalSSM(
            lambda_bar=_complex_in(doc["lambda_bar"], (n,)),
            b_bar=_complex_in(doc["b_bar"], (n, width)),
            delta=delta,
        )


def write_sequence_csv(path, batch: SequenceBatch, prefix: str = "u") -> None:
    """Time series CSV with header t,<prefix>_0,...,<prefix>_{width-1}."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t"] + [f"{prefix}_{j}" for j in range(batch.width)])
        for k in range(batch.length):
            writer.writerow([k] + [repr(float(v)) for v in batch.values[k]])


def read_sequence_csv(path) -> SequenceBatch:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if not header or header[0] != "t":
            raise SchemaError(f"{path}: expected a sequence CSV with a 't' column")
        width = len(header) - 1
        if width < 1:
            raise SchemaError(f"{path}: no value columns")
        rows = []
        for line in reader:
            if not line:
                continue
            if len(line) != width + 1:
                raise SchemaError(f"{path}: ragged row of length {len(line)}")
            rows.append([float(v) for v in line[1:]])
    if not rows:
        raise SchemaError(f"{path}: empty sequence")
    return SequenceBatch(values=np.asarray(rows))


def ensure_parent(path) -> None:
    """Create the parent directory of an output path if needed."""
    Path(path).parent.mkdir(parents=True, exist_ok=True)
