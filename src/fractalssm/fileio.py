"""Serialization of operators, models, discrete systems, and sequences.

JSON for matrices and model weights (schema-versioned, human-diffable),
CSV for time series.  Floats are written with Python's shortest
round-trip representation, so write-then-read reproduces every value
bit-exactly; complex numbers are two-element [re, im] arrays.
"""

from __future__ import annotations

import csv
import json
import math
import warnings
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from .operators import HippoOperators, check_alpha, check_state_dim
from .spectral import SpectralInit, spectral_init
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
    "write_table_csv",
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


def _number(value, key: str) -> float:
    """A JSON number as the writers write it, as a finite float; else ValueError
    naming key.  Refuses strings ("nan", "0.5"), bools and literals past the
    float range (1e999, which json parses to inf), all of which float() takes."""
    try:
        number = float(value) if type(value) in (int, float) else None
    except OverflowError:   # an integer literal past the float range
        number = None
    if number is None or not math.isfinite(number):
        raise ValueError(f"{key}: could not convert {value!r} to a finite number")
    return number


def _complex_in(pairs, shape, key: str) -> np.ndarray:
    flat = np.array([complex(_number(re, key), _number(im, key)) for re, im in pairs])
    if flat.size != int(np.prod(shape)):
        raise ValueError(f"expected {int(np.prod(shape))} complex entries, got {flat.size}")
    return flat.reshape(shape)


def _real_in(values, shape, key: str) -> np.ndarray:
    arr = np.asarray([_number(v, key) for v in values])
    if arr.size != int(np.prod(shape)):
        raise ValueError(f"expected {int(np.prod(shape))} entries, got {arr.size}")
    return arr.reshape(shape)


def _non_finite(literal):   # NaN, Infinity or -Infinity: not strict JSON, never written
    raise ValueError(f"non-finite number {literal}")


def _load(path, expected_schema: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh, parse_constant=_non_finite)
        except ValueError as exc:
            raise SchemaError(f"{path}: not valid JSON ({exc})") from exc
    if doc.get("schema_version") != expected_schema:
        raise SchemaError(
            f"{path}: schema_version {doc.get('schema_version')!r} != {expected_schema!r}")
    return doc


@contextmanager
def _malformed(path, what: str):
    """Report a missing field, a wrong type, a wrong entry count or an out-of-range
    value as SchemaError, its message prefixed with the path."""
    try:
        yield
    except SchemaError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise SchemaError(f"{path}: malformed {what} ({exc})") from exc


def _dump(path, doc: dict) -> None:
    """Write doc as strict JSON, creating the parent directory if missing; a NaN
    or infinity raises ValueError and writes no file."""
    try:
        text = json.dumps(doc, indent=1, allow_nan=False)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")


def write_operator_file(path, ops: HippoOperators) -> None:
    _dump(path, {
        "schema_version": OPERATOR_SCHEMA,
        "alpha": ops.alpha,
        "a": [float(v) for v in ops.a.ravel()],
        "b": [float(v) for v in ops.b],
    })


def read_operator_file(path) -> HippoOperators:
    # the length of "b" fixes n; older files also carry "n" and "quadrature_order",
    # and the reader reads neither
    doc = _load(path, OPERATOR_SCHEMA)
    with _malformed(path, "operator file"):
        alpha, n = _number(doc["alpha"], "alpha"), len(doc["b"])
        check_alpha(alpha)
        check_state_dim(n)
        return HippoOperators(alpha=alpha, a=_real_in(doc["a"], (n, n), "a"),
                              b=_real_in(doc["b"], (n,), "b"))


def _count(doc: dict, key: str) -> int:
    """doc[key] if it is a JSON integer, as counts are written; else ValueError."""
    if type(doc[key]) is not int:   # not a float, a string or a bool
        raise ValueError(f"{key} must be an integer, got {doc[key]!r}")
    return doc[key]


def _init_out(init: SpectralInit) -> dict:
    return {
        "lambda": _complex_out(init.eigenvalues),
        "b_tilde": _complex_out(init.b_tilde),
    }


def _init_in(doc: dict, config: FilterBankConfig, alpha: float) -> SpectralInit:
    # the config fixes the shapes and alpha; a model reads none of the keys older
    # channels also carry: "alpha", "n", "input_width", the eigenbasis "v" and
    # "v_inv", and "cond_v", which alpha and n fix: spectral_init recomputes it.
    # That costs 0.13 ms a channel at n = 8 and 5.7 ms at n = 256 (one BLAS
    # thread, pinned), and `fractal run` never reads cond_v; it stays until an
    # error flag on eps * cond_v reads it or the V^-1 B route is retired
    # (ROADMAP.md, items 2 and 6)
    n = config.block_state
    return SpectralInit(
        eigenvalues=_complex_in(doc["lambda"], (n,), "lambda"),
        b_tilde=_complex_in(doc["b_tilde"], (n, config.input_width), "b_tilde"),
        cond_v=spectral_init(alpha, n).cond_v,
    )


def write_model_file(path, config: FilterBankConfig, inits: list[SpectralInit],
                     weights: LayerWeights) -> None:
    d = weights.d
    doc = {
        "schema_version": MODEL_SCHEMA,
        "config": {
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
    # the alphas fix the channel count; older configs also carry "channels", unread
    doc = _load(path, MODEL_SCHEMA)
    with _malformed(path, "model file"):
        cfg = doc["config"]
        alphas = tuple(_number(a, "alphas") for a in cfg["alphas"])
        config = FilterBankConfig(
            channels=len(alphas), block_state=_count(cfg, "block_state"), alphas=alphas,
            delta=tuple(_number(d, "delta") for d in cfg["delta"]),
            input_width=_count(cfg, "input_width"), output_width=_count(cfg, "output_width"),
        )
        channels = doc["channels"]
        if len(channels) != config.channels:
            raise SchemaError(f"{path}: expected {config.channels} channels, "
                              f"got {len(channels)}")
        inits = [_init_in(ch, config, alpha) for ch, alpha in zip(channels, alphas)]
        w = doc["weights"]
        m, total = config.output_width, config.total_state
        d_raw = w["d"]
        weights = LayerWeights(
            c_tilde=_complex_in(w["c_tilde"], (m, total), "c_tilde"),
            w_out=_real_in(w["w_out"], (m, m), "w_out"),
            w_gate=_real_in(w["w_gate"], (m, config.input_width), "w_gate"),
            d=_number(d_raw, "d") if np.isscalar(d_raw) else _real_in(
                d_raw, (m, config.input_width), "d"),
        )
    return config, inits, weights


def write_dssm_file(path, ssm: DiscreteDiagonalSSM) -> None:
    _dump(path, {
        "schema_version": DSSM_SCHEMA,
        "delta": ssm.delta,
        "lambda_bar": _complex_out(ssm.lambda_bar),
        "b_bar": _complex_out(ssm.b_bar),
    })


def read_dssm_file(path) -> DiscreteDiagonalSSM:
    # the array lengths fix the shapes; older files also carry "n" and
    # "input_width", and the reader reads neither
    doc = _load(path, DSSM_SCHEMA)
    with _malformed(path, "discrete-system file"):
        n, entries = len(doc["lambda_bar"]), len(doc["b_bar"])
        check_state_dim(n)
        if entries == 0 or entries % n:
            raise ValueError(f"input_width must be >= 1 and whole: b_bar holds {entries} "
                             f"entries for n = {n}")
        delta = _number(doc["delta"], "delta")
        check_step(delta)
        return DiscreteDiagonalSSM(
            lambda_bar=_complex_in(doc["lambda_bar"], (n,), "lambda_bar"),
            b_bar=_complex_in(doc["b_bar"], (n, entries // n), "b_bar"),
            delta=delta,
        )


# write_table_csv formats this many rows per write: a block's strings take
# about 0.15 MB at width 1, where a 65536-step body formatted at once takes 9 MB
_CSV_BLOCK_ROWS = 1024


def write_table_csv(path, header: list[str], columns) -> None:
    """CSV of equal-length 1-D numeric arrays, one per named column.

    The header goes through csv.writer, which quotes a name holding a comma
    or a quote.  A body field never needs quoting (the repr of an integer or
    of a float, the shortest string that reads back bit-exactly), so the
    body is formatted column-wise, _CSV_BLOCK_ROWS rows per write, and every
    row ends in \\r\\n as csv.writer ends it: the file is byte-identical to
    one written row by row with csv.writer.  Zero-length columns write only
    the header.  The parent directory is created if missing.
    """
    if len(header) != len(columns) or len({len(column) for column in columns}) != 1:
        raise ValueError(f"{path}: expected {len(header)} columns of one length")
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh).writerow(header)
        for start in range(0, len(columns[0]), _CSV_BLOCK_ROWS):
            fields = [map(repr, column[start:start + _CSV_BLOCK_ROWS].tolist())
                      for column in columns]
            fh.write("\r\n".join(map(",".join, zip(*fields))) + "\r\n")


def write_sequence_csv(path, batch: SequenceBatch, prefix: str = "u") -> None:
    """Time series CSV with header t,<prefix>_0,...,<prefix>_{width-1}: the step
    index, then one column per value, written by write_table_csv."""
    write_table_csv(path, ["t"] + [f"{prefix}_{j}" for j in range(batch.width)],
                    [np.arange(batch.length), *batch.values.T])


def _bad_line(reader, width: int) -> str | None:
    """The first line of a sequence CSV that is ragged, holds a field float()
    rejects or holds a NaN or an infinity, and why; None if there is none.
    reader is a fresh csv.reader of the file: it counts every line, the header
    as line 1 and the empty lines np.loadtxt skips too.  A record whose quoted
    field spans lines is named by the line it starts on; reader.line_num is
    the line it ends on."""
    next(reader)
    start = reader.line_num + 1
    for row in reader:
        where, start = f"line {start}:", reader.line_num + 1
        if not row:
            continue
        if len(row) != width + 1:
            return f"{where} the header requires {width + 1} columns but {len(row)} were found"
        for field in row[1:]:
            try:
                if not np.isfinite(float(field)):
                    return f"{where} non-finite value {field!r}"
            except ValueError:
                return f"{where} could not convert string {field!r} to float64"
    return None


def read_sequence_csv(path) -> SequenceBatch:
    """Read a sequence CSV written by write_sequence_csv, or any CSV of that shape.

    csv.reader reads the header: a 't' column, then at least one value
    column.  The body goes to one np.loadtxt call with ',' delimiters and
    '"' quotes, so quoted fields, CRLF line endings and spaces around a
    number read as written, and empty lines are skipped.  Every other row
    must have as many fields as the header: a row of spaces, or one starting
    with '#' (nothing is a comment), is a ragged row.  The 't' field is
    split off but never parsed, so any text passes; every value field must
    be a finite float.  A ragged row, a field that is not a number (an empty
    one too), a NaN, an infinity or an empty body raises SchemaError naming
    the file.  For all but the empty body it also names the first file line
    at fault (_bad_line), and the error of np.loadtxt or SequenceBatch is
    its cause.
    """
    with open(path, "r", encoding="utf-8", newline="") as fh:
        header = next(csv.reader(fh), None)
        if not header or header[0] != "t" or len(header) < 2:
            raise SchemaError(f"{path}: expected a sequence CSV header: 't', then value columns")
        width = len(header) - 1
        # 'U0' holds no characters, so the 't' field is split off but not converted
        body = np.dtype([("t", "U0"), ("u", np.float64, (width,))])
        try:
            with warnings.catch_warnings():   # loadtxt warns on an empty body
                warnings.simplefilter("ignore", UserWarning)
                rows = np.loadtxt(fh, dtype=body, delimiter=",", quotechar='"',
                                  comments=None, ndmin=1)
            batch = SequenceBatch(values=rows["u"])
        except ValueError as exc:   # a ragged row, a field that is not a number, a NaN or an inf
            fh.seek(0)
            raise SchemaError(f"{path}: {_bad_line(csv.reader(fh), width) or exc}") from exc
    if batch.length == 0:
        raise SchemaError(f"{path}: empty sequence")
    return batch
