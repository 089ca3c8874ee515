"""Counter-based keyed randomness.

Every draw is a pure function of (seed, stream of integer keys): hash the
keys through a splitmix64-style finalizer chain, then map the 64-bit result
to the unit interval. No mutable generator state anywhere, so any site of
any field can be evaluated independently, in any order, on any worker.
"""
from __future__ import annotations

from typing import Iterable, Optional

import numpy as np

MASK64 = 0xFFFFFFFFFFFFFFFF

# odd constants from the splitmix64 reference finalizer plus golden-ratio
# increments; additions break the all-zero fixed point of the xor chain
_M1 = 0xBF58476D1CE4E5B9
_M2 = 0x94D049BB133111EB
_INC = 0x9E3779B97F4A7C15


def mix64(z: int) -> int:
    """splitmix64 finalizer on a 64-bit integer (Python int path)."""
    z &= MASK64
    z = ((z ^ (z >> 30)) * _M1) & MASK64
    z = ((z ^ (z >> 27)) * _M2) & MASK64
    return z ^ (z >> 31)


def hash_keys(seed: int, keys: Iterable[int]) -> int:
    """Hash an ordered key stream under a seed to one 64-bit word."""
    h = mix64((seed + _INC) & MASK64)
    for k in keys:
        h = mix64((h ^ (k & MASK64)) + _INC)
    return h


def derive_seed(seed: int, *indices: int) -> int:
    """Stable child seed for replica/stream `indices` under a master seed."""
    return hash_keys(seed, indices)


def unit_open(h: int) -> float:
    """Map a 64-bit word to the unit interval, symmetric about 1/2.

    Mathematically ((h >> 11) + 1/2) * 2^-53 lies in (0, 1); the top word
    rounds to 1.0 in float64, so downstream maps must tolerate u = 1.
    """
    return ((h >> 11) + 0.5) * 2.0**-53


# ---------------------------------------------------------------------------
# vectorized twins; must stay bit-identical to the scalar path

_M1_U = np.uint64(_M1)
_M2_U = np.uint64(_M2)
_INC_U = np.uint64(_INC)
_S11, _S27, _S30, _S31 = (np.uint64(s) for s in (11, 27, 30, 31))


def _mix64_inplace(z: np.ndarray, tmp: np.ndarray) -> None:
    """splitmix64 finalizer on z in place; tmp is scratch of z's shape.

    uint64 array arithmetic wraps modulo 2^64 without warning, which is the
    arithmetic the Python-int path spells out with & MASK64.
    """
    np.right_shift(z, _S30, out=tmp)
    np.bitwise_xor(z, tmp, out=z)
    np.multiply(z, _M1_U, out=z)
    np.right_shift(z, _S27, out=tmp)
    np.bitwise_xor(z, tmp, out=z)
    np.multiply(z, _M2_U, out=z)
    np.right_shift(z, _S31, out=tmp)
    np.bitwise_xor(z, tmp, out=z)


def hash_keys_vec(seed: int, scalar_keys: Iterable[int],
                  key_arrays: Iterable[np.ndarray]) -> np.ndarray:
    """Vectorized hash_keys: scalar keys first, then per-element key arrays.

    Equivalent to hash_keys(seed, [*scalar_keys, k1[i], k2[i], ...]) for
    every element i of the broadcast shape of key_arrays. The key arrays
    may form an open (sparse, broadcastable) mesh, such as the output of
    np.meshgrid(..., sparse=True): the chain is mixed at the extent of the
    prefix it has consumed so far, so a key of shape (M, 1) followed by one
    of shape (1, V) costs M mixes for the first and M*V for the second.
    Mixing runs in place on one fresh buffer per extent; the caller's key
    arrays are read, never written. Returns an array (0-d when every key
    array is 0-d or there are none).
    """
    h = mix64((seed + _INC) & MASK64)
    for k in scalar_keys:
        h = mix64((h ^ (k & MASK64)) + _INC)
    acc = tmp = None
    for arr in key_arrays:
        a = np.asarray(arr, dtype=np.int64).view(np.uint64)
        prev = np.uint64(h) if acc is None else acc
        shape = np.broadcast(prev, a).shape
        if acc is None or shape != acc.shape:
            acc = np.empty(shape, dtype=np.uint64)
            tmp = np.empty_like(acc)
        np.bitwise_xor(prev, a, out=acc)
        np.add(acc, _INC_U, out=acc)
        _mix64_inplace(acc, tmp)
    if acc is None:
        return np.array(h, dtype=np.uint64)
    return acc


def unit_open_vec(h: np.ndarray,
                  out: Optional[np.ndarray] = None) -> np.ndarray:
    """Vectorized unit_open; writes into out (float64) when given."""
    u = np.add(h >> _S11, 0.5, out=out, dtype=np.float64)
    return np.multiply(u, 2.0**-53, out=out)
