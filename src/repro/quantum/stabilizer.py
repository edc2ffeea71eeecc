"""Stabilizer (CHP tableau) engine for Clifford circuits with Pauli noise.

The UA-DI-QSDC circuits are almost entirely Clifford — Bell-pair
preparation, Pauli-frame encoding, identity-gate channels, Bell-basis
measurement — and every stochastic noise primitive the paper's emulation
needs (depolarizing, bit/phase flip, general Pauli channels) is a mixture of
Pauli unitaries.  For that class this module simulates in polynomial time
what the dense simulators pay exponential cost for, while reproducing their
sampling contract exactly:

* :class:`CliffordTableau` — an Aaronson–Gottesman CHP tableau (destabilizer
  + stabilizer rows over :math:`F_2`) with the full Clifford gate set of
  :class:`~repro.quantum.circuit.QuantumCircuit`, computational-basis
  measurement and reset.  Measurement outcomes can optionally be tracked
  *symbolically*: every random outcome becomes a fresh binary symbol and all
  subsequent phases stay affine in those symbols, which turns one tableau
  pass into the **exact joint outcome distribution** (uniform over an affine
  subspace) instead of one Monte-Carlo sample.
* :class:`BatchedCliffordTableau` — ``B`` tableaus under one common
  instruction stream, with the symplectic X/Z bits bit-packed into
  ``uint64`` words and shared by the batch while only the signs carry the
  batch axis, so every gate, measurement and sampled Pauli error is one
  whole-batch array op.
* :class:`StabilizerSimulator` — the one stabilizer front-end, with the
  same ``run`` / ``run_batch`` /
  :class:`~repro.quantum.simulator.SimulationResult` contract as the dense
  simulators (``run(c)`` is ``run_batch([c]).results[0]``).  Each distinct
  terminal-measurement circuit structure resolves once into a cached
  **sampling plan**: one symbolic tableau pass yields the exact probability
  vector over the measured qubits, Pauli noise is folded in exactly via an
  XOR-convolution of error masks (each error component is conjugated
  through the remaining circuit; only its X-action on measured qubits can
  affect counts), readout errors apply through the very same
  :meth:`~repro.quantum.noise_model.NoiseModel.apply_readout_errors` code
  the dense path uses, and the outcome keys are pre-rendered.  Every
  circuit then costs one ``multinomial`` draw in submission order — the
  identical RNG consumption pattern as the dense simulators, which is what
  makes noiseless Clifford counts bit-identical under a fixed seed.
  Circuits outside the analytic envelope (too many measured qubits or
  random outcomes), and ``method="trajectory"`` requests, run Pauli-noise
  **trajectory sampling** on :class:`BatchedCliffordTableau` with the shot
  axis as the batch axis.

Eligibility (Clifford-only gates, Pauli-diagonal noise) is *checked* here
but *decided* by :mod:`repro.quantum.dispatch`, which routes circuits
between this backend and the dense ones.
"""

from __future__ import annotations

from collections import OrderedDict
from collections.abc import Sequence

import numpy as np

from repro.exceptions import SimulationError
from repro.quantum.batch import (
    BatchResult,
    _noise_token,
    circuit_structure_key,
    measurements_are_terminal,
)
from repro.quantum.circuit import QuantumCircuit
from repro.quantum.simulator import (
    SimulationResult,
    _format_clbits,
    renormalize_readout_probabilities,
)
from repro.telemetry import runtime as telemetry
from repro.utils.rng import as_rng

__all__ = [
    "ANALYTIC_MAX_MEASURED_QUBITS",
    "ANALYTIC_MAX_SYMBOLS",
    "BatchedCliffordTableau",
    "CLIFFORD_GATE_NAMES",
    "CliffordTableau",
    "StabilizerSimulator",
    "popcount",
]

#: Gate names the tableau implements (the Clifford subset of ``make_gate``).
CLIFFORD_GATE_NAMES = frozenset(
    {"id", "x", "y", "z", "h", "s", "sdg", "cx", "cz", "cy", "swap"}
)

#: Order of each Clifford gate (G**order = identity); run-length-encoded
#: repetitions reduce modulo this, so an η-identity chain costs O(1).
_GATE_ORDER = {
    "id": 1, "x": 2, "y": 2, "z": 2, "h": 2,
    "s": 4, "sdg": 4, "cx": 2, "cz": 2, "cy": 2, "swap": 2,
}

#: Analytic-path cap on measured qubits: the exact probability vector has
#: ``2**m`` entries (the same quantity the dense samplers materialise).
#: The bound is INCLUSIVE — exactly 12 measured qubits still runs
#: analytically, 13 falls back — matching the "measured qubits ≤ 12" error
#: message; both sides of the boundary are pinned by
#: ``tests/quantum/test_analytic_envelope.py``.
ANALYTIC_MAX_MEASURED_QUBITS = 12

#: Analytic-path cap on random measurement outcomes (symbols): enumerating
#: the affine outcome subspace costs ``2**r`` rows.  Inclusive like the
#: measured-qubit cap: exactly 16 symbols still runs analytically, 17 falls
#: back ("random outcomes ≤ 16"); boundary pinned by
#: ``tests/quantum/test_analytic_envelope.py``.
ANALYTIC_MAX_SYMBOLS = 16


class CliffordTableau:
    """An n-qubit stabilizer state in CHP tableau form.

    Rows ``0..n-1`` are destabilizer generators, rows ``n..2n-1`` stabilizer
    generators; ``x``/``z`` hold the symplectic bits and ``r`` the sign
    exponent (the generator carries sign ``(-1)**r``).

    With ``track_symbols=True`` every random measurement outcome becomes a
    fresh binary symbol and row signs become affine forms ``r ⊕ (mask · s)``
    over the symbol vector ``s`` (``mask`` is a Python-int bitmask).  All
    tableau operations keep the forms affine, so one pass computes every
    measurement outcome as an affine function of uniformly random symbols —
    the exact joint distribution.
    """

    __slots__ = ("n", "x", "z", "r", "rsym", "num_symbols")

    def __init__(self, num_qubits: int, track_symbols: bool = False):
        if num_qubits < 1:
            raise SimulationError("a tableau needs at least one qubit")
        n = int(num_qubits)
        self.n = n
        self.x = np.zeros((2 * n, n), dtype=bool)
        self.z = np.zeros((2 * n, n), dtype=bool)
        self.r = np.zeros(2 * n, dtype=np.uint8)
        self.x[:n, :] = np.eye(n, dtype=bool)
        self.z[n:, :] = np.eye(n, dtype=bool)
        self.rsym: list[int] | None = [0] * (2 * n) if track_symbols else None
        self.num_symbols = 0

    # -- gates ---------------------------------------------------------------------
    def h(self, q: int) -> None:
        self.r ^= self.x[:, q] & self.z[:, q]
        self.x[:, q], self.z[:, q] = self.z[:, q].copy(), self.x[:, q].copy()

    def s(self, q: int) -> None:
        self.r ^= self.x[:, q] & self.z[:, q]
        self.z[:, q] ^= self.x[:, q]

    def sdg(self, q: int) -> None:
        self.z_gate(q)
        self.s(q)

    def x_gate(self, q: int) -> None:
        self.r ^= self.z[:, q]

    def y_gate(self, q: int) -> None:
        self.r ^= self.x[:, q] ^ self.z[:, q]

    def z_gate(self, q: int) -> None:
        self.r ^= self.x[:, q]

    def cx(self, control: int, target: int) -> None:
        self.r ^= (
            self.x[:, control]
            & self.z[:, target]
            & (self.x[:, target] ^ self.z[:, control] ^ True)
        )
        self.x[:, target] ^= self.x[:, control]
        self.z[:, control] ^= self.z[:, target]

    def cz(self, control: int, target: int) -> None:
        self.h(target)
        self.cx(control, target)
        self.h(target)

    def cy(self, control: int, target: int) -> None:
        self.sdg(target)
        self.cx(control, target)
        self.s(target)

    def swap(self, a: int, b: int) -> None:
        self.x[:, [a, b]] = self.x[:, [b, a]]
        self.z[:, [a, b]] = self.z[:, [b, a]]

    def apply_gate(self, name: str, qubits: Sequence[int], repetitions: int = 1) -> None:
        """Apply a named Clifford gate ``repetitions`` times (reduced mod its order)."""
        order = _GATE_ORDER.get(name)
        if order is None:
            raise SimulationError(
                f"gate {name!r} is not Clifford; the stabilizer backend supports "
                f"{sorted(CLIFFORD_GATE_NAMES)}"
            )
        for _ in range(repetitions % order if order > 1 else 0):
            if name == "h":
                self.h(qubits[0])
            elif name == "s":
                self.s(qubits[0])
            elif name == "sdg":
                self.sdg(qubits[0])
            elif name == "x":
                self.x_gate(qubits[0])
            elif name == "y":
                self.y_gate(qubits[0])
            elif name == "z":
                self.z_gate(qubits[0])
            elif name == "cx":
                self.cx(qubits[0], qubits[1])
            elif name == "cz":
                self.cz(qubits[0], qubits[1])
            elif name == "cy":
                self.cy(qubits[0], qubits[1])
            elif name == "swap":
                self.swap(qubits[0], qubits[1])

    def apply_pauli(self, label: str, qubits: Sequence[int]) -> None:
        """Apply a Pauli string (one character per listed qubit) as a unitary."""
        for ch, qubit in zip(label.lower(), qubits):
            if ch == "i":
                continue
            if ch == "x":
                self.x_gate(qubit)
            elif ch == "y":
                self.y_gate(qubit)
            elif ch == "z":
                self.z_gate(qubit)
            else:
                raise SimulationError(f"unknown Pauli character {ch!r}")

    # -- row algebra ------------------------------------------------------------------
    def _phase_exponent(self, h: int, i: int) -> int:
        """The mod-4 phase exponent contribution of multiplying row i into row h."""
        x1 = self.x[i].astype(np.int8)
        z1 = self.z[i].astype(np.int8)
        x2 = self.x[h].astype(np.int8)
        z2 = self.z[h].astype(np.int8)
        g = (
            (x1 & z1) * (z2 - x2)
            + (x1 & (1 - z1)) * (z2 * (2 * x2 - 1))
            + ((1 - x1) & z1) * (x2 * (1 - 2 * z2))
        )
        return int(g.sum())

    def _rowsum(self, h: int, i: int) -> None:
        """Replace generator h with generator i * generator h (CHP rowsum)."""
        total = 2 * int(self.r[h]) + 2 * int(self.r[i]) + self._phase_exponent(h, i)
        self.r[h] = (total % 4) // 2
        self.x[h] ^= self.x[i]
        self.z[h] ^= self.z[i]
        if self.rsym is not None:
            self.rsym[h] ^= self.rsym[i]

    # -- measurement -----------------------------------------------------------------
    def _collapse(self, q: int) -> int:
        """Collapse qubit *q* for a random-outcome measurement; return row p.

        Performs the CHP update (rowsums, destabilizer replacement, fresh
        ``Z_q`` stabilizer) but leaves the new stabilizer's sign to the
        caller — sampled in :meth:`measure`, symbolic in
        :meth:`measure_symbolic`.
        """
        p = int(np.flatnonzero(self.x[self.n:, q])[0]) + self.n
        for i in np.flatnonzero(self.x[:, q]):
            if int(i) != p:
                self._rowsum(int(i), p)
        d = p - self.n
        self.x[d] = self.x[p]
        self.z[d] = self.z[p]
        self.r[d] = self.r[p]
        if self.rsym is not None:
            self.rsym[d] = self.rsym[p]
        self.x[p] = False
        self.z[p] = False
        self.z[p, q] = True
        return p

    def measure(self, q: int, rng: np.random.Generator) -> int:
        """Measure qubit *q* in the computational basis, sampling via *rng*."""
        if np.any(self.x[self.n:, q]):
            p = self._collapse(q)
            outcome = int(rng.integers(0, 2))
            self.r[p] = outcome
            if self.rsym is not None:
                self.rsym[p] = 0
            return outcome
        constant, _ = self._deterministic_form(q)
        return constant

    def measure_symbolic(self, q: int) -> tuple[int, int]:
        """Measure qubit *q*, returning the outcome as ``(constant, symbol_mask)``.

        A random outcome allocates a fresh symbol (bit ``num_symbols - 1`` of
        subsequent masks); a deterministic outcome may still depend on earlier
        symbols through its mask.
        """
        if self.rsym is None:
            raise SimulationError("symbolic measurement requires track_symbols=True")
        if np.any(self.x[self.n:, q]):
            p = self._collapse(q)
            symbol = 1 << self.num_symbols
            self.num_symbols += 1
            self.r[p] = 0
            self.rsym[p] = symbol
            return 0, symbol
        return self._deterministic_form(q)

    def _deterministic_form(self, q: int) -> tuple[int, int]:
        """Affine form of a deterministic measurement outcome on qubit *q*."""
        scratch_x = np.zeros(self.n, dtype=bool)
        scratch_z = np.zeros(self.n, dtype=bool)
        phase = 0  # mod 4
        mask = 0
        for i in np.flatnonzero(self.x[: self.n, q]):
            stab = int(i) + self.n
            x1 = self.x[stab].astype(np.int8)
            z1 = self.z[stab].astype(np.int8)
            x2 = scratch_x.astype(np.int8)
            z2 = scratch_z.astype(np.int8)
            g = (
                (x1 & z1) * (z2 - x2)
                + (x1 & (1 - z1)) * (z2 * (2 * x2 - 1))
                + ((1 - x1) & z1) * (x2 * (1 - 2 * z2))
            )
            phase = (phase + 2 * int(self.r[stab]) + int(g.sum())) % 4
            scratch_x ^= self.x[stab]
            scratch_z ^= self.z[stab]
            if self.rsym is not None:
                mask ^= self.rsym[stab]
        return (phase % 4) // 2, mask

    def reset(self, q: int, rng: np.random.Generator) -> None:
        """Reset qubit *q* to ``|0>`` (measure, then flip on outcome 1)."""
        if self.measure(q, rng) == 1:
            self.x_gate(q)

    def reset_symbolic(self, q: int) -> None:
        """Reset qubit *q* to ``|0>`` with a symbol-conditioned correction.

        The conditional ``X`` correction flips the sign of every generator
        anticommuting with ``X_q`` whenever the (affine) measurement outcome
        is 1 — which keeps all signs affine in the symbols.
        """
        constant, mask = self.measure_symbolic(q)
        if constant == 0 and mask == 0:
            return
        rows = np.flatnonzero(self.z[:, q])
        if constant:
            self.r[rows] ^= 1
        if mask and self.rsym is not None:
            for row in rows:
                self.rsym[int(row)] ^= mask

    # -- introspection -----------------------------------------------------------------
    def stabilizer_strings(self) -> list[str]:
        """The stabilizer generators as signed Pauli strings (for tests/debugging)."""
        out = []
        for row in range(self.n, 2 * self.n):
            sign = "-" if self.r[row] else "+"
            chars = []
            for q in range(self.n):
                xb, zb = bool(self.x[row, q]), bool(self.z[row, q])
                chars.append("Y" if xb and zb else "X" if xb else "Z" if zb else "I")
            out.append(sign + "".join(chars))
        return out


# -- Pauli-frame propagation (noise masks) -----------------------------------------------
class _SuffixPauliMap:
    """Conjugation action of a circuit suffix on single-qubit Paulis, mod phase.

    Row ``q`` of ``(xx, xz)`` is the (x-part, z-part) image of ``X_q`` under
    conjugation by the suffix processed so far; ``(zx, zz)`` likewise for
    ``Z_q``.  Built by prepending instructions while walking the circuit in
    reverse, so at any point the map sends a Pauli error *inserted at the
    current position* to its end-of-circuit image — whose X-action on the
    measured qubits is the only thing that can shift computational-basis
    counts.
    """

    def __init__(self, num_qubits: int):
        n = num_qubits
        self.xx = np.eye(n, dtype=bool)
        self.xz = np.zeros((n, n), dtype=bool)
        self.zx = np.zeros((n, n), dtype=bool)
        self.zz = np.eye(n, dtype=bool)

    def prepend(self, name: str, qubits: Sequence[int]) -> bool:
        """Fold one earlier gate into the map; True if the map changed."""
        if name in ("id", "x", "y", "z"):
            return False
        if name == "h":
            q = qubits[0]
            self.xx[q], self.zx[q] = self.zx[q].copy(), self.xx[q].copy()
            self.xz[q], self.zz[q] = self.zz[q].copy(), self.xz[q].copy()
        elif name in ("s", "sdg"):
            q = qubits[0]
            self.xx[q] ^= self.zx[q]
            self.xz[q] ^= self.zz[q]
        elif name == "cx":
            c, t = qubits
            self.xx[c] ^= self.xx[t]
            self.xz[c] ^= self.xz[t]
            self.zx[t] ^= self.zx[c]
            self.zz[t] ^= self.zz[c]
        elif name == "cz":
            c, t = qubits
            self.xx[c] ^= self.zx[t]
            self.xz[c] ^= self.zz[t]
            self.xx[t] ^= self.zx[c]
            self.xz[t] ^= self.zz[c]
        elif name == "cy":
            c, t = qubits
            self.xx[c] ^= self.xx[t] ^ self.zx[t]
            self.xz[c] ^= self.xz[t] ^ self.zz[t]
            self.xx[t] ^= self.zx[c]
            self.xz[t] ^= self.zz[c]
            self.zx[t] ^= self.zx[c]
            self.zz[t] ^= self.zz[c]
        elif name == "swap":
            a, b = qubits
            for rows in (self.xx, self.xz, self.zx, self.zz):
                rows[[a, b]] = rows[[b, a]]
        else:
            raise SimulationError(f"cannot propagate Paulis through gate {name!r}")
        return True

    def prepend_reset(self, qubit: int) -> None:
        """A reset annihilates any error component living on its qubit."""
        self.xx[qubit] = False
        self.xz[qubit] = False
        self.zx[qubit] = False
        self.zz[qubit] = False

    def final_x_mask(self, label: str, qubits: Sequence[int]) -> np.ndarray:
        """X-part (length-n bool vector) of the suffix image of a Pauli string."""
        mask = np.zeros(self.xx.shape[0], dtype=bool)
        for ch, qubit in zip(label.lower(), qubits):
            if ch in ("x", "y"):
                mask ^= self.xx[qubit]
            if ch in ("z", "y"):
                mask ^= self.zx[qubit]
        return mask


def _walsh_hadamard(vector: np.ndarray) -> np.ndarray:
    """Unnormalised Walsh–Hadamard transform (XOR-convolution becomes pointwise)."""
    out = vector.astype(float).copy()
    size = out.shape[0]
    step = 1
    while step < size:
        for start in range(0, size, 2 * step):
            a = out[start : start + step].copy()
            b = out[start + step : start + 2 * step].copy()
            out[start : start + step] = a + b
            out[start + step : start + 2 * step] = a - b
        step *= 2
    return out


# -- batched tableau (trajectory sampling) -------------------------------------------------
_ONE = np.uint64(1)
_ZERO = np.uint64(0)

#: Bits per packed word of the symplectic bit matrix.
WORD_BITS = 64


if hasattr(np, "bitwise_count"):

    def popcount(words: np.ndarray) -> np.ndarray:
        """Per-element population count of a ``uint64`` array."""
        return np.bitwise_count(words)

else:  # pragma: no cover - exercised only on numpy < 2.0

    def popcount(words: np.ndarray) -> np.ndarray:
        """Portable SWAR popcount for ``uint64`` arrays (no ``bitwise_count``)."""
        v = words.copy()
        m1 = np.uint64(0x5555555555555555)
        m2 = np.uint64(0x3333333333333333)
        m4 = np.uint64(0x0F0F0F0F0F0F0F0F)
        h01 = np.uint64(0x0101010101010101)
        v -= (v >> _ONE) & m1
        v = (v & m2) + ((v >> np.uint64(2)) & m2)
        v = (v + (v >> np.uint64(4))) & m4
        return (v * h01) >> np.uint64(56)


class BatchedCliffordTableau:
    """``B`` CHP tableaus sharing one symplectic block, batched over signs.

    Rows ``0..n-1`` are destabilizer generators and rows ``n..2n-1``
    stabilizer generators, exactly as in :class:`CliffordTableau`; the X/Z
    symplectic bits are packed into ``uint64`` words of shape ``(2n, W)``
    with ``W = ceil(n / 64)`` (qubit ``q`` lives in bit ``q % 64`` of word
    ``q // 64``), shared by the whole batch, while the sign exponents ``r``
    carry the batch axis as a ``(B, 2n)`` ``uint8`` array.

    The sharing is valid because every batched operation this class exposes
    keeps the symplectic part common: Clifford gates act identically on all
    elements, Pauli frames (:meth:`apply_pauli_masked`) flip only signs,
    measurements of a common instruction stream are random/deterministic for
    *all* elements simultaneously (randomness enters only through ``r``),
    and reset corrections are sign conditionals.  Feeding elements through
    *different* gate streams would violate the invariant — the batch is a
    batch of sessions running one circuit, not a pool of arbitrary states.
    """

    __slots__ = ("n", "batch_size", "words", "x", "z", "r", "_word", "_shift")

    def __init__(self, num_qubits: int, batch_size: int):
        if num_qubits < 1:
            raise SimulationError("a tableau needs at least one qubit")
        if batch_size < 1:
            raise SimulationError("a batched tableau needs at least one element")
        n = int(num_qubits)
        self.n = n
        self.batch_size = int(batch_size)
        self.words = (n + WORD_BITS - 1) // WORD_BITS
        self.x = np.zeros((2 * n, self.words), dtype=np.uint64)
        self.z = np.zeros((2 * n, self.words), dtype=np.uint64)
        self.r = np.zeros((self.batch_size, 2 * n), dtype=np.uint8)
        qubits = np.arange(n)
        self._word = qubits // WORD_BITS
        self._shift = (qubits % WORD_BITS).astype(np.uint64)
        # Destabilizer row q starts as X_q, stabilizer row n+q as Z_q.
        self.x[qubits, self._word] = _ONE << self._shift
        self.z[n + qubits, self._word] = _ONE << self._shift

    # -- packed-bit access ------------------------------------------------------------
    def _col(self, words: np.ndarray, q: int) -> np.ndarray:
        """The 0/1 bit column of qubit *q* across all rows, as ``uint64``."""
        return (words[:, self._word[q]] >> self._shift[q]) & _ONE

    def _flip_rows(self, label: str, qubits: Sequence[int]) -> np.ndarray:
        """Rows anticommuting with a Pauli string (the sign-flip vector)."""
        flip = np.zeros(2 * self.n, dtype=np.uint8)
        for ch, qubit in zip(label.lower(), qubits):
            if ch == "i":
                continue
            if ch in ("x", "y"):
                flip ^= self._col(self.z, qubit).astype(np.uint8)
            if ch in ("z", "y"):
                flip ^= self._col(self.x, qubit).astype(np.uint8)
            if ch not in ("x", "y", "z"):
                raise SimulationError(f"unknown Pauli character {ch!r}")
        return flip

    # -- gates ------------------------------------------------------------------------
    def h(self, q: int) -> None:
        w, s = self._word[q], self._shift[q]
        xq = (self.x[:, w] >> s) & _ONE
        zq = (self.z[:, w] >> s) & _ONE
        self.r ^= (xq & zq).astype(np.uint8)
        diff = (xq ^ zq) << s
        self.x[:, w] ^= diff
        self.z[:, w] ^= diff

    def s(self, q: int) -> None:
        w, s = self._word[q], self._shift[q]
        xq = (self.x[:, w] >> s) & _ONE
        zq = (self.z[:, w] >> s) & _ONE
        self.r ^= (xq & zq).astype(np.uint8)
        self.z[:, w] ^= xq << s

    def sdg(self, q: int) -> None:
        self.z_gate(q)
        self.s(q)

    def x_gate(self, q: int) -> None:
        self.r ^= self._col(self.z, q).astype(np.uint8)

    def y_gate(self, q: int) -> None:
        self.r ^= (self._col(self.x, q) ^ self._col(self.z, q)).astype(np.uint8)

    def z_gate(self, q: int) -> None:
        self.r ^= self._col(self.x, q).astype(np.uint8)

    def cx(self, control: int, target: int) -> None:
        wc, sc = self._word[control], self._shift[control]
        wt, st = self._word[target], self._shift[target]
        xc = (self.x[:, wc] >> sc) & _ONE
        zc = (self.z[:, wc] >> sc) & _ONE
        xt = (self.x[:, wt] >> st) & _ONE
        zt = (self.z[:, wt] >> st) & _ONE
        self.r ^= (xc & zt & (xt ^ zc ^ _ONE)).astype(np.uint8)
        self.x[:, wt] ^= xc << st
        self.z[:, wc] ^= zt << sc

    def cz(self, control: int, target: int) -> None:
        self.h(target)
        self.cx(control, target)
        self.h(target)

    def cy(self, control: int, target: int) -> None:
        self.sdg(target)
        self.cx(control, target)
        self.s(target)

    def swap(self, a: int, b: int) -> None:
        wa, sa = self._word[a], self._shift[a]
        wb, sb = self._word[b], self._shift[b]
        for words in (self.x, self.z):
            ca = (words[:, wa] >> sa) & _ONE
            cb = (words[:, wb] >> sb) & _ONE
            diff = ca ^ cb
            words[:, wa] ^= diff << sa
            words[:, wb] ^= diff << sb

    def apply_gate(self, name: str, qubits: Sequence[int], repetitions: int = 1) -> None:
        """Apply a named Clifford gate ``repetitions`` times (reduced mod its order)."""
        order = _GATE_ORDER.get(name)
        if order is None:
            raise SimulationError(
                f"gate {name!r} is not Clifford; the stabilizer backend supports "
                f"{sorted(CLIFFORD_GATE_NAMES)}"
            )
        for _ in range(repetitions % order if order > 1 else 0):
            if name == "h":
                self.h(qubits[0])
            elif name == "s":
                self.s(qubits[0])
            elif name == "sdg":
                self.sdg(qubits[0])
            elif name == "x":
                self.x_gate(qubits[0])
            elif name == "y":
                self.y_gate(qubits[0])
            elif name == "z":
                self.z_gate(qubits[0])
            elif name == "cx":
                self.cx(qubits[0], qubits[1])
            elif name == "cz":
                self.cz(qubits[0], qubits[1])
            elif name == "cy":
                self.cy(qubits[0], qubits[1])
            elif name == "swap":
                self.swap(qubits[0], qubits[1])

    # -- Pauli frames (noise injection) ---------------------------------------------------
    def apply_pauli(self, label: str, qubits: Sequence[int]) -> None:
        """Apply a Pauli string as a unitary to every batch element."""
        self.r ^= self._flip_rows(label, qubits)[None, :]

    def apply_pauli_masked(
        self, label: str, qubits: Sequence[int], element_mask: np.ndarray
    ) -> None:
        """Apply a Pauli string only to the batch elements selected by *element_mask*.

        This is the vectorized trajectory-noise primitive: one sampled Pauli
        realisation per element becomes one masked sign-flip per distinct
        label, instead of ``B`` per-shot tableau updates.
        """
        flip = self._flip_rows(label, qubits)
        self.r ^= element_mask.astype(np.uint8)[:, None] & flip[None, :]

    # -- row algebra ----------------------------------------------------------------------
    def _phase_exponents(self, p: int, rows: np.ndarray) -> np.ndarray:
        """Per-row mod-4 phase exponent of multiplying row *p* into *rows*.

        :meth:`CliffordTableau._phase_exponent`'s g-sum, recast on packed words: per
        qubit the contribution is +1 on the ``P`` bit pattern and −1 on
        ``M``, so the sum is ``popcount(P) − popcount(M)``.
        """
        x1 = self.x[p][None, :]
        z1 = self.z[p][None, :]
        x2 = self.x[rows]
        z2 = self.z[rows]
        plus = (x1 & z1 & ~x2 & z2) | (x1 & ~z1 & x2 & z2) | (~x1 & z1 & x2 & ~z2)
        minus = (x1 & z1 & x2 & ~z2) | (x1 & ~z1 & ~x2 & z2) | (~x1 & z1 & x2 & z2)
        return (
            popcount(plus).sum(axis=-1).astype(np.int64)
            - popcount(minus).sum(axis=-1).astype(np.int64)
        )

    # -- measurement ----------------------------------------------------------------------
    def measure(self, q: int, rng: np.random.Generator) -> np.ndarray:
        """Measure qubit *q* on every element; returns a ``(B,)`` outcome array.

        Because the symplectic block is shared, the measurement is random for
        all elements or deterministic for all elements; only the outcome
        values differ across the batch.
        """
        column = self._col(self.x, q)
        if column[self.n :].any():
            # Random outcome: one common CHP collapse, batched sign rowsums.
            p = self.n + int(np.argmax(column[self.n :]))
            rows = np.flatnonzero(column.astype(bool))
            rows = rows[rows != p]
            if rows.size:
                g = self._phase_exponents(p, rows)
                rh = self.r[:, rows].astype(np.int64)
                rp = self.r[:, p].astype(np.int64)[:, None]
                self.r[:, rows] = (
                    ((2 * rh + 2 * rp + g[None, :]) % 4) // 2
                ).astype(np.uint8)
                self.x[rows] ^= self.x[p]
                self.z[rows] ^= self.z[p]
            d = p - self.n
            self.x[d] = self.x[p]
            self.z[d] = self.z[p]
            self.r[:, d] = self.r[:, p]
            self.x[p] = _ZERO
            self.z[p] = _ZERO
            self.z[p, self._word[q]] = _ONE << self._shift[q]
            outcomes = rng.integers(0, 2, size=self.batch_size).astype(np.uint8)
            self.r[:, p] = outcomes
            return outcomes
        # Deterministic outcome: common scratch accumulation, per-element signs.
        stab_rows = self.n + np.flatnonzero(column[: self.n].astype(bool))
        scratch_x = np.zeros(self.words, dtype=np.uint64)
        scratch_z = np.zeros(self.words, dtype=np.uint64)
        g_total = 0
        for row in stab_rows:
            x1, z1 = self.x[row], self.z[row]
            x2, z2 = scratch_x, scratch_z
            plus = (x1 & z1 & ~x2 & z2) | (x1 & ~z1 & x2 & z2) | (~x1 & z1 & x2 & ~z2)
            minus = (x1 & z1 & x2 & ~z2) | (x1 & ~z1 & ~x2 & z2) | (~x1 & z1 & x2 & z2)
            g_total += int(popcount(plus).sum()) - int(popcount(minus).sum())
            scratch_x = scratch_x ^ x1
            scratch_z = scratch_z ^ z1
        r_sum = self.r[:, stab_rows].sum(axis=1, dtype=np.int64)
        return (((2 * r_sum + g_total) % 4) // 2).astype(np.uint8)

    def reset(self, q: int, rng: np.random.Generator) -> np.ndarray:
        """Reset qubit *q* to ``|0>`` on every element; returns the pre-reset bits."""
        outcomes = self.measure(q, rng)
        rows = np.flatnonzero(self._col(self.z, q).astype(bool))
        if rows.size:
            # X-correction on elements that measured 1 (sign flips only).
            self.r[:, rows] ^= outcomes[:, None]
        return outcomes

    # -- introspection ----------------------------------------------------------------------
    def stabilizer_strings(self, element: int = 0) -> list[str]:
        """One element's stabilizer generators as signed Pauli strings."""
        out = []
        for row in range(self.n, 2 * self.n):
            sign = "-" if self.r[element, row] else "+"
            chars = []
            for q in range(self.n):
                xb = bool((self.x[row, self._word[q]] >> self._shift[q]) & _ONE)
                zb = bool((self.z[row, self._word[q]] >> self._shift[q]) & _ONE)
                chars.append("Y" if xb and zb else "X" if xb else "Z" if zb else "I")
            out.append(sign + "".join(chars))
        return out


# -- the simulator ------------------------------------------------------------------------
_METHODS = ("auto", "analytic", "trajectory")


class _SamplingPlan:
    """One circuit structure resolved for sampling, cached per structure.

    ``probabilities`` is the exact outcome distribution over the measured
    qubits with Pauli noise convolved and readout errors folded in, and
    ``keys[i]`` the rendered clbit string of outcome ``i``.  Both are pure
    functions of (circuit structure, noise model), so sampling a circuit is
    one ``multinomial`` plus a dict build.  A measurement-free circuit has
    ``probabilities`` None and samples nothing.
    """

    __slots__ = ("probabilities", "keys")

    def __init__(self, probabilities, keys):
        self.probabilities = probabilities
        self.keys = keys


class StabilizerSimulator:
    """Clifford-circuit execution on a stabilizer tableau.

    Drop-in for the dense simulators on the Clifford+Pauli class: the same
    ``run`` / ``run_batch`` signatures, the same
    :class:`~repro.quantum.simulator.SimulationResult`, and — on the
    analytic path — the same single-``multinomial`` RNG consumption, so
    noiseless Clifford circuits produce bit-identical counts to the dense
    simulators under a fixed seed, and ``run_batch(circuits)`` matches
    ``[run(c) for c in circuits]`` bit for bit.

    Parameters
    ----------
    noise_model:
        Optional :class:`~repro.quantum.noise_model.NoiseModel` whose every
        gate error is a Pauli-diagonal channel (checked at run time through
        :func:`repro.quantum.dispatch.pauli_mixture`); readout errors are
        applied classically exactly as the dense path does.
    seed:
        Seed or generator for all sampling performed by this instance.
    """

    def __init__(self, noise_model=None, seed=None):
        self._noise_model = noise_model
        self._rng = as_rng(seed)
        self._plans: OrderedDict[tuple, _SamplingPlan] = OrderedDict()
        self._plans_max = 256
        self.cache_hits = 0
        self.cache_misses = 0

    @property
    def noise_model(self):
        """The attached noise model (settable; swapping clears the plan cache)."""
        return self._noise_model

    @noise_model.setter
    def noise_model(self, noise_model) -> None:
        if noise_model is not self._noise_model:
            self._plans.clear()
        self._noise_model = noise_model

    # -- public API --------------------------------------------------------------------
    def run(
        self,
        circuit: QuantumCircuit,
        shots: int = 1024,
        initial_state=None,
        rng=None,
        method: str = "auto",
    ) -> SimulationResult:
        """Execute one circuit: a batch of one (see :meth:`run_batch`)."""
        batch = self.run_batch(
            [circuit], shots=shots, initial_state=initial_state, rng=rng, method=method
        )
        return batch.results[0]

    def run_batch(
        self,
        circuits: Sequence[QuantumCircuit],
        shots: int = 1024,
        initial_state=None,
        rng=None,
        method: str = "auto",
    ) -> BatchResult:
        """Execute a sequence of circuits, one result per circuit in order.

        ``method`` selects the strategy: ``"auto"`` samples each circuit
        from its structure's cached exact distribution (one ``multinomial``
        per circuit) and sends circuits outside the analytic envelope to
        trajectory sampling; ``"analytic"`` raises on such circuits instead;
        ``"trajectory"`` samples every circuit's noise per shot on the
        batched tableau — statistically equivalent to the analytic path
        (chi-squared tested by the conformance suite) but with a different
        RNG consumption pattern, so no bit-parity claim.
        """
        if shots < 0:
            raise SimulationError(f"shots must be non-negative, got {shots}")
        if initial_state is not None:
            raise SimulationError(
                "the stabilizer backend always starts from |0...0>; "
                "route circuits with explicit initial states to a dense simulator"
            )
        if method not in _METHODS:
            raise SimulationError(f"unknown stabilizer method {method!r}")
        generator = as_rng(rng) if rng is not None else self._rng
        hits_before, misses_before = self.cache_hits, self.cache_misses
        mark = telemetry.clock_mark()

        # Keyed by object identity so a repeated circuit object pays its
        # structure analysis once per call; distinct objects with equal
        # structure still share one plan through the structure-keyed cache.
        resolved: dict[int, _SamplingPlan | None] = {}
        results: list[SimulationResult] = []
        trajectories = 0
        for circuit in circuits:
            if id(circuit) not in resolved:
                resolved[id(circuit)] = self._resolve(circuit, method)
            plan = resolved[id(circuit)]
            if plan is None:
                trajectories += 1
                results.append(self._run_trajectories(circuit, shots, generator))
            else:
                results.append(self._sample(plan, shots, generator))

        if trajectories == 0:
            mode = "analytic"
        elif trajectories == len(results):
            mode = "trajectory"
        else:
            mode = "mixed"
        statistics = {
            "circuits": len(results),
            "structures": len({id(plan) for plan in resolved.values() if plan is not None}),
            "trajectories": trajectories,
            "cache_hits": self.cache_hits - hits_before,
            "cache_misses": self.cache_misses - misses_before,
        }
        telemetry.record_span(
            "sim.run_batch",
            "sim",
            start=mark,
            attributes={"engine": "stabilizer", "mode": mode, **statistics},
        )
        return BatchResult(
            results=results,
            shots=shots,
            metadata={
                "method": "stabilizer",
                "mode": mode,
                "noise_model": self._noise_name(),
                **statistics,
            },
        )

    def final_tableau(self, circuit: QuantumCircuit) -> CliffordTableau:
        """Tableau after a measurement- and reset-free Clifford circuit."""
        self._require_clifford(circuit)
        tableau = CliffordTableau(circuit.num_qubits)
        for instruction in circuit.instructions:
            if instruction.kind == "barrier":
                continue
            if instruction.kind != "gate":
                raise SimulationError(
                    "final_tableau requires a measurement- and reset-free circuit"
                )
            tableau.apply_gate(
                instruction.name, instruction.qubits, instruction.repetitions
            )
        return tableau

    # -- eligibility --------------------------------------------------------------------
    @staticmethod
    def _require_clifford(circuit: QuantumCircuit) -> None:
        for instruction in circuit.instructions:
            if instruction.kind == "gate" and instruction.name not in CLIFFORD_GATE_NAMES:
                raise SimulationError(
                    f"gate {instruction.name!r} is not Clifford; use "
                    "repro.quantum.dispatch to route such circuits to a dense simulator"
                )

    def _pauli_mixtures(self, circuit: QuantumCircuit) -> dict:
        """Pauli mixtures of every error the noise model attaches to *circuit*.

        Returns a mapping ``id(error) -> (labels, probabilities)`` and raises
        :class:`SimulationError` when any attached error is not a Pauli
        mixture (the dispatcher filters those to the dense backend).
        """
        from repro.quantum.dispatch import pauli_mixture

        mixtures: dict[int, tuple] = {}
        if self._noise_model is None:
            return mixtures
        for instruction in circuit.instructions:
            if instruction.kind != "gate":
                continue
            for error in self._noise_model.errors_for(
                instruction.name, instruction.qubits
            ):
                if id(error) in mixtures:
                    continue
                mixture = pauli_mixture(error.channel)
                if mixture is None:
                    raise SimulationError(
                        f"error {error.name!r} on gate {instruction.name!r} is not a "
                        "Pauli channel; the stabilizer backend cannot apply it"
                    )
                labels = tuple(mixture)
                probs = tuple(mixture[label] for label in labels)
                mixtures[id(error)] = (labels, probs)
        return mixtures

    def _applications(self, instruction) -> list:
        """Each attached error with the qubit lists it acts on per gate use."""
        out = []
        for error in self._noise_model.errors_for(instruction.name, instruction.qubits):
            if error.num_qubits == len(instruction.qubits):
                out.append((error, [list(instruction.qubits)]))
            elif error.num_qubits == 1:
                out.append((error, [[qubit] for qubit in instruction.qubits]))
            else:
                raise SimulationError(
                    f"error on {error.num_qubits} qubits cannot be applied to "
                    f"a {len(instruction.qubits)}-qubit instruction"
                )
        return out

    # -- analytic path -------------------------------------------------------------------
    def _resolve(self, circuit: QuantumCircuit, method: str) -> _SamplingPlan | None:
        """The circuit's sampling plan, or None to sample trajectories."""
        self._require_clifford(circuit)
        if method == "trajectory":
            return None
        plan = self._plan(circuit)
        if plan is None and method == "analytic":
            raise SimulationError(
                "circuit exceeds the analytic envelope "
                f"(measured qubits ≤ {ANALYTIC_MAX_MEASURED_QUBITS}, "
                f"random outcomes ≤ {ANALYTIC_MAX_SYMBOLS})"
            )
        return plan

    def _plan(self, circuit: QuantumCircuit) -> _SamplingPlan | None:
        """The cached plan of *circuit*'s structure, or None if out of envelope."""
        if not measurements_are_terminal(circuit):
            return None
        measure_map: dict[int, int] = {}
        for instruction in circuit.instructions:
            if instruction.kind == "measure":
                measure_map.update(zip(instruction.qubits, instruction.clbits))
        # Strict ">" keeps the documented bound inclusive: exactly
        # ANALYTIC_MAX_MEASURED_QUBITS measured qubits stays analytic.
        if len(measure_map) > ANALYTIC_MAX_MEASURED_QUBITS:
            return None

        token = _noise_token(self._noise_model)
        key = None
        if self._noise_model is None or token is not None:
            key = (circuit_structure_key(circuit), token)
            plan = self._plans.get(key)
            if plan is not None:
                self._plans.move_to_end(key)
                self.cache_hits += 1
                return plan
            self.cache_misses += 1

        plan = self._build_plan(circuit, measure_map)
        if plan is not None and key is not None:
            self._plans[key] = plan
            while len(self._plans) > self._plans_max:
                self._plans.popitem(last=False)
        return plan

    def _build_plan(
        self, circuit: QuantumCircuit, measure_map: dict[int, int]
    ) -> _SamplingPlan | None:
        """One symbolic tableau pass + exact Pauli-noise convolution + readout fold."""
        mixtures = self._pauli_mixtures(circuit)
        tableau = CliffordTableau(circuit.num_qubits, track_symbols=True)
        forms: dict[int, tuple[int, int]] = {}
        for instruction in circuit.instructions:
            if instruction.kind == "barrier":
                continue
            if instruction.kind == "gate":
                tableau.apply_gate(
                    instruction.name, instruction.qubits, instruction.repetitions
                )
            elif instruction.kind == "reset":
                tableau.reset_symbolic(instruction.qubits[0])
            elif instruction.kind == "measure":
                for qubit in instruction.qubits:
                    forms[qubit] = tableau.measure_symbolic(qubit)
            # Strict ">": exactly ANALYTIC_MAX_SYMBOLS symbols stays analytic.
            if tableau.num_symbols > ANALYTIC_MAX_SYMBOLS:
                return None
        if not measure_map:
            return _SamplingPlan(None, ())

        measured_qubits = sorted(measure_map)
        probabilities = self._enumerate_distribution(
            [forms[qubit] for qubit in measured_qubits], tableau.num_symbols
        )
        if mixtures:
            probabilities = self._convolve_noise(
                circuit, measured_qubits, probabilities, mixtures
            )
        if self._noise_model is not None and self._noise_model.has_readout_error():
            probabilities = self._noise_model.apply_readout_errors(
                probabilities, measured_qubits
            )
            probabilities = renormalize_readout_probabilities(probabilities)
        width = len(measured_qubits)
        keys = []
        for index in range(len(probabilities)):
            outcome = format(index, f"0{width}b")
            values = {
                measure_map[qubit]: int(bit)
                for qubit, bit in zip(measured_qubits, outcome)
            }
            keys.append(_format_clbits(values, circuit.num_clbits))
        return _SamplingPlan(probabilities, tuple(keys))

    @staticmethod
    def _enumerate_distribution(
        forms: Sequence[tuple[int, int]], num_symbols: int
    ) -> np.ndarray:
        """Probability vector over measured-qubit bitstrings from affine forms.

        Outcomes are uniform over the affine subspace traced out by the
        symbol vector; every entry is an exact dyadic rational, so the
        resulting float64 vector is exact.
        """
        m = len(forms)
        probabilities = np.zeros(2**m, dtype=float)
        r = num_symbols
        assignments = (np.arange(2**r, dtype=np.int64)[:, None] >> np.arange(r)) & 1
        indices = np.zeros(2**r, dtype=np.int64)
        for position, (constant, mask) in enumerate(forms):
            weight = 1 << (m - 1 - position)
            if r:
                mask_bits = (mask >> np.arange(r)) & 1
                bits = (assignments @ mask_bits) % 2
                bits ^= constant
            else:
                bits = np.full(1, constant, dtype=np.int64)
            indices += bits * weight
        np.add.at(probabilities, indices, 1.0 / (1 << r))
        return probabilities

    def _convolve_noise(
        self,
        circuit: QuantumCircuit,
        measured_qubits: list[int],
        probabilities: np.ndarray,
        mixtures: dict,
    ) -> np.ndarray:
        """Fold every Pauli-noise insertion into the exact distribution.

        Each error component, conjugated through the rest of the circuit,
        acts on the counts only through the X-mask it lands on the measured
        qubits; independent channels therefore XOR-convolve.  The combined
        convolution is evaluated in the Walsh–Hadamard domain, where an
        η-fold repeat of one insertion is a pointwise power — the stabilizer
        analogue of the dense path's ``matrix_power`` run compression.
        """
        m = len(measured_qubits)
        qubit_weight = {
            qubit: 1 << (m - 1 - position)
            for position, qubit in enumerate(measured_qubits)
        }
        suffix = _SuffixPauliMap(circuit.num_qubits)
        spectrum = np.ones(2**m, dtype=float)
        size = float(2**m)

        def insertion_spectrum(applications) -> np.ndarray:
            combined = np.ones(2**m, dtype=float)
            for error, targets in applications:
                labels, probs = mixtures[id(error)]
                for qubits in targets:
                    distribution = np.zeros(2**m, dtype=float)
                    for label, prob in zip(labels, probs):
                        x_mask = suffix.final_x_mask(label, qubits)
                        index = 0
                        for qubit in np.flatnonzero(x_mask):
                            weight = qubit_weight.get(int(qubit))
                            if weight is not None:
                                index ^= weight
                        distribution[index] += prob
                    combined = combined * _walsh_hadamard(distribution)
            return combined

        for instruction in reversed(circuit.instructions):
            if instruction.kind == "barrier" or instruction.kind == "measure":
                continue
            if instruction.kind == "reset":
                suffix.prepend_reset(instruction.qubits[0])
                continue
            reps = instruction.repetitions
            applications = self._applications(instruction)
            if not applications:
                if suffix.prepend(instruction.name, instruction.qubits):
                    for _ in range(reps - 1):
                        suffix.prepend(instruction.name, instruction.qubits)
                continue
            if instruction.name in ("id", "x", "y", "z"):
                # These gates fix the suffix map, so every repetition shares
                # one insertion spectrum: raise it to the run length
                # pointwise (the stabilizer analogue of ``matrix_power``).
                spectrum = spectrum * insertion_spectrum(applications) ** reps
            else:
                for _ in range(reps):
                    spectrum = spectrum * insertion_spectrum(applications)
                    suffix.prepend(instruction.name, instruction.qubits)

        noisy = _walsh_hadamard(_walsh_hadamard(probabilities) * spectrum) / size
        noisy = np.clip(noisy, 0.0, None)
        total = noisy.sum()
        if total <= 0:
            raise SimulationError("Pauli-noise convolution produced an empty distribution")
        return noisy / total

    def _sample(
        self, plan: _SamplingPlan, shots: int, generator: np.random.Generator
    ) -> SimulationResult:
        """One multinomial from the plan's distribution (dense-identical contract)."""
        metadata = self._metadata("analytic")
        if plan.probabilities is None:
            return SimulationResult(counts={}, shots=0, metadata=metadata)
        samples = generator.multinomial(shots, plan.probabilities)
        counts: dict[str, int] = {}
        keys = plan.keys
        for index in np.flatnonzero(samples):
            key = keys[index]
            counts[key] = counts.get(key, 0) + int(samples[index])
        return SimulationResult(counts=counts, shots=shots, metadata=metadata)

    # -- trajectory path -----------------------------------------------------------------
    def _run_trajectories(
        self, circuit: QuantumCircuit, shots: int, generator: np.random.Generator
    ) -> SimulationResult:
        """Vectorized Monte Carlo: the shot axis is the tableau batch axis.

        One batched tableau update per instruction advances every shot;
        one Pauli realisation per shot is drawn for each noise application
        and applied as masked sign flips, and readout errors flip measured
        bits with their assignment probabilities.
        """
        mixtures = self._pauli_mixtures(circuit)
        metadata = self._metadata("trajectory")
        if not circuit.has_measurements() or shots == 0:
            return SimulationResult(counts={}, shots=0, metadata=metadata)

        noise_model = self._noise_model
        tableau = BatchedCliffordTableau(circuit.num_qubits, shots)
        num_clbits = circuit.num_clbits
        clbit_bits = np.zeros((shots, num_clbits), dtype=np.uint8)
        for instruction in circuit.instructions:
            if instruction.kind == "barrier":
                continue
            if instruction.kind == "gate":
                applications = self._applications(instruction) if mixtures else ()
                if applications and instruction.repetitions > 1:
                    for _ in range(instruction.repetitions):
                        tableau.apply_gate(instruction.name, instruction.qubits)
                        self._apply_sampled_errors(
                            tableau, applications, mixtures, generator
                        )
                else:
                    tableau.apply_gate(
                        instruction.name, instruction.qubits, instruction.repetitions
                    )
                    self._apply_sampled_errors(
                        tableau, applications, mixtures, generator
                    )
            elif instruction.kind == "reset":
                tableau.reset(instruction.qubits[0], generator)
            elif instruction.kind == "measure":
                for qubit, clbit in zip(instruction.qubits, instruction.clbits):
                    bits = tableau.measure(qubit, generator)
                    if noise_model is not None:
                        readout = noise_model.readout_error_for(qubit)
                        if readout is not None:
                            flip_probability = np.where(
                                bits == 0,
                                readout.prob_1_given_0,
                                readout.prob_0_given_1,
                            )
                            flips = generator.random(shots) < flip_probability
                            bits = bits ^ flips.astype(np.uint8)
                    clbit_bits[:, clbit] = bits

        counts: dict[str, int] = {}
        if num_clbits <= 62:
            # Pack each shot's clbit row into one integer (clbit 0 is the
            # most significant character of the formatted key).
            weights = (1 << np.arange(num_clbits - 1, -1, -1)).astype(np.int64)
            codes = clbit_bits.astype(np.int64) @ weights
            unique, tallies = np.unique(codes, return_counts=True)
            for code, tally in zip(unique, tallies):
                counts[format(int(code), f"0{num_clbits}b")] = int(tally)
        else:  # pragma: no cover - no repository circuit carries 63+ clbits
            for row in clbit_bits:
                key = "".join("1" if bit else "0" for bit in row)
                counts[key] = counts.get(key, 0) + 1
        return SimulationResult(counts=counts, shots=shots, metadata=metadata)

    @staticmethod
    def _apply_sampled_errors(
        tableau: BatchedCliffordTableau,
        applications,
        mixtures: dict,
        generator: np.random.Generator,
    ) -> None:
        """Draw one Pauli realisation per shot from each error and apply it."""
        for error, targets in applications:
            labels, probs = mixtures[id(error)]
            cumulative = np.cumsum(probs)
            for qubits in targets:
                draws = generator.random(tableau.batch_size)
                indices = np.searchsorted(cumulative, draws, side="right")
                np.clip(indices, 0, len(labels) - 1, out=indices)
                for position, label in enumerate(labels):
                    if set(label.lower()) <= {"i"}:
                        continue
                    mask = indices == position
                    if mask.any():
                        tableau.apply_pauli_masked(label, qubits, mask)

    def _noise_name(self) -> str | None:
        return None if self._noise_model is None else self._noise_model.name

    def _metadata(self, mode: str) -> dict:
        return {
            "method": "stabilizer",
            "stabilizer_mode": mode,
            "noise_model": self._noise_name(),
        }
