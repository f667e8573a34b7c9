"""Sparse codebook assembly, normalization and file interchange.

A user codebook is X = sqrt(M/(N E)) V Delta A: the N x M mother
constellation A rotated/scaled per dimension by Delta, lifted to K
dimensions by the mapping matrix V.  The set of J codebooks is rescaled by
one global factor so the total power equals J*M, preserving the relative
power ratios the signature operators encode.
"""

import warnings
from dataclasses import dataclass, field

import numpy as np

from .constellation import MotherConstellation, dimension_energy
from .layering import SignatureMatrix, SystemDims, validate_signature

__all__ = [
    "CodebookSet",
    "CodebookFormatError",
    "mapping_matrix_from_layer",
    "build_codebook",
    "build_codebook_set",
    "export_codebook_set",
    "import_codebook_set",
]

NORMALIZATION_TOL = 1e-9


class CodebookFormatError(ValueError):
    """Malformed or dimensionally inconsistent codebook file."""


@dataclass(frozen=True)
class CodebookSet:
    """J codebooks as a (J, K, M) complex array plus provenance metadata."""

    codebooks: np.ndarray
    dims: SystemDims
    metadata: dict = field(default_factory=dict)

    @classmethod
    def from_codebooks(cls, books, dims: SystemDims, metadata=None, normalize: bool = True) -> "CodebookSet":
        """Wrap hand-assembled (J, K, M) codewords, rescaling to total power J*M."""
        books = np.asarray(books, dtype=complex)
        if books.shape != (dims.j_users, dims.k_resources, dims.m_order):
            raise ValueError(f"expected shape {(dims.j_users, dims.k_resources, dims.m_order)}, got {books.shape}")
        if normalize:
            books = books * np.sqrt(dims.j_users * dims.m_order / np.sum(np.abs(books) ** 2))
        return cls(codebooks=books, dims=dims, metadata=dict(metadata or {}))

    def traces(self) -> np.ndarray:
        return np.sum(np.abs(self.codebooks) ** 2, axis=(1, 2))

    def superimpose(self, tx) -> np.ndarray:
        """Sum of the users' codewords: (B, J) indices -> (B, K) superpositions.

        Users are added in index order, so a given tx always sums bit-identically.
        """
        tx = np.atleast_2d(tx)
        out = np.zeros((tx.shape[0], self.dims.k_resources), dtype=complex)
        for l in range(self.dims.j_users):
            out += self.codebooks[l, :, tx[:, l]]
        return out

    def total_power(self) -> float:
        return float(self.traces().sum())

    def supports(self) -> np.ndarray:
        """(J, K) boolean occupancy of each layer over the RNs."""
        return np.any(self.codebooks != 0, axis=2)

    def collision_sets(self) -> list:
        """Per-RN lists of the user indices occupying that RN."""
        occ = self.supports()
        return [list(np.nonzero(occ[:, k])[0]) for k in range(self.dims.k_resources)]


def mapping_matrix_from_layer(f_j: np.ndarray, n_nonzero: int) -> np.ndarray:
    """K x N mapping matrix: the n-th unit row sits at the n-th one of f_j."""
    f_j = np.asarray(f_j).ravel()
    rows = np.nonzero(f_j)[0]
    if len(rows) != n_nonzero:
        raise ValueError(f"layer has {len(rows)} ones, expected {n_nonzero}")
    v = np.zeros((f_j.size, n_nonzero))
    v[rows, np.arange(n_nonzero)] = 1.0
    return v


def build_codebook(
    mc: MotherConstellation,
    v: np.ndarray,
    ops_per_row,
    energy: float,
) -> np.ndarray:
    """Assemble one K x M sparse codebook: sqrt(M/(N E)) V diag(q_1..q_N) A.

    ops_per_row holds the N operators applied to the nonzero rows top-down.
    With all rho = 1 the trace equals M exactly.
    """
    ops = tuple(ops_per_row)
    n = v.shape[1]
    if len(ops) != n:
        raise ValueError(f"expected {n} operators, got {len(ops)}")
    if v.shape[0] < n or mc.rows.shape[0] != n:
        raise ValueError("mapping matrix and mother constellation dimensions disagree")
    scale = np.sqrt(mc.m_order / (n * energy))
    delta_mat = np.diag([op.value for op in ops])
    return scale * v @ delta_mat @ mc.rows.astype(complex)


def build_codebook_set(mc: MotherConstellation, sig: SignatureMatrix) -> CodebookSet:
    """Per-layer codebooks from a signature matrix, globally renormalized.

    The signature column order is kept, so column j remains the ascending-
    power rank-j codebook.  After the global rescale the total power is
    exactly J*M while relative layer powers are preserved.
    """
    report = validate_signature(sig)
    if not report.ok:
        raise ValueError("invalid signature matrix: " + "; ".join(report.messages))
    k, j = sig.entries.shape
    n = int(sig.support[:, 0].sum())
    energy = dimension_energy(mc.m_order, mc.delta)
    books = np.zeros((j, k, mc.m_order), dtype=complex)
    for c in range(j):
        rows = np.nonzero(sig.entries[:, c])[0]
        ops = [sig.operators[sig.entries[r, c] - 1] for r in rows]
        v = mapping_matrix_from_layer(sig.support[:, c], n)
        books[c] = build_codebook(mc, v, ops, energy)
    total = float(np.sum(np.abs(books) ** 2))
    books *= np.sqrt(j * mc.m_order / total)
    dims = SystemDims(k_resources=k, j_users=j, m_order=mc.m_order, n_nonzero=n)
    meta = {
        "delta": mc.delta,
        "operators": [(op.rho, op.theta) for op in sig.operators],
        "signature": sig.entries.tolist(),
    }
    return CodebookSet(codebooks=books, dims=dims, metadata=meta)


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def export_codebook_set(cbs: CodebookSet, path) -> None:
    """Write the interchange file: header, optional provenance, codewords.

    Decimal text at 17 significant digits round-trips float64 exactly; one
    codeword per line as K (re, im) pairs.
    """
    dims = cbs.dims
    lines = ["format scma-codebook-set 1"]
    lines.append(f"dims {dims.k_resources} {dims.j_users} {dims.m_order} {dims.n_nonzero}")
    meta = cbs.metadata or {}
    if "delta" in meta:
        lines.append(f"delta {_fmt(meta['delta'])}")
    for rho, theta in meta.get("operators", []):
        lines.append(f"operator {_fmt(rho)} {_fmt(theta)}")
    for row in meta.get("signature", []):
        lines.append("signature " + " ".join(str(int(x)) for x in row))
    for jx in range(dims.j_users):
        lines.append(f"codebook {jx + 1}")
        for m in range(dims.m_order):
            word = cbs.codebooks[jx, :, m]
            pairs = " ".join(f"{_fmt(z.real)} {_fmt(z.imag)}" for z in word)
            lines.append(f"codeword {pairs}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def import_codebook_set(path) -> CodebookSet:
    """Read an interchange file back into a CodebookSet.

    Dimension mismatches are errors; a total power off J*M by more than
    1e-9 (relative) only warns, so externally designed baselines load.
    """
    with open(path) as fh:
        raw = [ln.strip() for ln in fh if ln.strip() and not ln.startswith("#")]
    if not raw or not raw[0].startswith("format scma-codebook-set"):
        raise CodebookFormatError(f"{path}: not a codebook set file")
    dims = None
    meta: dict = {}
    books = None
    current = -1
    row_count = 0
    for ln in raw[1:]:
        tok = ln.split()
        key = tok[0]
        try:
            if key == "dims":
                k, j, m, n = (int(t) for t in tok[1:5])
                dims = SystemDims(k_resources=k, j_users=j, m_order=m, n_nonzero=n)
                books = np.zeros((j, k, m), dtype=complex)
            elif key == "delta":
                meta["delta"] = float(tok[1])
            elif key == "operator":
                meta.setdefault("operators", []).append((float(tok[1]), float(tok[2])))
            elif key == "signature":
                meta.setdefault("signature", []).append([int(t) for t in tok[1:]])
            elif key == "codebook":
                if dims is None:
                    raise CodebookFormatError(f"{path}: codebook before dims")
                current = int(tok[1]) - 1
                if not 0 <= current < dims.j_users:
                    raise CodebookFormatError(f"{path}: codebook index {tok[1]} out of range")
                row_count = 0
            elif key == "codeword":
                vals = [float(t) for t in tok[1:]]
                if dims is None or current < 0:
                    raise CodebookFormatError(f"{path}: codeword outside a codebook block")
                if len(vals) != 2 * dims.k_resources:
                    raise CodebookFormatError(
                        f"{path}: codeword has {len(vals) // 2} entries, expected K = {dims.k_resources}"
                    )
                if row_count >= dims.m_order:
                    raise CodebookFormatError(f"{path}: too many codewords in codebook {current + 1}")
                books[current, :, row_count] = np.array(vals[0::2]) + 1j * np.array(vals[1::2])
                row_count += 1
            else:
                raise CodebookFormatError(f"{path}: unknown record '{key}'")
        except (ValueError, IndexError) as exc:
            if isinstance(exc, CodebookFormatError):
                raise
            raise CodebookFormatError(f"{path}: malformed line '{ln}'") from exc
    if dims is None or books is None:
        raise CodebookFormatError(f"{path}: missing dims record")
    occupancy = np.any(books != 0, axis=2).sum(axis=1)
    if np.any(occupancy > dims.n_nonzero):
        raise CodebookFormatError(
            f"{path}: a codebook occupies more than N = {dims.n_nonzero} resource nodes"
        )
    total = float(np.sum(np.abs(books) ** 2))
    target = dims.j_users * dims.m_order
    if abs(total - target) > NORMALIZATION_TOL * target:
        warnings.warn(
            f"{path}: total power {total:.6g} deviates from J*M = {target} "
            "(accepted; imported baseline?)",
            stacklevel=2,
        )
    return CodebookSet(codebooks=books, dims=dims, metadata=meta)
