"""Sparse codebook assembly, normalization and file interchange.

A user codebook is X = sqrt(M/(N E)) V Delta A: the N x M mother
constellation A rotated/scaled per dimension by Delta, lifted to K
dimensions by the K x N mapping matrix V.  V only places the n-th scaled
row at the n-th RN of the layer, so the rows are written there directly.
The set of J codebooks is rescaled by one global factor so the total power
equals J*M, preserving the relative power ratios the signature operators
encode.
"""

import warnings
from dataclasses import dataclass, field

import numpy as np

from .constellation import MotherConstellation, dimension_energy
from .layering import SignatureMatrix, SystemDims, validate_signature

__all__ = [
    "CodebookSet",
    "CodebookFormatError",
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
    def from_codebooks(cls, books, dims: SystemDims, metadata=None) -> "CodebookSet":
        """Wrap (J, K, M) codewords, rescaled by one factor to total power J*M."""
        books = np.asarray(books, dtype=complex)
        if books.shape != (dims.j_users, dims.k_resources, dims.m_order):
            raise ValueError(f"expected shape {(dims.j_users, dims.k_resources, dims.m_order)}, got {books.shape}")
        power = np.sum(np.abs(books) ** 2)
        if not 0 < power < np.inf:
            raise ValueError(f"books must have finite, positive total power, got {power}")
        books = books * np.sqrt(dims.j_users * dims.m_order / power)
        return cls(codebooks=books, dims=dims, metadata=dict(metadata or {}))

    def traces(self) -> np.ndarray:
        return np.sum(np.abs(self.codebooks) ** 2, axis=(1, 2))

    def columns_by_rank(self) -> np.ndarray:
        """The column serving each distance rank: entry r - 1, for rank r, is the r-th weakest by trace.

        The bound (set_bep) and the simulation both pair ranks with columns by this rule.
        A trace within NORMALIZATION_TOL (relative) of the next weaker one ties
        with it, and tied columns keep index order, so equal powers that differ
        in the last ulps do not reorder a set built in rank order.
        """
        traces = self.traces()
        order = np.argsort(traces, kind="stable")
        ascending = traces[order]
        level = np.cumsum(np.diff(ascending, prepend=0.0) > NORMALIZATION_TOL * ascending)
        return order[np.lexsort((order, level))]

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


def build_codebook_set(mc: MotherConstellation, sig: SignatureMatrix) -> CodebookSet:
    """Per-layer codebooks from a signature matrix, globally renormalized.

    Column c places sqrt(M/(N E)) q A[n] at the n-th RN of its layer, where
    q is the operator the signature assigns there.  The signature column
    order is kept, so column j remains the ascending-power rank-j codebook.
    After the global rescale the total power is exactly J*M while relative
    layer powers are preserved.
    """
    report = validate_signature(sig)
    if not report.ok:
        raise ValueError("invalid signature matrix: " + "; ".join(report.messages))
    k, j = sig.entries.shape
    n = int(sig.support[:, 0].sum())
    if mc.rows.shape[0] != n:
        raise ValueError(f"mother constellation has {mc.rows.shape[0]} rows, layers have N = {n}")
    scale = np.sqrt(mc.m_order / (n * dimension_energy(mc.m_order, mc.delta)))
    q = np.array([op.value for op in sig.operators])
    books = np.zeros((j, k, mc.m_order), dtype=complex)
    for c in range(j):
        rows = np.nonzero(sig.entries[:, c])[0]
        books[c, rows] = (scale * q[sig.entries[rows, c] - 1])[:, None] * mc.rows
    dims = SystemDims(k_resources=k, j_users=j, m_order=mc.m_order, n_nonzero=n)
    meta = {
        "delta": mc.delta,
        "operators": [(op.rho, op.theta) for op in sig.operators],
        "signature": sig.entries.tolist(),
    }
    return CodebookSet.from_codebooks(books, dims, meta)


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

    A file that cannot be read or is not text, dimension mismatches, a
    repeated dims record, a dims, delta, operator or codebook record with
    other than 4, 1, 2 or 1 values, codebook blocks that are missing,
    repeated or hold other than M codewords, non-finite codeword values and a
    total power that overflows are errors (CodebookFormatError); a total
    power off J*M by more than 1e-9 (relative) only warns, so externally
    designed baselines load.
    """
    try:
        with open(path) as fh:
            raw = [ln.strip() for ln in fh if ln.strip() and not ln.startswith("#")]
    except UnicodeDecodeError as exc:
        raise CodebookFormatError(f"{path}: not a text file (undecodable byte at offset {exc.start})") from exc
    except OSError as exc:
        raise CodebookFormatError(f"{path}: cannot read ({exc.strerror})") from exc
    if not raw or not raw[0].startswith("format scma-codebook-set"):
        raise CodebookFormatError(f"{path}: not a codebook set file")
    dims = None
    meta: dict = {}
    current = -1
    blocks: dict = {}  # each codebook block's codewords, so memory follows the file, not its dims record
    for ln in raw[1:]:
        key, *vals = ln.split()
        arity = {"dims": 4, "delta": 1, "operator": 2, "codebook": 1}.get(key, len(vals))
        if len(vals) != arity:
            raise CodebookFormatError(f"{path}: {key} record has {len(vals)} values, expected {arity}")
        try:
            if key == "dims":
                if dims is not None:
                    raise CodebookFormatError(f"{path}: dims repeated")
                k, j, m, n = (int(t) for t in vals)
                dims = SystemDims(k_resources=k, j_users=j, m_order=m, n_nonzero=n)
            elif key == "delta":
                meta["delta"] = float(vals[0])
            elif key == "operator":
                meta.setdefault("operators", []).append((float(vals[0]), float(vals[1])))
            elif key == "signature":
                meta.setdefault("signature", []).append([int(t) for t in vals])
            elif key == "codebook":
                if dims is None:
                    raise CodebookFormatError(f"{path}: codebook before dims")
                current = int(vals[0]) - 1
                if not 0 <= current < dims.j_users:
                    raise CodebookFormatError(f"{path}: codebook index {vals[0]} out of range")
                if current in blocks:
                    raise CodebookFormatError(f"{path}: codebook {current + 1} repeated")
                blocks[current] = []
            elif key == "codeword":
                nums = [float(t) for t in vals]
                if dims is None or current < 0:
                    raise CodebookFormatError(f"{path}: codeword outside a codebook block")
                if len(nums) != 2 * dims.k_resources:
                    raise CodebookFormatError(
                        f"{path}: codeword has {len(nums)} numbers, expected 2K = {2 * dims.k_resources}"
                    )
                if len(blocks[current]) >= dims.m_order:
                    raise CodebookFormatError(f"{path}: too many codewords in codebook {current + 1}")
                blocks[current].append(np.array(nums[0::2]) + 1j * np.array(nums[1::2]))
            else:
                raise CodebookFormatError(f"{path}: unknown record '{key}'")
        except ValueError as exc:
            if isinstance(exc, CodebookFormatError):
                raise
            raise CodebookFormatError(f"{path}: malformed line '{ln}'") from exc
    if dims is None:
        raise CodebookFormatError(f"{path}: missing dims record")
    for u in range(dims.j_users):
        if len(blocks.get(u, ())) < dims.m_order:
            found = "missing" if u not in blocks else f"has {len(blocks[u])} codewords"
            raise CodebookFormatError(f"{path}: codebook {u + 1} {found}, expected M = {dims.m_order}")
    books = np.ascontiguousarray(np.array([blocks[u] for u in range(dims.j_users)]).transpose(0, 2, 1))
    if not np.all(np.isfinite(books)):
        raise CodebookFormatError(f"{path}: a codeword holds a non-finite value (nan or inf)")
    occupancy = np.any(books != 0, axis=2).sum(axis=1)
    if np.any(occupancy > dims.n_nonzero):
        raise CodebookFormatError(
            f"{path}: a codebook occupies more than N = {dims.n_nonzero} resource nodes"
        )
    with np.errstate(over="ignore"):  # an overflow is the error below, not a warning
        total = float(np.sum(np.abs(books) ** 2))
    if total == np.inf:
        raise CodebookFormatError(f"{path}: the codewords' total power overflows a float")
    target = dims.j_users * dims.m_order
    if abs(total - target) > NORMALIZATION_TOL * target:
        warnings.warn(
            f"{path}: total power {total:.6g} deviates from J*M = {target} "
            "(accepted; imported baseline?)",
            stacklevel=2,
        )
    return CodebookSet(codebooks=books, dims=dims, metadata=meta)
