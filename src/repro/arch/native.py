"""Native kernel tier: one C call per VectorProgram run.

The numpy interpreter (:meth:`repro.arch.expr.VectorProgram.run`)
pays one Python dispatch per micro-op, which bounds small and medium
matrices far below memory bandwidth.  This module links a program
once into a flat ``int32`` instruction array and runs the whole
program in a single ``ctypes`` call into ``_kernels.c``, block by
block over the flat word range, with intermediates in a small
per-thread scratch area.  The C source builds with no host-specific
flags; on x86-64 Linux it carries an AVX2 clone that the loader picks
at run time.

**Linking** (:func:`link`) validates every opcode, register and operand
and gives each register write a compact slot, recycled once its
register is freed: slots holding final output values live in the
caller's output matrices, every other slot in per-block scratch.  The
C code trusts the result and does no checking of its own.  Micro-ops
are computed per word on logical values, so the fuser's steal and
alias annotations need no handling.

**Building** (:func:`kernel`): on first use the source is compiled with
``cc -O3 -shared -fPIC`` into the first writable of
``$XDG_CACHE_HOME/repro``, ``~/.cache/repro`` or a per-user ``0700``
temp directory, named by a sha256 of the source, the flags and the
compiler version, and written through a temp file and ``os.replace``.
When no compiler is found or the build or load fails, :func:`kernel`
returns ``None`` and :func:`status` keeps the reason; the numpy
interpreter then runs every program.
"""

from __future__ import annotations

import array
import ctypes
import hashlib
import os
import stat
import subprocess
import tempfile
import threading
from pathlib import Path
from shutil import which

import numpy as np

__all__ = ["LinkedProgram", "link", "kernel", "status", "run",
           "column_addresses", "BLOCK_WORDS", "EAGER_LINK_WORDS",
           "MIN_INSTRUCTIONS"]

SOURCE = Path(__file__).with_name("_kernels.c")
FLAGS = ("-O3", "-shared", "-fPIC")
#: compilers tried in order
COMPILERS = ("cc", "gcc")
#: a program's first run links it only over at least this many words;
#: a smaller first run goes to numpy and the link waits for a second
#: run (linking costs about one numpy kernel call per micro-op, which a
#: one-shot run over fewer words does not win back)
EAGER_LINK_WORDS = 1 << 14
#: programs of fewer instructions stay on numpy: one instruction is a
#: single numpy kernel already, and the native call only adds its
#: fixed cost (~2 us: the ctypes call and output address lookups)
MIN_INSTRUCTIONS = 2
#: words per block: 2 KiB per scratch slot keeps a program's live set
#: in L1/L2 while one block runs the whole instruction stream
BLOCK_WORDS = 256

#: micro-op name -> (C opcode, operand count); mirrors _kernels.c
_OPS = {
    "and": (0, 2), "andn": (1, 2), "nor": (2, 2), "xor": (3, 2),
    "maj": (4, 3), "not": (5, 1), "copy": (6, 1), "const": (7, 0),
    "or": (8, 2), "nand": (9, 2), "xnor": (10, 2), "ornot": (11, 2),
    "andor": (12, 3), "noror": (13, 3), "maj4": (4, 3),
}


class LinkedProgram:
    """A program's flat instruction array plus its slot layout."""

    __slots__ = ("code", "slot_out", "addrs", "n_code", "n_slots",
                 "cols", "n_out", "out_slots")

    def __init__(self, code: array.array, slot_out: array.array,
                 cols: tuple[str, ...], n_out: int,
                 out_slots: dict[int, int]) -> None:
        self.code = code
        #: per slot: the output buffer it lives in, or -1 (scratch)
        self.slot_out = slot_out
        self.addrs = (code.buffer_info()[0], slot_out.buffer_info()[0])
        self.n_code = len(code) // 5
        self.n_slots = len(slot_out)
        #: input column names, by column index
        self.cols = cols
        self.n_out = n_out
        #: output register -> output buffer (shared values share one)
        self.out_slots = out_slots


def link(program) -> LinkedProgram | None:
    """Lower a program's steps to a validated instruction array.

    One pass gives every register write a slot, recycling the slots of
    registers freed after earlier steps.  The slots holding the output
    registers' final values live in the caller's output matrices (an
    earlier, dead value may have used the same memory); every other
    slot is per-block scratch.

    Returns ``None`` for a program the C kernel cannot run exactly (an
    unknown micro-op, a malformed operand, a register read before it
    is written, a write to a live register, an unset output): the
    numpy interpreter runs those.
    """
    n_regs = program.n_regs
    outputs = [program.out_reg] if program.out_reg is not None \
        else list((program.out_regs or {}).values())
    slot_of: dict[int, int] = {}   # live register -> slot
    cols: dict[str, int] = {}
    free: list[int] = []
    n_slots = 0
    code = array.array("i")
    for step in program.steps:
        for op in step[2]:
            entry = _OPS.get(op[0])
            if entry is None or len(op) < 2 + max(entry[1], 1):
                return None
            words = [entry[0], 0, 0, 0, 0]
            if entry[0] == 7:  # const: the fill bit, not an operand
                words[2] = 1 if op[2] else 0
            else:
                for index in range(entry[1]):
                    spec = op[2 + index]
                    if type(spec) is not tuple or len(spec) != 2:
                        return None
                    kind, value = spec
                    if kind == "col" and type(value) is str:
                        words[2 + index] = \
                            -1 - cols.setdefault(value, len(cols))
                    elif kind == "reg" and type(value) is int \
                            and value in slot_of:
                        words[2 + index] = slot_of[value]
                    else:
                        return None
            # A write to a live register would rewrite a value in
            # place, where the numpy interpreter's multi-kernel
            # expansions see partially written operands.
            dst = op[1]
            if type(dst) is not int or not 0 <= dst < n_regs \
                    or dst in slot_of:
                return None
            if free:
                words[1] = slot_of[dst] = free.pop()
            else:
                words[1] = slot_of[dst] = n_slots
                n_slots += 1
            code.extend(words)
        for reg in step[3]:
            if reg in slot_of:
                free.append(slot_of.pop(reg))
    if not outputs or any(reg not in slot_of for reg in outputs):
        return None
    slot_out = array.array("i", [-1] * n_slots)
    out_slots: dict[int, int] = {}
    n_out = 0
    for reg in outputs:
        slot = slot_of[reg]
        if slot_out[slot] < 0:
            slot_out[slot] = n_out
            n_out += 1
        out_slots[reg] = slot_out[slot]
    return LinkedProgram(code, slot_out, tuple(cols), n_out, out_slots)


def column_addresses(matrices, shape: tuple[int, ...],
                     known=None) -> list[int] | None:
    """Data addresses of input matrices, or ``None`` if any is not a
    C-contiguous ``uint64`` array of ``shape``.

    ``known`` maps ``id(matrix)`` to the address of a matrix already
    known to qualify (:attr:`ColumnStore.addresses`): those cost one
    dict lookup each; the rest are inspected.
    """
    ptrs = list(map(known.get, map(id, matrices))) if known else \
        [None] * len(matrices)
    if None not in ptrs:
        return ptrs
    shape = tuple(shape)
    for index, matrix in enumerate(matrices):
        if ptrs[index] is None:
            if not (isinstance(matrix, np.ndarray)
                    and matrix.dtype == np.uint64
                    and matrix.shape == shape
                    and matrix.flags.c_contiguous):
                return None
            ptrs[index] = matrix.__array_interface__["data"][0]
    return ptrs


_local = threading.local()


def _work(words: int) -> int:
    """Address of this thread's work area of at least ``words`` words
    (threads never share one: ctypes releases the GIL)."""
    work = getattr(_local, "work", None)
    if work is None or work[0] < words:
        size = max(words, 2 * work[0] if work is not None else 0)
        buf = np.empty(size, dtype=np.uint64)
        _local.work = work = (size, buf.__array_interface__["data"][0],
                              buf)
    return work[1]


def run(fn, linked: LinkedProgram, col_ptrs: list[int],
        outs: list[np.ndarray], n_words: int) -> None:
    """One C call: the whole program over ``n_words`` words."""
    if n_words <= 0:
        return
    block = min(BLOCK_WORDS, n_words)
    table = array.array("Q", col_ptrs)
    table.extend([out.__array_interface__["data"][0] for out in outs])
    cols = table.buffer_info()[0]
    code, slot_out = linked.addrs
    fn(code, linked.n_code, slot_out, linked.n_slots, cols,
       cols + 8 * len(col_ptrs), _work(linked.n_slots * (block + 1)),
       n_words, block)


# ----------------------------------------------------------------------
# build + load
# ----------------------------------------------------------------------
_lock = threading.Lock()
#: (C function or None, fallback reason or None); None until first use
_state: tuple | None = None


def kernel():
    """The loaded ``repro_run`` function, or ``None`` (numpy tier).

    Builds and loads the library on first use; the outcome, including
    a failure's reason, is kept for the life of the process.
    """
    global _state
    state = _state
    if state is None:
        with _lock:
            if _state is None:
                _state = _load()
            state = _state
    return state[0]


def status() -> dict:
    """``{"kernel_tier": "native" | "numpy", "kernel_fallback": reason}``."""
    fn = kernel()
    return {"kernel_tier": "numpy" if fn is None else "native",
            "kernel_fallback": None if fn is not None else _state[1]}


def _load() -> tuple:
    try:
        path = _build()
        fn = ctypes.CDLL(str(path)).repro_run
    except (OSError, subprocess.SubprocessError, _BuildError) as exc:
        return None, str(exc) or type(exc).__name__
    fn.restype = None
    fn.argtypes = [ctypes.c_void_p, ctypes.c_int64, ctypes.c_void_p,
                   ctypes.c_int64, ctypes.c_void_p, ctypes.c_void_p,
                   ctypes.c_void_p, ctypes.c_int64, ctypes.c_int64]
    return fn, None


class _BuildError(Exception):
    pass


def _build() -> Path:
    """Path of the compiled library, building it on a cache miss."""
    compiler = next(filter(None, map(which, COMPILERS)), None)
    if compiler is None:
        raise _BuildError(
            f"no C compiler found (tried {', '.join(COMPILERS)})")
    source = SOURCE.read_bytes()
    version = subprocess.run([compiler, "--version"], capture_output=True,
                             timeout=60, check=True).stdout
    digest = hashlib.sha256(
        b"\0".join([source, " ".join(FLAGS).encode(), version])
    ).hexdigest()[:24]
    directory = _cache_dir()
    path = directory / f"kernels-{digest}.so"
    if path.exists():
        return path
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".kernels-",
                               suffix=".so")
    os.close(fd)
    try:
        proc = subprocess.run([compiler, *FLAGS, "-o", tmp, str(SOURCE)],
                              capture_output=True, text=True, timeout=300)
        if proc.returncode:
            detail = (proc.stderr.strip().splitlines() or ["?"])[-1]
            raise _BuildError(f"{compiler} failed: {detail}")
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    return path


def _cache_dir() -> Path:
    """First writable library cache directory."""
    candidates = []
    if os.environ.get("XDG_CACHE_HOME"):
        candidates.append(Path(os.environ["XDG_CACHE_HOME"]) / "repro")
    try:
        candidates.append(Path.home() / ".cache" / "repro")
    except RuntimeError:  # no home directory
        pass
    for directory in candidates:
        try:
            directory.mkdir(parents=True, exist_ok=True)
        except OSError:
            continue
        if os.access(directory, os.W_OK | os.X_OK):
            return directory
    uid = os.getuid()
    directory = Path(tempfile.gettempdir()) / f"repro-{uid}"
    try:
        directory.mkdir(mode=0o700, exist_ok=True)
        info = os.lstat(directory)
    except OSError as exc:
        raise _BuildError(f"no writable cache directory: {exc}") from None
    # A shared temp dir: refuse one another user could have planted.
    if not stat.S_ISDIR(info.st_mode) or info.st_uid != uid \
            or info.st_mode & 0o077:
        raise _BuildError(f"unsafe cache directory {directory}")
    return directory
