"""Blackboard, retrievable knowledge bases, and conversation memory windows.

The blackboard realizes knowledge edges: producers write versioned artifacts
under declared keys, consumers read the latest version. Retrieval is lexical
tf-idf: deterministic, dependency-free, and checkable against a naive oracle.
"""

from __future__ import annotations

import errno
import math
import os
import re
from array import array
from bisect import bisect_right
from functools import reduce
from itertools import accumulate, chain
from operator import add, is_
from pathlib import Path
from time import time_ns
from typing import Any, Iterable, Mapping, NamedTuple

from .errors import KnowledgeError
from .gateway import ChatMessage, read_file
from .record import Record

_TOKEN_RE = re.compile(r"[a-z0-9]+")
# Byte -> its lowercase if a token can hold that, else a space: one translate
# lowercases ASCII text and turns every separator into a space.
_CORPUS_BYTES = bytes(ord(c) if _TOKEN_RE.fullmatch(c) else ord(" ") for c in (chr(b).lower() for b in range(256)))


def tokenize(text: str) -> list[str]:
    """Lowercase alphanumeric tokenization; everything else is a separator."""
    return _TOKEN_RE.findall(text.lower())


class Artifact(NamedTuple):
    value: Any
    producer: str
    version: int


class Blackboard:
    """Shared, versioned key-value store; not thread-safe.

    Writes are restricted to keys the producing node declared as outputs;
    declarations are registered by the engine as the graph (and any
    expansions) are loaded. Seeded entries bypass the declaration check and
    carry the reserved producer ``__seed__``.
    """

    SEED_PRODUCER = "__seed__"

    def __init__(self, declarations: Mapping[str, Iterable[str]] | None = None) -> None:
        self._entries: dict[str, Artifact] = {}
        self._declarations: dict[str, set[str]] = {}
        for node_id, keys in (declarations or {}).items():
            self.declare_outputs(node_id, keys)

    def declare_outputs(self, node_id: str, keys: Iterable[str]) -> None:
        self._declarations.setdefault(node_id, set()).update(keys)

    def write(self, key: str, value: Any, producer: str) -> int:
        """Write one artifact version; returns the new version number."""
        artifact = self._entries[key] = self.prepare(key, value, producer)
        return artifact.version

    def prepare(self, key: str, value: Any, producer: str, after: Artifact | None = None) -> Artifact:
        """The artifact a write would make, checked but not applied: its
        version follows ``after``, or else the latest entry under ``key``."""
        if producer != self.SEED_PRODUCER and key not in self._declarations.get(producer, ()):
            raise KnowledgeError(
                "UNDECLARED_OUTPUT",
                f"node {producer!r} did not declare output key {key!r}",
            )
        previous = after or self._entries.get(key)
        return Artifact(value=value, producer=producer, version=1 if previous is None else previous.version + 1)

    def commit(self, writes: Mapping[str, Artifact]) -> None:
        """Apply artifacts made by ``prepare``."""
        self._entries.update(writes)

    def stage(self, node_id: str) -> "BlackboardStage":
        """A view that holds one node's writes apart until they are committed."""
        return BlackboardStage(self, node_id)

    def seed(self, key: str, value: Any) -> int:
        return self.write(key, value, producer=self.SEED_PRODUCER)

    def read(self, key: str) -> Any:
        return self.entry(key).value

    def entry(self, key: str) -> Artifact:
        if key not in self._entries:
            raise KnowledgeError("KEY_ABSENT", f"no artifact under key {key!r}")
        return self._entries[key]

    def has(self, key: str) -> bool:
        return key in self._entries

    def snapshot(self) -> dict[str, dict]:
        """Stable serializable view: key -> {value, producer, version}."""
        return {
            key: {"value": art.value, "producer": art.producer, "version": art.version}
            for key, art in sorted(self._entries.items())
        }


class BlackboardStage:
    """One node's view of the blackboard while it runs.

    Writes are checked against the declarations and held here; reads see
    them first and then the shared board, and versions are numbered as the
    shared board would number them. ``commit`` applies the held writes to
    the shared board; a stage never committed leaves no trace on it.
    """

    def __init__(self, board: Blackboard, node_id: str) -> None:
        self.node_id = node_id
        self._board = board
        self._writes: dict[str, Artifact] = {}

    def write(self, key: str, value: Any, producer: str) -> int:
        artifact = self._writes[key] = self._board.prepare(key, value, producer, self._writes.get(key))
        return artifact.version

    def read(self, key: str) -> Any:
        return self.entry(key).value

    def entry(self, key: str) -> Artifact:
        return self._writes.get(key) or self._board.entry(key)

    def has(self, key: str) -> bool:
        return key in self._writes or self._board.has(key)

    def commit(self) -> None:
        self._board.commit(self._writes)
        self._writes = {}


class Document(Record):
    id: str
    text: str
    tags: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "tags", tuple(self.tags))


class _Note:
    """A note's bytes as read (``None`` for a document given whole) and its
    ``Document`` once asked for. Knowledge bases loaded from the same bytes
    share the note, so its document is built once for all."""

    __slots__ = ("data", "doc")

    def __init__(self, data: bytes | None, doc: Document | None = None) -> None:
        self.data, self.doc = data, doc


def _document(doc_id: str, data: bytes) -> Document:
    """A note's document: its bytes decoded as UTF-8, line endings read as
    ``\\n``, and an optional first line ``tags: a,b`` taken as the tags and
    stripped from the text. Raises ``UnicodeDecodeError``."""
    raw = str(data, "utf-8")
    if "\r" in raw:
        raw = raw.replace("\r\n", "\n").replace("\r", "\n")
    first, _, rest = raw.partition("\n")
    if not first.startswith("tags:"):
        return Document(id=doc_id, text=raw)
    return Document(id=doc_id, text=rest, tags=tuple(t.strip() for t in first[len("tags:"):].split(",") if t.strip()))


def _corpus_text(note: _Note) -> bytes:
    """The note's text as the corpus holds it, before the byte table."""
    data = note.data
    if data is not None and data.isascii():
        # An ASCII note's own bytes, from the line break that ends a tags
        # line: a break, "\r\n" or not, is a separator, so it may stay.
        return data[len(data.partition(b"\n")[0].partition(b"\r")[0]):] if data.startswith(b"tags:") else data
    # Lowering a text outside ASCII may lengthen it (U+0130 lowers to two
    # code points), so it is lowered before its length is taken; "replace"
    # encodes each character outside ASCII as one "?", so the length holds.
    text = note.doc.text
    return (text if text.isascii() else text.lower()).encode("ascii", "replace")


class KnowledgeBase:
    """Document store searched as one corpus, built on its first query.

    The corpus is the notes' lowercased texts joined with single spaces,
    with every character a token cannot hold turned into a space, so each
    token of ``tokenize(text)`` stands between two spaces and a token never
    spans two documents. An ASCII note loaded from a file enters it as its
    own bytes, so it is neither decoded nor made a ``Document`` until
    ``get`` asks for it. A token's postings come from C-level ``find``
    calls for the token framed by spaces, each hit mapped to its document by
    start offset; they are built on the token's first ask and kept. A token
    no document holds costs one scan, no document is ever tokenized, a
    knowledge base that is never queried builds no corpus, and a string that
    is not a whole token has empty postings. The documents never change, so
    ``load_kb_dir`` hands the same knowledge base, with its corpus and the
    postings searched so far, to every load of the same bytes. Not
    thread-safe.
    """

    def __init__(self, name: str, documents: Iterable[Document] = ()) -> None:
        self.name = name
        self._notes: dict[str, _Note] = {}
        self._corpus: bytes | None = None  # built on the first search
        self._starts: list[int] = []  # corpus offset of each document, in ``_ids`` order
        self._ids: list[str] = []
        self._postings: dict[str, dict[str, int]] = {}  # queried token -> doc id -> count
        for doc in documents:
            self._add(doc.id, _Note(None, doc))

    def _add(self, doc_id: str, note: _Note) -> None:
        if doc_id in self._notes:
            raise KnowledgeError("DUPLICATE_DOC", f"document id {doc_id!r} appears twice in {self.name!r}")
        self._notes[doc_id] = note

    def _build_corpus(self) -> bytes:
        """Join the notes into the corpus."""
        self._ids = list(self._notes)
        texts = [_corpus_text(note) for note in self._notes.values()]
        self._starts = list(accumulate([len(text) + 1 for text in texts], initial=1))[:-1]
        self._corpus = b" ".join([b"", *texts, b""]).translate(_CORPUS_BYTES)
        return self._corpus

    def _search(self, token: str) -> dict[str, int]:
        """Doc id -> count of the whole token ``token``."""
        corpus = self._corpus if self._corpus is not None else self._build_corpus()
        find, starts, ids = corpus.find, self._starts, self._ids
        prefix = f" {token}".encode("ascii")
        # The open needle scans faster than the framed one, as its last byte
        # is rarely a space, so a token no document holds costs that scan only.
        hit = find(prefix)
        if hit < 0:
            return {}
        needle = prefix + b" "
        step = len(needle) - 1  # a hit's closing space may open the next hit
        posting: dict[str, int] = {}
        hit = find(needle, hit)
        while hit >= 0:
            doc_id = ids[bisect_right(starts, hit + 1) - 1]
            posting[doc_id] = posting.get(doc_id, 0) + 1
            hit = find(needle, hit + step)
        return posting

    def postings(self, token: str) -> Mapping[str, int]:
        """Doc id -> count of ``token``, for the documents that contain it."""
        posting = self._postings.get(token)
        if posting is None:
            posting = self._postings[token] = self._search(token) if _TOKEN_RE.fullmatch(token) else {}
        return posting

    def get(self, doc_id: str) -> Document | None:
        note = self._notes.get(doc_id)
        if note is None:
            return None
        if note.doc is None:
            note.doc = _document(doc_id, note.data)
        return note.doc

    def ids(self) -> list[str]:
        return sorted(self._notes)

    def __len__(self) -> int:
        return len(self._notes)

    def token_count(self, doc_id: str, token: str) -> int:
        return self.postings(token).get(doc_id, 0)


def retrieve(kb: KnowledgeBase, query: str, k: int) -> list[tuple[Document, float]]:
    """Top-k documents by tf-idf: score(d) = sum over query tokens of
    tf(token, d) * (ln((N+1)/(df+1)) + 1).

    Ranked by score descending then id ascending. Only documents holding a
    query token are scored (every idf is at least 1, so all others score 0
    and are dropped); each score sums its terms in query-token order, so
    scores match a naive pass over every document bit for bit. Only the top
    k are looked up as documents. Raises EMPTY_QUERY when the query
    normalizes to no tokens.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    tokens = tokenize(query)
    if not tokens:
        raise KnowledgeError("EMPTY_QUERY", "query has no tokens after normalization")

    n_docs = len(kb)
    postings = {token: kb.postings(token) for token in set(tokens)}
    idf = {token: math.log((n_docs + 1) / (len(posting) + 1)) + 1.0 for token, posting in postings.items()}
    ranked = sorted(  # scores add left to right, as ``sum`` did before Python 3.12
        (-reduce(add, (postings[token].get(doc_id, 0) * idf[token] for token in tokens), 0), doc_id)
        for doc_id in set().union(*postings.values())
    )
    return [(kb.get(doc_id), -negated) for negated, doc_id in ranked[:k]]


def _stat_key(st: os.stat_result) -> tuple[int, int, int, int]:  # st_ino is unsigned: shifted to fit array("q")
    return st.st_ino - (1 << 63), st.st_size, st.st_mtime_ns, st.st_ctime_ns


def _read_notes(
    dir_fd: int, directory: Path, files: list[str], last: Mapping[str, _Note]
) -> tuple[list[tuple[str, _Note]], array]:
    """Each file's stem and note, in ``files`` order, and its stat key,
    taken on its descriptor before it is read.

    Each file is read once, by ``read_file`` relative to ``dir_fd``. A file
    whose bytes equal those of ``last``'s note under its stem keeps that
    note, and its document if one was built. Any other ASCII file is kept as
    its bytes; a file outside ASCII is decoded now, so that one not UTF-8
    fails the load. The file stem is the document id. A file that is not
    regular (a directory, FIFO or device) or not UTF-8 is ``KB_UNREADABLE``,
    named by its path under ``directory``.
    """
    notes, keys = [], array("q")
    for file_name in files:
        stem = file_name[:-4] or file_name  # as Path.stem
        try:
            data, st = read_file(file_name, dir_fd)
            note = last.get(stem)
            if note is None or note.data != data:
                note = _Note(data, None if data.isascii() else _document(stem, data))
        except (OSError, UnicodeDecodeError) as exc:
            path = os.path.join(directory, file_name)
            raise KnowledgeError("KB_UNREADABLE", f"knowledge base file {path!r} is unreadable: {exc}") from exc
        keys.extend(_stat_key(st))
        notes.append((stem, note))
    return notes, keys


# git's racy-clean rule: a stat snapshot is trusted only if its timestamps are all older than
# when it was taken by this bound, or by 3 times it if none has a sub-second part (ext3, FAT).
_RACY_NS = 1_000_000_000


class _Loaded(NamedTuple):  # the last build under a name, and the stat snapshot of its last byte check
    kb: KnowledgeBase
    directory: tuple[int, int, int, int]  # st_dev, st_ino, st_mtime_ns, st_ctime_ns
    files: list[str]  # the sorted ``.txt`` names
    keys: array  # each file's ``_stat_key``, in ``files`` order
    clean: bool  # every timestamp older than the racy bound when taken


_LOADED: dict[str, _Loaded] = {}


def load_kb_dir(name: str, directory: str | Path) -> KnowledgeBase:
    """Load a knowledge base from a directory of ``*.txt`` files, in name order.

    The directory is opened once; its listing and every file come from that
    descriptor, each file opened by its name alone, so a rename of the
    directory's path during the load does not mix two directories. If the last
    load under ``name`` left a clean stat snapshot that the directory and every
    file still match, its knowledge base is returned and no file is listed or
    opened. Otherwise every file is read to its end once and compared with the
    bytes the last knowledge base under ``name`` keeps for it, and a new
    snapshot is made: when the names and every file's bytes are unchanged,
    that same knowledge base is returned, with its corpus and the postings
    searched so far; else a new one is kept under ``name``, which shares the
    last one's notes of the files whose bytes are unchanged. A directory that
    cannot be opened is ``KB_DIR_MISSING``, which says why unless it is absent;
    a file that is not regular or not UTF-8 ``KB_UNREADABLE``. Needs POSIX
    ``dir_fd`` support.
    """
    directory = Path(directory)
    now = time_ns()
    try:
        dir_fd = os.open(directory, os.O_RDONLY | os.O_DIRECTORY)
    except OSError as exc:
        why = "does not exist" if exc.errno in (errno.ENOENT, errno.ENOTDIR) else f"cannot be opened: {exc.strerror}"
        raise KnowledgeError("KB_DIR_MISSING", f"knowledge base directory {str(directory)!r} {why}") from exc
    try:
        st = os.fstat(dir_fd)
        dir_key = (st.st_dev, st.st_ino, st.st_mtime_ns, st.st_ctime_ns)
        last = _LOADED.get(name)
        if last is not None and last.clean and last.directory == dir_key:
            # Adding, removing or renaming an entry moves the directory's key.
            try:
                keys = array("q", chain.from_iterable(_stat_key(os.stat(f, dir_fd=dir_fd)) for f in last.files))
            except OSError:
                keys = None  # the read below says why
            if keys == last.keys:
                return last.kb
        files = sorted(entry for entry in os.listdir(dir_fd) if entry.endswith(".txt"))
        notes, keys = _read_notes(dir_fd, directory, files, {} if last is None else last.kb._notes)
    finally:
        os.close(dir_fd)
    if last is not None and last.files == files and all(map(is_, (note for _, note in notes), last.kb._notes.values())):
        kb = last.kb
    else:
        kb = KnowledgeBase(name)
        for stem, note in notes:
            kb._add(stem, note)
    times = array("q", dir_key[2:]) + keys[2::4] + keys[3::4]
    bound = _RACY_NS if any(t % 1_000_000_000 for t in times) else 3 * _RACY_NS
    _LOADED[name] = _Loaded(kb, dir_key, files, keys, max(times) < now - bound)
    return kb


class MemoryWindow(Record):
    """Bounded conversation memory; the system message is never evicted."""

    max_messages: int

    def __post_init__(self) -> None:
        if self.max_messages < 1:
            raise ValueError("max_messages must be >= 1")


def apply_window(messages: list[ChatMessage], window: MemoryWindow) -> list[ChatMessage]:
    """Trim to at most max_messages, keeping the system message plus the
    most recent remainder. A tool round is evicted as a unit: tool replies
    whose requesting assistant message falls outside the window go too, as
    chat-completions endpoints reject them. Idempotent; retained order is
    preserved."""
    if len(messages) <= window.max_messages:
        return list(messages)
    head = [messages[0]] if messages and messages[0].role == "system" else []
    keep = window.max_messages - len(head)
    start = len(messages) - keep
    while start < len(messages) and messages[start].role == "tool":
        start += 1
    return head + list(messages[start:])
