"""Blackboard, retrievable knowledge bases, and conversation memory windows.

The blackboard realizes knowledge edges: producers write versioned artifacts
under declared keys, consumers read the latest version. Retrieval is lexical
tf-idf: deterministic, dependency-free, and checkable against a naive oracle.
"""

from __future__ import annotations

import errno
import hashlib
import math
import os
import re
import threading
from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import accumulate
from pathlib import Path
from typing import Any, Callable, Iterable, Mapping

from .errors import KnowledgeError
from .gateway import ChatMessage

_TOKEN_RE = re.compile(r"[a-z0-9]+")
# Byte -> its lowercase if a token can hold that, else a space: one translate
# lowercases ASCII text and turns every separator into a space.
_CORPUS_BYTES = bytes(ord(c) if _TOKEN_RE.fullmatch(c) else ord(" ") for c in (chr(b).lower() for b in range(256)))


def tokenize(text: str) -> list[str]:
    """Lowercase alphanumeric tokenization; everything else is a separator."""
    return _TOKEN_RE.findall(text.lower())


@dataclass(frozen=True)
class Artifact:
    value: Any
    producer: str
    version: int


class Blackboard:
    """Shared, versioned key-value store with per-key atomicity.

    Writes are restricted to keys the producing node declared as outputs;
    declarations are registered by the engine as the graph (and any
    expansions) are loaded. Seeded entries bypass the declaration check and
    carry the reserved producer ``__seed__``.
    """

    SEED_PRODUCER = "__seed__"

    def __init__(self, declarations: Mapping[str, Iterable[str]] | None = None) -> None:
        self._entries: dict[str, Artifact] = {}
        self._declarations: dict[str, set[str]] = {}
        self._lock = threading.Lock()
        for node_id, keys in (declarations or {}).items():
            self.declare_outputs(node_id, keys)

    def declare_outputs(self, node_id: str, keys: Iterable[str]) -> None:
        with self._lock:
            self._declarations.setdefault(node_id, set()).update(keys)

    def _next(self, key: str, value: Any, producer: str, previous: Artifact | None) -> Artifact:
        """The artifact a write makes after ``previous``; call with the lock held."""
        if producer != self.SEED_PRODUCER and key not in self._declarations.get(producer, ()):
            raise KnowledgeError(
                "UNDECLARED_OUTPUT",
                f"node {producer!r} did not declare output key {key!r}",
            )
        return Artifact(value=value, producer=producer, version=1 if previous is None else previous.version + 1)

    def write(self, key: str, value: Any, producer: str) -> int:
        """Write one artifact version; returns the new version number."""
        with self._lock:
            artifact = self._entries[key] = self._next(key, value, producer, self._entries.get(key))
            return artifact.version

    def prepare(self, key: str, value: Any, producer: str, after: Artifact | None = None) -> Artifact:
        """The artifact a write would make, checked but not applied: its
        version follows ``after``, or else the latest entry under ``key``."""
        with self._lock:
            return self._next(key, value, producer, after or self._entries.get(key))

    def commit(self, writes: Mapping[str, Artifact]) -> None:
        """Apply artifacts made by ``prepare``, all under one lock."""
        with self._lock:
            self._entries.update(writes)

    def stage(self, node_id: str) -> "BlackboardStage":
        """A view that holds one node's writes apart until they are committed."""
        return BlackboardStage(self, node_id)

    def seed(self, key: str, value: Any) -> int:
        return self.write(key, value, producer=self.SEED_PRODUCER)

    def read(self, key: str) -> Any:
        return self.entry(key).value

    def entry(self, key: str) -> Artifact:
        with self._lock:
            if key not in self._entries:
                raise KnowledgeError("KEY_ABSENT", f"no artifact under key {key!r}")
            return self._entries[key]

    def has(self, key: str) -> bool:
        with self._lock:
            return key in self._entries

    def keys(self) -> list[str]:
        with self._lock:
            return sorted(self._entries)

    def snapshot(self) -> dict[str, dict]:
        """Stable serializable view: key -> {value, producer, version}."""
        with self._lock:
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


@dataclass(frozen=True)
class Document:
    id: str
    text: str
    tags: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "tags", tuple(self.tags))


class _Index:
    """What knowledge bases loaded from the same bytes share: the documents,
    the corpus and its offsets, the postings searched so far, and the lock
    that guards building them. The documents never change, and the corpus
    and each token's postings, built once under the lock, are the same
    whichever knowledge base asks first."""

    def __init__(self) -> None:
        self.docs: dict[str, Document] = {}
        self.corpus: bytes | None = None  # built on the first search
        self.starts: list[int] = []  # corpus offset of each document, in ``ids`` order
        self.ids: list[str] = []
        self.postings: dict[str, dict[str, int]] = {}  # queried token -> doc id -> count
        self.lock = threading.Lock()


class KnowledgeBase:
    """Document store searched as one corpus, built on its first query.

    The corpus is the documents' lowercased texts joined with single spaces,
    with every character a token cannot hold turned into a space, so each
    token of ``tokenize(text)`` stands between two spaces and a token never
    spans two documents. A token's postings come from C-level ``find`` calls
    for the token framed by spaces, each hit mapped to its document by start
    offset; they are built on the token's first ask and kept. A token no
    document holds costs one scan, no document is ever tokenized, a knowledge
    base that is never queried builds no corpus, and a string that is not a
    whole token has empty postings. The documents, the corpus and the
    postings live in an ``_Index`` that ``load_kb_dir`` hands on to the next
    knowledge base loaded from the same bytes. ``parsed`` holds what tools
    derive from a document (doc id -> parsed form), so a tool asks for each
    document's parse at most once while this knowledge base lives; it is
    never shared. A parser may keep its own memo beneath it, as
    ``parse_timing_report`` does, so ``parsed`` then saves the lookup, not
    the parse.
    The index's lock guards the corpus and the postings and this knowledge
    base's lock guards ``parsed``, as nodes may query a knowledge base from
    several threads at once.
    """

    def __init__(self, name: str, documents: Iterable[Document] = ()) -> None:
        self.name = name
        self.parsed: dict[str, Any] = {}
        self._lock = threading.Lock()
        self._index = _Index()
        docs = self._index.docs
        for doc in documents:
            if doc.id in docs:
                raise KnowledgeError("DUPLICATE_DOC", f"document id {doc.id!r} appears twice in {name!r}")
            docs[doc.id] = doc

    def _build_corpus(self) -> None:
        """Join the documents into the corpus; call with the index's lock held."""
        index = self._index
        index.ids = list(index.docs)
        # An ASCII text is lowercased by the byte table; lowering any other
        # text may lengthen it (U+0130 lowers to two code points), so it is
        # lowered first and its offsets are taken from the lowered text.
        texts = [doc.text if doc.text.isascii() else doc.text.lower() for doc in index.docs.values()]
        index.starts = list(accumulate([len(text) + 1 for text in texts], initial=1))[:-1]
        # "replace" encodes each character outside ASCII as one "?", so the
        # offsets of the texts hold in the bytes.
        index.corpus = " ".join(["", *texts, ""]).encode("ascii", "replace").translate(_CORPUS_BYTES)

    def _search(self, token: str) -> dict[str, int]:
        """Doc id -> count of the whole token ``token``; call with the index's lock held."""
        index = self._index
        if index.corpus is None:
            self._build_corpus()
        assert index.corpus is not None
        find, starts, ids = index.corpus.find, index.starts, index.ids
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
        index = self._index
        posting = index.postings.get(token)
        if posting is None:
            with index.lock:
                posting = index.postings.get(token)
                if posting is None:
                    posting = index.postings[token] = self._search(token) if _TOKEN_RE.fullmatch(token) else {}
        return posting

    def parse_once(self, doc_id: str, parse: Callable[[str], Any]) -> Any:
        """``parse`` of the document's text, kept in ``parsed``; a parse that
        raises is not kept."""
        with self._lock:
            if doc_id not in self.parsed:
                self.parsed[doc_id] = parse(self._index.docs[doc_id].text)
            return self.parsed[doc_id]

    def get(self, doc_id: str) -> Document | None:
        return self._index.docs.get(doc_id)

    def ids(self) -> list[str]:
        return sorted(self._index.docs)

    def __len__(self) -> int:
        return len(self._index.docs)

    def token_count(self, doc_id: str, token: str) -> int:
        return self.postings(token).get(doc_id, 0)

    def doc_frequency(self, token: str) -> int:
        return len(self.postings(token))


def retrieve(kb: KnowledgeBase, query: str, k: int) -> list[tuple[Document, float]]:
    """Top-k documents by tf-idf: score(d) = sum over query tokens of
    tf(token, d) * (ln((N+1)/(df+1)) + 1).

    Ranked by score descending then id ascending. Only documents holding a
    query token are scored (every idf is at least 1, so all others score 0
    and are dropped); each score sums its terms in query-token order, so
    scores match a naive pass over every document bit for bit. Raises
    EMPTY_QUERY when the query normalizes to no tokens.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    tokens = tokenize(query)
    if not tokens:
        raise KnowledgeError("EMPTY_QUERY", "query has no tokens after normalization")

    n_docs = len(kb)
    postings = {token: kb.postings(token) for token in set(tokens)}
    idf = {token: math.log((n_docs + 1) / (len(posting) + 1)) + 1.0 for token, posting in postings.items()}

    scored: list[tuple[Document, float]] = []
    for doc_id in sorted(set().union(*postings.values())):
        score = sum(postings[token].get(doc_id, 0) * idf[token] for token in tokens)
        doc = kb.get(doc_id)
        assert doc is not None
        scored.append((doc, score))
    scored.sort(key=lambda pair: (-pair[1], pair[0].id))
    return scored[:k]


# One read's worth: a file that fits is hashed and decoded where it was read.
_READ_BUFFER = 1 << 16


def _read_kb_files(dir_fd: int, directory: Path, files: list[str], documents: list[Document] | None = None) -> bytes:
    """The sha256 of the files' names, lengths and bytes, hashed file by file;
    with ``documents``, each file's document is also appended to it.

    Each file is opened relative to ``dir_fd`` and read until EOF into one
    buffer that every file reuses, so hashing alone keeps no file's bytes;
    decoding copies only a file larger than the buffer. The file stem is
    the document id; an optional first line ``tags: a,b`` declares tags and
    is stripped from the text. Line endings are read as ``\\n``. A file
    that cannot be read as UTF-8 is ``KB_UNREADABLE``, named by its path
    under ``directory``.
    """
    digest = hashlib.sha256()
    listing = []
    buffer = bytearray(_READ_BUFFER)
    view = memoryview(buffer)
    for file_name in files:
        try:
            fd = os.open(file_name, os.O_RDONLY, dir_fd=dir_fd)
            try:
                chunks: list[bytes] = []
                size = filled = 0
                while count := os.readv(fd, (view[filled:],)):
                    digest.update(view[filled : filled + count])
                    filled += count
                    size += count
                    if filled == _READ_BUFFER:
                        if documents is not None:
                            chunks.append(bytes(buffer))
                        filled = 0
            finally:
                os.close(fd)
            if documents is not None:
                raw = str(b"".join([*chunks, view[:filled]]) if chunks else view[:filled], "utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            path = os.path.join(directory, file_name)
            raise KnowledgeError("KB_UNREADABLE", f"knowledge base file {path!r} is unreadable: {exc}") from exc
        listing.append(f"{file_name}\0{size}")
        if documents is None:
            continue
        if "\r" in raw:
            raw = raw.replace("\r\n", "\n").replace("\r", "\n")
        tags: tuple[str, ...] = ()
        text = raw
        first, _, rest = raw.partition("\n")
        if first.startswith("tags:"):
            tags = tuple(t.strip() for t in first[len("tags:"):].split(",") if t.strip())
            text = rest
        documents.append(Document(id=file_name[:-4] or file_name, text=text, tags=tags))  # the stem, as in Path.stem
    # The bytes, then each name and length (a name holds no NUL), then the
    # listing's length in fixed width: read from its end, the stream splits
    # back into files one way only.
    names = os.fsencode("\0".join(listing))
    digest.update(names)
    digest.update(len(names).to_bytes(8, "big"))
    return digest.digest()


# Knowledge-base name -> (digest of the files it was last built from, its index).
_LOADED: dict[str, tuple[bytes, _Index]] = {}


def load_kb_dir(name: str, directory: str | Path) -> KnowledgeBase:
    """Load a knowledge base from a directory of ``*.txt`` files, in name order.

    The directory is opened once; its listing and every file come from that
    descriptor, each file opened by its name alone, so a rename of the
    directory's path during the load does not mix two directories. Every
    call reads every file to its end and trusts no timestamp or size. When
    the files' names, lengths and bytes hash as they did when the last
    knowledge base under ``name`` was built, the new one shares that one's
    index: its documents, its corpus and the postings searched so far.
    Otherwise the files are read again, decoded, and a fresh index is built
    and kept under ``name`` in its place. Either way the knowledge base has
    its own, empty ``parsed``. A directory that cannot be opened is
    ``KB_DIR_MISSING``, which says why unless it is absent; a file that cannot be read as UTF-8
    ``KB_UNREADABLE``. Needs POSIX ``dir_fd`` support.
    """
    directory = Path(directory)
    try:
        dir_fd = os.open(directory, os.O_RDONLY | os.O_DIRECTORY)
    except OSError as exc:
        why = "does not exist" if exc.errno in (errno.ENOENT, errno.ENOTDIR) else f"cannot be opened: {exc.strerror}"
        raise KnowledgeError("KB_DIR_MISSING", f"knowledge base directory {str(directory)!r} {why}") from exc
    try:
        files = sorted(entry for entry in os.listdir(dir_fd) if entry.endswith(".txt"))
        cached = _LOADED.get(name)
        if cached is not None and _read_kb_files(dir_fd, directory, files) == cached[0]:
            kb = KnowledgeBase(name)
            kb._index = cached[1]
            return kb
        documents: list[Document] = []
        digest = _read_kb_files(dir_fd, directory, files, documents)
    finally:
        os.close(dir_fd)
    kb = KnowledgeBase(name, documents)
    # Loads that race under one name each keep a digest with its own index,
    # so whichever lands last is still a correct entry.
    _LOADED[name] = (digest, kb._index)
    return kb


@dataclass(frozen=True)
class MemoryWindow:
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
