"""Blackboard versioning, tf-idf retrieval, and memory windows."""

import errno
import hashlib
import math
import os
import shutil
import subprocess
import sys
import tempfile
import time
from array import array
from collections import Counter
from itertools import chain
from pathlib import Path

import pytest

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st
except ModuleNotFoundError:  # pragma: no cover
    pytest.skip("hypothesis not installed", allow_module_level=True)

from oracles import oracle_kb_dir, tfidf_rank
import marco.gateway
import marco.knowledge
from marco.errors import KnowledgeError
from marco.gateway import ChatMessage, ToolCallRequest
from marco.knowledge import (
    Artifact,
    Blackboard,
    Document,
    KnowledgeBase,
    MemoryWindow,
    apply_window,
    load_kb_dir,
    retrieve,
    tokenize,
)


class TestBlackboard:
    def test_versions_increment_per_key(self):
        board = Blackboard({"n1": ["report"]})
        assert board.write("report", "first", producer="n1") == 1
        assert board.write("report", "second", producer="n1") == 2
        assert board.read("report") == "second"
        assert board.entry("report").version == 2
        assert board.entry("report").producer == "n1"

    def test_undeclared_output_rejected(self):
        board = Blackboard({"n1": ["report"]})
        with pytest.raises(KnowledgeError) as exc:
            board.write("other", "x", producer="n1")
        assert exc.value.code == "UNDECLARED_OUTPUT"
        with pytest.raises(KnowledgeError) as exc:
            board.write("report", "x", producer="ghost")
        assert exc.value.code == "UNDECLARED_OUTPUT"

    def test_seed_bypasses_declarations(self):
        board = Blackboard()
        assert board.seed("design_brief", "text") == 1
        assert board.entry("design_brief").producer == Blackboard.SEED_PRODUCER

    def test_absent_key(self):
        board = Blackboard()
        with pytest.raises(KnowledgeError) as exc:
            board.read("missing")
        assert exc.value.code == "KEY_ABSENT"
        assert not board.has("missing")

    def test_declarations_accumulate(self):
        board = Blackboard({"n1": ["a"]})
        board.declare_outputs("n1", ["b"])
        board.write("a", 1, producer="n1")
        board.write("b", 2, producer="n1")
        assert list(board.snapshot()) == ["a", "b"]

    def test_snapshot_sorted_and_stable(self):
        board = Blackboard({"n1": ["b", "a"]})
        board.write("b", "vb", producer="n1")
        board.write("a", "va", producer="n1")
        snap = board.snapshot()
        assert list(snap) == ["a", "b"]
        assert snap["a"] == {"value": "va", "producer": "n1", "version": 1}
        assert board.snapshot() == snap


class TestBlackboardStage:
    def test_reads_own_writes_then_shared_board(self):
        board = Blackboard({"n1": ["a", "b"]})
        board.seed("brief", "shared text")
        stage = board.stage("n1")
        stage.write("a", "staged", producer="n1")
        assert stage.read("a") == "staged" and stage.has("a")
        assert stage.read("brief") == "shared text" and stage.has("brief")
        assert not stage.has("b")
        assert not board.has("a")

    def test_versions_numbered_as_the_shared_board_would(self):
        board = Blackboard({"n1": ["a"], "n2": ["b"]})
        board.write("a", "v1", producer="n1")
        stage = board.stage("n1")
        assert stage.write("a", "v2", producer="n1") == 2
        assert stage.write("a", "v3", producer="n1") == 3
        assert stage.entry("a") == Artifact(value="v3", producer="n1", version=3)
        assert board.entry("a").version == 1
        stage.commit()
        assert board.entry("a").version == 3 and board.read("a") == "v3"
        assert board.write("a", "v4", producer="n1") == 4

    def test_undeclared_key_raises(self):
        stage = Blackboard({"n1": ["a"]}).stage("n1")
        with pytest.raises(KnowledgeError) as exc:
            stage.write("other", "x", producer="n1")
        assert exc.value.code == "UNDECLARED_OUTPUT"

    def test_prepare_checks_without_applying(self):
        board = Blackboard({"n1": ["a"]})
        board.write("a", "v1", producer="n1")
        assert board.prepare("a", "v2", producer="n1") == Artifact(value="v2", producer="n1", version=2)
        after = Artifact(value="v5", producer="n1", version=5)
        assert board.prepare("a", "v6", producer="n1", after=after).version == 6
        assert board.entry("a").version == 1
        with pytest.raises(KnowledgeError) as exc:
            board.prepare("other", "x", producer="n1")
        assert exc.value.code == "UNDECLARED_OUTPUT"

    def test_board_commit_applies_prepared_writes(self):
        board = Blackboard({"n1": ["a", "b"]})
        board.commit({"a": board.prepare("a", 1, producer="n1"), "b": board.prepare("b", 2, producer="n1")})
        assert board.snapshot() == {
            "a": {"value": 1, "producer": "n1", "version": 1},
            "b": {"value": 2, "producer": "n1", "version": 1},
        }

    def test_uncommitted_stage_leaves_no_trace(self):
        board = Blackboard({"n1": ["a"]})
        board.stage("n1").write("a", "dropped", producer="n1")
        assert board.snapshot() == {}


class TestTokenize:
    def test_lowercases_and_splits(self):
        assert tokenize("Setup-Time, slack=0.1!") == ["setup", "time", "slack", "0", "1"]

    def test_empty(self):
        assert tokenize("?!") == []


CORPUS = {
    "d1": "timing slack analysis",
    "d2": "slack slack margin",
    "d3": "unrelated prose",
}


DOC_WORDS = ["slack", "net", "clock", "skew", "cap", "hold"]
QUERY_WORDS = DOC_WORDS + ["zebra", "quartz"]  # the last two appear in no document


def corpus_kb(docs: dict[str, str] = CORPUS) -> KnowledgeBase:
    return KnowledgeBase("test", [Document(doc_id, text) for doc_id, text in docs.items()])


class TestRetrieve:
    def test_scores_match_formula(self):
        kb = corpus_kb()
        results = retrieve(kb, "slack", k=5)
        idf = math.log((3 + 1) / (2 + 1)) + 1.0
        assert [(doc.id, score) for doc, score in results] == [("d2", 2 * idf), ("d1", 1 * idf)]

    def test_zero_score_dropped(self):
        kb = corpus_kb()
        ids = [doc.id for doc, _ in retrieve(kb, "slack", k=5)]
        assert "d3" not in ids

    def test_ties_break_by_id_ascending(self):
        kb = corpus_kb({"zz": "margin", "aa": "margin"})
        assert [doc.id for doc, _ in retrieve(kb, "margin", k=2)] == ["aa", "zz"]

    def test_k_cuts(self):
        kb = corpus_kb()
        assert len(retrieve(kb, "slack", k=1)) == 1

    def test_empty_query(self):
        with pytest.raises(KnowledgeError) as exc:
            retrieve(corpus_kb(), "!!!", k=3)
        assert exc.value.code == "EMPTY_QUERY"

    def test_bad_k(self):
        with pytest.raises(ValueError):
            retrieve(corpus_kb(), "slack", k=0)

    def test_no_hits_gives_empty(self):
        assert retrieve(corpus_kb(), "zebra", k=3) == []

    def test_empty_kb(self):
        assert retrieve(KnowledgeBase("empty"), "slack", k=3) == []

    @settings(max_examples=80, deadline=None)
    @given(
        texts=st.lists(st.lists(st.sampled_from(DOC_WORDS), max_size=6).map(" ".join), max_size=8),
        query=st.lists(st.sampled_from(QUERY_WORDS), min_size=1, max_size=5).map(" ".join),
        k=st.integers(min_value=1, max_value=9),
    )
    def test_matches_naive_oracle(self, texts, query, k):
        docs = {f"d{i}": text for i, text in enumerate(texts)}
        kb = corpus_kb(docs)
        got = [(doc.id, score) for doc, score in retrieve(kb, query, k)]
        assert got == tfidf_rank(docs, query, k)


# Tokens that are substrings of one another, in mixed case and beside
# non-ASCII letters (which tokenize as separators, or lowercase to ASCII, as
# the Kelvin sign does to "k", or to more than one code point, as U+0130 does
# to "i" and a combining dot), underscores and digit runs.
NESTED_WORDS = [
    "ack", "slack", "Slack", "SLACKS", "slack2", "sl\u00e4ck", "sla\u212a", "\u00e9ack", "k",
    "\u0130", "\u0130slack", "_", "slack_ack", "2024", "s2024",
]
NESTED_QUERY_WORDS = [
    "ack", "slack", "slacks", "slack2", "SLACK", "k", "2", "sl", "ackslack", "zebra", "i", "2024", "s2024",
]

NESTED_TEXT = st.lists(
    st.tuples(st.sampled_from(NESTED_WORDS), st.sampled_from(["", " ", "-", "\u00df", "\n", "_", "\u0130"])), max_size=6
).map(lambda pairs: "".join(word + sep for word, sep in pairs))


class TestPrefilteredRetrieve:
    """Postings visit only documents holding the token as a substring; the
    corpora here make substring hits that are not token hits."""

    @settings(max_examples=150, deadline=None)
    @given(
        texts=st.lists(NESTED_TEXT, min_size=1, max_size=8),
        queries=st.lists(
            st.lists(st.sampled_from(NESTED_QUERY_WORDS), min_size=1, max_size=4).map(" ".join), min_size=2, max_size=2
        ),
    )
    def test_matches_oracle_on_nested_tokens(self, texts, queries):
        docs = {f"d{i}": text for i, text in enumerate(texts)}
        kb = KnowledgeBase("test", [Document(doc_id, text) for doc_id, text in docs.items()])
        for query in queries:  # the second query reuses postings the first built
            got = [(doc.id, score) for doc, score in retrieve(kb, query, 9)]
            assert got == tfidf_rank(docs, query, 9)


class TestKnowledgeBase:
    def test_duplicate_doc_id(self):
        with pytest.raises(KnowledgeError) as exc:
            KnowledgeBase("kb", [Document("d1", "x"), Document("d1", "y")])
        assert exc.value.code == "DUPLICATE_DOC"

    def test_index_consistency(self):
        kb = corpus_kb()
        assert kb.token_count("d2", "slack") == 2
        assert kb.token_count("d2", "zebra") == 0
        assert len(kb.postings("slack")) == 2
        assert len(kb.postings("zebra")) == 0
        assert len(kb) == 3
        assert kb.ids() == ["d1", "d2", "d3"]

    def test_documents_never_tokenized(self, monkeypatch):
        calls = []
        real = marco.knowledge.tokenize
        monkeypatch.setattr(marco.knowledge, "tokenize", lambda text: calls.append(text) or real(text))
        kb = corpus_kb()
        assert len(kb.postings("slack")) == 2
        assert len(kb.postings("ack")) == 0  # a substring of "slack", not a token
        retrieve(kb, "slack margin", k=3)
        assert calls == ["slack margin"]  # the query only

    def test_corpus_built_only_when_queried(self, monkeypatch):
        builds = []
        real = KnowledgeBase._build_corpus
        monkeypatch.setattr(KnowledgeBase, "_build_corpus", lambda kb: builds.append(kb.name) or real(kb))
        kb = corpus_kb()
        assert kb.get("d2").text == CORPUS["d2"] and kb.ids() == ["d1", "d2", "d3"] and len(kb) == 3
        assert len(kb.postings("SLACK")) == 0  # not a token: nothing to search
        assert builds == []
        assert len(kb.postings("slack")) == 2
        assert len(kb.postings("margin")) == 1
        assert builds == ["test"]

    def test_get(self):
        kb = corpus_kb()
        assert kb.get("d1").text == CORPUS["d1"]
        assert kb.get("nope") is None


def counted(docs: dict[str, str], token: str) -> dict[str, int]:
    """The postings of ``token`` by tokenizing every document: the oracle."""
    counts = {doc_id: Counter(tokenize(text))[token] for doc_id, text in docs.items()}
    return {doc_id: count for doc_id, count in counts.items() if count}


class TestCorpusBoundaries:
    """The corpus joins every document into one text; no token may cross a
    document's edge or be lost at one."""

    def postings(self, docs: dict[str, str], token: str) -> dict[str, int]:
        got = dict(corpus_kb(docs).postings(token))
        assert got == counted(docs, token)
        return got

    def test_token_split_across_documents_not_found(self):
        docs = {"a": "sla", "b": "ck"}
        assert self.postings(docs, "slack") == {}
        assert self.postings(docs, "sla") == {"a": 1}
        assert self.postings(docs, "ck") == {"b": 1}

    def test_tokens_at_first_and_last_character(self):
        docs = {"a": "slack", "b": "x slack", "c": "slack y", "d": "slack"}
        assert self.postings(docs, "slack") == {"a": 1, "b": 1, "c": 1, "d": 1}
        assert self.postings(docs, "x") == {"b": 1}
        assert self.postings(docs, "y") == {"c": 1}

    def test_empty_documents(self):
        docs = {"a": "", "b": "slack", "c": "", "d": "slack slack", "e": ""}
        assert self.postings(docs, "slack") == {"b": 1, "d": 2}
        assert self.postings({"a": "", "b": ""}, "slack") == {}
        assert retrieve(corpus_kb({"a": ""}), "slack", k=3) == []

    def test_text_that_lowercases_longer_before_a_hit(self):
        docs = {"a": "\u0130" * 3, "b": "ab", "c": "x"}  # U+0130 lowers to "i" and U+0307
        assert self.postings(docs, "ab") == {"b": 1}
        assert self.postings(docs, "x") == {"c": 1}
        assert self.postings(docs, "i") == {"a": 3}

    @pytest.mark.parametrize("text", ["", "SLACK", "sl ack", "a_b", "slack ", "i\u0307"])
    def test_non_token_strings_have_no_postings(self, text):
        kb = corpus_kb({"d1": "slack sl ack a_b SLACK \u0130"})
        assert kb.token_count("d1", text) == 0
        assert len(kb.postings(text)) == 0
        assert [kb.token_count("d1", token) for token in ("slack", "sl", "a", "i")] == [2, 1, 1, 1]

    @settings(max_examples=200, deadline=None)
    @given(
        texts=st.lists(st.text(alphabet="aAbk_0 -\n\u0130\u212a\u00df\u00e4\ud800", max_size=12), max_size=6),
        tokens=st.lists(st.text(alphabet="abki0_ ", min_size=1, max_size=3), min_size=1, max_size=4),
    )
    def test_postings_match_tokenized_documents(self, texts, tokens):
        docs = {f"d{i}": text for i, text in enumerate(texts)}
        kb = corpus_kb(docs)
        every = {token for text in texts for token in tokenize(text)}
        for token in sorted(every) + tokens:
            assert dict(kb.postings(token)) == counted(docs, token)


class TestLoadKbDir:
    def test_stems_tags_and_text(self, tmp_path):
        (tmp_path / "alpha.txt").write_text("tags: syntax, lint\nbody line one\nbody line two\n")
        (tmp_path / "beta.txt").write_text("plain text with no tag header\n")
        (tmp_path / "ignored.md").write_text("not a txt document")
        kb = load_kb_dir("dirkb", tmp_path)
        assert kb.ids() == ["alpha", "beta"]
        alpha = kb.get("alpha")
        assert alpha.tags == ("syntax", "lint")
        assert alpha.text == "body line one\nbody line two\n"
        assert kb.get("beta").tags == ()

    def test_name_order_line_endings_and_stems(self, tmp_path):
        (tmp_path / "b.txt").write_bytes(b"tags: x\r\nline one\r\nline two\rend")
        (tmp_path / "a.b.txt").write_bytes(b"dotted")
        (tmp_path / "..txt").write_bytes(b"dots only")
        kb = load_kb_dir("kb", tmp_path)
        assert kb.ids() == [".", "a.b", "b"]
        assert kb.get("b").tags == ("x",)
        assert kb.get("b").text == "line one\nline two\nend"
        assert [doc.text for doc in (kb.get("."), kb.get("a.b"))] == ["dots only", "dotted"]

    def test_directory_named_txt_is_unreadable(self, tmp_path):
        (tmp_path / "sub.txt").mkdir()
        with pytest.raises(KnowledgeError) as exc:
            load_kb_dir("kb", tmp_path)
        assert exc.value.code == "KB_UNREADABLE"
        assert str(tmp_path / "sub.txt") in str(exc.value)

    def test_missing_dir(self, tmp_path):
        with pytest.raises(KnowledgeError) as exc:
            load_kb_dir("kb", tmp_path / "nowhere")
        assert exc.value.code == "KB_DIR_MISSING"
        assert str(exc.value).endswith(f"{str(tmp_path / 'nowhere')!r} does not exist")
        (tmp_path / "plain.txt").write_text("a file")
        with pytest.raises(KnowledgeError, match="does not exist$"):
            load_kb_dir("kb", tmp_path / "plain.txt")

    def test_dir_in_a_symlink_loop_says_why_it_cannot_be_opened(self, tmp_path):
        (tmp_path / "loop").symlink_to(tmp_path / "loop")
        with pytest.raises(KnowledgeError) as exc:
            load_kb_dir("kb", tmp_path / "loop")
        assert exc.value.code == "KB_DIR_MISSING"
        assert str(exc.value).endswith(f"cannot be opened: {os.strerror(errno.ELOOP)}")

    @pytest.mark.skipif(not hasattr(os, "geteuid") or os.geteuid() == 0, reason="root reads any directory")
    def test_unreadable_dir_says_why_it_cannot_be_opened(self, tmp_path):
        locked = tmp_path / "locked"
        locked.mkdir()
        locked.chmod(0)
        try:
            with pytest.raises(KnowledgeError) as exc:
                load_kb_dir("kb", locked)
        finally:
            locked.chmod(0o700)
        assert exc.value.code == "KB_DIR_MISSING"
        assert str(exc.value).endswith(f"cannot be opened: {os.strerror(errno.EACCES)}")

    def test_non_utf8_file_is_coded_error(self, tmp_path):
        (tmp_path / "bad.txt").write_bytes(b"\xff\xfe not utf-8")
        with pytest.raises(KnowledgeError) as exc:
            load_kb_dir("kb", tmp_path)
        assert exc.value.code == "KB_UNREADABLE"
        assert str(tmp_path / "bad.txt") in str(exc.value)



@pytest.fixture
def loaded(monkeypatch):
    """An empty table of loaded knowledge bases for one test."""
    table: dict = {}
    monkeypatch.setattr(marco.knowledge, "_LOADED", table)
    return table


HOUR_NS = 3600 * 10**9


def settle(probe: Path) -> None:
    """Wait until a file written from now on gets a later timestamp than
    every file written so far, as it would an hour later: write ``probe``
    until its timestamp moves past its first one."""
    probe.write_bytes(b"x")
    first = probe.stat().st_ctime_ns
    while True:
        probe.write_bytes(b"x")
        if probe.stat().st_ctime_ns > first:
            return


def clean_clock(monkeypatch, probe: Path) -> None:
    """Make every load's stat snapshot clean: the knowledge module's clock
    runs an hour ahead, and each load first settles the file system, so an
    edit after the load moves a timestamp as an edit an hour later would."""
    monkeypatch.setattr(marco.knowledge, "time_ns", lambda: settle(probe) or time.time_ns() + HOUR_NS)


def racy_clock(monkeypatch) -> None:
    """Make every load's stat snapshot racy: the knowledge module's clock
    reads the epoch, so no timestamp is older than the racy bound."""
    monkeypatch.setattr(marco.knowledge, "time_ns", lambda: 0)


@pytest.fixture
def clean(monkeypatch, tmp_path_factory):
    """Every load's stat snapshot clean."""
    clean_clock(monkeypatch, tmp_path_factory.mktemp("clock") / "probe")


@pytest.fixture
def searches(monkeypatch):
    """Every token search and, within the first of a build, "build", in order."""
    calls = []
    real_build = KnowledgeBase._build_corpus
    real_search = KnowledgeBase._search
    monkeypatch.setattr(KnowledgeBase, "_build_corpus", lambda kb: calls.append("build") or real_build(kb))
    monkeypatch.setattr(KnowledgeBase, "_search", lambda kb, token: calls.append(token) or real_search(kb, token))
    return calls


@pytest.fixture
def built(monkeypatch):
    """The id of every ``Document`` the knowledge module builds, in order."""
    ids = []
    real = Document
    monkeypatch.setattr(marco.knowledge, "Document", lambda id, **fields: ids.append(id) or real(id, **fields))
    return ids


def write_kb(directory, files: dict[str, str]) -> None:
    directory.mkdir(exist_ok=True)
    for path in directory.glob("*.txt"):
        if path.stem not in files:
            path.unlink()
    for stem, text in files.items():
        (directory / f"{stem}.txt").write_text(text, encoding="utf-8")


def ranked(kb: KnowledgeBase, query: str, k: int = 9) -> list[tuple[str, str, float]]:
    return [(doc.id, doc.text, score) for doc, score in retrieve(kb, query, k)]


def note_bytes(directory: Path) -> list[bytes]:
    """Every ``.txt`` file's bytes, from whole-file reads, in name order."""
    files = sorted(path for path in directory.iterdir() if path.name.endswith(".txt"))
    return [path.read_bytes() for path in files]


def kept_bytes(kb: KnowledgeBase) -> list[bytes]:
    """The bytes a loaded knowledge base keeps of each note, in name order."""
    return [note.data for note in kb._notes.values()]


def open_fds() -> int:
    return len(os.listdir("/proc/self/fd"))


BUFFER = 1 << 16  # the reader's buffer size


class TestLoadKbDirReads:
    """Every file is read to its end through one reused buffer."""

    @pytest.mark.parametrize("size", [0, 1, BUFFER - 1, BUFFER, BUFFER + 1, 200_003])
    def test_sizes_around_the_buffer_read_whole_each_load(self, tmp_path, loaded, size):
        body = bytes(b"abcdefghij \n"[i % 12] for i in range(size))
        (tmp_path / "big.txt").write_bytes(body)
        (tmp_path / "small.txt").write_bytes(b"after")
        kb = load_kb_dir("kb", tmp_path)
        assert kb.get("big").text == body.decode() and kb.get("small").text == "after"
        assert kept_bytes(loaded["kb"].kb) == note_bytes(tmp_path)
        assert load_kb_dir("kb", tmp_path) is kb  # a second read gives the same bytes
        (tmp_path / "big.txt").write_bytes(body + b"x")
        assert load_kb_dir("kb", tmp_path).get("big").text == body.decode() + "x"
        assert kept_bytes(loaded["kb"].kb) == note_bytes(tmp_path)

    @pytest.mark.parametrize("char", ["\u00e9", "\u20ac", "\U0001f600"])
    @pytest.mark.parametrize("boundary", [BUFFER, 2 * BUFFER])
    def test_character_split_across_the_buffer_boundary(self, tmp_path, loaded, char, boundary):
        text = "a" * (boundary - 1) + char + "tail"
        (tmp_path / "split.txt").write_text(text, encoding="utf-8")
        assert load_kb_dir("kb", tmp_path).get("split").text == text
        assert kept_bytes(loaded["kb"].kb) == note_bytes(tmp_path)

    def test_sub_directory_is_unreadable_on_a_reload(self, tmp_path, loaded):
        write_kb(tmp_path, {"a": "slack", "y": "clock"})
        load_kb_dir("kb", tmp_path)
        (tmp_path / "x.txt").mkdir()
        with pytest.raises(KnowledgeError) as exc:
            load_kb_dir("kb", tmp_path)
        assert exc.value.code == "KB_UNREADABLE"
        assert str(tmp_path / "x.txt") in str(exc.value)

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
    @pytest.mark.parametrize("cached", [False, True], ids=["decoding", "reload"])
    def test_no_descriptor_left_open_after_an_unreadable_file(self, tmp_path, loaded, cached):
        write_kb(tmp_path, {"a": "slack", "z": "clock"})
        if cached:
            load_kb_dir("kb", tmp_path)
        (tmp_path / "m.txt").mkdir()
        before = open_fds()
        with pytest.raises(KnowledgeError) as exc:
            load_kb_dir("kb", tmp_path)
        assert exc.value.code == "KB_UNREADABLE"
        assert open_fds() == before
        (tmp_path / "m.txt").rmdir()
        (tmp_path / "m.txt").write_bytes(b"\xff not utf-8")
        with pytest.raises(KnowledgeError):
            load_kb_dir("kb", tmp_path)
        assert open_fds() == before

    def test_directory_renamed_during_the_load_is_read_whole(self, tmp_path, loaded, monkeypatch):
        directory = tmp_path / "kb"
        write_kb(directory, {"a": "first", "b": "second"})
        real_open = os.open
        swapped = []

        def swap_then_open(path, *args, **kwargs):
            if str(path).endswith(".txt") and not swapped:  # the first file, after the listing
                swapped.append(directory.rename(tmp_path / "moved"))
                write_kb(directory, {"a": "other", "b": "other"})
            return real_open(path, *args, **kwargs)

        monkeypatch.setattr(os, "open", swap_then_open)
        kb = load_kb_dir("kb", directory)
        assert swapped
        assert [kb.get(doc_id).text for doc_id in kb.ids()] == ["first", "second"]


class TestLoadKbDirReuse:
    """A load of byte-identical files returns the last build under its name.

    Every stat snapshot here is racy, so each load is checked by its bytes;
    ``TestLoadKbDirReuseOnCleanSnapshots`` runs the same tests on clean ones.
    """

    @pytest.fixture(autouse=True)
    def snapshots(self, monkeypatch):
        racy_clock(monkeypatch)

    def test_unchanged_directory_returns_the_same_knowledge_base(self, tmp_path, loaded, searches):
        write_kb(tmp_path, {"a": "slack margin", "b": "slack slack clock"})
        first = load_kb_dir("kb", tmp_path)
        assert ranked(first, "slack") == [("b", "slack slack clock", 2.0), ("a", "slack margin", 1.0)]
        assert searches == ["slack", "build"]
        second = load_kb_dir("kb", tmp_path)
        assert second is first
        assert ranked(second, "slack") == ranked(first, "slack")
        assert ranked(second, "clock") == [("b", "slack slack clock", math.log(3 / 2) + 1.0)]
        assert searches == ["slack", "build", "clock"]  # no second build, no second "slack"
        assert len(loaded) == 1

    def test_same_size_rewrite_returns_a_new_knowledge_base(self, tmp_path, loaded):
        write_kb(tmp_path, {"a": "slack", "b": "clock"})
        first = load_kb_dir("kb", tmp_path)
        assert load_kb_dir("kb", tmp_path) is first
        write_kb(tmp_path, {"a": "stack", "b": "clock"})
        second = load_kb_dir("kb", tmp_path)
        assert second is not first and second.get("a").text == "stack"
        assert first.get("a").text == "slack"  # a knowledge base a run holds never changes
        assert load_kb_dir("kb", tmp_path) is second

    def test_one_note_rewrite_reads_each_note_once_and_keeps_the_others(self, tmp_path, loaded, monkeypatch):
        write_kb(tmp_path, {"a": "slack one", "b": "clock two", "c": "tags: x\nskew three"})
        first = load_kb_dir("kb", tmp_path)
        assert load_kb_dir("kb", tmp_path) is first
        rewrite_same_size_keeping_mtime(tmp_path / "a.txt")
        opened = spy_opens(monkeypatch)
        kb = load_kb_dir("kb", tmp_path)
        assert opened == ["a.txt", "b.txt", "c.txt"]
        assert kb is not first and kb.get("a").text == "slbck one"
        assert kb.get("b") is first.get("b") and kb.get("c") is first.get("c")
        assert documents(kb) == oracle_kb_dir(tmp_path)

    def test_same_size_rewrite_with_mtime_restored_rebuilds(self, tmp_path, loaded, searches):
        write_kb(tmp_path, {"a": "slack one", "b": "clock two"})
        assert [doc_id for doc_id, _, _ in ranked(load_kb_dir("kb", tmp_path), "slack")] == ["a"]
        path = tmp_path / "a.txt"
        before = os.stat(path)
        path.write_text("clock one", encoding="utf-8")
        os.utime(path, ns=(before.st_atime_ns, before.st_mtime_ns))
        assert os.stat(path).st_size == before.st_size and os.stat(path).st_mtime_ns == before.st_mtime_ns
        kb = load_kb_dir("kb", tmp_path)
        assert kb.get("a").text == "clock one"
        assert ranked(kb, "slack") == []
        assert [doc_id for doc_id, _, _ in ranked(kb, "clock")] == ["a", "b"]
        assert searches == ["slack", "build", "slack", "build", "clock"]

    @pytest.mark.parametrize(
        "edit, ids",
        [
            (lambda d: (d / "c.txt").write_text("slack three", encoding="utf-8"), ["a", "b", "c"]),
            (lambda d: (d / "b.txt").unlink(), ["a"]),
            (lambda d: (d / "b.txt").rename(d / "c.txt"), ["a", "c"]),
            (lambda d: (d / "b.txt").rename(d / "b.md"), ["a"]),
        ],
        ids=["added", "removed", "renamed", "renamed-away"],
    )
    def test_listing_change_rebuilds(self, tmp_path, loaded, searches, edit, ids):
        write_kb(tmp_path, {"a": "slack one", "b": "slack two"})
        assert len(ranked(load_kb_dir("kb", tmp_path), "slack")) == 2
        edit(tmp_path)
        kb = load_kb_dir("kb", tmp_path)
        assert kb.ids() == ids
        assert [doc_id for doc_id, _, _ in ranked(kb, "slack")] == ids
        assert searches == ["slack", "build"] * 2

    def test_bytes_moved_across_a_file_boundary_never_share(self, tmp_path, loaded, searches):
        write_kb(tmp_path, {"a": "ab", "b": "c"})
        assert ranked(load_kb_dir("kb", tmp_path), "ab") == [("a", "ab", math.log(3 / 2) + 1.0)]
        write_kb(tmp_path, {"a": "a", "b": "bc"})
        kb = load_kb_dir("kb", tmp_path)
        assert [kb.get("a").text, kb.get("b").text] == ["a", "bc"]
        assert ranked(kb, "ab") == []
        assert searches == ["ab", "build"] * 2

    def test_same_bytes_under_another_name_carry_that_name(self, tmp_path, loaded):
        write_kb(tmp_path, {"a": "slack"})
        assert [load_kb_dir(name, tmp_path).name for name in ("one", "two", "one", "two")] == ["one", "two"] * 2
        assert sorted(loaded) == ["one", "two"]

    def test_file_turned_non_utf8_after_a_cached_load_is_unreadable(self, tmp_path, loaded):
        write_kb(tmp_path, {"a": "slack", "bad": "fine"})
        retrieve(load_kb_dir("kb", tmp_path), "slack", k=1)
        (tmp_path / "bad.txt").write_bytes(b"\xff\xfe")
        with pytest.raises(KnowledgeError) as exc:
            load_kb_dir("kb", tmp_path)
        assert exc.value.code == "KB_UNREADABLE"
        assert str(tmp_path / "bad.txt") in str(exc.value)

    def test_several_directories_under_one_name_keep_one_entry(self, tmp_path, loaded, searches):
        dirs = [tmp_path / name for name in ("x", "y", "z")]
        for i, directory in enumerate(dirs):
            write_kb(directory, {"a": "slack " * (i + 1)})
            assert ranked(load_kb_dir("kb", directory), "slack")[0][0] == "a"
        assert list(loaded) == ["kb"]
        assert ranked(load_kb_dir("kb", dirs[-1]), "slack")[0][0] == "a"  # the last build is the one kept
        assert searches == ["slack", "build"] * 3

    def test_cold_load_of_ascii_notes_decodes_none_and_hashes_nothing(self, tmp_path, loaded, built, monkeypatch):
        write_kb(tmp_path, {"a": "slack one", "b": "tags: x\nclock two", "c": "skew\r\nthree", "d": "\u0130 four"})
        hashed = []
        real_sha256 = hashlib.sha256
        monkeypatch.setattr(hashlib, "sha256", lambda *args: hashed.append(args) or real_sha256(*args))
        kb = load_kb_dir("kb", tmp_path)
        assert len(kb) == 4 and kb.ids() == ["a", "b", "c", "d"]
        assert built == ["d"]  # decoded at the load, so a note that is not UTF-8 fails it
        assert kb.token_count("b", "clock") == 1 and kb.token_count("b", "x") == 0 and kb.token_count("c", "three") == 1
        assert built == ["d"] and hashed == []
        assert documents(kb) == oracle_kb_dir(tmp_path)
        assert built == ["d", "a", "b", "c"]
        assert all(kb.get(doc_id) is kb.get(doc_id) for doc_id in kb.ids())
        assert built == ["d", "a", "b", "c"]  # each built once

    def test_retrieve_builds_the_top_k_documents_only(self, tmp_path, loaded, built):
        write_kb(tmp_path, {f"n{i}": "slack " * (i % 3 + 1) + "clock" for i in range(9)})
        kb = load_kb_dir("kb", tmp_path)
        assert [doc.id for doc, _ in retrieve(kb, "slack clock", 2)] == ["n2", "n5"]
        assert built == ["n2", "n5"]
        assert [doc.id for doc, _ in retrieve(kb, "clock", 9)] == [f"n{i}" for i in range(9)]
        assert sorted(built) == [f"n{i}" for i in range(9)]

    def test_reload_after_an_edit_builds_no_document_for_the_unchanged_notes(self, tmp_path, loaded, built):
        write_kb(tmp_path, {"a": "slack one", "b": "clock two", "c": "tags: x\nskew three"})
        first = load_kb_dir("kb", tmp_path)
        first_b = first.get("b")
        (tmp_path / "a.txt").write_text("slack one more", encoding="utf-8")
        kb = load_kb_dir("kb", tmp_path)
        assert kb is not first and built == ["b"]
        assert kb.get("b") is first_b and kb.get("c") is first.get("c")
        assert built == ["b", "c"]  # one build of "c", shared by both knowledge bases
        assert kb.get("a").text == "slack one more" and first.get("a").text == "slack one"

    @settings(max_examples=200, deadline=None)
    @given(
        states=st.lists(
            st.dictionaries(
                st.sampled_from("abcd"),
                st.tuples(
                    st.sampled_from(["", "", "tags: a\n", "tags: b, ab\r\n", "tags:\r", "tags: a"]),
                    st.text(alphabet="ab \n\r\u0130", max_size=6),
                ).map("".join),
                max_size=4,
            ),
            min_size=1, max_size=3,
        ),
        order=st.lists(st.integers(min_value=0, max_value=2), min_size=1, max_size=6),
    )
    def test_reused_retrieval_equals_a_fresh_build(self, states, order):
        """Loaded notes enter the corpus as their bytes, documents given whole
        as their texts; both give the same documents and the same ranking."""
        marco.knowledge._LOADED.pop("reuse", None)
        with tempfile.TemporaryDirectory() as root:
            directory = Path(root) / "kb"
            for step in order:
                write_kb(directory, states[step % len(states)])
                kb = load_kb_dir("reuse", directory)
                fresh = KnowledgeBase("reuse", [Document(*doc) for doc in oracle_kb_dir(directory)])
                for query in ("a", "b ab", "ba a", "i ab i", "tags"):
                    assert ranked(kb, query) == ranked(fresh, query)
                assert [kb.get(doc_id) for doc_id in kb.ids()] == [fresh.get(doc_id) for doc_id in fresh.ids()]


class TestLoadKbDirReuseOnCleanSnapshots(TestLoadKbDirReuse):
    """The reuse tests with every stat snapshot clean, so a load after an
    edit is checked by its bytes only because a stat key moved."""

    @pytest.fixture(autouse=True)
    def snapshots(self, monkeypatch, tmp_path_factory):
        clean_clock(monkeypatch, tmp_path_factory.mktemp("clock") / "probe")

    # Hypothesis runs a property from one class only; TestSnapshotMatchesNaiveReader covers clean loads.
    test_reused_retrieval_equals_a_fresh_build = None


class StatView:
    """A stat result whose timestamps are passed through ``times``."""

    def __init__(self, result, times):
        self._result, self._times = result, times

    def __getattr__(self, name):
        value = getattr(self._result, name)
        return self._times(value) if name in ("st_mtime_ns", "st_ctime_ns") else value


class OsView:
    """The ``os`` module as a module sees it once patched in, with every stat
    result's timestamps passed through ``times``; nothing else sees them."""

    def __init__(self, times):
        self._times = times

    def __getattr__(self, name):
        return getattr(os, name)

    def stat(self, *args, **kwargs):
        return StatView(os.stat(*args, **kwargs), self._times)

    def fstat(self, fd):
        return StatView(os.fstat(fd), self._times)


def documents(kb: KnowledgeBase) -> list[tuple[str, str, tuple[str, ...]]]:
    return [(doc.id, doc.text, doc.tags) for doc in map(kb.get, kb.ids())]


def spy_opens(monkeypatch) -> list[str]:
    """The name of every ``.txt`` file opened from now on, in order."""
    opened: list[str] = []
    real_open = os.open

    def spied_open(path, *args, **kwargs):
        if str(path).endswith(".txt"):
            opened.append(str(path))
        return real_open(path, *args, **kwargs)

    monkeypatch.setattr(os, "open", spied_open)
    return opened


def rewrite_same_size_keeping_mtime(path: Path) -> None:
    before = os.stat(path)
    path.write_bytes(path.read_bytes().translate(bytes.maketrans(b"ab", b"ba")))
    os.utime(path, ns=(before.st_atime_ns, before.st_mtime_ns))
    assert os.stat(path).st_size == before.st_size and os.stat(path).st_mtime_ns == before.st_mtime_ns


def replace_directory(directory: Path) -> None:
    """Move the directory away and put a copy at its path, one note rewritten
    in the same size with its mtime kept."""
    moved = directory.with_name(directory.name + "-old")
    directory.rename(moved)
    shutil.copytree(moved, directory)  # copies each mtime
    rewrite_same_size_keeping_mtime(directory / "a.txt")


class TestLoadKbDirSnapshot:
    """An unchanged directory is served from a clean stat snapshot; any
    change, and any racy snapshot, is checked by the files' bytes."""

    def test_clean_unchanged_load_lists_and_opens_nothing(self, tmp_path, loaded, clean, monkeypatch):
        write_kb(tmp_path, {"a": "slack one", "b": "clock two"})
        first = load_kb_dir("kb", tmp_path)
        assert loaded["kb"].clean
        opened, listed = spy_opens(monkeypatch), []
        real_listdir = os.listdir
        monkeypatch.setattr(os, "listdir", lambda *args: listed.append(args) or real_listdir(*args))
        assert load_kb_dir("kb", tmp_path) is first
        assert opened == [] and listed == []

    @pytest.mark.parametrize(
        "edit",
        [
            lambda d: rewrite_same_size_keeping_mtime(d / "a.txt"),
            lambda d: (d / "b.txt").rename(d / "c.txt"),
            lambda d: (d / "c.txt").write_text("slack three", encoding="utf-8"),
            lambda d: (d / "b.txt").unlink(),
            replace_directory,
        ],
        ids=["same-size-mtime-kept", "renamed", "added", "removed", "directory-replaced"],
    )
    def test_clean_snapshot_of_an_edited_directory_is_checked_by_bytes(self, tmp_path, loaded, clean, monkeypatch, edit):
        directory = tmp_path / "kb"
        write_kb(directory, {"a": "slack one", "b": "clock two"})
        first = load_kb_dir("kb", directory)
        assert loaded["kb"].clean
        edit(directory)
        opened = spy_opens(monkeypatch)
        kb = load_kb_dir("kb", directory)
        assert kb is not first and documents(kb) == oracle_kb_dir(directory)
        assert set(opened) == {name for name in os.listdir(directory) if name.endswith(".txt")}  # read them all

    def test_clean_snapshot_follows_a_note_linked_into_another_directory(self, tmp_path, loaded, clean):
        """Editing or removing a linked note's target leaves the knowledge
        base's directory as it was; the next load sees the edit, and a removed
        target is the note's ``KB_UNREADABLE``, not the last knowledge base."""
        directory, elsewhere = tmp_path / "kb", tmp_path / "elsewhere"
        write_kb(directory, {"a": "slack one"})
        write_kb(elsewhere, {"target": "clock two"})
        (directory / "b.txt").symlink_to(elsewhere / "target.txt")
        first = load_kb_dir("kb", directory)
        (elsewhere / "target.txt").write_text("clock three", encoding="utf-8")
        assert loaded["kb"].clean
        edited = load_kb_dir("kb", directory)
        assert edited is not first and edited.get("b").text == "clock three"
        (elsewhere / "target.txt").unlink()
        assert loaded["kb"].clean
        with pytest.raises(KnowledgeError) as exc:
            load_kb_dir("kb", directory)
        assert exc.value.code == "KB_UNREADABLE"
        assert f"knowledge base file {str(directory / 'b.txt')!r} is unreadable: " in str(exc.value)

    def test_racy_snapshot_is_checked_by_bytes_when_stat_repeats_its_key(self, tmp_path, loaded, monkeypatch):
        racy_clock(monkeypatch)
        write_kb(tmp_path, {"a": "slack one", "b": "clock two"})
        first = load_kb_dir("kb", tmp_path)
        assert not loaded["kb"].clean
        recorded = {name: os.stat(tmp_path / name) for name in ("a.txt", "b.txt")}
        assert loaded["kb"].keys == array("q", chain(*map(marco.knowledge._stat_key, recorded.values())))
        (tmp_path / "a.txt").write_text("stack one", encoding="utf-8")
        real_stat = os.stat
        monkeypatch.setattr(
            os, "stat", lambda path, *args, **kwargs: recorded.get(path) or real_stat(path, *args, **kwargs)
        )
        kb = load_kb_dir("kb", tmp_path)
        assert kb is not first and kb.get("a").text == "stack one"

    @pytest.mark.parametrize(
        "fraction, age_ms, clean",
        [(250, 900, False), (250, 1100, True), (0, 1100, False), (0, 2900, False), (0, 3100, True)],
    )
    def test_whole_second_timestamps_use_the_three_second_bound(
        self, tmp_path, loaded, monkeypatch, fraction, age_ms, clean
    ):
        write_kb(tmp_path, {"a": "slack", "b": "clock"})

        def times(ns: int) -> int:
            return ns - ns % 10**9 + fraction * 10**6

        newest = max(times(t) for path in (tmp_path, tmp_path / "a.txt", tmp_path / "b.txt")
                     for t in (os.stat(path).st_mtime_ns, os.stat(path).st_ctime_ns))
        monkeypatch.setattr(marco.knowledge, "os", OsView(times))
        monkeypatch.setattr(marco.gateway, "os", OsView(times))  # read_file's fstat of each note
        monkeypatch.setattr(marco.knowledge, "time_ns", lambda: newest + age_ms * 10**6)
        load_kb_dir("kb", tmp_path)
        assert loaded["kb"].clean is clean


SPECIAL_NOTE = """
import os, resource, sys
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))  # a read without end stops at 1 GB
from marco.errors import KnowledgeError
from marco.knowledge import load_kb_dir
directory, kind, cached = sys.argv[1:]
if cached == "cached":
    load_kb_dir("kb", directory)
path = os.path.join(directory, "x.txt")
os.mkfifo(path) if kind == "fifo" else os.symlink("/dev/zero", path)
try:
    load_kb_dir("kb", directory)
except KnowledgeError as exc:
    print(exc)
"""


@pytest.mark.skipif(not hasattr(os, "mkfifo") or not os.path.exists("/dev/zero"), reason="needs FIFOs and /dev/zero")
@pytest.mark.parametrize("cached", ["fresh", "cached"])
@pytest.mark.parametrize("kind", ["fifo", "device"])
def test_note_that_is_not_a_regular_file_fails_fast(tmp_path, kind, cached):
    """A FIFO would block the open and a device would be read without end,
    so the load runs in a child process that a hang fails instead of stalls."""
    (tmp_path / "a.txt").write_text("slack", encoding="utf-8")
    env = {**os.environ, "PYTHONPATH": str(Path(marco.knowledge.__file__).parents[1])}
    proc = subprocess.run(
        [sys.executable, "-c", SPECIAL_NOTE, str(tmp_path), kind, cached],
        capture_output=True, text=True, timeout=10, env=env,
    )
    path = os.path.join(tmp_path, "x.txt")
    assert proc.stdout == f"KB_UNREADABLE: knowledge base file {path!r} is unreadable: not a regular file\n"


# The edits the snapshot property draws, each applied to (directory, note, other note, text);
# it draws "rewrite" twice as often, as a same-size rewrite is the edit a stat can miss.
NOTES = "abcl"  # "l" is a symbolic link to one of two notes outside the directory


def _link(directory: Path, target: str) -> None:
    staged = directory / "l.staged"
    staged.symlink_to(directory.parent / "targets" / target)
    os.replace(staged, directory / "l.txt")


def _existing(directory: Path, note: str) -> Path | None:
    path = directory / f"{note}.txt"
    return path if os.path.lexists(path) else None


SNAPSHOT_EDITS = {
    "rewrite": lambda d, n, o, t: (p := _existing(d, n)) and rewrite_same_size_keeping_mtime(p),
    "resize": lambda d, n, o, t: (p := _existing(d, n)) and p.write_bytes(p.read_bytes() + b"a"),
    "add": lambda d, n, o, t: _existing(d, n) or (_link(d, "t0") if n == "l" else (d / f"{n}.txt").write_text(t, "utf-8")),
    "remove": lambda d, n, o, t: (p := _existing(d, n)) and p.unlink(),
    "rename": lambda d, n, o, t: (p := _existing(d, n)) and os.replace(p, d / f"{o}.txt"),
    "replace": lambda d, n, o, t: (d.rename(m := d.with_name(f"old{time.monotonic_ns()}")),
                                   shutil.copytree(m, d, symlinks=True)),
    "retarget": lambda d, n, o, t: _link(d, "t1" if os.path.islink(d / "l.txt") and
                                         os.readlink(d / "l.txt").endswith("t0") else "t0"),
}
TEXTS = ["a", "ab b", "tags: a,b\nba", "b\r\na", "İa", ""]  # each but the last changes when a and b swap


class TestSnapshotMatchesNaiveReader:
    """Loads after edits, on a simulated clock that makes each snapshot
    clean or racy, with the timestamps of a 250 Hz kernel clock (4 ms ticks)
    or of a 1 s file system: every load gives the naive reader's documents,
    and the last load's knowledge base exactly when the bytes are unchanged."""

    @settings(max_examples=100, deadline=None)
    @given(
        coarse=st.booleans(),
        initial=st.dictionaries(st.sampled_from("abc"), st.sampled_from(TEXTS), min_size=1, max_size=3),
        steps=st.lists(
            st.tuples(
                st.lists(st.tuples(st.sampled_from(["rewrite", *SNAPSHOT_EDITS]), st.sampled_from(NOTES),
                                   st.sampled_from(NOTES), st.sampled_from(TEXTS)), max_size=2),
                st.booleans(),  # wait before the load
            ),
            min_size=1, max_size=6,
        ),
    )
    def test_loads_match_the_naive_reader(self, coarse, initial, steps):
        granularity = 10**9 if coarse else 4 * 10**6
        clock = {"now": 1_700_000_000_123_456_789, "edit": 1_700_000_000_123_456_789}
        seen: dict[int, int] = {}  # real timestamp -> the simulated one, fixed when first seen

        def simulated(ns: int) -> int:
            # A timestamp first seen came from an edit since the last load, so
            # it is dated at the last edit; an unchanged one keeps its date.
            return seen.setdefault(ns, clock["edit"] - clock["edit"] % granularity)

        with tempfile.TemporaryDirectory() as root, pytest.MonkeyPatch.context() as patch:
            directory, probe = Path(root) / "kb", Path(root) / "probe"
            (Path(root) / "targets").mkdir()
            for target, text in (("t0", "ab"), ("t1", "tags: b\nba")):
                (Path(root) / "targets" / target).write_text(text, encoding="utf-8")
            write_kb(directory, initial)
            _link(directory, "t0")
            patch.setattr(marco.knowledge, "_LOADED", {})
            patch.setattr(marco.knowledge, "os", OsView(simulated))
            patch.setattr(marco.gateway, "os", OsView(simulated))  # read_file's fstat of each note
            patch.setattr(marco.knowledge, "time_ns", lambda: clock["now"])
            previous = previous_bytes = None
            opened = spy_opens(patch)
            for edits, wait in steps:
                for op, note, other, text in edits:
                    SNAPSHOT_EDITS[op](directory, note, other, text)
                    clock["now"] += 10**6  # a millisecond an edit: within a second of the last load
                    clock["edit"] = clock["now"]
                if wait:
                    clock["now"] += 10 * 10**9  # older than either racy bound: a clean snapshot
                opened.clear()
                kb = load_kb_dir("prop", directory)
                assert len(opened) == len(set(opened))  # no note opened twice in one load
                settle(probe)  # a later edit gets a real timestamp not seen yet
                assert documents(kb) == oracle_kb_dir(directory)
                current = [(p.name, p.read_bytes()) for p in sorted(directory.glob("*.txt"))]
                assert (kb is previous) == (current == previous_bytes)
                previous, previous_bytes = kb, current


def msg(role: str, content: str) -> ChatMessage:
    return ChatMessage(role=role, content=content)


class TestMemoryWindow:
    def test_under_limit_unchanged(self):
        messages = [msg("system", "s"), msg("user", "u"), msg("assistant", "a")]
        assert apply_window(messages, MemoryWindow(max_messages=10)) == messages

    def test_system_pinned_rest_trimmed(self):
        messages = [msg("system", "s")] + [msg("user", f"u{i}") for i in range(9)]
        trimmed = apply_window(messages, MemoryWindow(max_messages=4))
        assert trimmed == [messages[0]] + messages[-3:]

    def test_idempotent(self):
        messages = [msg("system", "s")] + [msg("user", f"u{i}") for i in range(9)]
        window = MemoryWindow(max_messages=4)
        once = apply_window(messages, window)
        assert apply_window(once, window) == once

    def test_no_system_keeps_tail(self):
        messages = [msg("user", f"u{i}") for i in range(5)]
        assert apply_window(messages, MemoryWindow(max_messages=2)) == messages[-2:]

    def test_window_of_one_keeps_system_only(self):
        messages = [msg("system", "s"), msg("user", "u1"), msg("user", "u2")]
        assert apply_window(messages, MemoryWindow(max_messages=1)) == [messages[0]]

    def test_window_needs_a_message(self):
        with pytest.raises(ValueError):
            MemoryWindow(max_messages=0)

    @settings(max_examples=60, deadline=None)
    @given(
        with_system=st.booleans(),
        body=st.lists(st.sampled_from(["user", "assistant"]), max_size=12),
        max_messages=st.integers(min_value=1, max_value=12),
    )
    def test_bounded_ordered_idempotent(self, with_system, body, max_messages):
        messages = [msg("system", "s")] if with_system else []
        messages += [msg(role, f"m{i}") for i, role in enumerate(body)]
        window = MemoryWindow(max_messages=max_messages)
        out = apply_window(messages, window)
        assert len(out) <= max_messages
        positions = [messages.index(m) for m in out]
        assert positions == sorted(positions)
        assert apply_window(out, window) == out

    def test_tool_round_evicted_as_a_unit(self):
        call = ToolCallRequest(id="c1", tool_name="t")
        messages = [
            msg("system", "s"),
            msg("user", "u"),
            ChatMessage(role="assistant", tool_calls=(call,)),
            ChatMessage(role="tool", content="r", tool_call_id="c1"),
            msg("assistant", "a"),
        ]
        assert apply_window(messages, MemoryWindow(max_messages=3)) == [messages[0], messages[4]]
        assert apply_window(messages, MemoryWindow(max_messages=4)) == [messages[0]] + messages[2:]

    @settings(max_examples=200, deadline=None)
    @given(
        with_system=st.booleans(),
        body=st.lists(st.one_of(st.sampled_from(["user", "assistant"]), st.integers(1, 3)), max_size=10),
        max_messages=st.integers(min_value=1, max_value=12),
    )
    def test_no_orphan_tool_reply(self, with_system, body, max_messages):
        """An integer in ``body`` is a tool round: an assistant message
        requesting that many calls, then one tool reply per call."""
        messages = [msg("system", "s")] if with_system else []
        for i, part in enumerate(body):
            if isinstance(part, str):
                messages.append(msg(part, f"m{i}"))
                continue
            calls = tuple(ToolCallRequest(id=f"c{i}_{j}", tool_name="t") for j in range(part))
            messages.append(ChatMessage(role="assistant", content=f"m{i}", tool_calls=calls))
            messages += [ChatMessage(role="tool", content=f"r{i}_{j}", tool_call_id=c.id) for j, c in enumerate(calls)]
        window = MemoryWindow(max_messages=max_messages)
        out = apply_window(messages, window)
        assert len(out) <= max_messages
        requested = set()
        for message in out:
            requested.update(c.id for c in message.tool_calls)
            if message.role == "tool":
                assert message.tool_call_id in requested
        assert apply_window(out, window) == out
